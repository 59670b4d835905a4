import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import nullmargin.nfst
import nullmargin.selftrain
from nullmargin import (
    LoopConfig,
    NullSpaceState,
    SyntheticSpec,
    fit_nfst,
    fit_nk3ml,
    generate_synthetic,
    project_null,
    run_self_training,
)
from nullmargin._blas import span_coefficients
from nullmargin.dataio import concat_tables
from nullmargin.errors import DataValidationError, DegenerateDataError
from nullmargin.kmmc import _fix_column_signs
from nullmargin.nfst import NULL_TOL, NullProjector, compute_scatter

from conftest import make_table
from test_scatter import fisher_value, loop_scatter, trace_within, within_quadratic


def random_sss_table(rng, classes, per_class, dim):
    feats = rng.standard_normal((classes * per_class, dim))
    labels = [c for c in range(classes) for _ in range(per_class)]
    cams = [j % 2 for c in range(classes) for j in range(per_class)]
    return make_table(feats, cams, labels)


def test_minimal_two_singletons():
    table = make_table(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], cameras=[0, 1], identities=[0, 1]
    )
    proj, _ = fit_nfst(table)
    assert proj.w_n.shape == (3, 1)
    a, b = project_null(proj, table.features)
    assert abs(a[0] - b[0]) > 1e-8


def test_collapse_two_classes():
    rng = np.random.default_rng(2)
    table = random_sss_table(rng, classes=2, per_class=2, dim=10)
    proj, _ = fit_nfst(table)
    assert proj.w_n.shape == (10, 1)
    stats = compute_scatter(table)
    w = proj.w_n[:, 0]
    assert within_quadratic(stats, w) <= 1e-8 * trace_within(stats) / 10
    outs = project_null(proj, table.features)[:, 0]
    assert abs(outs[0] - outs[1]) < 1e-8
    assert abs(outs[2] - outs[3]) < 1e-8


def test_five_classes_singular_points():
    rng = np.random.default_rng(3)
    table = random_sss_table(rng, classes=5, per_class=3, dim=50)
    proj, _ = fit_nfst(table)
    assert proj.w_n.shape == (50, 4)
    np.testing.assert_allclose(proj.w_n.T @ proj.w_n, np.eye(4), atol=1e-8)
    projected = project_null(proj, table.features)
    points = [projected[table.label_values() == c].mean(axis=0) for c in range(5)]
    # all class points distinct, checked pairwise by brute force
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.linalg.norm(points[i] - points[j]) > 1e-6
        cls_rows = projected[table.label_values() == i]
        assert np.linalg.norm(cls_rows - points[i], axis=1).max() < 1e-8


def test_npd_constraints_against_loop_oracle():
    rng = np.random.default_rng(4)
    table = random_sss_table(rng, classes=4, per_class=3, dim=40)
    proj, _ = fit_nfst(table)
    s_b, s_w, _ = loop_scatter(table.features, table.label_values())
    d = table.dim
    for k in range(proj.w_n.shape[1]):
        w = proj.w_n[:, k]
        assert w @ s_w @ w <= 1e-8 * np.trace(s_w) / d
        assert w @ s_b @ w > 0


def test_npd_is_fisher_infinite():
    rng = np.random.default_rng(5)
    table = random_sss_table(rng, classes=3, per_class=2, dim=20)
    proj, _ = fit_nfst(table)
    stats = compute_scatter(table)
    for k in range(proj.w_n.shape[1]):
        assert fisher_value(stats, proj.w_n[:, k]) == math.inf


def test_projection_centering_and_linearity():
    rng = np.random.default_rng(6)
    table = random_sss_table(rng, classes=3, per_class=2, dim=15)
    proj, _ = fit_nfst(table)
    np.testing.assert_allclose(project_null(proj, proj.mean[None]), 0.0, atol=1e-12)
    x1, x2 = rng.standard_normal((2, 1, 15))
    a = 0.3
    lhs = project_null(proj, a * x1 + (1 - a) * x2)
    rhs = a * project_null(proj, x1) + (1 - a) * project_null(proj, x2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_zero_within_variance_property():
    rng = np.random.default_rng(7)
    table = random_sss_table(rng, classes=6, per_class=4, dim=60)
    proj, _ = fit_nfst(table)
    projected = project_null(proj, table.features)
    labels = table.label_values()
    within = sum(
        float(np.sum((projected[labels == c] - projected[labels == c].mean(axis=0)) ** 2))
        for c in range(6)
    )
    total = float(np.sum(projected ** 2))
    assert within <= 1e-8 * total


def test_degenerate_data_raises():
    # 5 classes in the plane: the within-class scatter fills the whole span,
    # leaving no null directions.
    rng = np.random.default_rng(8)
    table = random_sss_table(rng, classes=5, per_class=3, dim=2)
    with pytest.raises(DegenerateDataError) as excinfo:
        fit_nfst(table)
    counts = re.search(r"found (\d+) null directions, expected (\d+)", str(excinfo.value))
    assert int(counts[1]) < int(counts[2])


def test_between_vector_in_within_span_raises():
    # Class 1 is class 0 moved by 3u along its own within-class direction u:
    # the between-class vector's residual off the within-class span is
    # rounding noise, which counts as no null direction.
    rng = np.random.default_rng(36)
    a, u = rng.standard_normal((2, 30))
    b = a + 3.0 * u
    table = make_table(np.vstack([a, a + u, b, b + u]), [0, 1, 0, 1], [0, 0, 1, 1])
    expected = "not in general position: found 0 null directions, expected 1"
    with pytest.raises(DegenerateDataError, match=expected):
        fit_nfst(table)


def test_tiny_within_spread_stays_out_of_null_space():
    # Class 1's within-class spread along e3 is tiny but real: e3 belongs to
    # the within-class span, so the single null direction is e2 alone.
    eps = 1e-6
    feats = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 10.0, 0.0],
            [1.0, 10.0, eps],
        ]
    )
    table = make_table(feats, cameras=[0, 1, 0, 1], identities=[0, 0, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        proj, _ = fit_nfst(table)
    assert proj.w_n.shape == (3, 1)
    within = compute_scatter(table).within_factor
    norms = np.linalg.norm(within, axis=1)
    assert np.all(np.abs(within @ proj.w_n[:, 0]) <= 1e-12 * norms)


def sized_table(rng, sizes, dim, duplicate=False):
    """Classes of the given sizes; with duplicate, the last row of the first
    class of size >= 2 repeats its first row."""
    feats = rng.standard_normal((sum(sizes), dim))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    if duplicate:
        cls = next(k for k, size in enumerate(sizes) if size >= 2)
        rows = np.flatnonzero(labels == cls)
        feats[rows[-1]] = feats[rows[0]]
    order = rng.permutation(len(labels))                  # classes interleaved
    return make_table(feats[order], labels[order] % 2, [int(v) for v in labels[order]])


def null_range_projector(features, labels):
    """Projector onto null(S_w) ∩ range(S_t) from SVDs of the dense scatters."""
    s_b, s_w, _ = loop_scatter(features, labels)
    u, sv, _ = np.linalg.svd(s_b + s_w)
    range_t = u[:, sv > 1e-10 * sv[0]]                     # orthonormal range(S_t)
    _, sv_w, vt = np.linalg.svd(s_w @ range_t)
    rank_w = int(np.count_nonzero(sv_w > 1e-10 * sv_w[0])) if sv_w.size else 0
    basis = range_t @ vt[rank_w:].T
    return basis @ basis.T


def two_eigh_null_basis(table):
    """Null-space basis by the centered-span construction: an orthonormal basis
    U of the centered rows, then the null space of U^T S_w U."""
    stats = compute_scatter(table)
    centered = table.features - stats.global_mean
    basis = centered.T @ span_coefficients(centered @ centered.T, table.dim)
    projected = stats.within_factor @ basis
    _, evecs = np.linalg.eigh(projected.T @ projected)
    return basis @ evecs[:, : len(stats.class_labels) - 1]


def pairwise(points):
    return np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dim_offset", [9, -2])
def test_null_space_against_dense_oracle(seed, dim_offset):
    # dim_offset -2: d < n with a duplicated row, so the n-1 distinct rows
    # still leave c-1 null directions; 9: d > n.
    rng = np.random.default_rng(100 + seed)
    sizes = [1, 1] + list(rng.integers(1, 6, size=6))
    n = sum(sizes)
    table = sized_table(rng, sizes, dim=n + dim_offset, duplicate=True)
    proj, _ = fit_nfst(table)
    c = len(sizes)
    assert proj.w_n.shape == (table.dim, c - 1)
    oracle = null_range_projector(table.features, table.label_values())
    np.testing.assert_allclose(proj.w_n @ proj.w_n.T, oracle, atol=1e-9)

    ref = pairwise((table.features - proj.mean) @ two_eigh_null_basis(table))
    got = pairwise(project_null(proj, table.features))
    assert np.abs(got - ref).max() <= 1e-9 * ref.max()


def test_fix_column_signs_matches_column_loop():
    def loop(matrix):
        for j in range(matrix.shape[1]):
            col = matrix[:, j]
            nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max(initial=0.0))
            if nz.size and col[nz[0]] < 0:
                matrix[:, j] = -col

    rng = np.random.default_rng(11)
    for _ in range(200):
        m, k = rng.integers(1, 9, size=2)
        matrix = rng.standard_normal((m, k))
        matrix[: rng.integers(0, m + 1)] = 0.0               # zero leading entries
        matrix[rng.random((m, k)) < 0.2] *= 1e-14             # insignificant entries
        matrix[:, rng.random(k) < 0.15] = 0.0                 # all-zero columns
        expected = matrix.copy()
        loop(expected)
        _fix_column_signs(matrix)
        assert matrix.tobytes() == expected.tobytes()


def test_deterministic_fit():
    rng = np.random.default_rng(9)
    table = random_sss_table(rng, classes=4, per_class=2, dim=30)
    a, _ = fit_nfst(table)
    b, _ = fit_nfst(table)
    assert a.w_n.tobytes() == b.w_n.tobytes()


# ---------------------------------------------------------------------------
# NullSpaceState: appending whole classes against a from-scratch fit
# ---------------------------------------------------------------------------

def assert_same_null_space(got, want, rows):
    """Equal projectors W W^T and pairwise null-space distances of rows."""
    np.testing.assert_allclose(got.w_n @ got.w_n.T, want.w_n @ want.w_n.T, rtol=0, atol=1e-9)
    ref = pairwise(project_null(want, rows))
    assert np.abs(pairwise(project_null(got, rows)) - ref).max() <= 1e-9 * ref.max()


def loop_tables(offset=0.0):
    """Labeled and unlabeled tables of the loop fixture, every feature moved
    by offset. Three cameras: labeled classes have 3 rows, pseudo-classes 2,
    so every round appends new within-class directions to the held basis."""
    table = generate_synthetic(SyntheticSpec(
        identities=40, cameras=3, dim=160, per_camera_transform_strength=0.3,
        noise_sigma=0.3, seed=4,
    ))
    table = replace(table, features=table.features + offset)
    labeled_rows = [r for r in range(table.n) if table.identities[r] < 8]
    unlabeled_rows = [r for r in range(table.n) if table.identities[r] >= 8]
    unlabeled = replace(table.subset(unlabeled_rows), identities=[None] * len(unlabeled_rows))
    return table.subset(labeled_rows), unlabeled


def test_state_matches_scratch_fit_on_every_loop_round(monkeypatch):
    labeled, unlabeled = loop_tables()

    fits = []
    real_fit = nullmargin.selftrain.fit_nk3ml

    def recording_fit(new, kernel, state):
        # each round's table holds only classes the state does not hold yet
        assert not np.isin(new.label_values(), state.labels).any()
        model = real_fit(new, kernel, state)
        fits.append((new, model.nullproj, state.basis.shape[1]))
        return model

    monkeypatch.setattr(nullmargin.selftrain, "fit_nk3ml", recording_fit)
    run_self_training(labeled, unlabeled, LoopConfig())
    assert len(fits) >= 4
    ranks = [rank for _, _, rank in fits]
    assert ranks == sorted(ranks) and ranks[-1] > ranks[0]
    for round_ in range(len(fits)):
        current = concat_tables(*(new for new, _, _ in fits[: round_ + 1]))
        fresh = NullSpaceState(current.dim)
        assert_same_null_space(fits[round_][1], fit_nfst(current, fresh)[0], current.features)
        # the kept rank scale cuts as a factor of all rows so far would
        assert ranks[round_] == fresh.basis.shape[1]


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_kept_gram_and_between_trace_match_direct_forms_on_every_loop_round(monkeypatch, offset):
    # The kept H against R^T R of the kept residuals, the residuals against
    # the means' residuals off Q, and the projector's cut NULL_TOL * trace(S_b)
    # against the d-wide sum. A +1e3 offset on every feature makes each
    # |m_i|^2 about 1.6e8 against a between-class trace of about 3e2 per row,
    # which the norm identity cancels unless the state's origin removes it.
    labeled, unlabeled = loop_tables(offset)
    cuts = []
    real_cholesky = nullmargin.nfst._pivoted_cholesky

    def recording_cholesky(gram, tol):
        cuts.append(tol)
        return real_cholesky(gram, tol)

    rounds = []
    real_fit = nullmargin.selftrain.fit_nk3ml

    def checking_fit(new, kernel, state):
        model = real_fit(new, kernel, state)
        shifted = state.means - state.origin
        expected = shifted.T - state.basis @ (state.basis.T @ shifted.T)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(state.residuals, expected, rtol=0, atol=1e-12 * scale)
        weights = state.counts / state.n
        between = float(state.counts @ np.square(state.means - weights @ state.means).sum(axis=1))
        # the projector's factor is the fit's last
        assert cuts[-1] == pytest.approx(NULL_TOL * between, rel=1e-12, abs=0)
        drift = np.abs(state.gram - state.residuals.T @ state.residuals).max()
        assert drift <= 1e-3 * cuts[-1]
        rounds.append(len(state.labels))
        return model

    monkeypatch.setattr(nullmargin.nfst, "_pivoted_cholesky", recording_cholesky)
    monkeypatch.setattr(nullmargin.selftrain, "fit_nk3ml", checking_fit)
    run_self_training(labeled, unlabeled, LoopConfig())
    assert len(rounds) >= 4 and rounds == sorted(rounds)


def test_repeated_label_raises_and_leaves_state_unchanged():
    rng = np.random.default_rng(31)
    state = NullSpaceState(12)
    state.append_classes(rng.standard_normal((5, 12)), [3, 3, 7, 7, 7])
    held = make_table(rng.standard_normal((4, 12)), [0, 1] * 2, [9, 9, 3, 3])

    def snapshot():
        return {k: (v.tobytes() if isinstance(v, np.ndarray) else v) for k, v in vars(state).items()}

    before = snapshot()
    with pytest.raises(DataValidationError, match="already held"):
        state.append_classes(rng.standard_normal((3, 12)), [9, 9, 7])
    with pytest.raises(DataValidationError, match="already held"):
        fit_nfst(held, state)
    with pytest.raises(DataValidationError, match="shape"):
        fit_nfst(make_table(rng.standard_normal((2, 11)), [0, 1], [9, 9]), state)
    assert snapshot() == before
    fit_nfst(held.subset([0, 1]), state)                     # only the new class appends
    assert state.n == 7 and state.labels.tolist() == [3, 7, 9]


def test_class_in_held_span_adds_no_direction():
    # The new class's one within-class row is a combination of held
    # within-class rows: its residual off Q is rounding noise, which the kept
    # rank scale cuts though it is the residual Gram's own largest eigenvalue.
    rng = np.random.default_rng(33)
    table = random_sss_table(rng, classes=4, per_class=3, dim=40)
    state = NullSpaceState(40)
    fit_nfst(table, state)
    rank = state.basis.shape[1]
    assert rank == 8
    x = table.features
    base = 50.0 * rng.standard_normal(40)
    new_rows = np.vstack([base, base + 0.7 * (x[1] - x[0]) - 1.3 * (x[5] - x[4])])
    grown = make_table(np.vstack([x, new_rows]), [0, 1] * 7, list(table.identities) + [9, 9])
    incremental, _ = fit_nfst(grown.subset([12, 13]), state)
    assert state.basis.shape[1] == rank
    assert_same_null_space(incremental, fit_nfst(grown)[0], grown.features)


def test_later_tiny_spread_is_cut_as_a_scratch_fit_cuts_it():
    # The new class's within-class spread is real but far below the cut a
    # factor of all within-class rows takes: the kept scale cuts it too,
    # where this append's own scale would keep it as a direction.
    rng = np.random.default_rng(37)
    table = random_sss_table(rng, classes=4, per_class=3, dim=40)
    state = NullSpaceState(40)
    fit_nfst(table, state)
    base = rng.standard_normal(40)
    new_rows = np.vstack([base, base + 2e-7 * rng.standard_normal(40)])
    fit_nfst(make_table(new_rows, [0, 1], [9, 9]), state)
    fresh = NullSpaceState(40)
    fresh.append_classes(np.vstack([table.features, new_rows]), list(table.identities) + [9, 9])
    assert state.basis.shape[1] == fresh.basis.shape[1] == 8


def test_singleton_classes_take_the_same_path():
    rng = np.random.default_rng(34)
    x = rng.standard_normal((7, 15))
    table = make_table(x, [0, 1] * 3 + [0], list(range(7)))
    state = NullSpaceState(15)
    fit_nfst(table.subset(range(3)), state)
    incremental, _ = fit_nfst(table.subset(range(3, 7)), state)
    assert state.basis.shape == (15, 0)
    assert incremental.w_n.shape == (15, 6)
    np.testing.assert_allclose(
        incremental.w_n @ incremental.w_n.T, null_range_projector(x, np.arange(7)), atol=1e-9
    )
    assert_same_null_space(incremental, fit_nfst(table)[0], x)


@pytest.mark.parametrize("seed", range(5))
def test_projector_points_are_the_projected_class_means(seed):
    # Oracle for the class points read off the eigensolve: W_N^T (m_i - m)
    # for every held class, column signs included, after each of 4 appends
    # of classes with 1 to 4 rows.
    rng = np.random.default_rng(700 + seed)
    dim = 400
    state = NullSpaceState(dim)
    label = 0
    for _ in range(4):
        counts = rng.integers(1, 5, 12)
        labels = np.repeat(np.arange(label, label + 12), counts)
        label += 12
        centres = 3.0 * rng.standard_normal((12, dim)) + 50.0
        rows = centres[labels - labels[0]] + rng.standard_normal((len(labels), dim))
        proj, points = fit_nfst(make_table(rows, np.arange(len(labels)) % 2, labels.tolist()), state)
        expected = project_null(proj, state.means)
        assert points.shape == expected.shape == (len(state.labels), len(state.labels) - 1)
        np.testing.assert_allclose(points, expected, rtol=0, atol=1e-9 * np.abs(expected).max())


def eigh_projector(state):
    """W_N from the eigendecomposition of R^T R over its c-1 largest eigenpairs."""
    weights = state.counts / state.n
    root = np.sqrt(state.counts)
    residual = (state.residuals - (state.residuals @ weights)[:, None]) * root
    evals, evecs = np.linalg.eigh(residual.T @ residual)
    return NullProjector(w_n=residual @ (evecs[:, 1:] / np.sqrt(evals[1:])), mean=weights @ state.means)


@pytest.mark.parametrize("seed", range(4))
def test_projector_matches_an_eigh_oracle_after_every_append(seed):
    rng = np.random.default_rng(800 + seed)
    dim = 120
    state = NullSpaceState(dim)
    rows = np.zeros((0, dim))
    for round_ in range(4):
        counts = rng.integers(1, 4, 6)
        labels = np.repeat(np.arange(6 * round_, 6 * round_ + 6), counts)
        new = 4.0 * rng.standard_normal((6, dim))[labels - labels[0]]
        new += rng.standard_normal((len(labels), dim))
        rows = np.vstack([rows, new])
        state.append_classes(new, labels)
        proj, _ = state.projector()
        assert proj.w_n.shape == (dim, len(state.labels) - 1)
        np.testing.assert_allclose(proj.w_n.T @ proj.w_n, np.eye(proj.n_directions), atol=1e-10)
        assert_same_null_space(proj, eigh_projector(state), rows)


def test_refit_round_and_span_call_no_eigh(monkeypatch):
    # The span, within-class and null bases all come from pivoted Cholesky
    # factors.
    rng = np.random.default_rng(35)
    table = random_sss_table(rng, classes=12, per_class=3, dim=80)
    state = NullSpaceState(table.dim)
    fit_nk3ml(table.subset(range(18)), state=state)
    callers = []
    real_eigh = np.linalg.eigh

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    fit_nk3ml(table.subset(range(18, 36)), state=state)
    span_coefficients(table.features @ table.features.T, table.dim)
    assert callers == []
