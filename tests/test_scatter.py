import math

import numpy as np
import pytest

from nullmargin import compute_scatter, fisher_value
from nullmargin.errors import DataValidationError, UndefinedFisherValueError

from conftest import make_table


def loop_scatter(features, labels):
    """Independent O(n^2 d^2)-style oracle straight from the definitions."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    d = features.shape[1]
    m = features.mean(axis=0)
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for cls in np.unique(labels):
        rows = features[labels == cls]
        m_i = rows.mean(axis=0)
        for x in rows:
            s_w += np.outer(x - m_i, x - m_i)
        s_b += len(rows) * np.outer(m_i - m, m_i - m)
    return s_b, s_w, m


def dense(stats):
    """Explicit d x d (S_w, S_b) from the factored statistics."""
    return (
        stats.within_factor.T @ stats.within_factor,
        stats.between_factor.T @ stats.between_factor,
    )


def four_point_table():
    # Two horizontal pairs: class 0 at y=0, class 1 at y=2.
    return make_table(
        [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]],
        cameras=[0, 1, 0, 1],
        identities=[0, 0, 1, 1],
    )


def test_hand_example_matches_oracle():
    table = four_point_table()
    stats = compute_scatter(table)
    got_w, got_b = dense(stats)
    np.testing.assert_allclose(got_w, [[4.0, 0.0], [0.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(got_b, [[0.0, 0.0], [0.0, 4.0]], atol=1e-12)
    np.testing.assert_allclose(stats.global_mean, [1.0, 1.0])
    s_b, s_w, m = loop_scatter(table.features, [0, 0, 1, 1])
    np.testing.assert_allclose(got_w, s_w, atol=1e-12)
    np.testing.assert_allclose(got_b, s_b, atol=1e-12)


def test_singleton_classes_zero_within():
    table = make_table([[1.0, 2.0], [5.0, -1.0]], cameras=[0, 1], identities=[0, 1])
    s_w, _ = dense(compute_scatter(table))
    assert np.all(s_w == 0)


def test_all_identical_samples():
    table = make_table([[3.0, 3.0]] * 4, cameras=[0, 1, 0, 1], identities=[0, 0, 1, 1])
    s_w, s_b = dense(compute_scatter(table))
    assert np.all(s_w == 0) and np.all(s_b == 0)


def test_st_decomposition_and_trace(rng_seed=17):
    rng = np.random.default_rng(rng_seed)
    feats = rng.standard_normal((30, 6))
    labels = rng.integers(0, 5, size=30)
    table = make_table(feats, cameras=np.zeros(30, int), identities=[int(v) for v in labels])
    stats = compute_scatter(table)
    s_w, s_b = dense(stats)
    centered = feats - feats.mean(axis=0)
    s_t = centered.T @ centered
    np.testing.assert_allclose(s_t, s_b + s_w, rtol=0, atol=1e-10 * np.linalg.norm(s_t))
    assert math.isclose(stats.trace_within + stats.trace_between, np.trace(s_t), rel_tol=1e-10)
    assert stats.class_counts.sum() == 30


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((12, 4))
    labels = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]
    table = make_table(feats, cameras=np.zeros(12, int), identities=labels)
    perm = rng.permutation(12)
    shuffled = make_table(feats[perm], np.zeros(12, int), [labels[i] for i in perm])
    a, b = dense(compute_scatter(table)), dense(compute_scatter(shuffled))
    np.testing.assert_allclose(a[0], b[0], atol=1e-12)
    np.testing.assert_allclose(a[1], b[1], atol=1e-12)


def test_rank_bounds():
    rng = np.random.default_rng(5)
    n, c, d = 15, 4, 20
    labels = [i % c for i in range(n)]
    table = make_table(rng.standard_normal((n, d)), np.zeros(n, int), labels)
    stats = compute_scatter(table)
    s_w, s_b = dense(stats)
    tol = 1e-9
    rank_w = np.sum(np.linalg.eigvalsh(s_w) > tol * stats.trace_within)
    rank_b = np.sum(np.linalg.eigvalsh(s_b) > tol * stats.trace_between)
    assert rank_w <= n - c
    assert rank_b <= c - 1


def test_single_class_and_empty_errors():
    table = make_table([[1.0], [2.0]], cameras=[0, 1], identities=[0, 0])
    with pytest.raises(DataValidationError):
        compute_scatter(table)
    with pytest.raises(DataValidationError):
        compute_scatter(table.subset([]))


def test_unlabeled_rows_rejected():
    table = make_table([[1.0], [2.0]], cameras=[0, 1], identities=[0, None])
    with pytest.raises(DataValidationError):
        compute_scatter(table)


def test_fisher_values_on_hand_example():
    stats = compute_scatter(four_point_table())
    assert fisher_value(stats, np.array([0.0, 1.0])) == math.inf
    assert fisher_value(stats, np.array([1.0, 0.0])) == 0.0
    diag = np.array([1.0, 1.0]) / math.sqrt(2)
    # (w' S_b w) / (w' S_w w) = 2 / 2 = 1
    assert math.isclose(fisher_value(stats, diag), 1.0)


def test_fisher_undefined_direction():
    # Data spans only the xy-plane; e_z kills both quadratic forms.
    table = make_table(
        [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [2.0, 2.0, 0.0]],
        cameras=[0, 1, 0, 1],
        identities=[0, 0, 1, 1],
    )
    stats = compute_scatter(table)
    with pytest.raises(UndefinedFisherValueError):
        fisher_value(stats, np.array([0.0, 0.0, 1.0]))


def test_fisher_requires_unit_norm():
    stats = compute_scatter(four_point_table())
    with pytest.raises(DataValidationError):
        fisher_value(stats, np.array([0.0, 2.0]))
