import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from nullmargin import KernelSpec, fit_nkmmc, gram, project_kernel, resolve_bandwidth
from nullmargin.errors import DataValidationError, ZeroDistanceError
from nullmargin.kmmc import (
    EIG_POS_TOL,
    K_JITTER,
    KernelDiscriminantModel,
    _margin_operator,
    _solve_generalized,
)

RBF = KernelSpec("rbf", 1.0)


def two_blob_points(rng, per_class=3, dim=2, gap=6.0):
    a = rng.standard_normal((per_class, dim)) * 0.3
    b = rng.standard_normal((per_class, dim)) * 0.3 + gap
    points = np.vstack([a, b])
    labels = np.array([0] * per_class + [1] * per_class)
    return points, labels


def test_bandwidth_two_points():
    assert resolve_bandwidth(np.array([[0.0, 0.0], [2.0, 0.0]])) == 2.0


def test_bandwidth_collinear():
    got = resolve_bandwidth(np.array([[0.0], [1.0], [2.0]]))
    assert np.isclose(got, 4.0 / 3.0)


def test_bandwidth_matches_double_loop():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((50, 4))
    dists = []
    for i in range(50):
        for j in range(i + 1, 50):
            dists.append(np.linalg.norm(pts[i] - pts[j]))
    assert resolve_bandwidth(pts) == np.mean(dists)


def test_bandwidth_identical_points():
    with pytest.raises(ZeroDistanceError):
        resolve_bandwidth(np.ones((4, 3)))


def test_gram_rbf_diagonal_ones():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((6, 3))
    k = gram(pts, pts, RBF)
    np.testing.assert_allclose(np.diag(k), 1.0)


def test_gram_rbf_wide_bandwidth_limit():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((5, 3))   # distances ~ 1
    k = gram(pts, pts, KernelSpec("rbf", 1e8))
    assert k.min() >= 1 - 1e-15


def test_gram_rbf_psd():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((10, 4))
    k = gram(pts, pts, RBF)
    evals = np.linalg.eigvalsh((k + k.T) / 2)
    assert evals.min() >= -1e-10 * evals.max()


def test_gram_linear_is_dot():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((3, 5)), rng.standard_normal((7, 5))
    np.testing.assert_allclose(gram(a, b, KernelSpec("linear")), a @ b.T)


def test_gram_dimension_mismatch():
    with pytest.raises(DataValidationError):
        gram(np.ones((2, 3)), np.ones((2, 4)), RBF)


def cdist_gram(a, b, bandwidth):
    return np.exp(-cdist(a, b, "sqeuclidean") / (2.0 * bandwidth**2))


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_gram_rbf_matches_cdist(offset):
    # The GEMM distances of points far from the origin lose nothing, since
    # both sets are centred first.
    rng = np.random.default_rng(40)
    a = rng.standard_normal((7, 5)) + offset
    b = rng.standard_normal((9, 5)) + offset
    kernel = KernelSpec("rbf", 2.0)
    np.testing.assert_allclose(gram(a, b, kernel), cdist_gram(a, b, 2.0), rtol=1e-12, atol=0)
    np.testing.assert_allclose(gram(b, b, kernel), cdist_gram(b, b, 2.0), rtol=1e-12, atol=0)


def test_gram_rbf_far_query_is_exactly_zero():
    rng = np.random.default_rng(41)
    b = rng.standard_normal((6, 3))
    far = np.vstack([b[:1], np.full((1, 3), 1e3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = gram(far, b, RBF)
    assert np.all(k[1] == 0.0)
    assert k[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_gram_rbf_self_diagonal_and_range():
    # Rows offset from the origin and one repeated row, at the bandwidth a
    # fit would resolve: every self and repeat entry is 1 within 1e-15, and
    # no entry leaves [0, 1] (some squared self-distances round below 0).
    rng = np.random.default_rng(42)
    pts = rng.standard_normal((40, 7)) * 3.0 + 1e3
    pts[5] = pts[2]
    k = gram(pts, pts, KernelSpec("rbf", resolve_bandwidth(pts)))
    assert np.abs(np.diag(k) - 1.0).max() <= 1e-15
    assert abs(k[2, 5] - 1.0) <= 1e-15 and abs(k[5, 2] - 1.0) <= 1e-15
    assert k.min() >= 0.0 and k.max() <= 1.0


def test_gram_rbf_empty_queries():
    b = np.random.default_rng(43).standard_normal((4, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = gram(np.empty((0, 3)), b, RBF)
    assert k.shape == (0, 4)


def rank_deficient_points(seed):
    """12 weighted classes in 3 dimensions: the linear Gram has rank 3, so the
    solve returns 9 vectors that live mostly in the jitter."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((12, 3)), np.arange(12), rng.integers(1, 5, 12).astype(float)


@pytest.mark.parametrize(
    "fixture", ["weighted-16", "weighted-17", "weighted-18", "rank-deficient-0", "rank-deficient-1"]
)
def test_energies_from_k_orthonormality_match_direct_products(fixture):
    # Oracle: the K- and K_j-energies formed as products with the Gram, and
    # the rule they fed, k_energy > 0.5 * kj_energy, then positivity.
    name, seed = fixture.rsplit("-", 1)
    if name == "weighted":
        points, labels, counts = class_points(int(seed))
        kernel = KernelSpec("rbf", "auto")
    else:
        points, labels, counts = rank_deficient_points(int(seed))
        kernel = KernelSpec("linear")
    model = fit_nkmmc(points, labels, kernel, counts)
    k = gram(points, points, model.resolved_kernel())
    k = (k + k.T) / 2
    eps = K_JITTER * float(counts @ np.diag(k)) / counts.sum()
    k_j = k + np.diag(eps / counts)
    evals, vectors = _solve_generalized(_margin_operator(k, labels, counts), k_j)
    k_energy = np.einsum("jk,jk->k", vectors, k @ vectors)
    kj_energy = np.einsum("jk,jk->k", vectors, k_j @ vectors)
    kept = evals[k_energy > 0.5 * kj_energy]
    kept = kept[kept > EIG_POS_TOL * abs(kept[0])]
    assert model.eigenvalues.tobytes() == kept.tobytes()
    if name == "rank-deficient":
        assert model.output_dim == 3
        assert np.count_nonzero(evals > EIG_POS_TOL * evals[0]) > 3   # the filter decides
    norms = np.einsum("jk,jl,lk->k", model.coeffs, k, model.coeffs)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-9)


def test_fit_separates_two_classes_linear():
    rng = np.random.default_rng(5)
    points, labels = two_blob_points(rng)
    model = fit_nkmmc(points, labels, KernelSpec("linear"))
    assert model.output_dim >= 1
    first = project_kernel(model, points)[:, 0]
    assert first[labels == 0].max() < first[labels == 1].min() or \
        first[labels == 1].max() < first[labels == 0].min()


def test_fit_single_class_rejected():
    with pytest.raises(DataValidationError):
        fit_nkmmc(np.ones((3, 2)), [1, 1, 1], RBF)


def test_fit_no_positive_eigenvalues():
    from nullmargin.errors import EmptyModelError

    # Both classes share the same mean, so the between-means term vanishes
    # and the margin operator is negative semidefinite.
    points = np.array([[-1.0], [1.0], [-2.0], [2.0]])
    labels = [0, 0, 1, 1]
    with pytest.raises(EmptyModelError):
        fit_nkmmc(points, labels, KernelSpec("linear"))


def test_unit_kernel_norm_constraint():
    rng = np.random.default_rng(6)
    points, labels = two_blob_points(rng, per_class=5, dim=3)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"))
    k = gram(points, points, model.resolved_kernel())
    for j in range(model.output_dim):
        a = model.coeffs[:, j]
        assert abs(a @ k @ a - 1.0) < 1e-6


def test_rayleigh_optimality_monte_carlo():
    rng = np.random.default_rng(7)
    points, labels = two_blob_points(rng, per_class=4, dim=3)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"))
    k = gram(points, points, model.resolved_kernel())
    s = _margin_operator(k, labels)
    top = model.coeffs[:, 0]
    best_fit = top @ s @ top
    r = rng.standard_normal((len(points), 1000))
    norms = np.sqrt(np.einsum("jk,jl,lk->k", r, k, r))
    r = r / norms
    random_best = np.einsum("jk,jl,lk->k", r, s, r).max()
    assert best_fit >= random_best - 1e-8 * abs(best_fit)


def test_generalized_eigen_residual():
    rng = np.random.default_rng(8)
    points, labels = two_blob_points(rng, per_class=6, dim=4)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"))
    k = gram(points, points, model.resolved_kernel())
    k = (k + k.T) / 2
    s = _margin_operator(k, labels)
    m = len(points)
    k_j = k + 1e-8 * (np.trace(k) / m) * np.eye(m)
    s_norm = np.linalg.norm(s, 2)
    for j in range(model.output_dim):
        a = model.coeffs[:, j]
        resid = np.linalg.norm(s @ a - model.eigenvalues[j] * (k_j @ a))
        assert resid <= 1e-6 * s_norm * np.linalg.norm(a)


def test_k_orthogonality_of_discriminants():
    rng = np.random.default_rng(9)
    points, labels = two_blob_points(rng, per_class=6, dim=4)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"))
    k = gram(points, points, model.resolved_kernel())
    cross = model.coeffs.T @ k @ model.coeffs
    off = cross - np.diag(np.diag(cross))
    assert np.abs(off).max() <= 1e-6


def test_projection_single_point_model():
    t = np.array([[1.0, -2.0]])
    model = KernelDiscriminantModel(
        train_points=t,
        kernel=KernelSpec("rbf", 0.5),
        resolved_bandwidth=0.5,
        coeffs=np.array([[3.5]]),
        eigenvalues=np.array([1.0]),
        class_index=np.array([0]),
    )
    np.testing.assert_allclose(project_kernel(model, t[0]), [3.5])


def test_projection_batch_equals_gram_product():
    rng = np.random.default_rng(10)
    points, labels = two_blob_points(rng, per_class=4, dim=3)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"))
    batch = project_kernel(model, points)
    k = gram(points, points, model.resolved_kernel())
    np.testing.assert_allclose(batch, k @ model.coeffs, atol=1e-12)
    loop = np.array([
        [
            sum(model.coeffs[j, c] * k[i, j] for j in range(len(points)))
            for c in range(model.output_dim)
        ]
        for i in range(len(points))
    ])
    np.testing.assert_allclose(batch, loop, atol=1e-10)


def test_projection_far_point_decays():
    rng = np.random.default_rng(11)
    points, labels = two_blob_points(rng, per_class=3, dim=2)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"))
    far = np.full(2, 1e6)
    out = project_kernel(model, far)
    assert np.linalg.norm(out) <= 1e-6 * np.linalg.norm(model.coeffs)


def test_projection_row_permutation_invariance():
    rng = np.random.default_rng(12)
    points, labels = two_blob_points(rng, per_class=4, dim=3)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"))
    perm = rng.permutation(len(points))
    permuted = KernelDiscriminantModel(
        train_points=model.train_points[perm],
        kernel=model.kernel,
        resolved_bandwidth=model.resolved_bandwidth,
        coeffs=model.coeffs[perm],
        eigenvalues=model.eigenvalues,
        class_index=model.class_index[perm],
    )
    x = rng.standard_normal((5, 3))
    np.testing.assert_allclose(project_kernel(model, x), project_kernel(permuted, x), atol=1e-12)


def test_eigenvector_set_invariant_under_operator_scaling():
    rng = np.random.default_rng(13)
    points, labels = two_blob_points(rng, per_class=5, dim=3)
    k = gram(points, points, KernelSpec("rbf", 2.0))
    k = (k + k.T) / 2
    s = _margin_operator(k, labels)
    m = len(points)
    k_j = k + 1e-8 * (np.trace(k) / m) * np.eye(m)
    evals_a, vecs_a = _solve_generalized(s, k_j)
    evals_b, vecs_b = _solve_generalized(3.7 * s, k_j)
    np.testing.assert_allclose(evals_b, 3.7 * evals_a, rtol=1e-9, atol=1e-12)
    # same eigenvector set up to sign
    for j in range(m):
        a, b = vecs_a[:, j], vecs_b[:, j]
        sign = 1.0 if a @ b >= 0 else -1.0
        np.testing.assert_allclose(b, sign * a, atol=1e-7 * max(1.0, np.abs(a).max()))


def test_margin_witness_on_separable_fixture():
    rng = np.random.default_rng(14)
    points, labels = two_blob_points(rng, per_class=8, dim=4)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"))
    proj = project_kernel(model, points)
    intra, inter = [], []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = np.linalg.norm(proj[i] - proj[j])
            (intra if labels[i] == labels[j] else inter).append(d)
    assert np.mean(inter) >= np.mean(intra)


# ---------------------------------------------------------------------------
# Row multiplicities: point j standing for mu_j identical rows
# ---------------------------------------------------------------------------

KERNELS = {
    "rbf-auto": KernelSpec("rbf", "auto"),
    "rbf-fixed": KernelSpec("rbf", 1.7),
    "linear": KernelSpec("linear"),
}


def class_points(seed, classes=9):
    """One point per class in general position in c-1 dimensions, the shape
    of the null-space class points, with unequal row counts 1..4."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((classes, classes - 1)) * 2.0
    counts = rng.integers(1, 5, classes)
    counts[:2] = (1, 4)
    labels = 10 * np.arange(classes) + 3
    return points, labels, counts


def test_bandwidth_with_multiplicities():
    # rows 0, 2, 2: pairs (0,2), (0,2), (2,2) -> mean 4/3
    got = resolve_bandwidth(np.array([[0.0], [2.0]]), np.array([1, 2]))
    assert np.isclose(got, 4.0 / 3.0)


@pytest.mark.parametrize("bad", [[1, 1], [1, 0, 1], [1, np.nan, 1], [1, np.inf, 1]])
def test_invalid_multiplicities_rejected(bad):
    points = np.array([[0.0], [1.0], [3.0]])
    with pytest.raises(DataValidationError):
        fit_nkmmc(points, [0, 1, 2], RBF, bad)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_weighted_fit_equals_expanded_fit(name):
    kernel = KERNELS[name]
    for seed in range(5):
        points, labels, counts = class_points(seed)
        rows = np.repeat(np.arange(len(points)), counts)
        weighted = fit_nkmmc(points, labels, kernel, counts)
        expanded = fit_nkmmc(points[rows], labels[rows], kernel)
        assert weighted.output_dim == expanded.output_dim
        np.testing.assert_allclose(weighted.eigenvalues, expanded.eigenvalues, rtol=1e-9, atol=0)
        assert weighted.resolved_bandwidth == pytest.approx(expanded.resolved_bandwidth, rel=1e-12)
        x = np.random.default_rng(100 + seed).standard_normal((30, points.shape[1])) * 2.0
        expected = pdist(project_kernel(expanded, x))
        np.testing.assert_allclose(
            pdist(project_kernel(weighted, x)), expected, rtol=0, atol=1e-9 * expected.max()
        )


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_unit_multiplicities_change_nothing(name):
    rng = np.random.default_rng(15)
    points, labels = two_blob_points(rng, per_class=7, dim=3)
    plain = fit_nkmmc(points, labels, KERNELS[name])
    ones = fit_nkmmc(points, labels, KERNELS[name], np.ones(len(points)))
    assert ones.coeffs.tobytes() == plain.coeffs.tobytes()
    assert ones.eigenvalues.tobytes() == plain.eigenvalues.tobytes()
    assert ones.resolved_bandwidth == plain.resolved_bandwidth


def test_weighted_operator_is_centred_class_scatter():
    # One point per class: Q = 0 and P = K (diag(w) - w w^T) K, w = n_i / n.
    points, labels, counts = class_points(16)
    k = gram(points, points, RBF)
    w = counts / counts.sum()
    expected = k @ (np.diag(w) - np.outer(w, w)) @ k
    np.testing.assert_allclose(_margin_operator(k, labels, counts), expected, atol=1e-14)


def test_weighted_normalisation_and_eigen_residual():
    points, labels, counts = class_points(17)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"), counts)
    k = gram(points, points, model.resolved_kernel())
    k = (k + k.T) / 2
    s = _margin_operator(k, labels, counts)
    eps = K_JITTER * float(counts @ np.diag(k)) / counts.sum()
    k_j = k + eps * np.diag(1.0 / counts)
    norms = np.einsum("jk,jl,lk->k", model.coeffs, k, model.coeffs)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)
    s_norm = np.linalg.norm(s, 2)
    for j in range(model.output_dim):
        g = model.coeffs[:, j]
        resid = np.linalg.norm(s @ g - model.eigenvalues[j] * (k_j @ g))
        assert resid <= 1e-6 * s_norm * np.linalg.norm(g)


def test_weighted_rayleigh_optimality_monte_carlo():
    rng = np.random.default_rng(18)
    points, labels, counts = class_points(18)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"), counts)
    k = gram(points, points, model.resolved_kernel())
    s = _margin_operator(k, labels, counts)
    top = model.coeffs[:, 0]
    r = rng.standard_normal((len(points), 2000))
    r /= np.sqrt(np.einsum("jk,jl,lk->k", r, k, r))
    random_best = np.einsum("jk,jl,lk->k", r, s, r).max()
    assert top @ s @ top >= random_best - 1e-8 * abs(top @ s @ top)
