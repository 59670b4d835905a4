import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

import nullmargin.kmmc
from nullmargin import KernelSpec, fit_nkmmc, gram, project_kernel
from nullmargin._blas import pivot_basis, span_coefficients
from nullmargin.errors import DataValidationError, EmptyModelError, NumericalError, ZeroDistanceError
from nullmargin.kmmc import CHOL_TOL, EIG_POS_TOL, KernelDiscriminantModel, _margin_operator

RBF = KernelSpec("rbf", 1.0)


def two_blob_points(rng, per_class=3, dim=2, gap=6.0):
    a = rng.standard_normal((per_class, dim)) * 0.3
    b = rng.standard_normal((per_class, dim)) * 0.3 + gap
    points = np.vstack([a, b])
    labels = np.array([0] * per_class + [1] * per_class)
    return points, labels


def auto_bandwidth(points, classes, multiplicities=None):
    """The bandwidth an 'auto' rbf fit resolves."""
    return fit_nkmmc(points, classes, KernelSpec("rbf", "auto"), multiplicities).resolved_bandwidth


def test_bandwidth_two_points():
    assert auto_bandwidth(np.array([[0.0, 0.0], [2.0, 0.0]]), [0, 1]) == 2.0


def test_bandwidth_collinear():
    got = auto_bandwidth(np.array([[0.0], [1.0], [2.0]]), [0, 1, 2])
    assert np.isclose(got, 4.0 / 3.0)


def test_bandwidth_matches_double_loop():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((50, 4))
    dists = []
    for i in range(50):
        for j in range(i + 1, 50):
            dists.append(np.linalg.norm(pts[i] - pts[j]))
    assert auto_bandwidth(pts, np.arange(50) % 5) == np.mean(dists)


def test_bandwidth_of_repeated_rows_matches_weighted_pdist():
    # Copies of a row sit at distance exactly 0 after the rounding floor, so
    # the rows' mean distance is the pdist mean of the distinct points with
    # each pair weighted by its copies, zero-distance pairs counted.
    rng = np.random.default_rng(44)
    distinct = rng.standard_normal((30, 6)) * 2.0 + 1e3
    copies = rng.integers(1, 5, 30)
    rows = np.repeat(distinct, copies, axis=0)
    i, j = np.triu_indices(30, 1)
    n = copies.sum()
    expected = (pdist(distinct) * copies[i] * copies[j]).sum() / (n * (n - 1) / 2)
    labels = np.arange(30)
    got = auto_bandwidth(rows, np.repeat(labels, copies))
    assert got == pytest.approx(expected, rel=1e-12, abs=0)
    assert auto_bandwidth(distinct, labels, copies) == pytest.approx(expected, rel=1e-12, abs=0)


def test_bandwidth_identical_points():
    with pytest.raises(ZeroDistanceError):
        auto_bandwidth(np.ones((4, 3)), [0, 0, 1, 1])


@pytest.mark.parametrize("bandwidth, valid", [
    (0.0, False), (-1.0, False), (np.nan, False), (np.inf, False), (1e-300, False),
    (1e160, False), (1e-150, True), (1.0, True), (1e150, True),
])
def test_numeric_bandwidth_needs_a_positive_finite_rbf_divisor(bandwidth, valid):
    # 2 * bandwidth^2, the rbf divisor, must be a positive finite float.
    if valid:
        assert KernelSpec("rbf", bandwidth).bandwidth == bandwidth
    else:
        with pytest.raises(DataValidationError, match="bandwidth"):
            KernelSpec("rbf", bandwidth)


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
    k = gram(pts, pts, KernelSpec("rbf", auto_bandwidth(pts, np.arange(40) % 4)))
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
    """12 weighted classes in 3 dimensions: the linear Gram has rank 3, so
    only 3 discriminants lie in range(K)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((12, 3)), np.arange(12), rng.integers(1, 5, 12).astype(float)


def range_oracle(k, labels, counts):
    """Positive eigenvalues of (P - Q, K) on range(K), descending, from an
    independent eigendecomposition of K: with K = V diag(l) V^T over the
    eigenvalues l past K's rank cut, B = V diag(l)^-1/2 has B^T K B = I."""
    lam, vecs = np.linalg.eigh(k)
    big = lam > 1e-10 * lam.max()
    basis = vecs[:, big] / np.sqrt(lam[big])
    evals = np.linalg.eigvalsh(basis.T @ _margin_operator(k, labels, counts) @ basis)[::-1]
    return evals[evals > EIG_POS_TOL * evals[0]]


def criterion_trace(model, k, labels, counts):
    """tr(A^T (P - Q) A) of a model's coefficients A over the Gram k of its
    training points: the margin criterion its kept span attains."""
    return float(np.trace(model.coeffs.T @ _margin_operator(k, labels, counts) @ model.coeffs))


def span_projector(model, k, rows=None):
    """K A A^T K over the distinct points of Gram k: the projector onto a
    model's kept span, between those points. An expanded fit's coefficients
    are summed over each point's copies (rows) first."""
    coeffs = model.coeffs
    if rows is not None:
        coeffs = np.zeros((len(k), model.output_dim))
        np.add.at(coeffs, rows, model.coeffs)
    embedded = k @ coeffs
    return embedded @ embedded.T


@pytest.mark.parametrize(
    "fixture", ["weighted-16", "weighted-17", "weighted-18", "rank-deficient-0", "rank-deficient-1"]
)
def test_energies_from_k_orthonormality_match_direct_products(fixture):
    # Oracle: the pairs of (P - Q, K) on range(K), against both routes: the
    # weighted singletons (kernel PCA, by a pivoted Cholesky basis when it is
    # well conditioned) and the same points expanded to rows that share their
    # class (span coordinates, by eigh). The discriminants are K-orthonormal,
    # a^T K a = I by a direct product with the Gram, the kept span attains
    # the criterion the oracle's energies sum to, and both routes keep the
    # same span: one projector K A A^T K between the distinct points.
    name, seed = fixture.rsplit("-", 1)
    if name == "weighted":
        points, labels, counts = class_points(int(seed))
        kernel = KernelSpec("rbf", "auto")
    else:
        points, labels, counts = rank_deficient_points(int(seed))
        kernel = KernelSpec("linear")
    rows = np.repeat(np.arange(len(points)), counts.astype(int))
    assert len(rows) > len(points)
    weighted = fit_nkmmc(points, labels, kernel, counts)
    expanded = fit_nkmmc(points[rows], labels[rows], kernel)
    k = gram(points, points, weighted.kernel)
    expected = range_oracle(k, labels, counts)
    np.testing.assert_allclose(expanded.eigenvalues, expected, rtol=1e-9, atol=0)
    for model, k_model in ((weighted, k), (expanded, k[np.ix_(rows, rows)])):
        np.testing.assert_allclose(
            model.coeffs.T @ k_model @ model.coeffs, np.eye(model.output_dim), rtol=0, atol=1e-9
        )
        assert np.all(model.eigenvalues > 0) and np.all(np.diff(model.eigenvalues) <= 0)
    assert weighted.output_dim == expanded.output_dim == len(expected)
    assert criterion_trace(weighted, k, labels, counts) == pytest.approx(expected.sum(), rel=1e-9)
    np.testing.assert_allclose(
        span_projector(weighted, k), span_projector(expanded, k, rows), rtol=1e-9, atol=0
    )
    if name == "rank-deficient":
        assert weighted.output_dim == expanded.output_dim == 3    # the rank cut decides
        # K's rank is below c - 1, so the singleton fit fell back to eigh
        np.testing.assert_allclose(weighted.eigenvalues, expected, rtol=1e-9, atol=0)


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
    k = gram(points, points, model.kernel)
    for j in range(model.output_dim):
        a = model.coeffs[:, j]
        assert abs(a @ k @ a - 1.0) < 1e-6


def test_rayleigh_optimality_monte_carlo():
    rng = np.random.default_rng(7)
    points, labels = two_blob_points(rng, per_class=4, dim=3)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"))
    k = gram(points, points, model.kernel)
    s = _margin_operator(k, labels, np.ones(len(labels)))
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
    k = gram(points, points, model.kernel)
    s = _margin_operator(k, labels, np.ones(len(labels)))
    s_norm = np.linalg.norm(s, 2)
    for j in range(model.output_dim):
        a = model.coeffs[:, j]
        resid = np.linalg.norm(s @ a - model.eigenvalues[j] * (k @ a))
        assert resid <= 1e-6 * s_norm * np.linalg.norm(a)


def test_k_orthogonality_of_discriminants():
    rng = np.random.default_rng(9)
    points, labels = two_blob_points(rng, per_class=6, dim=4)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"))
    k = gram(points, points, model.kernel)
    cross = model.coeffs.T @ k @ model.coeffs
    off = cross - np.diag(np.diag(cross))
    assert np.abs(off).max() <= 1e-6


def test_projection_single_point_model():
    t = np.array([[1.0, -2.0]])
    model = KernelDiscriminantModel(
        train_points=t,
        kernel=KernelSpec("rbf", 0.5),
        coeffs=np.array([[3.5]]),
        eigenvalues=np.array([1.0]),
        class_index=np.array([0]),
    )
    np.testing.assert_allclose(project_kernel(model, t), [[3.5]])
    with pytest.raises(DataValidationError, match="rows"):
        project_kernel(model, t[0])             # a single vector is not rows


def test_projection_batch_equals_gram_product():
    rng = np.random.default_rng(10)
    points, labels = two_blob_points(rng, per_class=4, dim=3)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"))
    batch = project_kernel(model, points)
    k = gram(points, points, model.kernel)
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
    far = np.full((1, 2), 1e6)
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
        coeffs=model.coeffs[perm],
        eigenvalues=model.eigenvalues,
        class_index=model.class_index[perm],
    )
    x = rng.standard_normal((5, 3))
    np.testing.assert_allclose(project_kernel(model, x), project_kernel(permuted, x), atol=1e-12)


@pytest.mark.parametrize("labels", [[0, 1, 2, 3], [0, 0, 1, 1]], ids=["singletons", "shared"])
def test_fit_rejects_a_non_finite_kernel_matrix(labels):
    # Both routes: singleton classes (kernel PCA) and shared classes (span
    # coordinates). A linear Gram of finite rows can overflow; a NaN row
    # makes its rbf Gram row NaN, and an auto bandwidth from its distances NaN.
    huge = np.array([[1.0, 0.0], [0.0, 1.0], [1e200, 0.0], [0.0, 2.0]])
    nan = huge.copy()
    nan[2, 0] = np.nan
    for points, kernel in ((huge, KernelSpec("linear")), (nan, RBF), (nan, KernelSpec("rbf", "auto"))):
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="non-finite"):
            fit_nkmmc(points, labels, kernel)


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
    got = auto_bandwidth(np.array([[0.0], [2.0]]), [0, 1], np.array([1, 2]))
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
        # one span: equal projectors over the distinct points, and equal
        # criterion, the sum of the expanded (eigen) fit's eigenvalues
        k = gram(points, points, weighted.kernel)
        np.testing.assert_allclose(
            span_projector(weighted, k), span_projector(expanded, k, rows), rtol=1e-9, atol=0
        )
        assert criterion_trace(weighted, k, labels, counts) == pytest.approx(
            expanded.eigenvalues.sum(), rel=1e-9
        )
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
    # The kept discriminants are K-orthonormal and span an invariant subspace
    # of the pencil (P - Q, K): with M = A^T (P - Q) A, (P - Q) A = K A M,
    # and M's eigenvalues are the oracle's, whatever basis of the span A is.
    points, labels, counts = class_points(17)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"), counts)
    k = gram(points, points, model.kernel)
    s = _margin_operator(k, labels, counts)
    norms = np.einsum("jk,jl,lk->k", model.coeffs, k, model.coeffs)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)
    block = model.coeffs.T @ s @ model.coeffs
    expected = range_oracle(k, labels, counts)
    np.testing.assert_allclose(np.linalg.eigvalsh(block)[::-1], expected, rtol=1e-9, atol=0)
    s_norm = np.linalg.norm(s, 2)
    resid = s @ model.coeffs - k @ model.coeffs @ block
    for j in range(model.output_dim):
        assert np.linalg.norm(resid[:, j]) <= 1e-6 * s_norm * np.linalg.norm(model.coeffs[:, j])


def test_weighted_rayleigh_optimality_monte_carlo():
    rng = np.random.default_rng(18)
    points, labels, counts = class_points(18)
    model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"), counts)
    k = gram(points, points, model.kernel)
    s = _margin_operator(k, labels, counts)
    # the best K-normalised direction inside the kept span (its top Ritz value)
    best = np.linalg.eigvalsh(model.coeffs.T @ s @ model.coeffs).max()
    r = rng.standard_normal((len(points), 2000))
    r /= np.sqrt(np.einsum("jk,jl,lk->k", r, k, r))
    random_best = np.einsum("jk,jl,lk->k", r, s, r).max()
    assert best >= random_best - 1e-8 * abs(best)


@pytest.mark.parametrize("name", ["rbf-auto", "linear"])
def test_fit_gram_and_margin_operator_are_exactly_symmetric(name, monkeypatch):
    # Nothing is symmetrized: K comes from an A A^T product, the kernel PCA
    # matrix from t_i + t_j sums and u_i * u_j products, and the shared-class
    # scatter from A^T A products, all exactly symmetric, repeated rows and
    # multiplicities included. A shared-class fit makes one symmetric eigh
    # call; a singleton fit factors its matrix once, and calls eigh at most
    # once, when the factor's guard fails.
    grams, solved, factored = [], [], []

    def recording_span(k_matrix, dim):
        grams.append(k_matrix.copy())
        return span_coefficients(k_matrix, dim)

    def recording_eigh(a, *args, **kwargs):
        assert "b" not in kwargs and not args                # no generalized solve
        solved.append(a.copy())                              # the matrix as solved
        return np.linalg.eigh(a, *args, **kwargs)

    def recording_factor(a, tol):
        factored.append(a.copy())
        return pivot_basis(a, tol)

    monkeypatch.setattr(nullmargin.kmmc, "span_coefficients", recording_span)
    monkeypatch.setattr(nullmargin.kmmc, "eigh", recording_eigh)
    monkeypatch.setattr(nullmargin.kmmc, "pivot_basis", recording_factor)
    rng = np.random.default_rng(61)
    eigh_calls = factor_calls = 0
    for shared in [True, False] * 15:
        m, dim = int(rng.integers(4, 60)), int(rng.integers(1, 40))
        points = rng.standard_normal((m, dim)) * rng.uniform(0.1, 10.0) + rng.uniform(-1e3, 1e3)
        points[rng.integers(m, size=m // 3)] = points[rng.integers(m, size=m // 3)]
        labels = np.r_[0, 1, rng.integers(0, max(2, m // 3), m - 2)] if shared else rng.permutation(m)
        try:
            fit_nkmmc(points, labels, KERNELS[name], rng.integers(1, 5, m).astype(float))
        except EmptyModelError:
            pass
        calls = (len(solved) - eigh_calls, len(factored) - factor_calls)
        assert calls == (1, 0) if shared else calls in ((0, 1), (1, 1))
        eigh_calls, factor_calls = len(solved), len(factored)
    assert len(grams) == 15
    for matrix in grams + solved + factored:
        assert np.array_equal(matrix, matrix.T)


def eigen_reference(points, mu, kernel):
    """The singleton eigen route, solved directly: S with entries
    u_i u_j (K_ij - (t_i + t_j) + gamma), its eigenpairs above
    EIG_POS_TOL * lambda_max, and a = (I - w 1^T) U v / sqrt(lambda). Also
    whether S is ill-conditioned for the Cholesky route: its (c-1)-th
    eigenvalue at or below CHOL_TOL * trace(U K U), which bounds
    1 / |L^-1|_F^2 from above, so the route's guard must fail."""
    k = gram(points, points, kernel)
    w = mu / mu.sum()
    u = np.sqrt(w)
    t = k @ w
    s = (k - (t[:, None] + t) + w @ t) * np.outer(u, u)
    evals, vectors = np.linalg.eigh(s)
    evals, vectors = evals[::-1], vectors[:, ::-1]
    keep = evals > EIG_POS_TOL * evals[0]
    coeffs = vectors[:, keep] / np.sqrt(evals[keep]) * u[:, None]
    coeffs -= np.outer(w, coeffs.sum(axis=0))
    ill = evals[len(points) - 2] <= CHOL_TOL * (w @ np.diagonal(k))
    return coeffs, ill


def random_singleton_fit(rng, case):
    """One weighted singleton fit's points, multiplicities and kernel: general
    position, collinear, near-duplicate (pairs 1e-7 to 1e-2 apart), or fewer
    dimensions than c - 1, offset from the origin and scaled."""
    shape = ("general", "collinear", "near-duplicate", "low-dimensional")[case % 4]
    c = int(rng.integers(3, 40))
    dim = int(rng.integers(1, c - 1)) if shape == "low-dimensional" else int(rng.integers(c - 1, c + 20))
    points = rng.standard_normal((c, dim))
    if shape == "collinear":
        points = np.outer(rng.standard_normal(c), rng.standard_normal(dim))
    elif shape == "near-duplicate":
        copies = max(1, c // 4)
        noise = rng.standard_normal((copies, dim)) * 10.0 ** rng.uniform(-7, -2)
        points[rng.integers(c, size=copies)] = points[rng.integers(c, size=copies)] + noise
    scale = rng.uniform(0.1, 10.0)
    points = (points + rng.uniform(0.0, 10.0) * rng.standard_normal(dim)) * scale
    kernel = (
        KernelSpec("linear"),
        KernelSpec("rbf", scale * np.sqrt(dim) * 10.0 ** rng.uniform(-0.5, 1.5)),
        KernelSpec("rbf", "auto"),
    )[(case // 4) % 3]
    return points, rng.integers(1, 6, c).astype(float), kernel


def test_singleton_fits_match_the_eigen_route_and_fall_back_when_ill_conditioned(monkeypatch):
    # 240 random weighted singleton fits, linear and rbf with a fixed and an
    # auto bandwidth, collinear and near-duplicate point sets among them. The
    # fixed bandwidths reach 30 times the points' spread, where K's entries
    # sit near 1 and forming S cancels most of them. A
    # fit's pairwise embedding distances over its training points and random
    # probes match the eigen solve within 1e-9 of the largest, with the same
    # direction count, whichever route it took; every fit the reference finds
    # ill-conditioned calls eigh (falls back), and the rest mostly do not.
    rng = np.random.default_rng(2024)
    solved = []
    monkeypatch.setattr(nullmargin.kmmc, "eigh", lambda a: (solved.append(len(a)), np.linalg.eigh(a))[1])
    fell_back = {True: 0, False: 0}
    for case in range(240):
        points, mu, kernel = random_singleton_fit(rng, case)
        solved.clear()
        model = fit_nkmmc(points, np.arange(len(points)), kernel, mu)
        coeffs, ill = eigen_reference(points, mu, model.kernel)
        assert model.output_dim == coeffs.shape[1]
        spread = rng.standard_normal((20, points.shape[1])) * points.std()
        probes = np.vstack([points, points.mean(axis=0) + spread])
        probe_gram = gram(probes, points, model.kernel)
        expected = pdist(probe_gram @ coeffs)
        np.testing.assert_allclose(
            pdist(probe_gram @ model.coeffs), expected, rtol=0, atol=1e-9 * expected.max()
        )
        if ill:
            assert solved == [len(points)], case
        fell_back[ill] += bool(solved)
    ill_fits = fell_back[True]
    assert ill_fits >= 60 and 240 - ill_fits >= 80, fell_back
    assert fell_back[False] <= 10, fell_back
