"""Normalized kernel maximum margin criterion.

Solves the generalized eigenproblem of (P - Q, K) where K is the training
Gram matrix, Q aggregates per-class kernel scatter and P the scatter of
kernelized class means around the global kernel mean. Training point j may
stand for mu_j identical rows (its multiplicity, default 1; n = sum mu_j
rows, n_i of them in class i). The fit equals the fit on the n expanded rows
with coefficients gamma_j summed over each point's copies:

    Q = (1/n) sum_j mu_j (k_j - m_i(j))(k_j - m_i(j))^T      (k_j = K[:, j])
    P = sum_i (n_i/n) (m_i - m)(m_i - m)^T
    m_i = sum_{j in C_i} mu_j k_j / n_i,   m = sum_j mu_j k_j / n

so with one point per class Q = 0 and P = K (diag(w) - w w^T) K, w_i = n_i/n.
The expanded Gram E K E^T (E the row-to-point indicator) with its jitter
eps * I turns into K + eps * diag(1/mu) over the points.

The rbf Gram takes its squared distances from one GEMM: with both point
sets centred at the second set's mean, |a - b|^2 = |a|^2 + |b|^2 - 2 a.b,
negatives (rounding) clipped to 0. The primary fit, the secondary fit and
project_kernel all build their Grams this way.

All discriminants with positive eigenvalues are retained and normalized to
a^T K a = 1. The solve returns K_j-orthonormal vectors (K_j = K + eps *
diag(1/mu)), so a^T K a = 1 - sum_j (eps/mu_j) a_j^2 costs O(c^2) and serves
both the jitter filter and the normalization. The same routine serves the
primary space (over the null-space class points, weighted by their row
counts) and the secondary space (over anchor-camera embeddings, one row
each).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.spatial.distance import pdist

from .errors import (
    DataValidationError,
    EmptyModelError,
    NumericalError,
    ZeroDistanceError,
)
from .nfst import _fix_column_signs

# Conditioning jitter added to K before the Cholesky reduction, relative to
# the mean diagonal scale. This is not statistical regularization; the
# closed-form solution needs none.
K_JITTER = 1e-8
# Eigenvalues above this fraction of |lambda_max| count as positive.
EIG_POS_TOL = 1e-9


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and bandwidth policy ('auto' = mean pairwise distance)."""

    kind: str = "rbf"
    bandwidth: float | str = "auto"

    def __post_init__(self):
        if self.kind not in ("rbf", "linear"):
            raise DataValidationError(f"unknown kernel kind {self.kind!r}")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "auto":
                raise DataValidationError(f"bandwidth must be 'auto' or a number, got {self.bandwidth!r}")
        elif not self.bandwidth > 0:
            raise DataValidationError("numeric bandwidth must be positive")

    @property
    def is_auto(self) -> bool:
        return self.bandwidth == "auto"


@dataclass
class KernelDiscriminantModel:
    """Kernel-expansion discriminants: column k of coeffs maps x to
    sum_j coeffs[j, k] * k(train_points[j], x)."""

    train_points: np.ndarray        # (m, p)
    kernel: KernelSpec
    resolved_bandwidth: float       # 1.0 (unused) for the linear kernel
    coeffs: np.ndarray              # (m, l)
    eigenvalues: np.ndarray         # (l,) strictly positive, descending
    class_index: np.ndarray         # (m,) training labels

    @property
    def input_dim(self) -> int:
        return self.train_points.shape[1]

    @property
    def output_dim(self) -> int:
        return self.coeffs.shape[1]

    def resolved_kernel(self) -> KernelSpec:
        if self.kernel.kind == "rbf":
            return KernelSpec("rbf", self.resolved_bandwidth)
        return self.kernel


def _multiplicities(points: np.ndarray, multiplicities) -> np.ndarray:
    if multiplicities is None:
        return np.ones(points.shape[0])
    mu = np.asarray(multiplicities, dtype=np.float64)
    if mu.shape != (points.shape[0],):
        raise DataValidationError("one multiplicity per training point required")
    if not np.all(np.isfinite(mu) & (mu >= 1)):
        raise DataValidationError("multiplicities must be finite and at least 1")
    return mu


def resolve_bandwidth(points: np.ndarray, multiplicities=None) -> float:
    """Mean Euclidean distance over all n(n-1)/2 pairs of the rows the points
    stand for: pair (i, j) counts mu_i * mu_j times, and the zero-distance
    pairs among copies of one point count too."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] < 2:
        raise DataValidationError("bandwidth needs at least 2 points")
    mu = _multiplicities(points, multiplicities)
    rows, cols = np.triu_indices(len(mu), 1)                 # pdist's pair order
    n = mu.sum()
    mean = float((pdist(points) * (mu[rows] * mu[cols])).sum() / (n * (n - 1) / 2))
    if mean == 0.0:
        raise ZeroDistanceError("all points identical; no distance scale for the kernel")
    return mean


def gram(points_a: np.ndarray, points_b: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """Gram matrix with entry (i, j) = k(a_i, b_j).

    For rbf, both sets are centred at b's mean and the squared distances are
    |a_i|^2 + |b_j|^2 - 2 a_i.b_j from one GEMM, clipped below at 0.
    """
    a = np.atleast_2d(np.asarray(points_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(points_b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise DataValidationError(f"point dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    if kernel.kind == "linear":
        return a @ b.T
    if kernel.is_auto:
        raise DataValidationError("rbf gram needs a resolved numeric bandwidth")
    centre = b.mean(axis=0)
    a = a - centre
    b = b - centre
    sq = a @ b.T
    sq *= -2.0
    sq += np.einsum("ij,ij->i", a, a)[:, None]
    sq += np.einsum("ij,ij->i", b, b)
    np.maximum(sq, 0.0, out=sq)
    sq /= -2.0 * float(kernel.bandwidth) ** 2
    return np.exp(sq, out=sq)


def _margin_operator(k_matrix: np.ndarray, class_ids: np.ndarray, multiplicities=None) -> np.ndarray:
    """P - Q over the Gram matrix, symmetrized.

    All class blocks are assembled into two rank-batched products so the cost
    is a pair of GEMMs rather than a per-class loop.
    """
    m = k_matrix.shape[0]
    mu = _multiplicities(k_matrix, multiplicities)
    n = mu.sum()
    _, inverse = np.unique(class_ids, return_inverse=True)
    counts = np.bincount(inverse, weights=mu)             # rows per class
    indicator = np.zeros((m, len(counts)))
    indicator[np.arange(m), inverse] = mu
    class_means = (k_matrix @ indicator) / counts          # column j = kernel mean of class j
    global_mean = (k_matrix * mu).sum(axis=1) / n

    centered = k_matrix - class_means[:, inverse]          # all K_i blocks column-centered
    centered *= np.sqrt(mu)
    q = (centered @ centered.T) / n
    diffs = (class_means - global_mean[:, None]) * np.sqrt(counts / n)
    p = diffs @ diffs.T
    s = p - q
    return (s + s.T) / 2


def _solve_generalized(s: np.ndarray, k_jittered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of s @ a = lambda * k_jittered @ a, descending.

    Cholesky-reduces to a standard symmetric problem and back-transforms;
    eigenvectors are K_jittered-orthonormal.
    """
    try:
        chol = np.linalg.cholesky(k_jittered)
    except np.linalg.LinAlgError as err:
        diag = np.diag(k_jittered)
        raise NumericalError(
            "Cholesky of the jittered Gram matrix failed "
            f"(diag range [{diag.min():.3e}, {diag.max():.3e}], trace {diag.sum():.3e})"
        ) from err
    half = scipy.linalg.solve_triangular(chol, s, lower=True)
    reduced = scipy.linalg.solve_triangular(chol, half.T, lower=True).T
    reduced = (reduced + reduced.T) / 2
    evals, evecs = np.linalg.eigh(reduced)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    vectors = scipy.linalg.solve_triangular(chol.T, evecs, lower=False)
    return evals, vectors


def fit_nkmmc(
    points: np.ndarray, classes, kernel: KernelSpec, multiplicities=None
) -> KernelDiscriminantModel:
    """Fit the maximum-margin kernel discriminants.

    Keeps every generalized eigenvector of (P - Q, K) whose eigenvalue
    exceeds EIG_POS_TOL * |lambda_max|, K-normalized to a^T K a = 1 with a
    deterministic sign (first significant coefficient positive). The
    K-energies come from the solve's K_j-orthonormality (module docstring),
    not from products with K. Point j stands for multiplicities[j] identical
    rows (default 1); see the module docstring.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    class_ids = np.asarray(classes)
    if class_ids.shape != (points.shape[0],):
        raise DataValidationError("one class label per training point required")
    if len(np.unique(class_ids)) < 2:
        raise DataValidationError("maximum margin criterion needs at least 2 classes")
    mu = _multiplicities(points, multiplicities)

    if kernel.kind == "rbf" and kernel.is_auto:
        bandwidth = resolve_bandwidth(points, mu)
    elif kernel.kind == "rbf":
        bandwidth = float(kernel.bandwidth)
    else:
        bandwidth = 1.0
    resolved = KernelSpec(kernel.kind, bandwidth) if kernel.kind == "rbf" else kernel

    k_matrix = gram(points, points, resolved)
    k_matrix = (k_matrix + k_matrix.T) / 2
    s = _margin_operator(k_matrix, class_ids, mu)
    # eps * I over the n expanded rows, with eps relative to their mean
    # diagonal, is eps * diag(1/mu) over the points.
    eps = K_JITTER * ((np.diagonal(k_matrix) * mu).sum() / mu.sum())
    k_jittered = k_matrix + np.diag(eps / mu)

    evals, vectors = _solve_generalized(s, k_jittered)
    # a^T K_j a = 1, so a^T K a is 1 less the jitter's share of the energy.
    # Vectors whose energy is mostly jitter live in the numerical null space
    # of K; they are artifacts of the conditioning step, not kernel-space
    # discriminants, so drop them before the positivity rule.
    k_energy = 1.0 - (eps / mu) @ np.square(vectors)
    genuine = k_energy > 0.5
    evals = evals[genuine]
    if evals.size == 0 or float(evals[0]) <= 0.0:
        raise EmptyModelError("no positive eigenvalues; classes are not separable by the margin operator")
    lam_max = float(evals[0])
    keep = evals > EIG_POS_TOL * abs(lam_max)
    kept = np.flatnonzero(genuine)[keep]
    coeffs = vectors[:, kept]
    coeffs /= np.sqrt(k_energy[kept])
    _fix_column_signs(coeffs)
    return KernelDiscriminantModel(
        train_points=points.copy(),
        kernel=kernel,
        resolved_bandwidth=bandwidth,
        coeffs=coeffs,
        eigenvalues=evals[keep],
        class_index=class_ids.copy(),
    )


def project_kernel(model: KernelDiscriminantModel, x: np.ndarray) -> np.ndarray:
    """Map x through the fitted discriminants; (p,) -> (l,) or (m, p) -> (m, l)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != model.input_dim:
        raise DataValidationError(
            f"input dimension {x2.shape[1]} does not match model dimension {model.input_dim}"
        )
    out = gram(x2, model.train_points, model.resolved_kernel()) @ model.coeffs
    return out[0] if single else out
