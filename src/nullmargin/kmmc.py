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

so with one point per class Q = 0 and P = K (diag(w) - w w^T) K, w_i = n_i/n;
Q is formed over the points that share their class only. K and P - Q come
from A A^T products, which BLAS forms as exactly symmetric matrices (syrk),
and the solve reads one triangle, so neither is symmetrized.
The expanded Gram E K E^T (E the row-to-point indicator) with its jitter
eps * I turns into K + eps * diag(1/mu) over the points.

Every rbf Gram, and the auto bandwidth, take their squared distances from
one GEMM: with both point sets centred at the second set's mean,
|a - b|^2 = |a|^2 + |b|^2 - 2 a.b. An entry at or below the rounding bound
of that sum, 2 (p + 1) eps (|a|^2 + |b|^2) in p dimensions, is set to
exactly 0, so coincident rows are at distance 0 and negatives never reach
the square root. A fit forms one such matrix, over one centred copy of its
points and the symmetric product A A^T, and reads both the auto bandwidth
(the weighted mean of its square roots) and the Gram off it; the primary
fit, the secondary fit and project_kernel all build their Grams this way.
A fitted model carries its resolved kernel: rbf with the numeric bandwidth
its fit used, or linear.

The generalized eigenproblem is one LAPACK call (sygvd, which reduces by
the Cholesky factor of K_j and solves by divide and conquer). All
discriminants with positive eigenvalues are retained and normalized to
a^T K a = 1. The solve returns K_j-orthonormal vectors (K_j = K + eps *
diag(1/mu)), so a^T K a = 1 - sum_j (eps/mu_j) a_j^2 costs O(c^2) and serves
both the jitter filter and the normalization. The same routine serves the
primary space (over the null-space class points, weighted by their row
counts) and the secondary space (over anchor-camera embeddings, one row
each).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dataio import _real
from .errors import (
    DataValidationError,
    EmptyModelError,
    NumericalError,
    ZeroDistanceError,
)
from .nfst import _EPS, class_sums

# Conditioning jitter added to K before the generalized solve, relative to
# the mean diagonal scale. This is not statistical regularization; the
# closed-form solution needs none.
K_JITTER = 1e-8
# Eigenvalues above this fraction of |lambda_max| count as positive.
EIG_POS_TOL = 1e-9
# Kernel families; a kind's index is its code in the model file.
KERNEL_KINDS = ("linear", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and bandwidth policy: 'auto' (mean pairwise distance) or
    a number whose 2 * bandwidth^2, the rbf divisor, is a positive finite float."""

    kind: str = "rbf"
    bandwidth: float | str = "auto"

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise DataValidationError(f"unknown kernel kind {self.kind!r}")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "auto":
                raise DataValidationError(f"bandwidth must be 'auto' or a number, got {self.bandwidth!r}")
            return
        object.__setattr__(self, "bandwidth", _real(self.bandwidth, "bandwidth"))
        if not (self.bandwidth > 0 and 0.0 < 2.0 * self.bandwidth * self.bandwidth < math.inf):
            raise DataValidationError(
                f"numeric bandwidth must be > 0 with 2 * bandwidth^2 finite and > 0, got {self.bandwidth!r}"
            )

    @property
    def is_auto(self) -> bool:
        return self.bandwidth == "auto"


@dataclass
class KernelDiscriminantModel:
    """Kernel-expansion discriminants: column k of coeffs maps x to
    sum_j coeffs[j, k] * k(train_points[j], x)."""

    train_points: np.ndarray        # (m, p)
    kernel: KernelSpec              # resolved: rbf with a numeric bandwidth, or linear
    coeffs: np.ndarray              # (m, l)
    eigenvalues: np.ndarray         # (l,) strictly positive, descending
    class_index: np.ndarray         # (m,) training labels

    @property
    def output_dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def resolved_bandwidth(self) -> float:
        """The rbf bandwidth; 1.0 (unused) for the linear kernel."""
        return float(self.kernel.bandwidth) if self.kernel.kind == "rbf" else 1.0


def _multiplicities(points: np.ndarray, multiplicities) -> np.ndarray:
    if multiplicities is None:
        return np.ones(points.shape[0])
    mu = np.asarray(multiplicities, dtype=np.float64)
    if mu.shape != (points.shape[0],):
        raise DataValidationError("one multiplicity per training point required")
    if not np.all(np.isfinite(mu) & (mu >= 1)):
        raise DataValidationError("multiplicities must be finite and at least 1")
    return mu


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances (m_a, m_b) from one GEMM, with both sets centred at
    b's mean; entries at or below the sum's rounding bound are exactly 0. A
    set's distances to itself (a is b) take one centred copy and A A^T."""
    same = a is b
    centre = b.mean(axis=0)
    b = b - centre
    a = b if same else a - centre
    norm_b = np.einsum("ij,ij->i", b, b)
    norms = (norm_b if same else np.einsum("ij,ij->i", a, a))[:, None] + norm_b
    sq = a @ b.T
    sq *= -2.0
    sq += norms
    norms *= 2 * (a.shape[1] + 1) * _EPS
    sq[sq <= norms] = 0.0
    return sq


def _mean_distance(sq: np.ndarray, mu: np.ndarray) -> float:
    """Mean distance over the n(n-1)/2 rows the points stand for, from their
    squared-distance matrix: pair (i < j) counts mu_i * mu_j times."""
    rows, cols = np.triu_indices(len(mu), 1)
    n = mu.sum()
    mean = float((np.sqrt(sq[rows, cols]) * (mu[rows] * mu[cols])).sum() / (n * (n - 1) / 2))
    if mean == 0.0:
        raise ZeroDistanceError("all points identical; no distance scale for the kernel")
    return mean


def _rbf(sq: np.ndarray, bandwidth: float) -> np.ndarray:
    """exp(-sq / (2 bandwidth^2)), in place."""
    sq /= -2.0 * bandwidth**2
    return np.exp(sq, out=sq)


def gram(points_a: np.ndarray, points_b: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """Gram matrix with entry (i, j) = k(a_i, b_j) of two sets of rows of one
    dimension; rbf distances as in the module docstring."""
    a = np.asarray(points_a, dtype=np.float64)
    b = np.asarray(points_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DataValidationError(f"gram needs rows of one dimension, got {a.shape} and {b.shape}")
    if kernel.kind == "linear":
        return a @ b.T
    if kernel.is_auto:
        raise DataValidationError("rbf gram needs a resolved numeric bandwidth")
    return _rbf(_squared_distances(a, b), float(kernel.bandwidth))


def _margin_operator(k_matrix: np.ndarray, class_ids: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """P - Q over the Gram matrix, for points of multiplicities mu.

    The class kernel means are class sums of K's mu-weighted rows (K is
    symmetric), and all class blocks are assembled into one rank-batched
    product for Q rather than a per-class loop.
    """
    n = mu.sum()
    _, inverse = np.unique(class_ids, return_inverse=True)
    sizes = np.bincount(inverse)                          # points per class
    counts = np.bincount(inverse, weights=mu)             # rows per class
    # column j = kernel mean of class j
    class_means = class_sums(k_matrix * mu[:, None], inverse, sizes).T / counts
    global_mean = (k_matrix * mu).sum(axis=1) / n

    # All K_i blocks column-centred; a point alone in its class adds nothing.
    shared = sizes[inverse] > 1
    centered = (k_matrix[:, shared] - class_means[:, inverse[shared]]) * np.sqrt(mu[shared])
    q = (centered @ centered.T) / n
    diffs = (class_means - global_mean[:, None]) * np.sqrt(counts / n)
    p = diffs @ diffs.T
    return p - q


def _solve_generalized(s: np.ndarray, k_jittered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of s @ a = lambda * k_jittered @ a, descending, from one
    LAPACK sygvd call; eigenvectors are K_jittered-orthonormal.

    Both operands are symmetric and are overwritten: their transposes are the
    Fortran-ordered views LAPACK works in, so no copy is made. A jittered
    Gram that is not positive definite, or a non-finite entry, raises
    NumericalError.
    """
    diag = np.diagonal(k_jittered).copy()
    try:
        evals, vectors = scipy.linalg.eigh(
            s.T, k_jittered.T, driver="gvd", overwrite_a=True, overwrite_b=True
        )
    except np.linalg.LinAlgError as err:
        raise NumericalError(
            "Cholesky of the jittered Gram matrix failed "
            f"(diag range [{diag.min():.3e}, {diag.max():.3e}], trace {diag.sum():.3e})"
        ) from err
    except ValueError as err:
        raise NumericalError(f"margin eigenproblem has non-finite entries ({err})") from err
    return evals[::-1], vectors[:, ::-1]


def _fix_column_signs(matrix: np.ndarray) -> None:
    """Flip columns in place so each first significant coefficient is positive."""
    magnitude = np.abs(matrix)
    significant = magnitude > 1e-12 * magnitude.max(axis=0, initial=0.0)
    matrix[:, matrix[significant.argmax(axis=0), np.arange(matrix.shape[1])] < 0] *= -1.0


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
    points = np.array(points, dtype=np.float64, order="C", ndmin=2)
    class_ids = np.asarray(classes)
    if class_ids.shape != (points.shape[0],):
        raise DataValidationError("one class label per training point required")
    if len(np.unique(class_ids)) < 2:
        raise DataValidationError("maximum margin criterion needs at least 2 classes")
    mu = _multiplicities(points, multiplicities)

    if kernel.kind == "rbf":
        sq = _squared_distances(points, points)
        if kernel.is_auto:
            kernel = KernelSpec("rbf", _mean_distance(sq, mu))
        k_matrix = _rbf(sq, float(kernel.bandwidth))
    else:
        k_matrix = points @ points.T
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
        train_points=points,
        kernel=kernel,
        coeffs=coeffs,
        eigenvalues=evals[keep],
        class_index=class_ids.copy(),
    )


def project_kernel(model: KernelDiscriminantModel, x: np.ndarray) -> np.ndarray:
    """Map rows x (m, p) through the fitted discriminants to (m, l)."""
    return gram(x, model.train_points, model.kernel) @ model.coeffs
