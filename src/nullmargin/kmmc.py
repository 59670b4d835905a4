"""Normalized kernel maximum margin criterion.

Maximises a^T (P - Q) a subject to a^T K a = 1, where K is the training
Gram matrix, Q aggregates per-class kernel scatter and P the scatter of
kernelized class means around the global kernel mean (Li, Jiang and Zhang,
"Efficient and Robust Feature Extraction by Maximum Margin Criterion", NIPS
2003). Training point j may stand for mu_j identical rows (its multiplicity,
default 1; n = sum mu_j rows, n_i of them in class i). The fit equals the
fit on the n expanded rows with coefficients gamma_j summed over each
point's copies:

    Q = (1/n) sum_j mu_j (k_j - m_i(j))(k_j - m_i(j))^T      (k_j = K[:, j])
    P = sum_i (n_i/n) (m_i - m)(m_i - m)^T
    m_i = sum_{j in C_i} mu_j k_j / n_i,   m = sum_j mu_j k_j / n

The discriminants are the pairs of (P - Q, K) on range(K). The criterion
is a trace, so its optimum is the span of the kept discriminants, not one
basis of it, and every consumer reads only distances in that span. A fit
takes one of three routes, chosen by the input:

- No class has two points (every primary fit, whose points are the null-space
  class points, and the secondary fit on a single-shot pool). Then Q = 0 and
  P = K (W - w w^T) K with w = mu / n and W = diag(w), so the criterion is
  weighted kernel PCA of the centred Gram (Schoelkopf, Smola and Mueller,
  1998). With u = sqrt(w), t = K w and gamma = w^T K w, take
  S = U (K - t 1^T - 1 t^T + gamma 1 1^T) U, U = diag(u), whose entries are
  u_i u_j (K_ij - (t_i + t_j) + gamma), so S is exactly symmetric. Its
  nonzero eigenvalues are those of the criterion, and its range is the span
  of the m centred points, of dimension at most m - 1.
  - Cholesky route. The pivoted factor P^T S P = L L^T (_blas.pivot_basis,
    stopped at CHOL_TOL * trace(U K U)) gives a = (I - w 1^T) U P L^-T over
    its r pivots: the centred, weighted pivot points made K-orthonormal,
    which span all m centred points when r = m - 1. It is taken when
    r = m - 1 and 1 / |L^-1|_F^2, a lower bound on every nonzero eigenvalue
    of S, clears the same floor; the eigen route would then keep that span
    too, and the two routes' distances agree to rounding.
  - Eigen route, otherwise (rank-deficient or ill-conditioned S): the
    eigenpairs (lambda, v) of S give a = (I - w 1^T) U v / sqrt(lambda). In
    exact arithmetic u^T v = 0 and the centring changes nothing; in floating
    point it removes the rounding along u that 1 / sqrt(lambda) amplifies.
- Otherwise. A = span_coefficients(K) makes the rows of Z = K A the points'
  coordinates in an orthonormal basis of their kernel span, and
  A^T (P - Q) A is the weighted S_b - S_w of Z's rows; its eigenpairs
  (lambda, y) give a = A y. With K's own rows the same scatter is P - Q.

Every route gives a^T K a = I. The eigen routes keep the discriminants whose
eigenvalues exceed EIG_POS_TOL * lambda_max; on the singleton route that
rank cut also drops the null space of K, which the span route's span leaves
out. A model's eigenvalues slot holds each kept direction's energy: its
eigenvalue on the eigen routes, its pivot L_jj^2 (positive, non-increasing)
on the Cholesky route; nothing in the program computes from it. A kernel
matrix with a non-finite entry raises NumericalError, and so do non-finite
squared distances under an auto bandwidth.

Every rbf Gram and auto bandwidth take their squared distances from
_blas._squared_distances, which states their rounding bound. A fit forms
one such matrix, over one centred copy of its points, and reads both the
auto bandwidth (the weighted mean of its square roots) and the Gram off it.
K, and the scatter of the shared-class route, come from A A^T products,
which BLAS forms exactly symmetric, so nothing is symmetrized. A fitted
model carries its resolved kernel: rbf with the numeric bandwidth its fit
used, or linear. The same routine serves the primary space (over the
null-space class points, weighted by their row counts) and the secondary
space (over anchor-camera embeddings, one row each).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh

from ._blas import _squared_distances, all_finite, pivot_basis, span_coefficients
from .dataio import _real
from .errors import (
    DataValidationError,
    EmptyModelError,
    NumericalError,
    ZeroDistanceError,
)
from .nfst import class_sums

# Eigenvalues above this fraction of lambda_max count as positive; the rest,
# the null space of K among them, are cut.
EIG_POS_TOL = 1e-9
# A singleton fit keeps its pivoted Cholesky basis only when 1 / |L^-1|_F^2,
# a lower bound on every nonzero eigenvalue of S, exceeds this fraction of
# trace(U K U) = sum_j w_j K_jj. That sum, not trace(S) = trace(U K U) -
# w^T K w, sets the scale of S's rounding, since forming S can cancel most
# of K. Every eigenvalue then clears EIG_POS_TOL, and the basis's distances
# stay within about 0.2 eps |L^-1|_F^2 trace(U K U) < 5e-10, relative, of
# the eigen route's.
CHOL_TOL = 1e-7
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
    eigenvalues: np.ndarray         # (l,) energies, positive, non-increasing: eigenvalues,
                                    # or the pivots L_jj^2 on the Cholesky route
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


def _margin_operator(rows: np.ndarray, class_ids: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Weighted S_b - S_w (r, r) of the points' rows (m, r), for points of
    multiplicities mu; with K's rows (K is symmetric) it is P - Q.

    The class means are class sums of the mu-weighted rows, and all classes
    enter S_w through one rank-batched product rather than a per-class loop;
    a point alone in its class adds nothing to it.
    """
    n = mu.sum()
    _, inverse = np.unique(class_ids, return_inverse=True)
    sizes = np.bincount(inverse)                          # points per class
    counts = np.bincount(inverse, weights=mu)             # rows per class
    class_means = class_sums(rows * mu[:, None], inverse, sizes) / counts[:, None]
    shared = sizes[inverse] > 1
    centered = (rows[shared] - class_means[inverse[shared]]) * np.sqrt(mu[shared])[:, None]
    diffs = (class_means - mu @ rows / n) * np.sqrt(counts / n)[:, None]
    return diffs.T @ diffs - (centered.T @ centered) / n


def _fix_column_signs(matrix: np.ndarray) -> None:
    """Flip columns in place so each first significant coefficient is positive."""
    magnitude = np.abs(matrix)
    significant = magnitude > 1e-12 * magnitude.max(axis=0, initial=0.0)
    matrix[:, matrix[significant.argmax(axis=0), np.arange(matrix.shape[1])] < 0] *= -1.0


def _check_finite(matrix: np.ndarray) -> None:
    if not all_finite(matrix):
        raise NumericalError("margin kernel matrix has non-finite entries")


def _positive_eigenpairs(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of s above EIG_POS_TOL * lambda_max, descending, and
    their eigenvectors."""
    evals, vectors = eigh(s)
    evals, vectors = evals[::-1], vectors[:, ::-1]
    if evals.size == 0 or float(evals[0]) <= 0.0:
        raise EmptyModelError("no positive eigenvalues; classes are not separable by the margin operator")
    keep = evals > EIG_POS_TOL * float(evals[0])
    return evals[keep], vectors[:, keep]


def fit_nkmmc(
    points: np.ndarray, classes, kernel: KernelSpec, multiplicities=None
) -> KernelDiscriminantModel:
    """Fit the maximum-margin kernel discriminants: a K-orthonormal basis
    (a^T K a = I) of the span of the pairs of (P - Q, K) on range(K) whose
    eigenvalue exceeds EIG_POS_TOL * lambda_max, with a deterministic sign
    (first significant coefficient positive), by the route the module
    docstring gives: the guarded pivoted Cholesky basis when no class has two
    points and the factor is well conditioned, the eigenpairs otherwise.
    Point j stands for multiplicities[j] identical rows (default 1).
    """
    points = np.array(points, dtype=np.float64, order="C", ndmin=2)
    class_ids = np.asarray(classes)
    if class_ids.shape != (points.shape[0],):
        raise DataValidationError("one class label per training point required")
    n_classes = len(np.unique(class_ids))
    if n_classes < 2:
        raise DataValidationError("maximum margin criterion needs at least 2 classes")
    mu = _multiplicities(points, multiplicities)

    if kernel.kind == "rbf":
        sq = _squared_distances(points, points)
        if kernel.is_auto:
            # a non-finite distance would reach the bandwidth, not the Gram
            _check_finite(sq)
            kernel = KernelSpec("rbf", _mean_distance(sq, mu))
        k_matrix = _rbf(sq, float(kernel.bandwidth))
    else:
        k_matrix = points @ points.T
    _check_finite(k_matrix)

    if n_classes == len(points):
        w = mu / mu.sum()
        u = np.sqrt(w)
        t = k_matrix @ w
        s = k_matrix - (t[:, None] + t)
        s += w @ t
        s *= np.outer(u, u)
        floor = CHOL_TOL * float(w @ np.diagonal(k_matrix))
        basis, energies = pivot_basis(s, floor)
        if basis.shape[1] != len(s) - 1 or not 1.0 / float(np.square(basis).sum()) > floor:
            energies, vectors = _positive_eigenpairs(s)
            basis = vectors / np.sqrt(energies)
        coeffs = basis * u[:, None]
        coeffs -= np.outer(w, coeffs.sum(axis=0))
    else:
        span = span_coefficients(k_matrix, len(points))
        energies, vectors = _positive_eigenpairs(_margin_operator(k_matrix @ span, class_ids, mu))
        coeffs = span @ vectors
    _fix_column_signs(coeffs)
    return KernelDiscriminantModel(
        train_points=points,
        kernel=kernel,
        coeffs=coeffs,
        eigenvalues=energies,
        class_index=class_ids.copy(),
    )


def project_kernel(model: KernelDiscriminantModel, x: np.ndarray) -> np.ndarray:
    """Map rows x (m, p) through the fitted discriminants to (m, l)."""
    return gram(x, model.train_points, model.kernel) @ model.coeffs
