"""Null projecting directions: zero within-class scatter, positive between-class.

The construction follows four steps: center the data, build an orthonormal
basis U of the centered span from the eigendecomposition of the small n x n
Gram matrix of the centered rows, take the nullspace basis B of U^T S_w U by
symmetric eigendecomposition, and map back as W_N = U @ B. Every column w
of W_N then satisfies w^T S_w w = 0 and w^T S_b w > 0, so all samples of one
class project onto a single point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import FeatureTable
from .errors import DataValidationError, DegenerateDataError, InsufficientSamplesError
from .scatter import compute_scatter

# Relative eigenvalue threshold under which a direction counts as null.
NULL_TOL = 1e-10


@dataclass
class NullProjector:
    """Fitted null-space projector."""

    w_n: np.ndarray                  # (d, c-1), orthonormal columns
    mean: np.ndarray                 # (d,) training global mean

    @property
    def dim(self) -> int:
        return self.w_n.shape[0]

    @property
    def n_directions(self) -> int:
        return self.w_n.shape[1]

    @property
    def class_count(self) -> int:
        return self.n_directions + 1


def span_coefficients(gram: np.ndarray, dim: int) -> np.ndarray:
    """Coefficients A (n, r) such that rows.T @ A is an orthonormal basis of the
    span of n rows of dimension dim, given their Gram matrix rows @ rows.T.

    With gram = V diag(lam) V^T, A = V_r diag(lam_r)^(-1/2), where r counts
    the eigenvalues above lam_max * max(n, dim) * eps (numpy.linalg.matrix_rank's
    tolerance, applied to the Gram eigenvalues). Dependent and duplicate rows
    add no column.
    """
    evals, evecs = np.linalg.eigh(gram)                       # ascending
    keep = evals > evals[-1] * max(gram.shape[0], dim) * np.finfo(np.float64).eps
    return evecs[:, keep] / np.sqrt(evals[keep])


def _fix_column_signs(matrix: np.ndarray) -> None:
    """Flip columns in place so each first significant coefficient is positive."""
    for j in range(matrix.shape[1]):
        col = matrix[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max(initial=0.0))
        if nz.size and col[nz[0]] < 0:
            matrix[:, j] = -col


def fit_nfst(labeled: FeatureTable) -> NullProjector:
    """Fit the c-1 null projecting directions of a labeled table.

    Expects the small-sample-size regime (centered data of rank n-1); raises
    DegenerateDataError when the nullspace of U^T S_w U has fewer than c-1
    directions, and keeps the c-1 smallest-eigenvalue directions (with a
    warning) when it has more.
    """
    stats = compute_scatter(labeled)
    n, c = stats.n, stats.class_count
    if n - 1 < c - 1:
        raise InsufficientSamplesError(f"n-1={n - 1} basis directions cannot hold {c - 1} NPDs")

    centered = labeled.features - stats.global_mean
    basis = centered.T @ span_coefficients(centered @ centered.T, stats.dim)   # U, (d, r)

    projected_within = stats.within_factor @ basis            # (n, r)
    reduced = projected_within.T @ projected_within           # U^T S_w U
    reduced = (reduced + reduced.T) / 2
    evals, evecs = np.linalg.eigh(reduced)                    # ascending
    lam_max = float(evals[-1]) if evals.size else 0.0
    threshold = NULL_TOL * max(lam_max, 0.0)
    null_count = int(np.count_nonzero(evals <= threshold))
    wanted = c - 1
    if null_count < wanted:
        raise DegenerateDataError(
            f"data not in general position: found {null_count} null directions, "
            f"expected {wanted}",
            found=null_count,
            expected=wanted,
        )
    if null_count > wanted:
        warnings.warn(
            f"{null_count} near-null directions for {wanted} expected; "
            "keeping the smallest-eigenvalue ones",
            RuntimeWarning,
            stacklevel=2,
        )
    w_n = basis @ evecs[:, :wanted].copy()
    _fix_column_signs(w_n)
    return NullProjector(w_n=w_n, mean=stats.global_mean.copy())


def project_null(projector: NullProjector, x: np.ndarray) -> np.ndarray:
    """Project vectors into the null space: W_N^T (x - mean).

    Accepts a single vector (d,) or a batch (m, d) and returns matching shape.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != projector.dim:
        raise DataValidationError(
            f"input dimension {x2.shape[1]} does not match projector dimension {projector.dim}"
        )
    out = (x2 - projector.mean) @ projector.w_n
    return out[0] if single else out
