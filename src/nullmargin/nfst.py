"""Null projecting directions: zero within-class scatter, positive between-class.

The construction follows four steps: center the data, build an orthonormal
basis U of the centered span by Gram-Schmidt with reorthogonalization, take
the nullspace basis B of U^T S_w U by symmetric eigendecomposition, and map
back as W_N = U @ B. Every column w of W_N then satisfies w^T S_w w = 0 and
w^T S_b w > 0, so all samples of one class project onto a single point.
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
# Residual-norm fraction of the input norm under which a basis candidate is
# dropped as linearly dependent.
DROP_TOL = 1e-12


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


def gram_schmidt(rows: np.ndarray, drop_tol: float = DROP_TOL, block: int = 64) -> np.ndarray:
    """Column-orthonormal basis of the row span, via two-pass Gram-Schmidt.

    Processes vectors in blocks so the projections against the accumulated
    basis run as matrix products; each vector still gets two orthogonalization
    passes, and candidates whose residual falls below drop_tol times their
    input norm are discarded as dependent.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    n, d = rows.shape
    # Basis vectors accumulate as rows so slices stay contiguous for BLAS.
    basis = np.empty((n, d))
    r = 0
    for start in range(0, n, block):
        blk = rows[start:start + block].copy()     # (b, d)
        orig = np.linalg.norm(blk, axis=1)
        for _ in range(2):
            if r:
                blk -= (blk @ basis[:r].T) @ basis[:r]
        block_start = r
        for j in range(blk.shape[0]):
            v = blk[j]
            for _ in range(2):
                if r > block_start:
                    local = basis[block_start:r]
                    v = v - (v @ local.T) @ local
            norm = np.linalg.norm(v)
            if norm < 1e-8 * orig[j] and norm > 0.0:
                # Heavy cancellation: one more pass against the full basis
                # before deciding to keep or drop.
                if r:
                    v = v - (v @ basis[:r].T) @ basis[:r]
                norm = np.linalg.norm(v)
            if orig[j] == 0.0 or norm < drop_tol * orig[j]:
                continue
            basis[r] = v / norm
            r += 1
    return basis[:r].T.copy()


def _fix_column_signs(matrix: np.ndarray) -> None:
    """Flip columns in place so each first significant coefficient is positive."""
    for j in range(matrix.shape[1]):
        col = matrix[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max(initial=0.0))
        if nz.size and col[nz[0]] < 0:
            matrix[:, j] = -col


def fit_nfst(labeled: FeatureTable, null_tol: float = NULL_TOL) -> NullProjector:
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
    basis = gram_schmidt(centered)

    projected_within = stats.within_factor @ basis            # (n, r)
    reduced = projected_within.T @ projected_within           # U^T S_w U
    reduced = (reduced + reduced.T) / 2
    evals, evecs = np.linalg.eigh(reduced)                    # ascending
    lam_max = float(evals[-1]) if evals.size else 0.0
    threshold = null_tol * max(lam_max, 0.0)
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
