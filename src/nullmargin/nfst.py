"""Null projecting directions: zero within-class scatter, positive between-class.

The null space of S_w inside the span of the centered rows is the part of
the between-class vectors (the rows of the S_b factor) that lies outside the
span of the within-class rows. The construction has three steps: an
orthonormal basis of the within-class span from the eigendecomposition of
the small Gram matrix of the within-class rows, the residual R of the
between-class vectors off that span, and an orthonormal basis of the column
span of R from the eigendecomposition of the c x c matrix R^T R. Every
column w of W_N then satisfies w^T S_w w = 0 and w^T S_b w > 0, so all
samples of one class project onto a single point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import FeatureTable
from .errors import DataValidationError, DegenerateDataError
from .scatter import compute_scatter

# Eigenvalues of R^T R at or below NULL_TOL * trace(S_b) carry no null
# direction: the between-class vectors have no part outside the within-class
# span along them.
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
    add no column; an empty (0, 0) Gram gives a (0, 0) array.
    """
    evals, evecs = np.linalg.eigh(gram)                       # ascending
    keep = evals > evals.max(initial=0.0) * max(gram.shape[0], dim) * np.finfo(np.float64).eps
    return evecs[:, keep] / np.sqrt(evals[keep])


def _fix_column_signs(matrix: np.ndarray) -> None:
    """Flip columns in place so each first significant coefficient is positive."""
    magnitude = np.abs(matrix)
    significant = magnitude > 1e-12 * magnitude.max(axis=0, initial=0.0)
    first = matrix[significant.argmax(axis=0), np.arange(matrix.shape[1])]
    matrix[:, first < 0] *= -1.0


def fit_nfst(labeled: FeatureTable) -> NullProjector:
    """Fit the c-1 null projecting directions of a labeled table.

    The within-class rows without the first row of each class (n-c rows with
    the same span, since a class's rows sum to zero) give an orthonormal basis
    of the within-class span. The residual R (d, c) of the between-class
    vectors off that span has rank at most c-1, as their count-weighted sum
    is zero; W_N = R V diag(lam)^(-1/2) over the c-1 largest eigenpairs of
    R^T R. Raises DegenerateDataError when fewer than c-1 eigenvalues exceed
    NULL_TOL * trace(S_b), i.e. the data are not in general position.
    """
    stats = compute_scatter(labeled)
    _, first_rows = np.unique(labeled.label_values(), return_index=True)
    within = np.delete(stats.within_factor, first_rows, axis=0)         # (n-c, d)
    span = within.T @ span_coefficients(within @ within.T, stats.dim)   # (d, r)
    between = stats.between_factor.T                                    # (d, c)
    residual = between - span @ (span.T @ between)
    evals, evecs = np.linalg.eigh(residual.T @ residual)                # ascending
    found = int(np.count_nonzero(evals > NULL_TOL * stats.trace_between))
    wanted = stats.class_count - 1
    if found < wanted:
        raise DegenerateDataError(
            f"data not in general position: found {found} null directions, "
            f"expected {wanted}",
            found=found,
            expected=wanted,
        )
    w_n = residual @ (evecs[:, 1:] / np.sqrt(evals[1:]))               # c-1 largest
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
