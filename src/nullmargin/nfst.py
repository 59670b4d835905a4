"""Null projecting directions: zero within-class scatter, positive between-class.

The null space of S_w inside the span of the centered rows is the part of
the between-class vectors (the rows of the S_b factor) that lies outside the
span of the within-class rows. The construction has three steps: an
orthonormal basis Q of the within-class span from the eigendecomposition of
the small Gram matrix of the within-class rows, the residual R of the
between-class vectors off that span, and an orthonormal basis of the column
span of R from a pivoted Cholesky factor of the c x c matrix R^T R. Every
column w of W_N then satisfies w^T S_w w = 0 and w^T S_b w > 0, so all
samples of one class project onto a single point.

Where any orthonormal basis of a span will do (a protocol trial's span, and
W_N), it comes from the pivoted Cholesky factor P^T G P = L L^T of the
span's Gram matrix G, stopped at the first pivot at or below a tolerance:
with A = P L^-T over the r pivots kept, the r pivoted vectors times A are
orthonormal, for a fraction of the cost of an eigendecomposition of G.

A NullSpaceState keeps Q and the class means' residuals off Q for a labeled
set that grows by whole classes, as the self-training loop grows it. A new
class leaves the within-class rows of the held classes unchanged, so Q only
gains directions: appending classes orthogonalises their within-class rows
against Q and extends Q from their residual's Gram (after Liu et al.,
"Incremental Kernel Null Space Discriminant Analysis for Novelty
Detection", CVPR 2017). The null basis is then rebuilt from the c residuals
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpstrf, dtrtri

from .dataio import FeatureTable
from .errors import DataValidationError, DegenerateDataError
# compute_scatter is not called here: bench/spans.py traces it under this
# module's name.
from .scatter import class_sums, compute_scatter  # noqa: F401

# Pivots of R^T R at or below NULL_TOL * trace(S_b) carry no null direction:
# the between-class vectors have no part outside the within-class span along
# them.
NULL_TOL = 1e-10

_EPS = np.finfo(np.float64).eps


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


def _pivoted_cholesky(gram: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Pivoted Cholesky factor P^T gram P = L L^T of a positive semidefinite
    (n, n) matrix, stopped at the first pivot at or below tol.

    Returns the pivot order (n,) and the r factored columns L[:, :r] (n, r),
    lower triangular in their first r rows, r the count of pivots above tol.
    """
    factor, piv, rank, _ = dpstrf(gram, tol=tol, lower=1)
    return piv - 1, np.tril(factor[:, :rank])


def span_coefficients(gram: np.ndarray, dim: int) -> np.ndarray:
    """Coefficients A (n, r) such that rows.T @ A is an orthonormal basis of the
    span of n rows of dimension dim, given their Gram matrix rows @ rows.T.

    A = P L^-T from the pivoted Cholesky factor P^T gram P = L L^T, stopped
    at pivots at or below max(n, dim) * eps * max(diag gram) (the tolerance
    of numpy.linalg.matrix_rank, applied to the pivots): A is zero outside
    the r pivot rows, which span the others. Dependent and duplicate rows add
    no column; an empty (0, 0) Gram gives a (0, 0) array.
    """
    n = gram.shape[0]
    tol = max(n, dim) * _EPS * float(np.diagonal(gram).max(initial=0.0))
    piv, factor = _pivoted_cholesky(gram, tol)
    rank = factor.shape[1]
    coeffs = np.zeros((n, rank))
    coeffs[piv[:rank]] = dtrtri(factor[:rank], lower=1)[0].T
    return coeffs


def _fix_column_signs(matrix: np.ndarray) -> np.ndarray:
    """Flip columns in place so each first significant coefficient is
    positive; returns the mask of flipped columns."""
    magnitude = np.abs(matrix)
    significant = magnitude > 1e-12 * magnitude.max(axis=0, initial=0.0)
    flipped = matrix[significant.argmax(axis=0), np.arange(matrix.shape[1])] < 0
    matrix[:, flipped] *= -1.0
    return flipped


class NullSpaceState:
    """Within-class span and class means of a labeled set grown by whole classes.

    Holds the orthonormal within-class basis Q (d, r), the class labels,
    counts and means in append order, the means' residuals off Q (d, c), and
    the rank scale: the largest eigenvalue of any appended residual's Gram
    (the first append's is the within-class Gram itself), which never
    shrinks.
    """

    def __init__(self, dim: int):
        self.basis = np.zeros((dim, 0))
        self.labels = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros(0, dtype=np.int64)
        self.means = np.zeros((0, dim))
        self.residuals = np.zeros((dim, 0))
        self.scale = 0.0

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def n(self) -> int:
        """Rows appended so far."""
        return int(self.counts.sum())

    def append_classes(self, rows: np.ndarray, labels) -> None:
        """Add whole new classes: rows (m, d) with one label per row.

        Raises DataValidationError, leaving the state unchanged, when a label
        is already held. Each new class's within-class rows, without its
        first row (the rows sum to zero, so the span is the same), are
        projected off Q twice, which keeps them orthogonal to Q to working
        precision (Giraud, Langou & Rozložník, 2005). Q gains the span of
        what is left, from the eigenpairs of its Gram above numpy's
        matrix_rank tolerance max(rows, d) * eps taken relative to the kept
        scale, not to this Gram's own largest eigenvalue, so a row already in
        the span (a residual of rounding noise) adds no direction.
        """
        rows = np.asarray(rows, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if rows.shape != (len(labels), self.dim):
            raise DataValidationError(
                f"rows have shape {rows.shape}, expected ({len(labels)}, {self.dim})"
            )
        if rows.shape[0] == 0:
            return
        new, first, inverse, counts = np.unique(
            labels, return_index=True, return_inverse=True, return_counts=True
        )
        held = new[np.isin(new, self.labels)]
        if held.size:
            raise DataValidationError(f"classes already held: {held.tolist()}")
        means = class_sums(rows, inverse, counts) / counts[:, None]
        within = np.delete(rows - means[inverse], first, axis=0)     # (m - c_new, d)
        for _ in range(2):
            within -= (within @ self.basis) @ self.basis.T
        evals, evecs = np.linalg.eigh(within @ within.T)              # ascending
        scale = max(self.scale, evals.max(initial=0.0))
        within_rows = self.n - len(self.labels) + within.shape[0]
        keep = evals > scale * max(within_rows, self.dim) * _EPS
        directions = within.T @ (evecs[:, keep] / np.sqrt(evals[keep]))  # (d, k)
        basis = np.hstack([self.basis, directions])
        old = self.residuals - directions @ (directions.T @ self.residuals)
        fresh = means.T - basis @ (basis.T @ means.T)
        self.basis = basis
        self.residuals = np.hstack([old, fresh])
        self.labels = np.concatenate([self.labels, new])
        self.counts = np.concatenate([self.counts, counts])
        self.means = np.vstack([self.means, means])
        self.scale = scale

    def projector(self) -> tuple[NullProjector, np.ndarray]:
        """The c-1 null projecting directions of the classes held, and the
        classes' points in the null space.

        The between-class vectors sqrt(n_i) (m_i - m), m the count-weighted
        mean of the class means, have the residual R (d, c) off Q. Its rank is
        at most c-1, as the count-weighted sum of the columns is zero. With
        the pivoted Cholesky factor P^T G P = L L^T of G = R^T R, W_N = R A
        for A = P L^-T over the first c-1 pivots. Raises DegenerateDataError
        when fewer than c-1 pivots exceed NULL_TOL * trace(S_b), i.e. the data
        are not in general position.

        W_N is orthogonal to Q, so class i's point W_N^T (m_i - m) is
        W_N^T R e_i / sqrt(n_i) = (A^T G)^T e_i / sqrt(n_i), and G A is the
        factor's first c-1 columns, P L[:, :c-1]: row i of the (c, c-1)
        points is read off the factor, with W_N's column signs, and no d-wide
        product is formed.
        """
        wanted = len(self.labels) - 1
        if wanted < 1:
            raise DataValidationError("null-space fit needs at least 2 classes")
        weights = self.counts / self.n
        mean = weights @ self.means
        root = np.sqrt(self.counts)
        residual = (self.residuals - (self.residuals @ weights)[:, None]) * root
        trace_b = float(np.sum(((self.means - mean) * root[:, None]) ** 2))
        piv, factor = _pivoted_cholesky(residual.T @ residual, NULL_TOL * trace_b)
        found = factor.shape[1]
        if found < wanted:
            raise DegenerateDataError(
                f"data not in general position: found {found} null directions, "
                f"expected {wanted}",
                found=found,
                expected=wanted,
            )
        factor = factor[:, :wanted]
        w_n = residual[:, piv[:wanted]] @ dtrtri(factor[:wanted], lower=1)[0].T
        points = np.empty_like(factor)
        points[piv] = factor
        points /= root[:, None]
        points[:, _fix_column_signs(w_n)] *= -1.0
        return NullProjector(w_n=w_n, mean=mean), points


def fit_nfst(
    labeled: FeatureTable, state: NullSpaceState | None = None
) -> tuple[NullProjector, np.ndarray]:
    """Append a fully labeled table's classes to a state and fit the c-1 null
    projecting directions of every class it then holds; returns them with
    the (c, c-1) class points, in the state's class order.

    Without a state, a fresh one takes all rows. The table must hold only
    classes new to the state: append_classes rejects a held label or a wrong
    dimension, leaving the state unchanged. See NullSpaceState for the
    construction.
    """
    if labeled.n == 0:
        raise DataValidationError("cannot fit the null space of an empty table")
    labels = labeled.label_values()
    if len(labels) != labeled.n:
        raise DataValidationError("null-space input must contain labeled rows only")
    if state is None:
        state = NullSpaceState(labeled.dim)
    state.append_classes(labeled.features, labels)
    return state.projector()


def project_null(projector: NullProjector, x: np.ndarray) -> np.ndarray:
    """Project rows x (m, d) into the null space: W_N^T (x - mean), (m, c-1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != projector.dim:
        raise DataValidationError(f"input {x.shape} is not rows of dimension {projector.dim}")
    return (x - projector.mean) @ projector.w_n
