"""Null projecting directions: zero within-class scatter, positive between-class.

Scatter matrices use unnormalized sums, S_w = sum_i sum_{x in C_i}
(x - m_i)(x - m_i)^T and S_b = sum_i n_i (m_i - m)(m_i - m)^T, kept only as
factors (centered data matrices), never as d x d matrices. Fits and mining
read only class_sums; compute_scatter, the tests' reference for
NullSpaceState, is timed by the benchmark's tracer under this module's name.

The null space of S_w inside the span of the centered rows is the part of
the between-class vectors (the rows of the S_b factor) that lies outside the
span of the within-class rows. The construction has three steps: an
orthonormal basis Q of the within-class span, the residual R of the
between-class vectors off that span, and an orthonormal basis W_N of the
column span of R. Every column w of W_N then satisfies w^T S_w w = 0 and
w^T S_b w > 0, so all samples of one class project onto a single point.

Q and W_N, like a protocol trial's span, are bases taken from the pivoted
Cholesky factor of a small Gram; _blas states the factor and the rank rule
of each.

A NullSpaceState keeps Q and the class means' residuals off Q for a labeled
set that grows by whole classes, as the self-training loop grows it. A new
class leaves the within-class rows of the held classes unchanged, so Q only
gains directions: appending classes orthogonalises their within-class rows
against Q and extends Q from their residual's Gram (after Liu et al.,
"Incremental Kernel Null Space Discriminant Analysis for Novelty
Detection", CVPR 2017). The state also keeps the residuals' c x c Gram H and
the means' squared norms, which an append updates from the new directions
and classes alone. So a round forms no d x c^2 product beyond the null
basis itself: the projector centres H in O(c^2), takes trace(S_b) from the
squared norms, and forms the null basis from c-1 residual columns by one
triangular multiply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import _EPS, _pivoted_cholesky, routines
from .dataio import FeatureTable
from .errors import DataValidationError, DegenerateDataError

# Pivots of R^T R at or below NULL_TOL * trace(S_b) carry no null direction:
# the between-class vectors have no part outside the within-class span along
# them.
NULL_TOL = 1e-10


@dataclass
class ScatterStats:
    """Scatter statistics of one labeled sample set. Treat as immutable."""

    class_labels: np.ndarray     # (c,) int64, ascending
    class_means: np.ndarray      # (c, d)
    class_counts: np.ndarray     # (c,) int64
    global_mean: np.ndarray      # (d,)
    within_factor: np.ndarray    # (n, d), rows x - m_class; S_w = F^T F
    between_factor: np.ndarray   # (c, d), rows sqrt(n_i) (m_i - m); S_b = G^T G


def class_sums(x: np.ndarray, inverse: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(c, ...) sums of the rows of x in each class; row r is in class
    inverse[r], and class j holds counts[j] rows."""
    # reduceat over class-sorted rows (np.add.at is unbuffered and far too
    # slow at d in the tens of thousands)
    order = np.argsort(inverse, kind="stable")
    starts = np.zeros(len(counts), dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]
    return np.add.reduceat(x[order], starts, axis=0)


def compute_scatter(table: FeatureTable) -> ScatterStats:
    """Scatter statistics of a fully labeled table.

    Requires at least two classes and rejects unlabeled rows; restrict the
    table to its labeled rows first (``table.subset(mask)``).
    """
    if table.n == 0:
        raise DataValidationError("cannot compute scatter of an empty table")
    if not all(ident is not None for ident in table.identities):
        raise DataValidationError("scatter input must contain labeled rows only")
    labels = table.label_values()
    class_labels, inverse = np.unique(labels, return_inverse=True)
    if len(class_labels) < 2:
        raise DataValidationError("scatter needs at least 2 classes")

    x = table.features
    counts = np.bincount(inverse, minlength=len(class_labels)).astype(np.int64)
    means = class_sums(x, inverse, counts) / counts[:, None]
    global_mean = x.mean(axis=0)
    return ScatterStats(
        class_labels=class_labels,
        class_means=means,
        class_counts=counts,
        global_mean=global_mean,
        within_factor=x - means[inverse],
        between_factor=np.sqrt(counts)[:, None] * (means - global_mean),
    )


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


class NullSpaceState:
    """Within-class span and class means of a labeled set grown by whole classes.

    Holds the orthonormal within-class basis Q (d, r), the class labels,
    counts and means in append order, and the rank scale: the largest squared
    norm of any within-class row appended, taken before its projection off Q,
    which never shrinks. That is the first pivot a factor of all within-class
    rows at once would take.

    The means are also kept relative to a fixed origin, the count-weighted
    mean of the first classes appended: their residuals E off Q (d, c), the
    c x c Gram H = E^T E, and each class's squared norm |m_i - origin|^2.
    Centring is invariant to the origin, and an origin near the data keeps a
    large common offset out of H and the squared norms, where the
    projector's O(c^2) centring would cancel it. An append updates H in
    d x c x c_new, and the projector forms W_N from c-1 columns of E, so a
    round forms no other d x c^2 product.
    """

    def __init__(self, dim: int):
        self.basis = np.zeros((dim, 0))
        self.labels = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros(0, dtype=np.int64)
        self.means = np.zeros((0, dim))
        self.origin = np.zeros(dim)
        self.residuals = np.zeros((dim, 0))
        self.gram = np.zeros((0, 0))
        self.sq_norms = np.zeros(0)
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
        what is left, from the pivoted Cholesky factor of its Gram, stopped
        at numpy's matrix_rank tolerance max(rows, d) * eps taken relative to
        the kept scale, not to this Gram's own largest pivot, so a row
        already in the span (a residual of rounding noise) adds no direction.

        The new directions D take the held residuals E to E' = E - D D^T E,
        and H's held block to H - (D^T E)^T (D^T E), as D^T D = I; the new
        classes' residuals F add F^T [E', F] as H's new rows and columns.
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
        scale = max(self.scale, float(np.square(within).sum(axis=1).max(initial=0.0)))
        for _ in range(2):
            within -= (within @ self.basis) @ self.basis.T
        within_rows = self.n - len(self.labels) + within.shape[0]
        tol = scale * max(within_rows, self.dim) * _EPS
        piv, _, inv_t = _pivoted_cholesky(within @ within.T, tol)
        directions = within[piv[: len(inv_t)]].T @ inv_t              # (d, k)
        basis = np.hstack([self.basis, directions])
        c_old = len(self.labels)
        origin = self.origin if c_old else counts @ means / counts.sum()
        shifted = means - origin
        along = directions.T @ self.residuals                          # (k, c_old)
        fresh = shifted - (shifted @ basis) @ basis.T                  # (c_new, d)
        residuals = np.hstack([self.residuals - directions @ along, fresh.T])
        gram = np.empty((c_old + len(new),) * 2)
        gram[:c_old, :c_old] = self.gram - along.T @ along
        gram[c_old:] = fresh @ residuals
        gram[:c_old, c_old:] = gram[c_old:, :c_old].T
        self.basis = basis
        self.origin = origin
        self.residuals = residuals
        self.gram = gram
        self.sq_norms = np.concatenate([self.sq_norms, np.square(shifted).sum(axis=1)])
        self.labels = np.concatenate([self.labels, new])
        self.counts = np.concatenate([self.counts, counts])
        self.means = np.vstack([self.means, means])
        self.scale = scale

    def projector(self) -> tuple[NullProjector, np.ndarray]:
        """The c-1 null projecting directions of the classes held, and the
        classes' points in the null space.

        The between-class vectors sqrt(n_i) (m_i - m), m the count-weighted
        mean of the class means, have the residual R (d, c) off Q. Its rank is
        at most c-1, as the count-weighted sum of the columns is zero. Its
        Gram G = R^T R is H centred and scaled in O(c^2), and trace(S_b) is
        counts . sq_norms - n |m - origin|^2. With the pivoted Cholesky factor
        P^T G P = L L^T, W_N = R P B for B = L^-T over the first c-1 pivots,
        formed from those c-1 columns of R alone by one triangular multiply.
        Raises DegenerateDataError when fewer than c-1 pivots exceed
        NULL_TOL * trace(S_b), i.e. the data are not in general position.

        W_N is orthogonal to Q, so class i's point W_N^T (m_i - m) is
        W_N^T R e_i / sqrt(n_i) = (B^T P^T G)^T e_i / sqrt(n_i), and G P B is
        the factor's first c-1 columns, P L[:, :c-1]: row i of the (c, c-1)
        points is read off the factor, and no d-wide product is formed. The
        factor's positive diagonal fixes each column's sign.
        """
        wanted = len(self.labels) - 1
        if wanted < 1:
            raise DataValidationError("null-space fit needs at least 2 classes")
        weights = self.counts / self.n
        mean = weights @ self.means
        root = np.sqrt(self.counts)
        # G = diag(root) (H - h 1^T - 1 h^T + (w^T h) 1 1^T) diag(root), h = H w
        h = self.gram @ weights
        gram = (self.gram - h[:, None] - h[None, :] + weights @ h) * np.outer(root, root)
        trace_b = float(self.counts @ self.sq_norms - self.n * np.square(mean - self.origin).sum())
        piv, factor, inv_t = _pivoted_cholesky(gram, NULL_TOL * trace_b)
        found = factor.shape[1]
        if found < wanted:
            raise DegenerateDataError(
                f"data not in general position: found {found} null directions, "
                f"expected {wanted}"
            )
        kept = piv[:wanted]
        columns = self.residuals[:, kept]
        columns -= (self.residuals @ weights)[:, None]
        columns *= root[kept]
        # W_N^T = B^T columns^T, on the Fortran view of the C-ordered columns:
        # W_N comes back C-ordered, as a loaded model holds it.
        w_n = routines().trmm(inv_t[:wanted, :wanted], columns.T).T
        points = factor[np.argsort(piv), :wanted] / root[:, None]
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
