"""Class scatter statistics and the Fisher ratio.

Scatter matrices use unnormalized sums: S_w = sum_i sum_{x in C_i}
(x - m_i)(x - m_i)^T and S_b = sum_i n_i (m_i - m)(m_i - m)^T. They are kept
only in factored form (centered data matrices) so quadratic forms stay O(n*d)
at feature dimensions in the tens of thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import FeatureTable
from .errors import DataValidationError, UndefinedFisherValueError

# Relative floor below which a quadratic form counts as numerically zero.
_ZERO_REL = 1e-12


@dataclass
class ScatterStats:
    """Scatter statistics of one labeled sample set. Treat as immutable."""

    class_labels: np.ndarray     # (c,) int64, ascending
    class_means: np.ndarray      # (c, d)
    class_counts: np.ndarray     # (c,) int64
    global_mean: np.ndarray      # (d,)
    within_factor: np.ndarray    # (n, d), rows x - m_class; S_w = F^T F
    between_factor: np.ndarray   # (c, d), rows sqrt(n_i) (m_i - m); S_b = G^T G

    @property
    def n(self) -> int:
        return self.within_factor.shape[0]

    @property
    def dim(self) -> int:
        return self.within_factor.shape[1]

    @property
    def class_count(self) -> int:
        return len(self.class_labels)

    @property
    def trace_within(self) -> float:
        return float(np.sum(self.within_factor ** 2))

    @property
    def trace_between(self) -> float:
        return float(np.sum(self.between_factor ** 2))

    def within_quadratic(self, w: np.ndarray) -> float:
        """w^T S_w w from the factor."""
        return float(np.sum((self.within_factor @ w) ** 2))

    def between_quadratic(self, w: np.ndarray) -> float:
        """w^T S_b w from the factor."""
        return float(np.sum((self.between_factor @ w) ** 2))


def class_means(x: np.ndarray, inverse: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(c, d) means of the rows of x in each class; row r is in class inverse[r]."""
    # class sums via reduceat over class-sorted rows (np.add.at is unbuffered
    # and far too slow at d in the tens of thousands)
    order = np.argsort(inverse, kind="stable")
    starts = np.zeros(len(counts), dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]
    return np.add.reduceat(x[order], starts, axis=0) / counts[:, None]


def compute_scatter(table: FeatureTable) -> ScatterStats:
    """Scatter statistics of a fully labeled table.

    Requires at least two classes and rejects unlabeled rows; restrict the
    table first (``table.labeled_subset()``).
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
    means = class_means(x, inverse, counts)
    global_mean = x.mean(axis=0)
    return ScatterStats(
        class_labels=class_labels,
        class_means=means,
        class_counts=counts,
        global_mean=global_mean,
        within_factor=x - means[inverse],
        between_factor=np.sqrt(counts)[:, None] * (means - global_mean),
    )


def fisher_value(stats: ScatterStats, w: np.ndarray) -> float:
    """Fisher ratio (w^T S_b w) / (w^T S_w w) for a unit direction.

    Returns math.inf when the denominator is numerically zero but the
    numerator is positive (a null projecting direction); raises
    UndefinedFisherValueError when both are numerically zero.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (stats.dim,):
        raise DataValidationError(f"direction has shape {w.shape}, expected ({stats.dim},)")
    if abs(np.linalg.norm(w) - 1.0) > 1e-8:
        raise DataValidationError("fisher_value expects a unit-norm direction")
    num = stats.between_quadratic(w)
    den = stats.within_quadratic(w)
    den_zero = den <= _ZERO_REL * stats.trace_within
    num_zero = num <= _ZERO_REL * stats.trace_between
    if den_zero and num_zero:
        raise UndefinedFisherValueError("both scatter quadratic forms vanish for this direction")
    if den_zero:
        return math.inf
    return num / den
