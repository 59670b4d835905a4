"""Class sums and the scatter statistics of a labeled table.

Scatter matrices use unnormalized sums: S_w = sum_i sum_{x in C_i}
(x - m_i)(x - m_i)^T and S_b = sum_i n_i (m_i - m)(m_i - m)^T. They are kept
only in factored form (centered data matrices), so they never form a d x d
matrix at feature dimensions in the tens of thousands. Fits and mining call
only class_sums; compute_scatter serves the tests and the benchmark's tracer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import FeatureTable
from .errors import DataValidationError


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
