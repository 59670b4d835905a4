"""Recursive self-training: mine pseudo-classes, augment, refit, repeat.

Each round fits the primary space on the current labeled set, mines
cross-view pseudo-classes from the unlabeled pool, keeps the top quarter of
the round's candidates (by affinity rank; small harvests are kept whole), and
moves the matched samples into the labeled set under fresh class labels. The
loop stops when no pairs survive, the pool can no longer host an anchor, or
the round cap is reached. A final refit on the augmented labeled set is
always returned. Every accepting round strictly grows the labeled class
count and shrinks the identity pool, so termination never relies on the cap.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

# concat_tables is not called here: bench/spans.py traces it under this
# module's name.
from .dataio import FeatureTable, concat_tables  # noqa: F401
from .errors import DataValidationError, NullmarginError, SelfTrainingError
from .kmmc import KernelSpec
from .mining import PseudoClass, build_anchor_context, find_anchor, mine_pseudo_classes
from .nfst import NullSpaceState
from .nk3ml import Nk3mlModel, fit_nk3ml, model_checksum

# Pseudo labels start here (or above any real label), keeping the namespace
# disjoint from ground-truth identities.
PSEUDO_LABEL_BASE = 1 << 32
# Below this many mined pairs the quantile is noise; accept the whole round.
_SMALL_HARVEST = 4


@dataclass(frozen=True)
class LoopConfig:
    k: int = 1
    quantile: float = 0.25
    max_iterations: int = 20
    min_new_classes: int = 1
    kernel: KernelSpec = field(default_factory=KernelSpec)

    def __post_init__(self):
        if not (0 < self.quantile <= 1):
            raise DataValidationError("quantile must be in (0, 1]")
        if self.max_iterations < 1:
            raise DataValidationError("max_iterations must be >= 1")
        if self.k < 1:
            raise DataValidationError("k must be >= 1")
        if self.min_new_classes < 1:
            raise DataValidationError("min_new_classes must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    labeled_classes: int
    pseudo_mined: int
    pseudo_accepted: int
    affinity_threshold: float | None
    model_checksum: str


@dataclass
class LoopTrace:
    records: list[IterationRecord] = field(default_factory=list)

    def write_jsonl(self, path) -> None:
        lines = [json.dumps(asdict(rec), sort_keys=True) for rec in self.records]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _select_pairs(pairs: list[PseudoClass], cfg: LoopConfig) -> tuple[list[PseudoClass], float]:
    """Top slice of the affinity-ranked candidates for this round."""
    if len(pairs) < _SMALL_HARVEST:
        keep = len(pairs)
    else:
        keep = max(math.ceil(len(pairs) * cfg.quantile), cfg.min_new_classes)
        keep = min(keep, len(pairs))
    accepted = pairs[:keep]
    return accepted, accepted[-1].affinity


def run_self_training(
    labeled: FeatureTable,
    unlabeled: FeatureTable,
    cfg: LoopConfig,
) -> tuple[Nk3mlModel, LoopTrace]:
    """Run the loop; returns the final refitted model and the iteration trace.

    One NullSpaceState holds the labeled set: the first fit appends the
    labeled table's classes, each later refit only the round's moved rows,
    in pool order, under fresh class labels. The AnchorContext of a round
    holds the pool's (camera_id, within_view_id) groups that the moved rows
    are taken from. Fit failures raise SelfTrainingError with the trace
    accumulated so far.
    """
    real_labels = labeled.label_values()
    if len(np.unique(real_labels)) < 2:
        raise DataValidationError("self-training needs >= 2 labeled classes to start")
    trace = LoopTrace()
    new = labeled
    pool = unlabeled
    next_label = max(PSEUDO_LABEL_BASE, int(real_labels.max()) + 1)
    # each pseudo label moves at least two pool rows; all labels are int64
    if next_label + unlabeled.n > np.iinfo(np.int64).max:
        raise DataValidationError("labeled identities leave no int64 room for pseudo labels")
    state = NullSpaceState(labeled.dim)

    iteration = 0
    while True:
        try:
            model = fit_nk3ml(new, cfg.kernel, state)
        except NullmarginError as err:
            raise SelfTrainingError(
                f"primary fit failed at iteration {iteration}: {err}", trace=trace
            ) from err
        checksum = model_checksum(model)

        classes_now = len(state.labels)
        pairs = []
        anchor = find_anchor(pool) if iteration < cfg.max_iterations else None
        if anchor is not None:
            try:
                ctx = build_anchor_context(anchor, model, cfg.kernel)
                pairs = mine_pseudo_classes(ctx, k=cfg.k, iteration=iteration)
            except NullmarginError as err:
                raise SelfTrainingError(
                    f"mining failed at iteration {iteration}: {err}", trace=trace
                ) from err
        if not pairs:
            trace.records.append(
                IterationRecord(iteration, classes_now, 0, 0, None, checksum)
            )
            return model, trace

        accepted, threshold = _select_pairs(pairs, cfg)
        trace.records.append(
            IterationRecord(iteration, classes_now, len(pairs), len(accepted), threshold, checksum)
        )

        labels = np.full(pool.n, -1, dtype=np.int64)
        for pc in accepted:
            labels[ctx.groups[pc.anchor_identity]] = next_label
            labels[ctx.groups[pc.matched_identity]] = next_label
            next_label += 1
        move = labels >= 0
        new = pool.subset(move).with_identities(labels[move].tolist())
        pool = pool.subset(~move)
        iteration += 1
