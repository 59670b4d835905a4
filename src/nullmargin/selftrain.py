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

from .dataio import FeatureTable, concat_tables
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


def _labeled_class_count(table: FeatureTable) -> int:
    return len({ident for ident in table.identities if ident is not None})


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

    The labeled table only grows by whole new classes, appended after its
    rows, so one NullSpaceState serves every round's fit and each refit
    appends only the round's new classes. Fit failures raise
    SelfTrainingError with the trace accumulated so far.
    """
    if _labeled_class_count(labeled) < 2:
        raise DataValidationError("self-training needs >= 2 labeled classes to start")
    trace = LoopTrace()
    current = labeled
    pool = unlabeled
    real_labels = [ident for ident in labeled.identities if ident is not None]
    next_label = max(PSEUDO_LABEL_BASE, max(real_labels) + 1)
    state = NullSpaceState(labeled.dim)

    iteration = 0
    while True:
        try:
            model = fit_nk3ml(current, cfg.kernel, state)
        except NullmarginError as err:
            raise SelfTrainingError(
                f"primary fit failed at iteration {iteration}: {err}", trace=trace
            ) from err
        checksum = model_checksum(model)

        classes_now = _labeled_class_count(current)
        pairs = []
        if iteration < cfg.max_iterations and find_anchor(pool) is not None:
            try:
                ctx = build_anchor_context(pool, model, cfg.kernel)
                pairs = mine_pseudo_classes(ctx, pool, k=cfg.k, iteration=iteration)
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

        label_of: dict[tuple[int, int], int] = {}
        for pc in accepted:
            label_of[pc.anchor_identity] = next_label
            label_of[pc.matched_identity] = next_label
            next_label += 1
        move_mask = np.array(
            [
                (int(pool.camera_ids[i]), int(pool.within_view_ids[i])) in label_of
                for i in range(pool.n)
            ]
        )
        moved = pool.subset(move_mask)
        moved = moved.with_identities(
            [
                label_of[(int(moved.camera_ids[i]), int(moved.within_view_ids[i]))]
                for i in range(moved.n)
            ]
        )
        current = concat_tables(current, moved)
        pool = pool.subset(~move_mask)
        iteration += 1
