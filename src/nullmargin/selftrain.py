"""Recursive self-training: mine pseudo-classes, augment, refit, repeat.

Each round fits the primary space on the current labeled set, mines
cross-view pseudo-classes from the unlabeled pool, keeps the top quarter of
the round's candidates (by affinity rank; small harvests are kept whole), and
moves the matched (camera_id, within_view_id) groups of the pool (a dict of
row groups, formed once per loop) into the labeled set under fresh labels. The
loop stops when no pairs survive, the pool can no longer host an anchor, or
the round cap is reached. A final refit on the augmented labeled set is
always returned. Every accepting round strictly grows the labeled class
count and shrinks the identity pool, so termination never relies on the cap.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

# concat_tables is not called here: bench/spans.py traces it under this
# module's name.
from .dataio import FeatureTable, _integer, _real, concat_tables, group_rows  # noqa: F401
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
    kernel: KernelSpec = field(default_factory=KernelSpec)

    def __post_init__(self):
        for name in ("k", "max_iterations"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, minimum=1))
        object.__setattr__(self, "quantile", _real(self.quantile, "quantile"))
        if not (0 < self.quantile <= 1):
            raise DataValidationError("quantile must be in (0, 1]")
        if not isinstance(self.kernel, KernelSpec):
            raise DataValidationError(f"kernel must be a KernelSpec, got {self.kernel!r}")


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
    # 0 < quantile <= 1, so 1 <= keep <= len(pairs)
    keep = len(pairs) if len(pairs) < _SMALL_HARVEST else math.ceil(len(pairs) * cfg.quantile)
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
    in unlabeled row order, under fresh class labels. The pool is the
    unlabeled rows' (camera_id, within_view_id) groups from group_rows,
    formed once; a round pops the groups it moves, and find_anchor lays out
    what remains. A failed fit or mining step raises SelfTrainingError naming
    the iteration.
    """
    real_labels = labeled.label_values()
    if len(np.unique(real_labels)) < 2:
        raise DataValidationError("self-training needs >= 2 labeled classes to start")
    new = labeled
    pool = group_rows(unlabeled.camera_ids, unlabeled.within_view_ids)
    next_label = max(PSEUDO_LABEL_BASE, int(real_labels.max()) + 1)
    # each pseudo label moves at least two pool rows; all labels are int64
    if next_label + unlabeled.n > np.iinfo(np.int64).max:
        raise DataValidationError("labeled identities leave no int64 room for pseudo labels")
    state = NullSpaceState(labeled.dim)
    records = []
    for iteration in range(cfg.max_iterations + 1):
        try:
            model = fit_nk3ml(new, cfg.kernel, state)
        except NullmarginError as err:
            raise SelfTrainingError(f"primary fit failed at iteration {iteration}: {err}") from err
        checksum = model_checksum(model)

        pairs = []
        anchor = find_anchor(unlabeled.features, pool) if iteration < cfg.max_iterations else None
        if anchor is not None:
            try:
                ctx = build_anchor_context(anchor, model, cfg.kernel)
                pairs = mine_pseudo_classes(ctx, k=cfg.k, iteration=iteration)
            except NullmarginError as err:
                raise SelfTrainingError(f"mining failed at iteration {iteration}: {err}") from err
        accepted, threshold = _select_pairs(pairs, cfg) if pairs else ([], None)
        records.append(IterationRecord(
            iteration, len(state.labels), len(pairs), len(accepted), threshold, checksum
        ))
        if not pairs:
            break

        labels = np.full(unlabeled.n, -1, dtype=np.int64)
        for pc in accepted:
            labels[pool.pop(pc.anchor_identity)] = next_label
            labels[pool.pop(pc.matched_identity)] = next_label
            next_label += 1
        moved = np.flatnonzero(labels >= 0)
        new = replace(unlabeled.subset(moved), identities=labels[moved].tolist())
    return model, LoopTrace(records)
