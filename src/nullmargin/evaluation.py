"""CMC evaluation under the probe/gallery protocol, averaged over trials.

Rankings sort the gallery by Euclidean distance in embedding space (exact
ties resolve to the lower gallery index). Rank-N accuracy is the percentage
of probes whose earliest correct-identity gallery position is <= N. The
protocol runner splits, fits (labeled-only or with self-training), reduces
probe and gallery to one image per identity per camera, and averages the
per-trial accuracy percentages.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

from ._blas import blas_threads
from .dataio import ExperimentSplit, FeatureTable, SplitSpec, group_rows, make_split, _integer, _trial_rng
from .errors import DataValidationError, ProtocolError
from .nfst import NullProjector, span_coefficients
from .nk3ml import Nk3mlModel, embed, fit_nk3ml, model_checksum
from .selftrain import LoopConfig, LoopTrace, run_self_training

DEFAULT_RANKS = (1, 5, 10, 20)

MODES = ("labeled_only", "semi_supervised")

# Width of the feature-column blocks a trial's model is lifted in. The lifted
# model's bits depend on this constant alone, not on the host's core count.
# Each lift worker gathers at most n_train x LIFT_BLOCK train-row values
# (2.6 MB at 632 train rows). On a 2-vCPU host the viper-shape lift took the
# same time at any width from 256 to 2048 columns, so 512 lowers peak memory
# at no cost in time.
LIFT_BLOCK = 512


@dataclass(frozen=True)
class CmcCurve:
    ranks: tuple[tuple[int, float], ...]   # (N, accuracy percentage)

    def accuracy_at(self, n: int) -> float:
        for rank, acc in self.ranks:
            if rank == n:
                return acc
        raise KeyError(f"rank {n} not evaluated")


@dataclass
class ProtocolResult:
    curve: CmcCurve
    per_trial: tuple[CmcCurve, ...]
    model_checksums: tuple[str, ...]
    bandwidths: tuple[float, ...]
    final_model: Nk3mlModel
    final_trace: LoopTrace | None


def rank_gallery(model: Nk3mlModel, probe: FeatureTable, gallery: FeatureTable) -> np.ndarray:
    """(n_probe, n_gallery) gallery indices, ascending embedding distance."""
    if probe.n == 0 or gallery.n == 0:
        raise DataValidationError("probe and gallery must be nonempty")
    dist = cdist(embed(model, probe.features), embed(model, gallery.features))
    return np.argsort(dist, axis=1, kind="stable")


def cmc(rankings: np.ndarray, probe_identities, gallery_identities, ns) -> CmcCurve:
    """Rank-N accuracies from per-probe gallery rankings.

    Raises DataValidationError for ranks that are not nonempty, distinct
    integers >= 1 or a probe without an identity, and ProtocolError (naming
    the identity) if a probe identity never occurs in the gallery; extra
    gallery-only identities and unlabeled gallery rows are fine.
    """
    ns, _ = _protocol_args((), ns)
    probe_ids = list(probe_identities)
    if None in probe_ids:
        raise DataValidationError(f"probe row {probe_ids.index(None)} has no identity")
    gallery_ids = np.asarray(list(gallery_identities))
    if rankings.shape != (len(probe_ids), len(gallery_ids)):
        raise DataValidationError(
            f"rankings shape {rankings.shape} does not match "
            f"{len(probe_ids)} probes x {len(gallery_ids)} gallery entries"
        )
    positions = np.empty(len(probe_ids), dtype=np.int64)
    for i, ident in enumerate(probe_ids):
        hits = np.flatnonzero(gallery_ids[rankings[i]] == ident)
        if hits.size == 0:
            raise ProtocolError(f"probe identity {ident} not present in the gallery")
        positions[i] = hits[0] + 1
    ranks = tuple((n, 100.0 * float(np.count_nonzero(positions <= n)) / len(probe_ids)) for n in ns)
    return CmcCurve(ranks=ranks)


def _protocol_args(modes, ns, threads=1) -> tuple[tuple[int, ...], int]:
    """ns and threads as ints; DataValidationError unless every mode is in
    MODES, the ranks are nonempty, distinct integers >= 1 and threads >= 1."""
    for mode in modes:
        if mode not in MODES:
            raise DataValidationError(f"mode must be one of {MODES}, got {mode!r}")
    threads = _integer(threads, "threads", minimum=1)
    ns = tuple(_integer(n, "rank", minimum=1) for n in ns)
    if not ns or len(set(ns)) != len(ns):
        raise DataValidationError(f"ranks must be nonempty and distinct, got {ns}")
    return ns, threads


def single_shot_view(table: FeatureTable, seed: int, trial: int) -> FeatureTable:
    """One image per (identity, camera) of a labeled table, by the trial's stream."""
    rng = _trial_rng(seed ^ 0x5351, _integer(trial, "trial"))   # decorrelated from the split stream
    groups = group_rows(np.array(table.identities, dtype=np.int64), table.camera_ids)
    keep = [rows[0] if len(rows) == 1 else rows[int(rng.integers(len(rows)))]
            for rows in groups.values()]
    return table.subset(sorted(keep))


def _run_trial(
    table: FeatureTable,
    spec: SplitSpec,
    cfg: LoopConfig,
    mode: str,
    ns,
    trial: int,
    gram: np.ndarray,
) -> tuple[CmcCurve, Nk3mlModel, np.ndarray, np.ndarray, LoopTrace | None]:
    # The split runs on a view of the table whose one feature is the row
    # number, so its parts name rows of the table and copy no features.
    row_view = replace(table, features=np.arange(table.n, dtype=np.float64)[:, None])
    split: ExperimentSplit = make_split(row_view, spec, trial)
    # The trial runs in the coordinates x -> U^T x of an orthonormal basis
    # U = T^T A of the span of the train rows T its fit reads: the labeled
    # rows for a labeled_only trial, labeled and unlabeled rows for a
    # semi_supervised one, whose loop embeds and moves pool rows. Every fitted
    # direction and mean lies in that span, so the change of basis preserves
    # scatter, null directions, kernel distances and rankings exactly while
    # each fit works in at most n_train dimensions; the model stays there, and
    # _lift maps it back with U. A row's coordinates x T^T A come from the table Gram.
    train = _rows(split.labeled)
    if mode != "labeled_only":
        train = np.concatenate([train, _rows(split.unlabeled)])
    coeffs = span_coefficients(gram[np.ix_(train, train)], table.dim)

    def to_span(part: FeatureTable) -> FeatureTable:
        return replace(part, features=gram[np.ix_(_rows(part), train)] @ coeffs)

    labeled = to_span(split.labeled)
    if mode == "labeled_only":
        model = fit_nk3ml(labeled, cfg.kernel)
        trace = None
    else:
        model, trace = run_self_training(labeled, to_span(split.unlabeled), cfg)
    probe = to_span(single_shot_view(split.probe, spec.seed, trial))
    gallery = to_span(single_shot_view(split.gallery, spec.seed, trial))
    rankings = rank_gallery(model, probe, gallery)
    return cmc(rankings, probe.identities, gallery.identities, ns), model, train, coeffs, trace


def _lift(
    features: np.ndarray, train: np.ndarray, coeffs: np.ndarray, span: NullProjector
) -> NullProjector:
    """A projector fitted in span coordinates, in feature coordinates:
    w_n = T^T (A w), mean = T^T (A m) for the train rows T = features[train].

    A run lifts one model per mode, after its trials. T is never gathered
    whole. Each LIFT_BLOCK-wide column block of both products is formed from
    that block of the train rows, into preallocated outputs, on min(usable
    cores, blocks) threads, each GEMM at the caller's BLAS thread count. So
    each thread holds at most n_train x LIFT_BLOCK gathered values at a time.
    """
    w_span, mean_span = coeffs @ span.w_n, coeffs @ span.mean
    dim = features.shape[1]
    w_n = np.empty((dim, w_span.shape[1]))
    mean = np.empty(dim)

    def lift_block(start: int) -> None:
        block = features[train, start:start + LIFT_BLOCK].T
        np.matmul(block, w_span, out=w_n[start:start + LIFT_BLOCK])
        np.matmul(block, mean_span, out=mean[start:start + LIFT_BLOCK])

    starts = range(0, dim, LIFT_BLOCK)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=min(cores or 1, len(starts))) as pool:
        list(pool.map(lift_block, starts))
    return NullProjector(w_n=w_n, mean=mean)


def _rows(part: FeatureTable) -> np.ndarray:
    """Table row numbers of a part of the row-number view."""
    return part.features[:, 0].astype(np.intp)


def run_protocol(
    table: FeatureTable,
    spec: SplitSpec,
    cfg: LoopConfig,
    mode: str,
    ns=DEFAULT_RANKS,
    threads: int = 1,
) -> ProtocolResult:
    """Split/fit/evaluate over spec.trials trials and average the accuracies.

    The table Gram X X^T is formed once, at the BLAS library's own thread
    count; each trial takes its train, probe and gallery products from it.
    Trials run with BLAS at one thread, so no result depends on the BLAS
    thread count. They are independent and run on a pool of `threads`
    threads; results are accumulated in trial order, so output is identical
    at any thread count. Each trial but the last hashes its span-coordinate
    model; the last one's is lifted and hashed on that pool after all return.
    """
    return run_protocols(table, spec, cfg, (mode,), ns, threads)[0]


def run_protocols(
    table: FeatureTable,
    spec: SplitSpec,
    cfg: LoopConfig,
    modes,
    ns=DEFAULT_RANKS,
    threads: int = 1,
) -> tuple[ProtocolResult, ...]:
    """run_protocol for each of several modes, in order, on one table Gram.

    The protocol splits and scores by identity, so every row needs one. The
    ranks must be distinct integers >= 1, and threads an integer >= 1.
    """
    ns, threads = _protocol_args(modes, ns, threads)
    if None in table.identities:
        row = table.identities.index(None)
        raise DataValidationError(
            f"row {row} (sample_id {table.sample_ids[row]!r}) has no identity; "
            "the protocol needs one on every row"
        )
    gram = table.features @ table.features.T
    return tuple(_protocol(table, spec, cfg, mode, ns, threads, gram) for mode in modes)


def _protocol(table, spec, cfg, mode, ns, threads, gram) -> ProtocolResult:
    def trial(t: int) -> tuple:
        curve, model, train, coeffs, trace = _run_trial(table, spec, cfg, mode, ns, t, gram)
        # A run holds one model and trace, the last trial's; the others leave a checksum.
        kept = (model, train, coeffs, trace) if t == spec.trials - 1 else model_checksum(model)
        return curve, model.margin.resolved_bandwidth, kept

    def lift(model, train, coeffs, trace) -> tuple:
        # Lifted and hashed in one pool task, as a trial did: hashing on the
        # calling thread after the pool raised peak RSS by ~20 MiB in some runs.
        model = replace(model, nullproj=_lift(table.features, train, coeffs, model.nullproj))
        return model, model_checksum(model), trace

    with blas_threads(1), ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(trial, range(spec.trials)))
        model, checksum, trace = pool.submit(lift, *results[-1][2]).result()

    per_trial = tuple(res[0] for res in results)
    mean_ranks = tuple((n, float(np.mean([curve.accuracy_at(n) for curve in per_trial]))) for n in ns)
    return ProtocolResult(
        curve=CmcCurve(ranks=mean_ranks),
        per_trial=per_trial,
        model_checksums=tuple(res[2] for res in results[:-1]) + (checksum,),
        bandwidths=tuple(res[1] for res in results),
        final_model=model,
        final_trace=trace,
    )
