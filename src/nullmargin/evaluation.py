"""CMC evaluation under the probe/gallery protocol, averaged over trials.

Rankings sort the gallery by Euclidean distance in embedding space (exact
ties resolve to the lower gallery index). Rank-N accuracy is the percentage
of probes whose earliest correct-identity gallery position is <= N. The
protocol runner splits, fits (labeled-only or with self-training), reduces
probe and gallery to one image per identity per camera, and averages the
per-trial accuracy percentages.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from ._binio import write_parts
from ._blas import all_finite, blas_threads, distances, span_coefficients, usable_cores
from .dataio import ExperimentSplit, FeatureTable, SplitSpec, group_rows, make_split, _integer, _trial_rng
from .errors import DataValidationError, DegenerateDataError, NumericalError, ProtocolError
from .nfst import NullProjector
from .nk3ml import Nk3mlModel, _container_parts, embed, fit_nk3ml, model_checksum
from .selftrain import LoopConfig, LoopTrace, run_self_training

DEFAULT_RANKS = (1, 5, 10, 20)

MODES = ("labeled_only", "semi_supervised")

# Width of the feature-column blocks a span model is lifted in, by
# SpanModel.lift and SpanModel.save; a protocol pass lifts nothing. The lifted
# model's bits depend on this constant alone, not on the host's core count.
# A lift holds one window of blocks: each of its workers gathers at most
# n_train x LIFT_BLOCK train-row values (2.6 MB at 632 train rows), and about
# one LIFT_BLOCK-row block of w_n per worker is formed and not yet consumed.
# On a 2-vCPU host the viper-shape lift took the same time at any width from
# 256 to 2048 columns, so 512 lowers peak memory at no cost in time.
LIFT_BLOCK = 512


@dataclass(frozen=True)
class CmcCurve:
    ranks: tuple[tuple[int, float], ...]   # (N, accuracy percentage)

    def accuracy_at(self, n: int) -> float:
        for rank, acc in self.ranks:
            if rank == n:
                return acc
        raise KeyError(f"rank {n} not evaluated")


@dataclass(frozen=True)
class SpanModel:
    """A model fitted in the span coordinates x -> x T^T A of the train rows
    T = features[train], A = coeffs; lifted, its projector is w_n = T^T (A w),
    mean = T^T (A m). lift() forms the lifted model in memory, for callers
    that embed with it; save() streams its container to a file block by
    block. Both lift at one BLAS thread, so their bits match the checksum
    save returns; that count is process-wide, so call them outside
    concurrent workers.
    """
    model: Nk3mlModel
    train: np.ndarray
    coeffs: np.ndarray

    def lift(self, features: np.ndarray) -> Nk3mlModel:
        with blas_threads(1), closing(_lift(features, self)) as lifted:
            mean = next(lifted)
            w_n = np.empty((len(mean), self.model.nullproj.n_directions))
            for start, block in zip(range(0, len(mean), LIFT_BLOCK), lifted):
                w_n[start:start + LIFT_BLOCK] = block
        return replace(self.model, nullproj=NullProjector(w_n=w_n, mean=mean))

    def save(self, features: np.ndarray, path) -> str:
        """Write the lifted model's container to path; returns the file's SHA-256."""
        # closed on a failed write, so the lift pool never outlives the call
        with blas_threads(1), closing(_lifted_parts(features, self)) as parts:
            return write_parts(parts, path)


@dataclass
class ProtocolResult:
    curve: CmcCurve
    per_trial: tuple[CmcCurve, ...]
    # every trial's checksum of its span-coordinate model, the last one's
    # included; final_span.save returns the checksum of the lifted file
    model_checksums: tuple[str, ...]
    bandwidths: tuple[float, ...]
    final_span: SpanModel            # the last trial's model; no lifted model is held
    final_trace: LoopTrace | None


def rank_gallery(model: Nk3mlModel, probe: FeatureTable, gallery: FeatureTable) -> np.ndarray:
    """(n_probe, n_gallery) gallery indices, ascending embedding distance."""
    if probe.n == 0 or gallery.n == 0:
        raise DataValidationError("probe and gallery must be nonempty")
    dist = distances(embed(model, probe.features), embed(model, gallery.features))
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
    if coeffs.shape[1] == 0:
        raise DegenerateDataError(
            f"trial {trial}: the train rows span no direction: their Gram is 0, "
            "so their features are zero or too small to square in float64"
        )

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


def _lift(features: np.ndarray, span: SpanModel):
    """The span model's projector in feature coordinates, as a stream: the
    lifted mean, whole, then w_n in LIFT_BLOCK-row blocks, in order.

    T is never gathered whole. Each LIFT_BLOCK-wide column block of both
    products is formed from that block of the train rows on min(usable
    cores, blocks) threads, each GEMM at the caller's BLAS thread count: all
    of mean first, then the w_n blocks through an in-order window of about
    one block per worker. So a thread holds at most n_train x LIFT_BLOCK
    gathered values at a time, and no d-wide w_n is formed. Closing the
    stream early shuts its pool down.
    """
    nullproj = span.model.nullproj
    w_span, mean_span = span.coeffs @ nullproj.w_n, span.coeffs @ nullproj.mean
    dim = features.shape[1]
    mean = np.empty(dim)

    def gathered(start: int) -> np.ndarray:
        return features[span.train, start:start + LIFT_BLOCK].T

    def mean_block(start: int) -> None:
        np.matmul(gathered(start), mean_span, out=mean[start:start + LIFT_BLOCK])

    starts = range(0, dim, LIFT_BLOCK)
    workers = min(usable_cores(), len(starts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(mean_block, starts))
        yield mean
        window = deque()
        for start in starts:
            window.append(pool.submit(lambda s: gathered(s) @ w_span, start))
            if len(window) > workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


def _lifted_parts(features: np.ndarray, span: SpanModel):
    """The lifted model's container parts in file order, formed block by block."""
    with closing(_lift(features, span)) as lifted:
        yield from _container_parts(
            features.shape[1], span.model.nullproj.n_directions, lifted, span.model.margin
        )


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
    at any thread count. Every trial hashes its span-coordinate model, and
    the last one's is kept in span coordinates (final_span), so a pass lifts
    nothing: final_span.save(table.features, path) streams the lifted
    container to a file and returns its checksum, and
    final_span.lift(table.features) gives the lifted model to a caller that
    embeds with it.
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
    ranks must be distinct integers >= 1, and threads an integer >= 1. A
    table Gram that overflows float64 raises NumericalError, and train rows
    whose Gram is 0 raise DegenerateDataError.
    """
    ns, threads = _protocol_args(modes, ns, threads)
    if None in table.identities:
        row = table.identities.index(None)
        raise DataValidationError(
            f"row {row} (sample_id {table.sample_ids[row]!r}) has no identity; "
            "the protocol needs one on every row"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        gram = table.features @ table.features.T
    if not all_finite(gram):
        raise NumericalError(
            "table Gram X X^T has non-finite entries: the features' products overflow float64"
        )
    return tuple(_protocol(table, spec, cfg, mode, ns, threads, gram) for mode in modes)


def _protocol(table, spec, cfg, mode, ns, threads, gram) -> ProtocolResult:
    def trial(t: int) -> tuple:
        curve, model, train, coeffs, trace = _run_trial(table, spec, cfg, mode, ns, t, gram)
        # A run holds one span model and trace, the last trial's; every trial leaves a checksum.
        kept = (SpanModel(model, train, coeffs), trace) if t == spec.trials - 1 else None
        return curve, model.margin.resolved_bandwidth, model_checksum(model), kept

    with blas_threads(1), ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(trial, range(spec.trials)))
    span, trace = results[-1][3]

    per_trial = tuple(res[0] for res in results)
    mean_ranks = tuple((n, float(np.mean([curve.accuracy_at(n) for curve in per_trial]))) for n in ns)
    return ProtocolResult(
        curve=CmcCurve(ranks=mean_ranks),
        per_trial=per_trial,
        model_checksums=tuple(res[2] for res in results),
        bandwidths=tuple(res[1] for res in results),
        final_span=span,
        final_trace=trace,
    )
