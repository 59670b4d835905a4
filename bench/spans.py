"""Span recording around nullmargin's public functions, from outside.

The tracer replaces a function by a timing wrapper in the module that calls
it (``nullmargin.selftrain.fit_nk3ml`` rather than ``nullmargin.nk3ml``),
because every module binds its imports by name. Each span records its name,
start, end, parent span and trial index; spans stay in memory until the run
ends. Per-layer metrics are derived from the spans of one traced pass.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import nullmargin.evaluation
import nullmargin.mining
import nullmargin.nfst
import nullmargin.nk3ml
import nullmargin.selftrain


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trial: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _trial(table, spec, cfg, mode, ns, trial, *_rest):
    return {"trial": trial}


def _rows_x_dim(labeled, *_rest):
    return {"rows_x_dim": labeled.n * labeled.dim}


def _points(points, *_rest, **_kw):
    return {"points": len(points)}


def _rows(*tables):
    return {"rows": sum(t.n for t in tables)}


def _model_bytes(model):
    arrays = (
        model.nullproj.mean, model.nullproj.w_n, model.margin.train_points,
        model.margin.coeffs, model.margin.eigenvalues, model.margin.class_index,
    )
    return {"model_bytes": sum(a.nbytes for a in arrays)}


# (calling module, function name, span name, span attributes from the call's
# arguments, whether to keep arguments and result for scoring the loop)
CALL_SITES = (
    (nullmargin.evaluation, "_run_trial", "evaluation.trial", _trial, False),
    (nullmargin.evaluation, "make_split", "dataio.make_split", None, False),
    (nullmargin.evaluation, "fit_nk3ml", "nk3ml.fit", None, False),
    (nullmargin.evaluation, "run_self_training", "selftrain.loop", None, True),
    (nullmargin.evaluation, "rank_gallery", "evaluation.rank", None, False),
    (nullmargin.evaluation, "embed", "nk3ml.embed", None, False),
    (nullmargin.evaluation, "cmc", "evaluation.cmc", None, False),
    (nullmargin.evaluation, "model_checksum", "nk3ml.checksum", _model_bytes, False),
    (nullmargin.selftrain, "fit_nk3ml", "nk3ml.fit", None, False),
    (nullmargin.selftrain, "model_checksum", "nk3ml.checksum", _model_bytes, False),
    (nullmargin.selftrain, "build_anchor_context", "mining.anchor", None, False),
    (nullmargin.selftrain, "mine_pseudo_classes", "mining.mine", None, True),
    (nullmargin.selftrain, "concat_tables", "dataio.concat", _rows, False),
    (nullmargin.nk3ml, "fit_nfst", "nfst.fit", _rows_x_dim, False),
    (nullmargin.nk3ml, "fit_nkmmc", "kmmc.primary", _points, False),
    (nullmargin.nfst, "compute_scatter", "scatter.compute", None, False),
    (nullmargin.mining, "fit_nkmmc", "kmmc.secondary", _points, False),
    (nullmargin.mining, "embed", "nk3ml.embed", None, False),
    (nullmargin.mining, "k_reciprocal", "mining.reciprocal", None, False),
)


class Tracer:
    """Collects spans while installed; ``install`` is a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # span id -> (args, result) of the calls the loop metrics are scored from
        self.kept: dict[int, tuple] = {}
        # The first span opened; it parents spans opened on threads that have
        # no open span of their own, such as run_protocol's trial workers.
        self._root: Span | None = None

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        trial = attrs.pop("trial", parent.trial if parent else None)
        record = Span(next(self._ids), name, time.perf_counter(), 0.0,
                      parent.id if parent else None, trial, attrs)
        if self._root is None:
            self._root = record
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def _wrap(self, func, name, attrs_of, keep):
        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            with self.span(name, **attrs) as record:
                result = func(*args, **kwargs)
            if keep:
                self.kept[record.id] = (args, result)
            return result

        return wrapper

    @contextmanager
    def install(self):
        """Wrap every call site for the duration of the block."""
        originals = []
        try:
            for module, attr, name, attrs_of, keep in CALL_SITES:
                func = getattr(module, attr)
                originals.append((module, attr, func))
                setattr(module, attr, self._wrap(func, name, attrs_of, keep))
            yield self
        finally:
            for module, attr, func in reversed(originals):
                setattr(module, attr, func)

    def records(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _percent(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


def _same_identity(pc) -> bool:
    # generate_synthetic sets within_view_id equal to the identity, so a
    # mined pair is correct exactly when both sides carry the same id.
    return pc.anchor_identity[1] == pc.matched_identity[1]


def layer_metrics(tracer: Tracer, run_span: Span) -> dict[str, float]:
    """Per-layer metrics of a tracer that recorded one run_protocol call.

    Times are busy time summed over calls (and over trial workers when trials
    run concurrently); ``*_self_s`` is a span's time outside its child spans.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in sorted(tracer.spans, key=lambda s: s.start):
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def self_time(name):
        return sum(s.duration - sum(c.duration for c in children.get(s.id, ())) for s in named(name))

    def attr_sum(name, key, power=1):
        return sum(s.attrs[key] ** power for s in named(name))

    nfst_times = [s.duration for s in named("nfst.fit")]
    trial_times = [s.duration for s in named("evaluation.trial")]

    rounds, round_times, cpi = 0, [], []
    mined = accepted = mined_ok = accepted_ok = 0
    for loop in named("selftrain.loop"):
        (labeled, unlabeled, *_), (_, trace) = tracer.kept[loop.id]
        rounds += len(trace.records)
        fit_starts = [c.start for c in children.get(loop.id, ()) if c.name == "nk3ml.fit"]
        bounds = fit_starts + [loop.end]
        round_times += [b - a for a, b in zip(bounds, bounds[1:])]
        train_ids = len(set(labeled.identities)) + len(set(unlabeled.within_view_ids.tolist()))
        cpi.append(trace.records[-1].labeled_classes / train_ids)
        kept = {rec.iteration: rec.pseudo_accepted for rec in trace.records}
        for mine in (c for c in children.get(loop.id, ()) if c.name == "mining.mine"):
            pairs = tracer.kept[mine.id][1]
            taken = pairs[: kept[pairs[0].iteration_found]] if pairs else []
            mined += len(pairs)
            accepted += len(taken)
            mined_ok += sum(map(_same_identity, pairs))
            accepted_ok += sum(map(_same_identity, taken))

    return {
        "dataio.make_split_s": total("dataio.make_split"),
        "dataio.concat_s": total("dataio.concat"),
        "dataio.concat_rows": attr_sum("dataio.concat", "rows"),
        "scatter.compute_s": total("scatter.compute"),
        "nfst.fit_calls": len(nfst_times),
        "nfst.fit_s": sum(nfst_times),
        "nfst.fit_s.p50": statistics.median(nfst_times) if nfst_times else 0.0,
        "nfst.rows_x_dim": attr_sum("nfst.fit", "rows_x_dim"),
        "kmmc.primary_calls": len(named("kmmc.primary")),
        "kmmc.primary_s": total("kmmc.primary"),
        "kmmc.primary_points": attr_sum("kmmc.primary", "points"),
        "kmmc.primary_m3": attr_sum("kmmc.primary", "points", 3),
        "kmmc.secondary_calls": len(named("kmmc.secondary")),
        "kmmc.secondary_s": total("kmmc.secondary"),
        "kmmc.secondary_points": attr_sum("kmmc.secondary", "points"),
        "kmmc.secondary_m3": attr_sum("kmmc.secondary", "points", 3),
        "nk3ml.fit_self_s": self_time("nk3ml.fit"),
        "nk3ml.embed_calls": len(named("nk3ml.embed")),
        "nk3ml.embed_s": total("nk3ml.embed"),
        "nk3ml.checksum_calls": len(named("nk3ml.checksum")),
        "nk3ml.checksum_s": total("nk3ml.checksum"),
        "nk3ml.model_bytes": max((s.attrs["model_bytes"] for s in named("nk3ml.checksum")), default=0),
        "mining.anchor_s": total("mining.anchor"),
        "mining.mine_s": total("mining.mine"),
        "mining.reciprocal_s": total("mining.reciprocal"),
        "mining.pairs_mined": mined,
        "mining.pairs_accepted": accepted,
        "mining.pair_precision": _percent(mined_ok, mined),
        "mining.accepted_precision": _percent(accepted_ok, accepted),
        "selftrain.rounds": rounds,
        "selftrain.round_s.p50": statistics.median(round_times) if round_times else 0.0,
        "selftrain.round_s.p90": _p90(round_times),
        "selftrain.self_s": self_time("selftrain.loop"),
        "selftrain.classes_per_identity": statistics.mean(cpi) if cpi else 0.0,
        "evaluation.trial_s.p50": statistics.median(trial_times),
        "evaluation.trial_s.max": max(trial_times),
        "evaluation.trial_count": len(trial_times),
        "evaluation.trial_self_s": self_time("evaluation.trial"),
        "evaluation.rank_s": total("evaluation.rank"),
        "evaluation.cmc_s": total("evaluation.cmc"),
        "evaluation.trial_concurrency": sum(trial_times) / run_span.duration,
    }
