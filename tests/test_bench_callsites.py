"""The benchmark's traced mode patches library functions by name and reads
model attributes; a rename in the library must fail here, not only under
``bench/run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

import pytest

from nullmargin import LoopConfig, SplitSpec, fit_nk3ml, run_protocol

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_call_sites_resolve(spans):
    for module, name, *_ in spans.CALL_SITES:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_model_has_attributes_bench_reads(spans, easy_table):
    assert spans._model_bytes(fit_nk3ml(easy_table))["model_bytes"] > 0


def test_traced_protocol_pass_yields_layer_metrics(spans, easy_table):
    # One tiny pass the way `bench/run.py --trace 1` makes it: a change to
    # _run_trial's positional arguments or to the split path fails here.
    tracer = spans.Tracer()
    with tracer.install(), tracer.span("evaluation.run") as run_span:
        run_protocol(easy_table, SplitSpec(seed=2, trials=2), LoopConfig(), "semi_supervised")
    metrics = spans.layer_metrics(tracer, run_span)
    assert metrics["evaluation.trial_count"] == 2
    assert metrics["nfst.fit_calls"] > 0
    assert metrics["dataio.make_split_s"] > 0
    # Each mining round embeds the pool once; each trial embeds probe and gallery.
    rounds = sum(s.name == "mining.anchor" for s in tracer.spans)
    assert rounds > 0
    assert metrics["nk3ml.embed_calls"] == rounds + 2 * 2
    # Per trial, the loop makes one null-space fit and one primary margin fit
    # per recorded round, so these counts compare across changes to the fits.
    records = {
        span.trial: len(tracer.kept[span.id][1][1].records)
        for span in tracer.spans if span.name == "selftrain.loop"
    }
    assert sorted(records) == [0, 1]
    for trial, count in records.items():
        for name in ("nfst.fit", "kmmc.primary"):
            assert sum(s.name == name and s.trial == trial for s in tracer.spans) == count, name
