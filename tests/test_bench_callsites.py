"""The benchmark's traced mode patches library functions by name and reads
model attributes; a rename in the library must fail here, not only under
``bench/run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

import pytest

from nullmargin import fit_nk3ml

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
