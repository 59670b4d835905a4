"""Replay the tiny entries of ``bench/reference.json`` in process.

Every workload's tiny input is generated for each recorded seed and run
through ``run_protocol`` the way ``bench/run.py`` runs it; each trial's CMC
must equal the recorded one exactly, so numeric drift fails here and not only
under the benchmark.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nullmargin import LoopConfig, SplitSpec, run_protocol
from nullmargin.cli import derive_seed

BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``generate`` and ``workloads`` modules (they import each other by name)."""
    sys.path.insert(0, str(BENCH))
    try:
        import generate
        import workloads
        yield generate, workloads
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", ["viper_semi", "viper_labeled", "multicam_semi"])
def test_tiny_reference_cmc_replays_exactly(bench, workload):
    generate, workloads = bench
    w = workloads.WORKLOADS[workload]
    recorded = REFERENCE["cmc"][w.reference_key(tiny=True)]
    assert REFERENCE["ranks"] == list(workloads.RANKS)
    assert len(recorded) == 21
    mismatches = []
    for seed, expected in sorted(recorded.items(), key=lambda item: int(item[0])):
        table = generate.synthetic_table(w.shape_name(tiny=True), int(seed))
        spec = SplitSpec(derive_seed(int(seed), "split"), Fraction(1, 3), w.trials)
        result = run_protocol(table, spec, LoopConfig(), w.mode, ns=workloads.RANKS)
        got = [[curve.accuracy_at(n) for n in workloads.RANKS] for curve in result.per_trial]
        if got != expected:
            mismatches.append((seed, got, expected))
    assert mismatches == []
