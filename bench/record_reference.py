"""Record the per-trial CMC every benchmark workload is checked against.

    python3 bench/record_reference.py --seeds 0-20

For each reference key (input shape and mode) and seed, runs the key's
trials at one thread and stores the accuracy at every rank. Re-record only
when a change is meant to alter results, and say so where the change is
described.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from generate import synthetic_table
from nullmargin import LoopConfig, SplitSpec, run_protocol
from nullmargin.cli import derive_seed
from workloads import HELD_OUT_SEED, RANKS, reference_trials

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="first-last, inclusive")
    args = parser.parse_args()
    if HELD_OUT_SEED in args.seeds:
        parser.error(f"seed {HELD_OUT_SEED} is held out of the reference")

    data = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    data["ranks"] = list(RANKS)
    cmc = data.setdefault("cmc", {})
    by_shape: dict[str, list[tuple[str, str, int]]] = {}
    for key, trials in reference_trials().items():
        shape, mode = key.split("/")
        by_shape.setdefault(shape, []).append((key, mode, trials))
    for shape, entries in sorted(by_shape.items()):
        for seed in args.seeds:
            table = synthetic_table(shape, seed)
            for key, mode, trials in entries:
                spec = SplitSpec(derive_seed(seed, "split"), Fraction(1, 3), trials)
                result = run_protocol(table, spec, LoopConfig(), mode, ns=RANKS)
                cmc.setdefault(key, {})[str(seed)] = [
                    [curve.accuracy_at(n) for n in RANKS] for curve in result.per_trial
                ]
                print(key, seed, [c[0] for c in cmc[key][str(seed)]], flush=True)
            # Written after every seed so an interrupted recording keeps its work.
            REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
