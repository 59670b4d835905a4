"""Self-test of the benchmark; finishes in well under a minute.

    python3 bench/selftest.py

Runs the tiny variant of every workload untraced and traced, and checks that
each run passes its output check and prints every metric BENCHMARK.json
names (plus failed_trial_pct) by name with its unit, both as a text line and
in the final JSON line. Then checks that a directory holding only the
benchmark, without the sources, fails without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(name: str, trace: int, units: dict[str, str], expected: set[str]) -> list[str]:
    label = f"{name} --trace {trace}"
    out = run(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
              "--trace", str(trace), "--tiny")
    if out.returncode != 0:
        return [f"{label}: exit {out.returncode}\n{out.stderr}"]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    if set(result["metrics"]) != expected:
        errors.append(f"{label}: JSON metrics differ by {set(result['metrics']) ^ expected}")
    printed = {line.split(" = ")[0]: line for line in lines[:-1] if " = " in line}
    for metric, unit in units.items():
        line = printed.get(metric)
        if line is None or not line.endswith(f" {unit}"):
            errors.append(f"{label}: metric {metric} not printed with unit {unit}")
    return errors


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_work" / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = run(bare, "--workload", "multicam_semi", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"correct"' in out.stdout:
        return [f"bare directory: exit {out.returncode}, stdout {out.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("BENCHMARK.json workloads differ from bench/workloads.py", file=sys.stderr)
        return 1
    errors = []
    for name in WORKLOADS:
        printed = dict(end_units, failed_trial_pct="%")
        errors += check_run(name, 0, printed, set(end_units))
        errors += check_run(name, 1, dict(printed, **layer_units), set(layer_units))
    errors += check_bare_directory()
    for error in errors:
        print(error, file=sys.stderr)
    print(f"selftest: {len(WORKLOADS)} workloads x 2 trace modes + bare directory: "
          f"{'FAIL' if errors else 'ok'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
