"""Protocol benchmark: run one workload on one seed and print its metrics.

    python3 bench/run.py --workload viper_semi --seed 1 --seconds 10 --trace 0

The run generates the workload's SSML input from the seed (in a child
process), times ``load_feature_table`` on it, then calls ``run_protocol`` the
way ``nullmargin run`` does, one pass after another until ``--seconds`` have
passed and at least MIN_PASSES passes ran. Every trial's CMC is checked
against the recorded reference. With
``--trace 1`` untraced and traced passes alternate and the per-layer metrics
come from the traced ones. The last line of standard output is one JSON
object: correct, attempted, failed and the metrics. Exit status is 0 when
every trial passed its check, 1 when one did not, 2 when the run could not be
set up (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from workloads import DEFAULT_SEED, RANKS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
# setup_s is the median of at least this many loads filling at least this
# long, so that a small file is loaded often enough for a steady median.
SETUP_MIN_LOADS = 5
SETUP_MIN_SECONDS = 1.0
# Passes per run, at the least, so that run_s is a median of several.
MIN_PASSES = 3
# A trial without a recorded reference must reach this share of the
# reference's median rank-1 for its input (a guard against broken output).
UNREFERENCED_FLOOR = 0.5
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "NULLMARGIN_THREADS",
)


class SetupError(Exception):
    """The run cannot start; reported on stderr with exit status 2."""


@dataclass
class Pass:
    seconds: float
    traced: bool
    per_trial: list[list[float]] | None    # accuracies at RANKS, per trial
    checksums: list[str] | None
    error: str | None = None
    layers: dict | None = None
    spans: list[dict] | None = None


def import_nullmargin():
    init = SRC / "nullmargin" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no nullmargin sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import nullmargin

    if Path(nullmargin.__file__).resolve() != init.resolve():
        raise SetupError(f"imported nullmargin from {nullmargin.__file__}, not from {SRC}")


def load_metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise SetupError(f"cannot read {spec_path}: {err}") from err
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def host_record(seed: int, split_seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {key: os.environ.get(key, "unset") for key in THREAD_ENV},
        "git_commit": git_commit(),
        "seed": seed,
        "split_seed": split_seed,
    }


def generate_input(w: Workload, tiny: bool, seed: int, path: Path) -> None:
    cmd = [sys.executable, str(HERE / "generate.py"),
           "--shape", w.shape_name(tiny), "--seed", str(seed), "--out", str(path)]
    try:
        subprocess.run(cmd, check=True, timeout=170)
    except (OSError, subprocess.SubprocessError) as err:
        raise SetupError(f"input generation failed: {err}") from err


def timed_loads(path: Path):
    from nullmargin import load_feature_table

    times, table = [], None
    while len(times) < SETUP_MIN_LOADS or sum(times) < SETUP_MIN_SECONDS:
        table = None        # hold one table at a time
        start = time.perf_counter()
        table = load_feature_table(path, "binary")
        times.append(time.perf_counter() - start)
    return table, statistics.median(times)


def run_pass(table, split_spec, w: Workload, tracer=None) -> Pass:
    """One run_protocol call, traced when a tracer is given."""
    from nullmargin import LoopConfig, run_protocol

    with ExitStack() as stack:
        run_span = None
        if tracer is not None:
            stack.enter_context(tracer.install())
            run_span = stack.enter_context(tracer.span("evaluation.run"))
        start = time.perf_counter()
        try:
            result = run_protocol(table, split_spec, LoopConfig(), w.mode, ns=RANKS)
        except Exception:
            return Pass(time.perf_counter() - start, tracer is not None, None, None,
                        error=traceback.format_exc())
        seconds = time.perf_counter() - start
    per_trial = [[curve.accuracy_at(n) for n in RANKS] for curve in result.per_trial]
    done = Pass(seconds, tracer is not None, per_trial, list(result.model_checksums))
    if tracer is not None:
        from spans import layer_metrics

        done.seconds = run_span.duration
        done.layers = layer_metrics(tracer, run_span)
        done.spans = tracer.records()
    return done


def well_formed(curve: list[float]) -> bool:
    return all(0.0 <= a <= 100.0 for a in curve) and all(a <= b for a, b in zip(curve, curve[1:]))


def check_passes(passes: list[Pass], w: Workload, reference: list | None, floor: float) -> int:
    """Number of failed trials over all passes.

    A trial fails when its pass raised, when its CMC is malformed or differs
    from the reference (or, for a seed without one, falls below the floor),
    or when its model checksum differs from the first good pass.
    """
    first = next((p for p in passes if p.error is None), None)
    failed = 0
    for p in passes:
        if p.error is not None:
            print(p.error, file=sys.stderr)
            failed += w.trials
            continue
        for t, curve in enumerate(p.per_trial):
            ok = well_formed(curve) and p.checksums[t] == first.checksums[t]
            if reference is not None:
                ok = ok and curve == reference[t]
            else:
                ok = ok and curve[0] >= floor
            if not ok:
                expected = reference[t] if reference is not None else f"rank-1 >= {floor}"
                print(f"trial {t}: CMC {curve} (expected {expected}), checksum {p.checksums[t]} "
                      f"(first pass {first.checksums[t]}) fails its check", file=sys.stderr)
                failed += 1
    return failed


def measure(w: Workload, table, split_spec, seconds: float, trace: bool) -> list[Pass]:
    """Passes until `seconds` have elapsed and at least MIN_PASSES ran.

    With tracing, passes come in untraced/traced pairs.
    """
    if trace:
        from spans import Tracer
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(table, split_spec, w))
        if trace:
            passes.append(run_pass(table, split_spec, w, Tracer()))
    return passes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input of the workload's shape (self-test)")
    return parser.parse_args(argv)


def per_layer_values(passes: list[Pass], load_bytes: int, run_s: float) -> dict:
    """Layer metrics of the traced pass of median duration (one coherent breakdown)."""
    traced = sorted((p for p in passes if p.traced and p.error is None), key=lambda p: p.seconds)
    if not traced:
        return {}
    traced_s = statistics.median(p.seconds for p in traced)
    return dict(
        traced[(len(traced) - 1) // 2].layers,
        **{
            "dataio.load_bytes": load_bytes,
            "trace.overhead_pct": 100.0 * (traced_s - run_s) / run_s,
        },
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        end_units, layer_units = load_metric_units()
        import_nullmargin()
        from nullmargin import SplitSpec
        from nullmargin.cli import derive_seed

        split_spec = SplitSpec(derive_seed(args.seed, "split"), Fraction(1, 3), w.trials)
        host = host_record(args.seed, split_spec.seed)
        workdir.mkdir(parents=True)
        ssml = workdir / "input.ssml"
        generate_input(w, args.tiny, args.seed, ssml)
        table, setup_s = timed_loads(ssml)
        load_bytes = ssml.stat().st_size
    except SetupError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    references = json.loads(REFERENCE.read_text(encoding="utf-8"))["cmc"][w.reference_key(args.tiny)]
    reference = references.get(str(args.seed))
    floor = UNREFERENCED_FLOOR * statistics.median(
        trial[0] for trials in references.values() for trial in trials
    )
    passes = measure(w, table, split_spec, args.seconds, bool(args.trace))
    attempted = w.trials * len(passes)
    failed = check_passes(passes, w, reference, floor)

    good = next((p for p in passes if p.error is None), None)
    end_values = {
        "run_s": statistics.median(p.seconds for p in passes if not p.traced),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rank1_pct": statistics.mean(c[0] for c in good.per_trial) if good else 0.0,
        "failed_trial_pct": 100.0 * failed / attempted,
    }
    layer_values = per_layer_values(passes, load_bytes, end_values["run_s"]) if args.trace else {}
    units = dict(end_units, failed_trial_pct="%", **layer_units)
    wanted = layer_units if args.trace else end_units
    missing = sorted(set(wanted) - set(end_values) - set(layer_values))

    print(f"workload {w.name}{' (tiny)' if args.tiny else ''}: seed {args.seed}, "
          f"{len(passes)} passes of {w.trials} trial(s), trace {args.trace}, "
          f"reference {'recorded' if reference is not None else 'none (checks floor and repeatability)'}")
    print("host " + json.dumps(host, sort_keys=True))
    for name, value in {**end_values, **layer_values}.items():
        print(f"{name} = {value!r} {units[name]}")
    if missing:
        print(f"bench: metrics not computed: {missing}", file=sys.stderr)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": w.__dict__, "tiny": args.tiny, "seconds": args.seconds, "trace": args.trace,
        "host": host, "end_to_end": end_values, "per_layer": layer_values,
        "passes": [p.__dict__ for p in passes],
    }
    (out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    values = {**end_values, **layer_values}
    ok = failed == 0 and not missing
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in wanted if k in values},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
