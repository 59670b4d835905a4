"""Command-line front end: synth, run, embed, eval, mine.

Experiments are reproducible from a single seed: the split stream is derived
as hash(seed, "split") and mixed with the trial index inside a counter-based
generator. `run` writes cmc.csv, report.json (config echo, per-trial curves,
model checksums, resolved bandwidths), trace.jsonl for self-training modes,
and the final model. Config files are flat `section.key = value` lines;
command-line flags override file values; unknown keys are rejected.

Exit codes: 0 success, 2 config error, 3 data error (an unusable input or
output path included), 4 numerical failure; the base class of each error
in nullmargin.errors decides which.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dataio import (
    FeatureTable,
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    load_feature_table,
    save_feature_table,
    table_format_for,
)
from .errors import ConfigError, DataError, DataValidationError, NumericalError
from .evaluation import cmc, rank_gallery, run_protocols
from .kmmc import KernelSpec
from .mining import (
    build_anchor_context,
    export_pseudo_classes_csv,
    find_anchor,
    mine_pseudo_classes,
)
from .nk3ml import embed, fit_nk3ml, load_model, save_model
from .selftrain import LoopConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def derive_seed(master: int, label: str) -> int:
    """Stable 64-bit stream seed for one named consumer of the master seed."""
    digest = hashlib.blake2b(f"{master}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# ---------------------------------------------------------------------------
# Run configuration: defaults, config file, flag overrides
# ---------------------------------------------------------------------------

def _parse_ranks(value: str) -> tuple[int, ...]:
    ranks = tuple(int(part) for part in value.replace(" ", "").split(","))
    if any(n < 1 for n in ranks):
        raise ValueError("ranks must be positive integers")
    if len(set(ranks)) != len(ranks):
        raise ValueError("ranks must be distinct")
    return ranks


def _parse_bandwidth(value: str) -> float | str:
    return "auto" if value == "auto" else float(value)


class _Setting(NamedTuple):
    default: str | None         # config-file syntax; None: required or resolved later
    parse: Callable[[str], object]
    flag: str                   # `run` flag; it overrides the config file
    help: str | None = None


# Every `run` setting, by config key.
_RUN_KEYS = {
    "run.input": _Setting(None, Path, "--input", "dataset file (.csv or binary)"),
    "run.output": _Setting(None, Path, "--output", "output directory"),
    "run.mode": _Setting("semi_supervised", str, "--mode", "labeled_only, semi_supervised or both"),
    "run.seed": _Setting("0", int, "--seed"),
    "run.threads": _Setting(None, int, "--threads", "trial parallelism (env NULLMARGIN_THREADS)"),
    "run.ranks": _Setting(
        "1,5,10,20", _parse_ranks, "--ranks", "comma-separated CMC ranks, e.g. 1,5,10,20"
    ),
    "split.labeled_fraction": _Setting("1/3", Fraction, "--labeled-fraction", "e.g. 1/3 or 0.25"),
    "split.trials": _Setting("10", int, "--trials"),
    "loop.k": _Setting("1", int, "--k", "reciprocal-neighbor k"),
    "loop.quantile": _Setting("0.25", float, "--quantile"),
    "loop.max_iterations": _Setting("20", int, "--max-iterations"),
    "loop.min_new_classes": _Setting("1", int, "--min-new-classes"),
    "kernel.kind": _Setting("rbf", str, "--kernel", "rbf or linear"),
    "kernel.bandwidth": _Setting("auto", _parse_bandwidth, "--bandwidth", "'auto' or a positive number"),
}


def _parse_config_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _RUN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


@dataclass
class RunConfig:
    values: dict          # parsed value of every _RUN_KEYS key
    split: SplitSpec
    loop: LoopConfig

    def echo(self) -> dict:
        echo = {"version": __version__, "split.seed_derived": self.split.seed}
        # int and float keys echo as JSON numbers, ranks as a list and the
        # rest (paths, fractions, a bandwidth) as text.
        for key, value in self.values.items():
            if _RUN_KEYS[key].parse not in (int, float):
                value = list(value) if isinstance(value, tuple) else str(value)
            echo[key] = value
        return echo


def _resolve_run_config(args) -> RunConfig:
    raw = {key: setting.default for key, setting in _RUN_KEYS.items()}
    if args.config is not None:
        raw.update(_parse_config_file(Path(args.config)))
    raw.update({key: getattr(args, key) for key in _RUN_KEYS if getattr(args, key) is not None})
    if raw["run.input"] is None:
        raise ConfigError("no input dataset given (flag --input or config run.input)")
    if raw["run.output"] is None:
        raise ConfigError("no output directory given (flag --output or config run.output)")
    if raw["run.threads"] is None:
        raw["run.threads"] = os.environ.get("NULLMARGIN_THREADS", "1")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = _RUN_KEYS[key].parse(value)
        except (ValueError, ZeroDivisionError) as err:
            raise ConfigError(f"bad value for {key}: {value!r} ({err})") from err
    if values["run.mode"] not in ("labeled_only", "semi_supervised", "both"):
        raise ConfigError(
            f"run.mode must be labeled_only, semi_supervised or both, got {values['run.mode']!r}"
        )
    if values["run.threads"] < 1:
        raise ConfigError("threads must be >= 1")
    try:
        split = SplitSpec(
            seed=derive_seed(values["run.seed"], "split"),
            labeled_fraction=values["split.labeled_fraction"],
            trials=values["split.trials"],
        )
        loop = LoopConfig(
            k=values["loop.k"],
            quantile=values["loop.quantile"],
            max_iterations=values["loop.max_iterations"],
            min_new_classes=values["loop.min_new_classes"],
            kernel=KernelSpec(kind=values["kernel.kind"], bandwidth=values["kernel.bandwidth"]),
        )
    except DataValidationError as err:
        raise ConfigError(str(err)) from err
    return RunConfig(values=values, split=split, loop=loop)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _load_table(path) -> FeatureTable:
    return load_feature_table(path, table_format_for(path))


def _write_cmc_csv(curve, path: Path) -> None:
    lines = ["N,accuracy"] + [f"{n},{repr(acc)}" for n, acc in curve.ranks]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_synth(args) -> int:
    try:
        spec = SyntheticSpec(
            identities=args.identities,
            cameras=args.cameras,
            dim=args.dim,
            per_camera_transform_strength=args.transform_strength,
            noise_sigma=args.noise_sigma,
            seed=args.seed,
        )
    except DataValidationError as err:
        raise ConfigError(str(err)) from err
    table = generate_synthetic(spec)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_feature_table(table, out, table_format_for(out))
    digest = hashlib.sha256()
    with out.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    print(f"{digest.hexdigest()}  {out}")
    return EXIT_OK


def _mode_result_entry(result) -> dict:
    return {
        "cmc": {str(n): acc for n, acc in result.curve.ranks},
        "trials": result.curve.trials_averaged,
        "per_trial": [
            {
                "trial": t,
                "cmc": {str(n): acc for n, acc in curve.ranks},
                "model_checksum": result.model_checksums[t],
                "primary_bandwidth": result.bandwidths[t],
            }
            for t, curve in enumerate(result.per_trial)
        ],
    }


def cmd_run(args) -> int:
    cfg = _resolve_run_config(args)
    table = _load_table(cfg.values["run.input"])
    output = cfg.values["run.output"]
    output.mkdir(parents=True, exist_ok=True)
    both = cfg.values["run.mode"] == "both"
    modes = ("labeled_only", "semi_supervised") if both else (cfg.values["run.mode"],)

    report = {"config": cfg.echo(), "results": {}}
    results = run_protocols(
        table, cfg.split, cfg.loop, modes,
        ns=cfg.values["run.ranks"], threads=cfg.values["run.threads"],
    )
    for mode, result in zip(modes, results):
        report["results"][mode] = _mode_result_entry(result)
        suffix = f"_{mode}" if both else ""
        _write_cmc_csv(result.curve, output / f"cmc{suffix}.csv")
        save_model(result.final_model, output / f"model{suffix}.nk3m")
        if mode == "semi_supervised" and result.final_trace is not None:
            result.final_trace.write_jsonl(output / "trace.jsonl")
    (output / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for mode, result in zip(modes, results):
        n, acc = result.curve.ranks[0]
        print(f"{mode}: rank-{n} = {acc:.2f}")
    return EXIT_OK


def cmd_embed(args) -> int:
    model = load_model(args.model)
    table = _load_table(args.data)
    header = "sample_id," + ",".join(f"e{j}" for j in range(model.margin.output_dim))
    lines = [header]
    if table.n:
        vectors = embed(model, table.features)
        for i in range(table.n):
            lines.append(table.sample_ids[i] + "," + ",".join(repr(float(v)) for v in vectors[i]))
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    probe = _load_table(args.probe)
    gallery = _load_table(args.gallery)
    try:
        ranks = _parse_ranks(args.ranks)
    except ValueError as err:
        raise ConfigError(f"bad --ranks value {args.ranks!r}") from err
    rankings = rank_gallery(model, probe, gallery)
    curve = cmc(rankings, probe.identities, gallery.identities, ranks)
    _write_cmc_csv(curve, Path(args.output))
    for n, acc in curve.ranks:
        print(f"rank-{n}: {acc:.2f}")
    return EXIT_OK


def cmd_mine(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    try:
        kernel = KernelSpec(
            kind=args.kernel,
            bandwidth=_parse_bandwidth(args.bandwidth or "auto"),
        )
    except (ValueError, DataValidationError) as err:
        raise ConfigError(f"bad kernel flags: {err}") from err
    labeled = _load_table(args.labeled)
    unlabeled = _load_table(args.unlabeled)
    model = fit_nk3ml(labeled.labeled_subset(), kernel)
    anchor = find_anchor(unlabeled)
    if anchor is None:
        raise DataValidationError(
            "unlabeled set cannot host an anchor: need >= 2 cameras and "
            ">= 2 identities in the anchor camera"
        )
    ctx = build_anchor_context(anchor, model, kernel)
    pairs = mine_pseudo_classes(ctx, k=args.k)
    export_pseudo_classes_csv(pairs, args.output)
    print(f"anchor camera {anchor.camera}: {len(pairs)} pseudo-classes")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullmargin",
        description="Cross-view metric learning experiments (null space + kernel max margin)",
    )
    parser.add_argument("--version", action="version", version=f"nullmargin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic cross-view dataset")
    p_synth.add_argument("--identities", type=int, required=True)
    p_synth.add_argument("--cameras", type=int, default=2)
    p_synth.add_argument("--dim", type=int, required=True)
    p_synth.add_argument("--transform-strength", type=float, default=0.0,
                         help="per-camera linear distortion (default 0)")
    p_synth.add_argument("--noise-sigma", type=float, default=0.0, help=(
        "per-row Gaussian noise (default 0). With both defaults every camera sees the "
        "same row of an identity, so on 3+ cameras a semi_supervised run exits 4 (data "
        "not in general position) once a round mines an identity an earlier "
        "pseudo-class holds"))
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("-o", "--output", required=True, help=".csv or binary path")
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="run the split/fit/evaluate protocol")
    p_run.add_argument("--config", help="flat 'section.key = value' config file")
    for key, setting in _RUN_KEYS.items():
        flags = ("-o", setting.flag) if key == "run.output" else (setting.flag,)
        p_run.add_argument(*flags, dest=key, help=setting.help)
    p_run.set_defaults(func=cmd_run)

    p_embed = sub.add_parser("embed", help="embed a dataset with a fitted model")
    p_embed.add_argument("--model", required=True)
    p_embed.add_argument("--data", required=True)
    p_embed.add_argument("-o", "--output", required=True, help="embeddings CSV path")
    p_embed.set_defaults(func=cmd_embed)

    p_eval = sub.add_parser("eval", help="CMC of a fitted model on probe/gallery tables")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--probe", required=True)
    p_eval.add_argument("--gallery", required=True)
    p_eval.add_argument("--ranks", default="1,5,10,20")
    p_eval.add_argument("-o", "--output", required=True, help="cmc CSV path")
    p_eval.set_defaults(func=cmd_eval)

    p_mine = sub.add_parser("mine", help="one pseudo-class mining round (debugging)")
    p_mine.add_argument("--labeled", required=True)
    p_mine.add_argument("--unlabeled", required=True)
    p_mine.add_argument("--kernel", choices=["rbf", "linear"], default="rbf")
    p_mine.add_argument("--bandwidth")
    p_mine.add_argument("--k", type=int, default=1)
    p_mine.add_argument("-o", "--output", required=True, help="pseudo-class CSV path")
    p_mine.set_defaults(func=cmd_mine)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, np.linalg.LinAlgError) as err:
        print(f"error: numerical: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataError, OSError) as err:
        print(f"error: data: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
