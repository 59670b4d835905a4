"""Command-line front end: synth, run, embed, eval, mine.

Experiments are reproducible from a single seed: the split stream is derived
as hash(seed, "split") and mixed with the trial index inside a counter-based
generator. `run` writes cmc.csv, report.json (config echo, per-trial curves,
model checksums, resolved bandwidths), trace.jsonl for self-training modes,
and the final model. Config files are flat `section.key = value` lines;
command-line flags override file values; unknown keys are rejected.

Exit codes: 0 success, 2 config error, 3 data error (an unusable input or
output path and running out of memory included), 4 numerical failure; the
base class of each error in nullmargin.errors decides which.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
    group_rows,
    load_feature_table,
    save_feature_table,
    table_format_for,
)
from .errors import ConfigError, DataError, DataValidationError, NumericalError
from .evaluation import DEFAULT_RANKS, MODES, _protocol_args, cmc, rank_gallery, run_protocols
from .kmmc import KERNEL_KINDS, KernelSpec
from .mining import build_anchor_context, export_pseudo_classes_csv, find_anchor, mine_pseudo_classes
from .nk3ml import embed, fit_nk3ml, load_model
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
# Run configuration: text in, values out; the library owns defaults and checks
# ---------------------------------------------------------------------------

def _parse_ranks(value: str) -> tuple[int, ...]:
    return tuple(int(part) for part in value.replace(" ", "").split(","))


def _parse_bandwidth(value: str) -> float | str:
    try:
        return float(value)
    except ValueError:
        return value    # a policy name, for KernelSpec to check


class _Setting(NamedTuple):
    default: str | None         # config-file syntax; None: required
    parse: Callable[[str], object]
    flag: str                   # `run` flag; it overrides the config file
    help: str | None = None


_MODE_CHOICES = f"{', '.join(MODES)} or both"

# Every `run` setting, by config key.
_RUN_KEYS = {
    "run.input": _Setting(None, Path, "--input", "dataset file (.csv or binary)"),
    "run.output": _Setting(None, Path, "--output", "output directory"),
    "run.mode": _Setting("semi_supervised", str, "--mode", _MODE_CHOICES),
    "run.seed": _Setting("0", int, "--seed"),
    "run.ranks": _Setting(
        ",".join(map(str, DEFAULT_RANKS)), _parse_ranks, "--ranks", "comma-separated CMC ranks"
    ),
    "split.labeled_fraction": _Setting(
        str(SplitSpec.labeled_fraction), Fraction, "--labeled-fraction", "e.g. 1/2 or 0.5"
    ),
    "split.trials": _Setting(str(SplitSpec.trials), int, "--trials"),
    "loop.k": _Setting(str(LoopConfig.k), int, "--k", "reciprocal-neighbor k"),
    "loop.quantile": _Setting(str(LoopConfig.quantile), float, "--quantile"),
    "loop.max_iterations": _Setting(str(LoopConfig.max_iterations), int, "--max-iterations"),
    "kernel.kind": _Setting(KernelSpec.kind, str, "--kernel", " or ".join(KERNEL_KINDS)),
    "kernel.bandwidth": _Setting(
        str(KernelSpec.bandwidth), _parse_bandwidth, "--bandwidth", f"{KernelSpec.bandwidth!r} or a number"
    ),
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
    values = {}
    for key, value in raw.items():
        try:
            values[key] = _RUN_KEYS[key].parse(value)
        except (ValueError, ZeroDivisionError) as err:
            raise ConfigError(f"bad value for {key}: {value!r} ({err})") from err
    if values["run.mode"] not in (*MODES, "both"):
        raise ConfigError(f"run.mode must be {_MODE_CHOICES}, got {values['run.mode']!r}")
    try:
        _protocol_args((), values["run.ranks"])
        split = SplitSpec(
            seed=derive_seed(values["run.seed"], "split"),
            labeled_fraction=values["split.labeled_fraction"],
            trials=values["split.trials"],
        )
        loop = LoopConfig(
            k=values["loop.k"],
            quantile=values["loop.quantile"],
            max_iterations=values["loop.max_iterations"],
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


def _output_file(value) -> Path:
    """An output file path, checked before any input is read: it must not be
    a directory, and its parent must be one."""
    path = Path(value)
    if path.is_dir():
        raise DataError(f"output {path} is a directory")
    if not path.parent.is_dir():
        raise DataError(f"cannot write {path}: {path.parent} is not a directory")
    return path


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
    try:
        table = generate_synthetic(spec)
    except DataValidationError as err:
        raise ConfigError(
            f"cannot generate this spec: noise sigma {spec.noise_sigma!r} and transform "
            f"strength {spec.per_camera_transform_strength!r} overflow float64 ({err})"
        ) from err
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    print(f"{save_feature_table(table, out, table_format_for(out))}  {out}")
    return EXIT_OK


def _mode_result_entry(result) -> dict:
    return {
        "cmc": {str(n): acc for n, acc in result.curve.ranks},
        "trials": len(result.trials),
        "per_trial": [
            {
                "trial": t,
                "cmc": {str(n): acc for n, acc in record.curve.ranks},
                "model_checksum": record.checksum,
                "primary_bandwidth": record.bandwidth,
            }
            for t, record in enumerate(result.trials)
        ],
    }


def cmd_run(args) -> int:
    cfg = _resolve_run_config(args)
    output = cfg.values["run.output"]
    output.mkdir(parents=True, exist_ok=True)
    table = _load_table(cfg.values["run.input"])
    both = cfg.values["run.mode"] == "both"
    modes = MODES if both else (cfg.values["run.mode"],)

    report = {"config": cfg.echo(), "results": {}}
    results = run_protocols(table, cfg.split, cfg.loop, modes, ns=cfg.values["run.ranks"])
    for mode, result in zip(modes, results):
        entry = report["results"][mode] = _mode_result_entry(result)
        suffix = f"_{mode}" if both else ""
        _write_cmc_csv(result.curve, output / f"cmc{suffix}.csv")
        # the last trial's checksum names the lifted model file, not its span model
        entry["per_trial"][-1]["model_checksum"] = result.final_span.save(
            table.features, output / f"model{suffix}.nk3m"
        )
        if result.trials[-1].trace is not None:
            result.trials[-1].trace.write_jsonl(output / "trace.jsonl")
    (output / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for mode, result in zip(modes, results):
        n, acc = result.curve.ranks[0]
        print(f"{mode}: rank-{n} = {acc:.2f}")
    return EXIT_OK


def cmd_embed(args) -> int:
    output = _output_file(args.output)
    model = load_model(args.model)
    table = _load_table(args.data)
    header = "sample_id," + ",".join(f"e{j}" for j in range(model.margin.output_dim))
    lines = [header]
    if table.n:
        vectors = embed(model, table.features)
        for i in range(table.n):
            lines.append(table.sample_ids[i] + "," + ",".join(repr(float(v)) for v in vectors[i]))
    output.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        ranks = _protocol_args((), _parse_ranks(args.ranks))
    except (ValueError, DataValidationError) as err:
        raise ConfigError(f"bad --ranks value {args.ranks!r} ({err})") from err
    output = _output_file(args.output)
    model = load_model(args.model)
    probe = _load_table(args.probe)
    gallery = _load_table(args.gallery)
    rankings = rank_gallery(model, probe, gallery)
    curve = cmc(rankings, probe.identities, gallery.identities, ranks)
    _write_cmc_csv(curve, output)
    for n, acc in curve.ranks:
        print(f"rank-{n}: {acc:.2f}")
    return EXIT_OK


def cmd_mine(args) -> int:
    try:
        kernel = KernelSpec(kind=args.kernel, bandwidth=_parse_bandwidth(args.bandwidth))
        loop = LoopConfig(k=args.k, kernel=kernel)
    except DataValidationError as err:
        raise ConfigError(f"bad mining flags: {err}") from err
    output = _output_file(args.output)
    labeled = _load_table(args.labeled)
    unlabeled = _load_table(args.unlabeled)
    model = fit_nk3ml(labeled.subset([i is not None for i in labeled.identities]), loop.kernel)
    groups = group_rows(unlabeled.camera_ids, unlabeled.within_view_ids)
    anchor = find_anchor(unlabeled.features, groups)
    if anchor is None:
        raise DataValidationError(
            "unlabeled set cannot host an anchor: need >= 2 cameras and "
            ">= 2 identities in the anchor camera"
        )
    ctx = build_anchor_context(anchor, model, loop.kernel)
    pairs = mine_pseudo_classes(ctx, k=loop.k)
    export_pseudo_classes_csv(pairs, output)
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
    p_synth.add_argument("--transform-strength", type=float,
                         default=SyntheticSpec.per_camera_transform_strength,
                         help="per-camera linear distortion (default %(default)s)")
    p_synth.add_argument("--noise-sigma", type=float, default=SyntheticSpec.noise_sigma, help=(
        "per-row Gaussian noise (default %(default)s). With both defaults every camera sees the "
        "same row of an identity, so on 3+ cameras a semi_supervised run exits 4 (data "
        "not in general position) once a round mines an identity an earlier "
        "pseudo-class holds"))
    p_synth.add_argument("--seed", type=int, default=SyntheticSpec.seed)
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
    p_eval.add_argument("--ranks", default=_RUN_KEYS["run.ranks"].default)
    p_eval.add_argument("-o", "--output", required=True, help="cmc CSV path")
    p_eval.set_defaults(func=cmd_eval)

    p_mine = sub.add_parser("mine", help="one pseudo-class mining round (debugging)")
    p_mine.add_argument("--labeled", required=True)
    p_mine.add_argument("--unlabeled", required=True)
    p_mine.add_argument("--kernel", default=_RUN_KEYS["kernel.kind"].default)
    p_mine.add_argument("--bandwidth", default=_RUN_KEYS["kernel.bandwidth"].default)
    p_mine.add_argument("--k", type=int, default=_RUN_KEYS["loop.k"].default)
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
    except MemoryError as err:
        print(f"error: data: out of memory ({err})", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
