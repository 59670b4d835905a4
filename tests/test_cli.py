import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nullmargin
import nullmargin.cli
import nullmargin.errors
import nullmargin.evaluation
from nullmargin import fit_nk3ml, load_feature_table, load_model, save_model
from nullmargin.cli import main
from nullmargin.errors import ConfigError, DataError, NullmarginError, NumericalError

from nullmargin import save_feature_table

from conftest import HOSTILE_TABLES, make_table


# Variables OpenBLAS reads its default thread count from.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.ssml"
    code = run_cli(
        "synth", "--identities", 24, "--cameras", 2, "--dim", 40,
        "--transform-strength", 0.25, "--noise-sigma", 0.03, "--seed", 3,
        "-o", path,
    )
    assert code == 0
    return path


def test_synth_row_count_and_checksum(tmp_path, capsys):
    out = tmp_path / "a.ssml"
    assert run_cli("synth", "--identities", 10, "--dim", 8, "--seed", 1, "-o", out) == 0
    first = capsys.readouterr().out.split()[0]
    table = load_feature_table(out, "binary")
    assert table.n == 20
    out2 = tmp_path / "b.ssml"
    assert run_cli("synth", "--identities", 10, "--dim", 8, "--seed", 1, "-o", out2) == 0
    second = capsys.readouterr().out.split()[0]
    assert first == second == hashlib.sha256(out2.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", ["t.ssml", "t.csv"])
def test_synth_digest_streams_the_written_file(tmp_path, capsys, monkeypatch, name):
    out = tmp_path / name

    def no_whole_reads(self):
        raise AssertionError("synth read the whole table back")

    monkeypatch.setattr(type(out), "read_bytes", no_whole_reads)
    assert run_cli("synth", "--identities", 10, "--dim", 8, "--seed", 1, "-o", out) == 0
    printed = capsys.readouterr().out.split()
    monkeypatch.undo()
    assert printed == [hashlib.sha256(out.read_bytes()).hexdigest(), str(out)]


def test_synth_invalid_spec_exits_2(tmp_path):
    assert run_cli("synth", "--identities", 1, "--dim", 8, "-o", tmp_path / "x.ssml") == 2


def test_run_labeled_only_report(dataset, tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--input", dataset, "-o", out, "--mode", "labeled_only",
        "--seed", 7, "--trials", 2,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "1" in report["results"]["labeled_only"]["cmc"]
    assert (out / "cmc.csv").read_text().splitlines()[0] == "N,accuracy"
    assert (out / "model.nk3m").exists()
    assert not (out / "trace.jsonl").exists()


def test_run_semi_supervised_trace(dataset, tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--input", dataset, "-o", out, "--mode", "semi_supervised",
        "--seed", 7, "--trials", 2,
    )
    assert code == 0
    lines = (out / "trace.jsonl").read_text().splitlines()
    assert len(lines) >= 1
    json.loads(lines[0])


def test_run_both_emits_paired_reports(dataset, tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--input", dataset, "-o", out, "--mode", "both",
        "--seed", 7, "--trials", 2,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["results"]) == {"labeled_only", "semi_supervised"}
    assert (out / "cmc_labeled_only.csv").exists()
    assert (out / "cmc_semi_supervised.csv").exists()
    lo = report["results"]["labeled_only"]["cmc"]["1"]
    ss = report["results"]["semi_supervised"]["cmc"]["1"]
    assert isinstance(lo, float) and isinstance(ss, float)


def test_run_both_forms_one_table_gram(dataset, tmp_path, monkeypatch):
    # Both modes' trials read the one table Gram run_protocols formed.
    grams = []
    real_protocol = nullmargin.evaluation._protocol

    def recording_protocol(*args):
        grams.append(args[-1])
        return real_protocol(*args)

    monkeypatch.setattr(nullmargin.evaluation, "_protocol", recording_protocol)
    code = run_cli(
        "run", "--input", dataset, "-o", tmp_path / "out", "--mode", "both",
        "--seed", 7, "--trials", 2,
    )
    assert code == 0
    n = load_feature_table(dataset, "binary").n
    assert len(grams) == 2 and grams[0] is grams[1] and grams[0].shape == (n, n)


def test_run_config_file_with_flag_override(dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "run.mode = labeled_only\n"
        "split.trials = 2\n"
        "loop.quantile = 0.5   # inline comment\n"
        "kernel.kind = rbf\n"
    )
    out = tmp_path / "out"
    code = run_cli(
        "run", "--config", cfg, "--input", dataset, "-o", out, "--seed", 1,
        "--trials", 1,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["split.trials"] == 1          # flag wins
    assert report["config"]["loop.quantile"] == 0.5       # file wins over default
    assert report["config"]["run.mode"] == "labeled_only"


def test_run_unknown_config_key_exits_2(dataset, tmp_path, capsys):
    unknown_key = tmp_path / "run.cfg"
    unknown_key.write_text("run.modus = labeled_only\n")
    non_utf8 = tmp_path / "latin1.cfg"
    non_utf8.write_bytes(b"run.mode = labeled_only  # \xe9\n")
    directory = tmp_path / "cfg.d"
    directory.mkdir()
    for cfg in (unknown_key, non_utf8, directory, tmp_path / "missing.cfg"):
        assert run_cli("run", "--config", cfg, "--input", dataset, "-o", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith("error: config:")


def test_run_missing_input_exits_2(tmp_path):
    assert run_cli("run", "-o", tmp_path / "o") == 2


def test_run_determinism_across_threads(dataset, tmp_path):
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"out{threads}"
        code = run_cli(
            "run", "--input", dataset, "-o", out, "--mode", "semi_supervised",
            "--seed", 5, "--trials", 2, "--threads", threads,
        )
        assert code == 0
        outs.append(out)
    assert (outs[0] / "cmc.csv").read_bytes() == (outs[1] / "cmc.csv").read_bytes()
    a = json.loads((outs[0] / "report.json").read_text())
    b = json.loads((outs[1] / "report.json").read_text())
    checks_a = [t["model_checksum"] for t in a["results"]["semi_supervised"]["per_trial"]]
    checks_b = [t["model_checksum"] for t in b["results"]["semi_supervised"]["per_trial"]]
    assert checks_a == checks_b


def test_run_outputs_identical_across_blas_and_trial_threads(tmp_path):
    # Big enough that OpenBLAS splits the trials' products over threads when
    # left at its default; trials must run at one BLAS thread regardless.
    data = tmp_path / "data.ssml"
    assert run_cli(
        "synth", "--identities", 100, "--dim", 300, "--transform-strength", 0.5,
        "--noise-sigma", 0.5, "--seed", 4, "-o", data,
    ) == 0
    src = Path(nullmargin.__file__).resolve().parent.parent
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_ENV}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), base.get("PYTHONPATH")]))
    outputs = {}
    for blas in (None, "1"):
        for threads in (1, 2):
            env = dict(base, **({"OPENBLAS_NUM_THREADS": blas} if blas else {}))
            cwd = tmp_path / f"blas{blas}-threads{threads}"
            cwd.mkdir()
            subprocess.run(
                [sys.executable, "-m", "nullmargin.cli", "run", "--input", str(data), "-o", "out",
                 "--mode", "both", "--seed", "5", "--trials", "2", "--threads", str(threads)],
                cwd=cwd, env=env, check=True, capture_output=True, timeout=300,
            )
            files = {f.name: f.read_bytes() for f in (cwd / "out").iterdir()}
            # The config echo is the one place the trial thread count shows.
            echo = b'"run.threads": %d' % threads
            assert files["report.json"].count(echo) == 1
            files["report.json"] = files["report.json"].replace(echo, b'"run.threads": N')
            outputs[blas, threads] = files
    first = outputs[None, 1]
    assert sorted(first) == [
        "cmc_labeled_only.csv", "cmc_semi_supervised.csv", "model_labeled_only.nk3m",
        "model_semi_supervised.nk3m", "report.json", "trace.jsonl",
    ]
    for case, files in outputs.items():
        assert files == first, f"outputs of {case} differ from (unset, 1)"


def test_run_with_a_lifted_block_width_is_identical_at_trial_threads_1_and_2(tmp_path):
    # dim above one lift block, so each trial lifts its model block by block.
    data = tmp_path / "data.ssml"
    assert run_cli(
        "synth", "--identities", 16, "--dim", nullmargin.evaluation.LIFT_BLOCK + 77,
        "--transform-strength", 0.5, "--noise-sigma", 0.5, "--seed", 6, "-o", data,
    ) == 0
    outputs = []
    out = tmp_path / "out"      # one path, since report.json echoes it
    for threads in (1, 2):
        assert run_cli(
            "run", "--input", data, "-o", out, "--mode", "both", "--seed", 3,
            "--trials", 2, "--threads", threads,
        ) == 0
        files = {f.name: f.read_bytes() for f in out.iterdir()}
        echo = b'"run.threads": %d' % threads
        assert files["report.json"].count(echo) == 1
        files["report.json"] = files["report.json"].replace(echo, b'"run.threads": N')
        outputs.append(files)
    assert outputs[0] == outputs[1]


def test_synth_defaults_repeat_rows_across_cameras_and_the_loop_exits_4(tmp_path, capsys):
    # With no noise and no transform every camera sees the same row of an
    # identity; once a mined pseudo-class repeats an identity the null space
    # loses directions, which is a numerical error, not a crash.
    synth = ("synth", "--identities", 30, "--cameras", 4, "--dim", 120, "--seed", 9)
    run = ("run", "--mode", "semi_supervised", "--trials", 1)
    assert run_cli(*synth, "-o", tmp_path / "plain.ssml") == 0
    assert run_cli(*run, "--input", tmp_path / "plain.ssml", "-o", tmp_path / "plain") == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numerical:") and "not in general position" in err
    assert "Traceback" not in err
    assert run_cli(*synth, "--noise-sigma", 0.5, "-o", tmp_path / "noisy.ssml") == 0
    assert run_cli(*run, "--input", tmp_path / "noisy.ssml", "-o", tmp_path / "noisy") == 0


def test_embed_collapse_and_empty(dataset, tmp_path):
    out = tmp_path / "out"
    assert run_cli(
        "run", "--input", dataset, "-o", out, "--mode", "labeled_only",
        "--seed", 2, "--trials", 1, "--labeled-fraction", "1",
    ) == 0
    emb_path = tmp_path / "emb.csv"
    assert run_cli("embed", "--model", out / "model.nk3m", "--data", dataset, "-o", emb_path) == 0
    lines = emb_path.read_text().splitlines()
    table = load_feature_table(dataset, "binary")
    assert len(lines) == table.n + 1
    assert lines[0].startswith("sample_id,e0")

    empty = tmp_path / "empty.csv"
    dim = table.dim
    empty.write_text(
        "sample_id,camera_id,identity,within_view_id," +
        ",".join(f"f{j}" for j in range(dim)) + "\n"
    )
    empty_out = tmp_path / "empty_emb.csv"
    assert run_cli("embed", "--model", out / "model.nk3m", "--data", empty, "-o", empty_out) == 0
    assert empty_out.read_text().splitlines() == [lines[0]]


def test_embed_round_trip_matches_inprocess_ranking(dataset, tmp_path):
    from nullmargin import SplitSpec, make_split, rank_gallery
    from nullmargin.cli import derive_seed

    out = tmp_path / "out"
    assert run_cli(
        "run", "--input", dataset, "-o", out, "--mode", "labeled_only",
        "--seed", 2, "--trials", 1,
    ) == 0
    from nullmargin import load_model

    model = load_model(out / "model.nk3m")
    table = load_feature_table(dataset, "binary")
    emb_path = tmp_path / "emb.csv"
    assert run_cli("embed", "--model", out / "model.nk3m", "--data", dataset, "-o", emb_path) == 0
    rows = emb_path.read_text().splitlines()[1:]
    by_id = {}
    for row in rows:
        parts = row.split(",")
        by_id[parts[0]] = np.array([float(v) for v in parts[1:]])

    split = make_split(table, SplitSpec(seed=derive_seed(2, "split"), trials=1), 0)
    rankings = rank_gallery(model, split.probe, split.gallery)
    probe_vecs = np.vstack([by_id[s] for s in split.probe.sample_ids])
    gallery_vecs = np.vstack([by_id[s] for s in split.gallery.sample_ids])
    for i in range(split.probe.n):
        dists = [(float(np.linalg.norm(probe_vecs[i] - gallery_vecs[j])), j)
                 for j in range(split.gallery.n)]
        dists.sort()
        assert rankings[i].tolist() == [j for _, j in dists]


def test_eval_subcommand(dataset, tmp_path):
    from nullmargin import SplitSpec, make_split
    from nullmargin.cli import derive_seed

    out = tmp_path / "out"
    assert run_cli(
        "run", "--input", dataset, "-o", out, "--mode", "labeled_only",
        "--seed", 4, "--trials", 1,
    ) == 0
    table = load_feature_table(dataset, "binary")
    split = make_split(table, SplitSpec(seed=derive_seed(4, "split"), trials=1), 0)
    probe_path = tmp_path / "probe.csv"
    gallery_path = tmp_path / "gallery.csv"
    save_feature_table(split.probe, probe_path, "csv")
    save_feature_table(split.gallery, gallery_path, "csv")
    cmc_path = tmp_path / "cmc.csv"
    code = run_cli(
        "eval", "--model", out / "model.nk3m", "--probe", probe_path,
        "--gallery", gallery_path, "--ranks", "1,5", "-o", cmc_path,
    )
    assert code == 0
    lines = cmc_path.read_text().splitlines()
    assert lines[0] == "N,accuracy"
    assert len(lines) == 3


def test_mine_subcommand(tmp_path, noisefree_table):
    labeled_rows = [r for r in range(noisefree_table.n) if noisefree_table.identities[r] < 4]
    unlabeled_rows = [r for r in range(noisefree_table.n) if noisefree_table.identities[r] >= 4]
    labeled = noisefree_table.subset(labeled_rows)
    unlabeled = noisefree_table.subset(unlabeled_rows).with_identities(
        [None] * len(unlabeled_rows)
    )
    lab_path = tmp_path / "labeled.csv"
    unlab_path = tmp_path / "unlabeled.csv"
    save_feature_table(labeled, lab_path, "csv")
    save_feature_table(unlabeled, unlab_path, "csv")
    out = tmp_path / "pseudo.csv"
    code = run_cli("mine", "--labeled", lab_path, "--unlabeled", unlab_path, "-o", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,anchor_camera,anchor_id,matched_camera,matched_id,affinity"
    assert len(lines) == 9  # 8 true pairs


def test_mine_pool_without_anchor_exit_3(tmp_path, noisefree_table, capsys):
    ids, cams = noisefree_table.identities, noisefree_table.camera_ids
    labeled = noisefree_table.subset([r for r in range(len(ids)) if ids[r] < 4])
    unlabeled = noisefree_table.subset(
        [r for r in range(len(ids)) if ids[r] >= 4 and cams[r] == cams[0]]
    )
    lab_path = tmp_path / "labeled.csv"
    unlab_path = tmp_path / "unlabeled.csv"
    save_feature_table(labeled, lab_path, "csv")
    save_feature_table(unlabeled, unlab_path, "csv")
    out = tmp_path / "pseudo.csv"
    code = run_cli("mine", "--labeled", lab_path, "--unlabeled", unlab_path, "-o", out)
    assert code == 3
    assert "cannot host an anchor" in capsys.readouterr().err
    assert not out.exists()


def test_mine_labeled_set_not_in_general_position_exit_3(tmp_path, noisefree_table, capsys):
    # Class 1 is class 0 moved along its own within-class direction, so the
    # labeled set has no null direction.
    rng = np.random.default_rng(36)
    a, u = rng.standard_normal((2, noisefree_table.dim))
    rows = np.vstack([a, a + u, a + 3.0 * u, a + 4.0 * u])
    labeled = make_table(rows, [0, 1, 0, 1], [0, 0, 1, 1])
    lab_path = tmp_path / "labeled.csv"
    unlab_path = tmp_path / "unlabeled.csv"
    save_feature_table(labeled, lab_path, "csv")
    save_feature_table(noisefree_table.with_identities([None] * noisefree_table.n), unlab_path, "csv")
    out = tmp_path / "pseudo.csv"
    code = run_cli("mine", "--labeled", lab_path, "--unlabeled", unlab_path, "-o", out)
    assert code == 3
    assert "general position" in capsys.readouterr().err
    assert not out.exists()


def test_threads_env_fallback(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("NULLMARGIN_THREADS", "2")
    out = tmp_path / "out"
    code = run_cli(
        "run", "--input", dataset, "-o", out, "--mode", "labeled_only",
        "--seed", 1, "--trials", 2,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["run.threads"] == 2


def test_data_error_exit_3(tmp_path):
    missing = tmp_path / "missing.ssml"
    assert run_cli("run", "--input", missing, "-o", tmp_path / "o", "--trials", 1) == 3


def test_bad_model_file_exit_3(tmp_path, dataset, capsys):
    bad = tmp_path / "bad.nk3m"
    bad.write_bytes(b"not a model")
    directory = tmp_path / "model.nk3m"
    directory.mkdir()
    for model in (bad, directory):
        assert run_cli("embed", "--model", model, "--data", dataset, "-o", tmp_path / "e.csv") == 3
        assert capsys.readouterr().err.startswith("error: data:")


@pytest.mark.parametrize("command", ["embed", "eval"])
@pytest.mark.parametrize("flaw", ["nan_w_n", "inf_train_points", "no_discriminants"])
def test_unusable_model_file_exit_3(tmp_path, dataset, saved_model, capsys, command, flaw):
    # Each flaw used to embed as NaN rows or rank by tie order, and exit 0.
    model = load_model(saved_model)
    if flaw == "nan_w_n":
        model.nullproj.w_n[0, 0] = np.nan
    elif flaw == "inf_train_points":
        model.margin.train_points[-1, 0] = np.inf
    else:
        model.margin.coeffs = model.margin.coeffs[:, :0]
        model.margin.eigenvalues = model.margin.eigenvalues[:0]
    bad = tmp_path / "bad.nk3m"
    save_model(model, bad)
    argv = command_argv(command, dataset, bad)
    assert run_cli(*argv, "-o", tmp_path / "out.csv") == 3
    assert capsys.readouterr().err.startswith("error: data:")
    assert not (tmp_path / "out.csv").exists()


def test_report_last_checksum_is_the_written_model(dataset, tmp_path):
    # Non-final per-trial checksums name span-coordinate models; the last
    # one names the lifted model the run writes.
    out = tmp_path / "out"
    assert run_cli("run", "--input", dataset, "-o", out, "--mode", "both", "--trials", 3) == 0
    report = json.loads((out / "report.json").read_text())
    for mode in ("labeled_only", "semi_supervised"):
        checksums = [t["model_checksum"] for t in report["results"][mode]["per_trial"]]
        written = hashlib.sha256((out / f"model_{mode}.nk3m").read_bytes()).hexdigest()
        assert len(set(checksums)) == 3
        assert checksums[-1] == written


@pytest.fixture(scope="module")
def saved_model(dataset, tmp_path_factory):
    table = load_feature_table(dataset, "binary")
    model = tmp_path_factory.mktemp("model") / "model.nk3m"
    save_model(fit_nk3ml(table.subset([r for r in range(table.n) if table.identities[r] < 8])), model)
    return model


def spy_loads(monkeypatch):
    """Record every table load the CLI makes; returns the list of paths."""
    loads = []
    real_load = nullmargin.cli._load_table

    def spy(path):
        loads.append(path)
        return real_load(path)

    monkeypatch.setattr(nullmargin.cli, "_load_table", spy)
    return loads


def command_argv(command, dataset, model):
    """A command's arguments before -o: its inputs all exist and are valid."""
    return {
        "run": ("run", "--input", dataset, "--trials", 1),
        "synth": ("synth", "--identities", 4, "--dim", 3),
        "embed": ("embed", "--model", model, "--data", dataset),
        "eval": ("eval", "--model", model, "--probe", dataset, "--gallery", dataset),
        "mine": ("mine", "--labeled", dataset, "--unlabeled", dataset),
    }[command]


def assert_exits_3_before_loading(monkeypatch, capsys, argv):
    # The path fails before any input is loaded, not when the output is
    # first written after the fit, ranking or mining.
    loads = spy_loads(monkeypatch)
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and "Traceback" not in err
    assert loads == []


@pytest.mark.parametrize("command", ["run", "synth", "embed", "eval", "mine"])
def test_unusable_output_path_exits_3(dataset, saved_model, tmp_path, capsys, monkeypatch, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    output = blocker if command == "run" else blocker / "out.csv"
    argv = command_argv(command, dataset, saved_model)
    assert_exits_3_before_loading(monkeypatch, capsys, (*argv, "-o", output))


@pytest.mark.parametrize("command", ["embed", "eval", "mine"])
def test_directory_output_file_exits_3(dataset, saved_model, tmp_path, capsys, monkeypatch, command):
    argv = command_argv(command, dataset, saved_model)
    assert_exits_3_before_loading(monkeypatch, capsys, (*argv, "-o", tmp_path))


def test_eval_bad_ranks_exit_2_before_loading(dataset, saved_model, tmp_path, capsys, monkeypatch):
    loads = spy_loads(monkeypatch)
    out = tmp_path / "cmc.csv"
    assert run_cli("eval", "--model", saved_model, "--probe", dataset, "--gallery", dataset,
                   "--ranks", "1,x", "-o", out) == 2
    assert capsys.readouterr().err.startswith("error: config: bad --ranks value")
    assert loads == [] and not out.exists()


ERROR_CLASSES = [
    cls for cls in vars(nullmargin.errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception) and cls is not NullmarginError
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_class_has_one_exit_code(tmp_path, capsys, monkeypatch, cls):
    codes = {ConfigError: 2, DataError: 3, NumericalError: 4}
    [code] = [code for base, code in codes.items() if issubclass(cls, base)]

    def fail(args):
        raise cls.__new__(cls, "injected")

    monkeypatch.setattr(nullmargin.cli, "cmd_synth", fail)
    assert run_cli("synth", "--identities", 4, "--dim", 3, "-o", tmp_path / "x.ssml") == code
    assert capsys.readouterr().err.endswith(": injected\n")


@pytest.mark.parametrize("name", HOSTILE_TABLES)
def test_hostile_table_exit_3(hostile_dir, tmp_path, capsys, name):
    path = hostile_dir / name
    assert run_cli("run", "--input", path, "-o", tmp_path / "o", "--trials", 1) == 3
    assert capsys.readouterr().err.startswith("error: data:")


@pytest.mark.parametrize("argv, code", [
    (("run", "--ranks", "5,10"), 0),
    (("run", "--ranks", "1,1,5"), 2),
    (("run", "--bandwidth", "inf"), 2),
    (("run", "--bandwidth", "1e-300"), 2),
    (("mine", "--k", "0"), 2),
    (("mine", "--bandwidth", "inf"), 2),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_flags_end_in_their_exit_code(dataset, tmp_path, capsys, argv, code):
    command, *flags = argv
    out = tmp_path / "out"
    if command == "run":
        args = ("run", "--input", dataset, "-o", out, "--mode", "both", "--trials", 1, *flags)
    else:
        args = ("mine", "--labeled", dataset, "--unlabeled", dataset, "-o", out, *flags)
    assert run_cli(*args) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code:
        assert captured.err.startswith("error: config:")
        assert not out.exists()
        return
    # A run without rank 1 prints each mode's first requested rank.
    assert [line.split(" = ")[0] for line in captured.out.splitlines()] == [
        "labeled_only: rank-5", "semi_supervised: rank-5",
    ]
    report = json.loads((out / "report.json").read_text())
    assert list(report["results"]["labeled_only"]["cmc"]) == ["10", "5"]


def test_eval_scores_labeled_probes_only(dataset, tmp_path, capsys):
    from nullmargin import SplitSpec, make_split
    from nullmargin.cli import derive_seed
    from nullmargin.dataio import concat_tables

    model = tmp_path / "out" / "model.nk3m"
    assert run_cli(
        "run", "--input", dataset, "-o", model.parent, "--mode", "labeled_only",
        "--seed", 4, "--trials", 1,
    ) == 0
    split = make_split(load_feature_table(dataset, "binary"), SplitSpec(derive_seed(4, "split")), 0)
    unlabeled_probe = split.probe.with_identities([None] * split.probe.n)
    paths = {}
    for name, table in (
        ("probe", split.probe),
        ("unlabeled_probe", unlabeled_probe),
        ("unlabeled_gallery", split.gallery.with_identities([None] * split.gallery.n)),
        # Each probe's unlabeled copy sits at distance 0, ahead of its match.
        ("distractor_gallery", concat_tables(split.gallery, unlabeled_probe)),
    ):
        paths[name] = tmp_path / f"{name}.csv"
        save_feature_table(table, paths[name], "csv")
    capsys.readouterr()

    def evaluate(probe, gallery, ranks="1,5"):
        cmc_path = tmp_path / "cmc.csv"
        cmc_path.unlink(missing_ok=True)
        code = run_cli("eval", "--model", model, "--probe", paths[probe],
                       "--gallery", paths[gallery], "--ranks", ranks, "-o", cmc_path)
        return code, capsys.readouterr(), cmc_path.exists()

    code, captured, written = evaluate("unlabeled_probe", "unlabeled_gallery")
    assert (code, written) == (3, False)
    assert captured.err.startswith("error: data: probe row 0 has no identity")
    code, captured, written = evaluate("probe", "distractor_gallery")
    assert (code, written) == (0, True)
    assert captured.out.splitlines()[0] == "rank-1: 0.00"
    code, captured, written = evaluate("probe", "distractor_gallery", ranks="1,1,5")
    assert (code, written) == (2, False)
    assert captured.err.startswith("error: config:")
