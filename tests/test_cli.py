import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nullmargin
import nullmargin.evaluation
from nullmargin import load_feature_table
from nullmargin.cli import main

from nullmargin import save_feature_table

from conftest import HOSTILE_TABLES


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
    formed = []
    real_gram = nullmargin.evaluation._table_gram

    def counting_gram(table):
        formed.append(table.n)
        return real_gram(table)

    monkeypatch.setattr(nullmargin.evaluation, "_table_gram", counting_gram)
    code = run_cli(
        "run", "--input", dataset, "-o", tmp_path / "out", "--mode", "both",
        "--seed", 7, "--trials", 2,
    )
    assert code == 0
    assert formed == [load_feature_table(dataset, "binary").n]


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


@pytest.mark.parametrize("name", HOSTILE_TABLES)
def test_hostile_table_exit_3(hostile_dir, tmp_path, capsys, name):
    path = hostile_dir / name
    assert run_cli("run", "--input", path, "-o", tmp_path / "o", "--trials", 1) == 3
    assert capsys.readouterr().err.startswith("error: data:")
