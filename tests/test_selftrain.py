import json
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

import nullmargin.selftrain
from nullmargin import (
    LoopConfig,
    SyntheticSpec,
    generate_synthetic,
    run_self_training,
    save_feature_table,
)
from nullmargin.cli import main
from nullmargin.errors import DataValidationError, EmptyModelError, SelfTrainingError
from nullmargin.mining import PseudoClass
from nullmargin.nk3ml import model_checksum
from nullmargin.selftrain import PSEUDO_LABEL_BASE, _select_pairs

from conftest import use_cores


def split_by_identity(table, labeled_count):
    labeled_rows = [r for r in range(table.n) if table.identities[r] < labeled_count]
    unlabeled_rows = [r for r in range(table.n) if table.identities[r] >= labeled_count]
    labeled = table.subset(labeled_rows)
    unlabeled = replace(table.subset(unlabeled_rows), identities=[None] * len(unlabeled_rows))
    return labeled, unlabeled


@pytest.fixture(scope="module")
def noisefree_12():
    return generate_synthetic(SyntheticSpec(identities=12, cameras=2, dim=24, seed=5))


def test_empty_unlabeled_single_fit(noisefree_12):
    labeled, unlabeled = split_by_identity(noisefree_12, 12)
    model, trace = run_self_training(labeled, unlabeled.subset([]), LoopConfig())
    assert len(trace.records) == 1
    assert trace.records[0].pseudo_mined == 0
    assert len(model.margin.class_index) == 12


def test_nine_identities_quartile_schedule(noisefree_12):
    # Hand simulation: 9 mined pairs at affinity 1 -> accept ceil(9/4)=3,
    # then 6 -> 2, 4 -> 1, 3 -> all 3 (small harvest), pool empty.
    labeled, unlabeled = split_by_identity(noisefree_12, 3)
    model, trace = run_self_training(labeled, unlabeled, LoopConfig(quantile=0.25))
    first = trace.records[0]
    assert first.pseudo_mined == 9
    assert first.pseudo_accepted == 3
    assert first.affinity_threshold == 1.0

    mining_rounds = [r for r in trace.records if r.pseudo_mined > 0]
    assert len(mining_rounds) <= 9
    accepted = [r.pseudo_accepted for r in mining_rounds]
    assert accepted == [3, 2, 1, 3]
    # pool strictly shrinks; all 9 absorbed
    assert len(model.margin.class_index) == 12
    counts = [r.labeled_classes for r in trace.records]
    assert counts == sorted(counts)
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_max_iterations_caps_mining(noisefree_12):
    labeled, unlabeled = split_by_identity(noisefree_12, 3)
    model, trace = run_self_training(labeled, unlabeled, LoopConfig(max_iterations=1))
    mining_rounds = [r for r in trace.records if r.pseudo_mined > 0]
    assert len(mining_rounds) == 1
    # final refit happened after augmentation
    assert trace.records[-1].labeled_classes == 3 + trace.records[0].pseudo_accepted
    assert len(model.margin.class_index) == trace.records[-1].labeled_classes


def test_loop_determinism(noisefree_12):
    labeled, unlabeled = split_by_identity(noisefree_12, 3)
    cfg = LoopConfig()
    model_a, trace_a = run_self_training(labeled, unlabeled, cfg)
    model_b, trace_b = run_self_training(labeled, unlabeled, cfg)
    assert trace_a.records == trace_b.records
    assert trace_a.records[-1].model_checksum == trace_b.records[-1].model_checksum


def test_pseudo_labels_disjoint_namespace(noisefree_12):
    labeled, unlabeled = split_by_identity(noisefree_12, 3)
    cfg = LoopConfig()
    model, _ = run_self_training(labeled, unlabeled, cfg)
    # recover final labels by rerunning the absorption through the trace is
    # indirect; instead check the model grew and no ground-truth id >= base
    assert all(ident < PSEUDO_LABEL_BASE for ident in labeled.identities)
    assert len(model.margin.class_index) == 12


def test_no_identity_duplication(noisefree_12):
    labeled, unlabeled = split_by_identity(noisefree_12, 3)
    model, trace = run_self_training(labeled, unlabeled, LoopConfig())
    total_accepted = sum(r.pseudo_accepted for r in trace.records)
    assert total_accepted == 9
    assert len(model.margin.class_index) == 3 + total_accepted


def test_requires_two_labeled_classes(noisefree_12):
    labeled, unlabeled = split_by_identity(noisefree_12, 1)
    with pytest.raises(DataValidationError):
        run_self_training(labeled, unlabeled, LoopConfig())


def test_labels_near_int64_max_leave_no_room_for_pseudo_labels(noisefree_12):
    labeled, unlabeled = split_by_identity(noisefree_12, 3)
    top = replace(labeled, identities=[(1 << 63) - 1 - ident for ident in labeled.identities])
    with pytest.raises(DataValidationError, match="int64 room"):
        run_self_training(top, unlabeled, LoopConfig())


def test_trace_jsonl_export(tmp_path, noisefree_12):
    labeled, unlabeled = split_by_identity(noisefree_12, 3)
    _, trace = run_self_training(labeled, unlabeled, LoopConfig())
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(trace.records)
    rec = json.loads(lines[0])
    assert set(rec) == {
        "iteration",
        "labeled_classes",
        "pseudo_mined",
        "pseudo_accepted",
        "affinity_threshold",
        "model_checksum",
    }


@pytest.mark.parametrize("cores", [1, 2])
def test_trace_checksums_are_each_rounds_inline_checksum(tmp_path, monkeypatch, cores):
    # Each trace.jsonl record names the model its round fitted, as hashed
    # here, in round order; every round is hashed on its loop's own thread,
    # right after its fit. Two trials, so on 2 cores two loops run at once.
    table = generate_synthetic(SyntheticSpec(identities=24, cameras=3, dim=40, noise_sigma=0.3, seed=3))
    data = tmp_path / "t.ssml"
    save_feature_table(table, data, "binary")
    loops = {}      # id(state) -> (state, inline checksums in round order)
    unhashed = {}   # loop thread -> the model it fitted last, until it is hashed
    real_fit = nullmargin.selftrain.fit_nk3ml
    real_checksum = nullmargin.selftrain.model_checksum

    def recording_fit(new, kernel, state):
        model = real_fit(new, kernel, state)
        # the state is kept alive, so its id names one loop
        loops.setdefault(id(state), (state, []))[1].append(model_checksum(model))
        assert threading.current_thread() not in unhashed
        unhashed[threading.current_thread()] = model
        return model

    def recording_checksum(model):
        assert unhashed.pop(threading.current_thread()) is model
        return real_checksum(model)

    monkeypatch.setattr(nullmargin.selftrain, "fit_nk3ml", recording_fit)
    monkeypatch.setattr(nullmargin.selftrain, "model_checksum", recording_checksum)
    use_cores(monkeypatch, cores)
    out = tmp_path / "out"
    assert main(["run", "--input", str(data), "-o", str(out), "--mode", "semi_supervised",
                 "--trials", "2", "--seed", "4"]) == 0
    traced = [json.loads(line)["model_checksum"] for line in (out / "trace.jsonl").read_text().splitlines()]
    inline = [sums for _, sums in loops.values()]
    assert len(inline) == 2 and min(map(len, inline)) >= 2
    assert traced in inline
    if cores == 1:
        assert traced == inline[-1]                  # the last trial's loop
    assert not unhashed


@pytest.mark.parametrize("stage, target", [
    ("primary fit", "fit_nk3ml"),
    ("mining", "mine_pseudo_classes"),
])
def test_a_failing_round_names_its_iteration_and_leaves_no_thread(monkeypatch, noisefree_12, stage, target):
    labeled, unlabeled = split_by_identity(noisefree_12, 3)
    real = getattr(nullmargin.selftrain, target)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise EmptyModelError("forced failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(nullmargin.selftrain, target, failing)
    before = set(threading.enumerate())
    with pytest.raises(SelfTrainingError, match=f"{stage} failed at iteration 2: forced failure"):
        run_self_training(labeled, unlabeled, LoopConfig())
    assert set(threading.enumerate()) <= before


def test_config_validation():
    with pytest.raises(DataValidationError):
        LoopConfig(quantile=0.0)
    with pytest.raises(DataValidationError):
        LoopConfig(max_iterations=0)
    with pytest.raises(DataValidationError):
        LoopConfig(k=0)


@pytest.mark.parametrize("name", ["k", "max_iterations"])
@pytest.mark.parametrize("value", [1.5, 2.0, np.float64(2.0), True, np.True_, "2", None])
def test_config_counts_must_be_integers(name, value):
    with pytest.raises(DataValidationError, match=f"{name} must be an integer"):
        LoopConfig(**{name: value})


def test_config_counts_take_numpy_integers_as_ints():
    cfg = LoopConfig(k=np.int64(2), max_iterations=np.uint8(3))
    assert (type(cfg.k), type(cfg.max_iterations)) == (int, int)
    assert (cfg.k, cfg.max_iterations) == (2, 3)


def test_select_pairs_keeps_small_harvests_whole_and_a_quantile_of_the_rest():
    for quantile in (1e-9, 0.25, 1.0):
        cfg = LoopConfig(quantile=quantile)
        for n in range(1, 61):
            pairs = [PseudoClass((0, i), (1, i), float(n - i)) for i in range(n)]
            accepted, threshold = _select_pairs(pairs, cfg)
            keep = n if n < 4 else math.ceil(quantile * n)
            assert 1 <= keep <= n
            assert accepted == pairs[:keep]
            assert threshold == pairs[keep - 1].affinity
