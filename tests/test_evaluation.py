import gc
import os
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import nullmargin.evaluation
from nullmargin import (
    LoopConfig,
    SplitSpec,
    SyntheticSpec,
    cmc,
    embed,
    fit_nk3ml,
    generate_synthetic,
    make_split,
    model_checksum,
    rank_gallery,
    run_protocol,
    run_protocols,
    run_self_training,
)
from nullmargin.errors import DataValidationError, ProtocolError
from nullmargin.evaluation import LIFT_BLOCK, MODES, _lift, single_shot_view
from nullmargin.nfst import NullProjector

from conftest import make_table, model_bytes


def identity_rankings(order_rows):
    return np.array(order_rows)


def test_cmc_hand_counted_positions():
    # correct-match positions {1, 2, 2, 5} over a 5-entry gallery
    gallery_ids = [10, 11, 12, 13, 14]
    rankings = identity_rankings(
        [
            [0, 1, 2, 3, 4],   # probe id 10 at position 1
            [0, 1, 2, 3, 4],   # probe id 11 at position 2
            [3, 2, 1, 0, 4],   # probe id 12 at position 2
            [1, 2, 3, 4, 0],   # probe id 10 at position 5
        ]
    )
    probe_ids = [10, 11, 12, 10]
    curve = cmc(rankings, probe_ids, gallery_ids, ns=(1, 2, 5))
    assert curve.accuracy_at(1) == 25.0
    assert curve.accuracy_at(2) == 75.0
    assert curve.accuracy_at(5) == 100.0


def test_cmc_perfect_rankings():
    rankings = identity_rankings([[0, 1], [1, 0]])
    curve = cmc(rankings, [5, 6], [5, 6], ns=(1, 2))
    assert curve.accuracy_at(1) == 100.0


def test_cmc_adversarial_last():
    g = 6
    gallery_ids = list(range(g))
    rankings = identity_rankings([[1, 2, 3, 4, 5, 0]])
    curve = cmc(rankings, [0], gallery_ids, ns=(g - 1, g))
    assert curve.accuracy_at(g - 1) == 0.0
    assert curve.accuracy_at(g) == 100.0


def test_cmc_missing_probe_identity_named():
    rankings = identity_rankings([[0, 1]])
    with pytest.raises(ProtocolError, match="99"):
        cmc(rankings, [99], [1, 2], ns=(1,))


def test_cmc_monotone_random():
    rng = np.random.default_rng(0)
    gallery_ids = list(rng.integers(0, 30, size=40))
    probe_ids = [gallery_ids[i] for i in rng.integers(0, 40, size=15)]
    rankings = np.vstack([rng.permutation(40) for _ in range(15)])
    ns = tuple(range(1, 41))
    curve = cmc(rankings, probe_ids, gallery_ids, ns)
    accs = [acc for _, acc in curve.ranks]
    assert accs == sorted(accs)
    assert accs[-1] == 100.0


def test_rank_gallery_single_entry(easy_table):
    split = make_split(easy_table, SplitSpec(seed=1, trials=10, labeled_fraction=1), 0)
    model = fit_nk3ml(split.labeled)
    gallery_one = split.gallery.subset([0])
    rankings = rank_gallery(model, split.probe, gallery_one)
    assert rankings.shape == (split.probe.n, 1)
    assert np.all(rankings == 0)


def test_rank_gallery_self_match_first(easy_table):
    split = make_split(easy_table, SplitSpec(seed=1, trials=10, labeled_fraction=1), 0)
    model = fit_nk3ml(split.labeled)
    probe = split.gallery.subset([3])
    rankings = rank_gallery(model, probe, split.gallery)
    assert rankings[0, 0] == 3


def test_rank_gallery_matches_sort_oracle(easy_table):
    split = make_split(easy_table, SplitSpec(seed=2, trials=10, labeled_fraction=1), 1)
    model = fit_nk3ml(split.labeled)
    probe = split.probe.subset(range(5))
    rankings = rank_gallery(model, probe, split.gallery)
    pv = embed(model, probe.features)
    gv = embed(model, split.gallery.features)
    for i in range(probe.n):
        dists = [(float(np.linalg.norm(pv[i] - gv[j])), j) for j in range(split.gallery.n)]
        dists.sort()
        assert rankings[i].tolist() == [j for _, j in dists]


def test_single_shot_view_one_image_per_identity_camera():
    rng = np.random.default_rng(3)
    cams = [0, 0, 1, 1, 1, 0]
    idents = [4, 4, 4, 5, 5, 5]
    table = make_table(rng.standard_normal((6, 3)), cams, idents, within_view=[0] * 6)
    view = single_shot_view(table, seed=9, trial=0)
    seen = {(i, int(c)) for i, c in zip(view.identities, view.camera_ids)}
    assert len(seen) == view.n
    assert seen == {(4, 0), (4, 1), (5, 1), (5, 0)}


def test_single_shot_view_picks_are_pinned():
    # Five (identity, camera) groups hold three interleaved rows each, three
    # hold one. The trial stream draws once per multi-row group, in ascending
    # (identity, camera) order, so these exact rows pin the draw order.
    cams = [1, 0, 1, 0, 0, 1, 1, 0, 2, 0, 1, 0, 2, 2, 1, 0, 2, 1]
    idents = [7, 3, 3, 7, 7, 3, 7, 3, 3, 7, 7, 3, 7, 3, 3, 9, 3, 12]
    table = make_table(np.arange(len(cams), dtype=float)[:, None], cams, idents)
    kept = {
        trial: single_shot_view(table, seed=11, trial=trial).features[:, 0].astype(int).tolist()
        for trial in (2, 3)
    }
    assert kept == {2: [1, 4, 6, 12, 14, 15, 16, 17], 3: [0, 9, 11, 12, 13, 14, 15, 17]}


def direct_trial(table, spec, cfg, mode, ns):
    """Trial 0 of run_protocol fitted and ranked in feature coordinates."""
    split = make_split(table, spec, 0)
    if mode == "labeled_only":
        model = fit_nk3ml(split.labeled, cfg.kernel)
    else:
        model, _ = run_self_training(split.labeled, split.unlabeled, cfg)
    probe = single_shot_view(split.probe, spec.seed, 0)
    gallery = single_shot_view(split.gallery, spec.seed, 0)
    curve = cmc(rank_gallery(model, probe, gallery), probe.identities, gallery.identities, ns)
    return curve, split.labeled.n + split.unlabeled.n, model


def assert_run_protocol_equals_direct(table, spec, mode, side):
    # run_protocol fits in coordinates of the train span and lifts the model
    # back; the direct fit must give the same CMC and, up to rounding, the
    # same pairwise embedding distances.
    cfg, ns = LoopConfig(), (1, 5)
    result = run_protocol(table, spec, cfg, mode, ns=ns)
    direct, n_train, model = direct_trial(table, spec, cfg, mode, ns)
    assert (table.dim < n_train) == (side == ">")
    assert result.per_trial[0] == direct
    lifted = result.final_model
    assert lifted.nullproj.dim == table.dim
    assert result.model_checksums[0] == model_checksum(lifted)
    expected = pdist(embed(model, table.features))
    np.testing.assert_allclose(
        pdist(embed(lifted, table.features)), expected, rtol=0, atol=1e-9 * expected.max()
    )


def test_run_protocol_single_trial_equals_manual(noisefree_table):
    spec = SplitSpec(seed=4, trials=1, labeled_fraction=1)
    assert_run_protocol_equals_direct(noisefree_table, spec, "labeled_only", "<")


def test_span_reduction_is_exact_isometry():
    # Every trial runs in train-span coordinates, on either side of
    # d = n_train; the lifted model must match a feature-space fit.
    def synth(identities, dim, seed):
        return generate_synthetic(SyntheticSpec(
            identities=identities, cameras=2, dim=dim,
            per_camera_transform_strength=0.5, noise_sigma=0.1, seed=seed,
        ))

    assert_run_protocol_equals_direct(
        synth(20, 400, 31), SplitSpec(seed=7, trials=1), "semi_supervised", "<"
    )
    assert_run_protocol_equals_direct(
        synth(40, 30, 32), SplitSpec(seed=8, trials=1, labeled_fraction=Fraction(1, 4)),
        "labeled_only", ">",
    )


def test_run_protocol_noise_free_rank1_perfect(noisefree_table):
    spec = SplitSpec(seed=5, trials=2, labeled_fraction=1)
    result = run_protocol(noisefree_table, spec, LoopConfig(), "labeled_only", ns=(1,))
    assert result.curve.accuracy_at(1) == 100.0


def test_run_protocol_reproducible_and_thread_invariant(noisefree_table):
    spec = SplitSpec(seed=6, trials=3)
    cfg = LoopConfig()
    a = run_protocol(noisefree_table, spec, cfg, "semi_supervised", ns=(1, 5))
    b = run_protocol(noisefree_table, spec, cfg, "semi_supervised", ns=(1, 5))
    c = run_protocol(noisefree_table, spec, cfg, "semi_supervised", ns=(1, 5), threads=3)
    assert a.curve == b.curve == c.curve
    assert a.model_checksums == b.model_checksums == c.model_checksums


def test_run_protocol_rejects_unknown_mode(noisefree_table):
    with pytest.raises(DataValidationError):
        run_protocol(noisefree_table, SplitSpec(seed=1, trials=1), LoopConfig(), "bogus")


@pytest.mark.parametrize("kwargs, match", [
    ({"threads": 0}, "threads must be >= 1"),
    ({"threads": 1.5}, "threads must be an integer"),
    ({"threads": True}, "threads must be an integer"),
    ({"ns": ()}, "ranks must be nonempty"),
    ({"ns": (0,)}, "rank must be >= 1"),
    ({"ns": (1, 5, 1)}, "ranks must be nonempty and distinct"),
    ({"ns": (1.5,)}, "rank must be an integer"),
    ({"ns": (1, True)}, "rank must be an integer"),
])
def test_run_protocol_checks_threads_and_ranks_before_any_trial(
    noisefree_table, monkeypatch, kwargs, match
):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(nullmargin.evaluation, "_run_trial", no_trial)
    spec = SplitSpec(seed=1, trials=1)
    with pytest.raises(DataValidationError, match=match):
        run_protocol(noisefree_table, spec, LoopConfig(), "labeled_only", **kwargs)


def test_cmc_invariant_to_gallery_permutation(easy_table):
    split = make_split(easy_table, SplitSpec(seed=8, trials=10, labeled_fraction=1), 0)
    model = fit_nk3ml(split.labeled)
    ns = (1, 3, 5)
    base = cmc(
        rank_gallery(model, split.probe, split.gallery),
        split.probe.identities,
        split.gallery.identities,
        ns,
    )
    perm = np.random.default_rng(9).permutation(split.gallery.n)
    shuffled = split.gallery.subset(perm)
    moved = cmc(
        rank_gallery(model, split.probe, shuffled),
        split.probe.identities,
        shuffled.identities,
        ns,
    )
    assert base.ranks == moved.ranks


def use_cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


# 4219 spans several LIFT_BLOCK-wide blocks and ends in a partial one.
@pytest.mark.parametrize("dim", [4219, 300])
def test_lift_is_worker_count_invariant_and_matches_the_gathered_product(dim, monkeypatch):
    # The lift forms T^T (A w) block by block without gathering T; its bits
    # must not depend on how many workers run the blocks, and it must agree
    # with the product over the gathered train rows.
    rng = np.random.default_rng(dim)
    features = rng.standard_normal((40, dim))
    train = rng.permutation(40)[:25]
    coeffs = rng.standard_normal((25, 20))
    span = NullProjector(w_n=rng.standard_normal((20, 6)), mean=rng.standard_normal(20))
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(nullmargin.evaluation, "ThreadPoolExecutor", RecordingPool)
    lifted = []
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        lifted.append(_lift(features, train, coeffs, span))
    one, two = lifted
    assert pools == ([1, 2] if dim > LIFT_BLOCK else [1, 1])     # min(cores, blocks)
    assert one.w_n.tobytes() == two.w_n.tobytes()
    assert one.mean.tobytes() == two.mean.tobytes()
    basis = features[train].T
    for got, part in ((one.w_n, span.w_n), (one.mean, span.mean)):
        want = basis @ (coeffs @ part)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())


@pytest.mark.parametrize("cores", [1, 2])
def test_lift_holds_one_gathered_train_block_per_worker(cores, monkeypatch):
    # Besides its outputs and the two span products, the lift may hold only
    # one gathered n_train x LIFT_BLOCK block per worker at a time: gathering
    # all of T, or copying a block again, breaks the bound. tracemalloc sees
    # numpy's buffers on every thread.
    rng = np.random.default_rng(cores)
    n_train, dim, rank, directions = 600, 5 * LIFT_BLOCK + 123, 40, 6
    features = rng.standard_normal((650, dim))
    train = np.sort(rng.permutation(650)[:n_train])
    coeffs = rng.standard_normal((n_train, rank))
    span = NullProjector(w_n=rng.standard_normal((rank, directions)), mean=rng.standard_normal(rank))
    use_cores(monkeypatch, cores)
    tracemalloc.start()
    try:
        lifted = _lift(features, train, coeffs, span)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = lifted.w_n.nbytes + lifted.mean.nbytes + n_train * (directions + 1) * 8
    workers = min(cores, -(-dim // LIFT_BLOCK))
    assert peak - held <= 1.1 * workers * n_train * LIFT_BLOCK * 8


def test_lifted_models_identical_at_any_lift_worker_count(monkeypatch):
    table = generate_synthetic(SyntheticSpec(
        identities=16, cameras=2, dim=LIFT_BLOCK + 300,
        per_camera_transform_strength=0.5, noise_sigma=0.5, seed=3,
    ))
    spec = SplitSpec(seed=2, trials=2)
    runs = []
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        runs.append(run_protocol(table, spec, LoopConfig(), "semi_supervised", ns=(1, 5)))
    one, two = runs
    assert one.model_checksums == two.model_checksums
    assert model_bytes(one.final_model) == model_bytes(two.final_model)


def test_protocol_holds_only_the_last_trial_model(noisefree_table, monkeypatch):
    # Trials return span-coordinate models; the run releases the non-final
    # ones and keeps the last one's margin stage under its lifted projector.
    models, margins = [], []
    real_trial = nullmargin.evaluation._run_trial

    def recording_trial(*args):
        outcome = real_trial(*args)
        models.append(weakref.ref(outcome[1]))
        margins.append(outcome[1].margin if args[5] == 2 else None)
        return outcome

    monkeypatch.setattr(nullmargin.evaluation, "_run_trial", recording_trial)
    spec = SplitSpec(seed=6, trials=3)
    result = run_protocol(noisefree_table, spec, LoopConfig(), "labeled_only")
    gc.collect()
    assert [ref() is not None for ref in models[:-1]] == [False, False]
    assert result.final_model.margin is margins[-1]
    assert result.final_model.nullproj.dim == noisefree_table.dim
    assert result.model_checksums[-1] == model_checksum(result.final_model)


@pytest.mark.parametrize("threads", [1, 3])
def test_run_lifts_the_last_model_once_per_mode_after_its_trials(easy_table, monkeypatch, threads):
    lock = threading.Lock()
    running, returned, lifts, span_models = [0], [0], [], {}
    real_trial, real_lift = nullmargin.evaluation._run_trial, nullmargin.evaluation._lift

    def spy_trial(*args):
        with lock:
            running[0] += 1
        outcome = real_trial(*args)
        with lock:
            running[0] -= 1
            returned[0] += 1
            span_models[args[3], args[5]] = outcome[1]
        return outcome

    def spy_lift(*args):
        with lock:
            lifts.append((running[0], returned[0]))
        return real_lift(*args)

    monkeypatch.setattr(nullmargin.evaluation, "_run_trial", spy_trial)
    monkeypatch.setattr(nullmargin.evaluation, "_lift", spy_lift)
    spec = SplitSpec(seed=2, trials=3)
    results = run_protocols(easy_table, spec, LoopConfig(), MODES, threads=threads)
    # (trials running, trials returned) at each lift: one lift per mode, each
    # once all of that mode's trials have returned.
    assert lifts == [(0, 3), (0, 6)]
    for mode, result in zip(MODES, results):
        spans = [model_checksum(span_models[mode, t]) for t in range(3)]
        assert list(result.model_checksums[:-1]) == spans[:-1]
        assert result.model_checksums[-1] == model_checksum(result.final_model) != spans[-1]
        assert result.final_model.nullproj.dim == easy_table.dim


def test_lift_runs_at_one_blas_thread(easy_table, monkeypatch):
    counts, at_lift = [], []
    real_lift = nullmargin.evaluation._lift

    @contextmanager
    def recording_blas_threads(count):
        counts.append(count)
        try:
            yield
        finally:
            counts.pop()

    def spy_lift(*args):
        at_lift.append(list(counts))
        return real_lift(*args)

    monkeypatch.setattr(nullmargin.evaluation, "blas_threads", recording_blas_threads)
    monkeypatch.setattr(nullmargin.evaluation, "_lift", spy_lift)
    run_protocol(easy_table, SplitSpec(seed=2, trials=2), LoopConfig(), "labeled_only", threads=2)
    assert at_lift == [[1]]


@pytest.mark.parametrize("mode", MODES)
def test_trial_span_holds_the_rows_its_fit_reads(easy_table, monkeypatch, mode):
    # labeled_only fits read the labeled rows alone; the loop also embeds and
    # moves the unlabeled pool, so its span holds both.
    grams = []
    real_span = nullmargin.evaluation.span_coefficients

    def spy(gram, dim):
        grams.append(gram.shape)
        return real_span(gram, dim)

    monkeypatch.setattr(nullmargin.evaluation, "span_coefficients", spy)
    spec = SplitSpec(seed=3, trials=1)
    run_protocol(easy_table, spec, LoopConfig(), mode)
    split = make_split(easy_table, spec, 0)
    n = split.labeled.n + (split.unlabeled.n if mode == "semi_supervised" else 0)
    assert grams == [(n, n)]


def full_span_labeled_trial(table, spec, ns):
    """Trial 0 of a labeled_only run fitted and ranked in the span of all
    train rows, labeled and unlabeled, from an eigh basis of their Gram."""
    split = make_split(table, spec, 0)
    train = np.vstack([split.labeled.features, split.unlabeled.features])
    evals, evecs = np.linalg.eigh(train @ train.T)
    keep = evals > evals.max() * max(train.shape) * np.finfo(float).eps
    basis = train.T @ (evecs[:, keep] / np.sqrt(evals[keep]))

    def to_span(part):
        return replace(part, features=part.features @ basis)

    model = fit_nk3ml(to_span(split.labeled), LoopConfig().kernel)
    probe = single_shot_view(split.probe, spec.seed, 0)
    gallery = single_shot_view(split.gallery, spec.seed, 0)
    curve = cmc(
        rank_gallery(model, to_span(probe), to_span(gallery)), probe.identities,
        gallery.identities, ns,
    )
    rows = np.vstack([probe.features, gallery.features])
    return curve, pdist(embed(model, rows @ basis)), rows


# The tiny stand-ins of the benchmark's viper and multicam shapes
# (identities, cameras, dim, per-camera strength, noise).
TINY_SHAPES = {"viper_tiny": (40, 2, 400, 0.0, 1.75), "multicam_tiny": (40, 4, 100, 0.85, 1.5)}


@pytest.mark.parametrize("shape", sorted(TINY_SHAPES))
@pytest.mark.parametrize("seed", [1, 7])
def test_labeled_only_trial_equals_a_fit_in_the_full_train_span(shape, seed):
    identities, cameras, dim, strength, noise = TINY_SHAPES[shape]
    table = generate_synthetic(SyntheticSpec(
        identities=identities, cameras=cameras, dim=dim,
        per_camera_transform_strength=strength, noise_sigma=noise, seed=seed,
    ))
    spec, ns = SplitSpec(seed=seed, trials=1), (1, 5, 10, 20)
    result = run_protocol(table, spec, LoopConfig(), "labeled_only", ns=ns)
    curve, expected, rows = full_span_labeled_trial(table, spec, ns)
    assert result.per_trial[0] == curve
    np.testing.assert_allclose(
        pdist(embed(result.final_model, rows)), expected, rtol=0, atol=1e-9 * expected.max()
    )
