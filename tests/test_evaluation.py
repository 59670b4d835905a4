import gc
import hashlib
import json
import threading
import tracemalloc
import weakref
from contextlib import contextmanager
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import nullmargin._binio
import nullmargin.cli
import nullmargin.evaluation
import nullmargin.kmmc
import nullmargin.mining
import nullmargin.selftrain
from nullmargin import (
    LoopConfig,
    KernelDiscriminantModel,
    KernelSpec,
    Nk3mlModel,
    SpanModel,
    SplitSpec,
    SyntheticSpec,
    cmc,
    embed,
    fit_nk3ml,
    generate_synthetic,
    load_model,
    make_split,
    model_checksum,
    rank_gallery,
    run_protocol,
    run_protocols,
    run_self_training,
    save_feature_table,
)
from nullmargin.errors import DataValidationError, DegenerateDataError, NumericalError, ProtocolError
from nullmargin.evaluation import LIFT_BLOCK, MODES, _lifted_parts, single_shot_view
from nullmargin.nfst import NullProjector
from nullmargin.nk3ml import _checksum

from conftest import lifted_model, make_table, record_pool_widths, use_cores


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


@pytest.mark.parametrize("trial", [1.5, True, np.float64(1.0)], ids=repr)
def test_single_shot_view_trial_must_be_an_integer(trial):
    table = make_table(np.eye(4), [0, 0, 1, 1], [4, 4, 5, 5], within_view=[0] * 4)
    with pytest.raises(DataValidationError, match="trial must be an integer"):
        single_shot_view(table, seed=9, trial=trial)


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
    # run_protocol fits in coordinates of the train span, where its checksum
    # names the model; lifted back, the model must give the direct fit's CMC
    # and, up to rounding, the same pairwise embedding distances.
    cfg, ns = LoopConfig(), (1, 5)
    result = run_protocol(table, spec, cfg, mode, ns=ns)
    direct, n_train, model = direct_trial(table, spec, cfg, mode, ns)
    assert (table.dim < n_train) == (side == ">")
    assert result.per_trial[0] == direct
    lifted = lifted_model(result.final_span, table.features)
    assert lifted.nullproj.dim == table.dim
    assert result.model_checksums[0] == model_checksum(result.final_span.model)
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


def test_run_protocol_reproducible_and_core_count_invariant(noisefree_table, monkeypatch):
    spec = SplitSpec(seed=6, trials=3)
    cfg = LoopConfig()
    use_cores(monkeypatch, 1)
    a = run_protocol(noisefree_table, spec, cfg, "semi_supervised", ns=(1, 5))
    b = run_protocol(noisefree_table, spec, cfg, "semi_supervised", ns=(1, 5))
    use_cores(monkeypatch, 3)
    c = run_protocol(noisefree_table, spec, cfg, "semi_supervised", ns=(1, 5))
    assert a.curve == b.curve == c.curve
    assert a.model_checksums == b.model_checksums == c.model_checksums


def test_multi_shot_pool_refits_shared_classes_at_any_core_count(monkeypatch):
    # Four synthetic cameras read as two, so the pool holds two shots per
    # (identity, camera) and a secondary fit has classes that share points:
    # the margin stage's span-coordinate route, through the whole protocol.
    table = generate_synthetic(SyntheticSpec(
        identities=24, cameras=4, dim=120, per_camera_transform_strength=0.3,
        noise_sigma=0.1, seed=13,
    ))
    table = replace(table, camera_ids=table.camera_ids // 2)
    shared = []
    real_fit = nullmargin.mining.fit_nkmmc

    def fit(points, classes, kernel):
        shared.append(len(np.unique(classes)) < len(classes))
        return real_fit(points, classes, kernel)

    monkeypatch.setattr(nullmargin.mining, "fit_nkmmc", fit)
    spec = SplitSpec(seed=2, trials=2)
    results = []
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        results.append(run_protocols(table, spec, LoopConfig(), ("semi_supervised",))[0])
    one, two = results
    assert any(shared)
    # every trial's curve, checksum, bandwidth and loop trace
    assert one.trials == two.trials
    assert all(record.trace.records for record in one.trials)


def test_run_protocol_rejects_unknown_mode(noisefree_table):
    with pytest.raises(DataValidationError):
        run_protocol(noisefree_table, SplitSpec(seed=1, trials=1), LoopConfig(), "bogus")


@pytest.mark.parametrize("kwargs, match", [
    ({"ns": ()}, "ranks must be nonempty"),
    ({"ns": (0,)}, "rank must be >= 1"),
    ({"ns": (1, 5, 1)}, "ranks must be nonempty and distinct"),
    ({"ns": (1.5,)}, "rank must be an integer"),
    ({"ns": (1, True)}, "rank must be an integer"),
])
def test_run_protocol_checks_ranks_before_any_trial(
    noisefree_table, monkeypatch, kwargs, match
):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(nullmargin.evaluation, "_run_trial", no_trial)
    spec = SplitSpec(seed=1, trials=1)
    with pytest.raises(DataValidationError, match=match):
        run_protocol(noisefree_table, spec, LoopConfig(), "labeled_only", **kwargs)


@pytest.mark.parametrize("ns, match", [
    ((0,), "rank must be >= 1"),
    ((1.5,), "rank must be an integer"),
    ((1, 1), "ranks must be nonempty and distinct"),
    ((), "ranks must be nonempty"),
])
def test_cmc_checks_its_ranks(ns, match):
    rankings = np.array([[0, 1], [1, 0]])
    with pytest.raises(DataValidationError, match=match):
        cmc(rankings, [0, 1], [0, 1], ns)


def test_run_protocol_rejects_a_kernel_that_is_not_a_kernel_spec(noisefree_table, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(nullmargin.evaluation, "_run_trial", no_trial)
    with pytest.raises(DataValidationError, match="kernel must be a KernelSpec"):
        run_protocol(noisefree_table, SplitSpec(seed=1, trials=1), LoopConfig(kernel="rbf"), "labeled_only")


@pytest.mark.parametrize("scale, error, match", [
    (1e160, NumericalError, "Gram X X\\^T has non-finite entries: .* overflow"),
    (1e-170, DegenerateDataError, "train rows span no direction"),
], ids=["gram overflows", "gram underflows"])
def test_finite_features_whose_gram_overflows_or_underflows_name_the_cause(scale, error, match):
    table = generate_synthetic(SyntheticSpec(identities=30, cameras=2, dim=20, noise_sigma=0.5, seed=1))
    table = replace(table, features=table.features * scale)
    for mode in MODES:
        with pytest.raises(error, match=match):
            run_protocol(table, SplitSpec(seed=1, trials=1), LoopConfig(), mode)


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


def random_span(rng, rows, n_train, rank, directions):
    """A SpanModel over n_train of `rows` table rows, with random stages."""
    margin = KernelDiscriminantModel(
        train_points=rng.standard_normal((5, directions)), kernel=KernelSpec("rbf", 1.5),
        coeffs=rng.standard_normal((5, 2)), eigenvalues=np.array([2.0, 1.0]),
        class_index=np.arange(5),
    )
    nullproj = NullProjector(w_n=rng.standard_normal((rank, directions)), mean=rng.standard_normal(rank))
    return SpanModel(
        Nk3mlModel(nullproj, margin), train=rng.permutation(rows)[:n_train],
        coeffs=rng.standard_normal((n_train, rank)),
    )


# 300 is under one LIFT_BLOCK-wide block, 2 * LIFT_BLOCK is whole blocks only,
# and 4219 spans several blocks and ends in a partial one.
@pytest.mark.parametrize("dim", [4219, 300, 2 * LIFT_BLOCK])
def test_lift_is_worker_count_invariant_and_matches_the_gathered_product(dim, monkeypatch, tmp_path):
    # The lift forms T^T (A w) block by block without gathering T; the file
    # it is saved to must not depend on how many workers run the blocks, and
    # its model must agree with the product over the gathered train rows.
    rng = np.random.default_rng(dim)
    features = rng.standard_normal((40, dim))
    span = random_span(rng, 40, 25, 20, 6)
    pools = record_pool_widths(monkeypatch, nullmargin.evaluation)
    saved = []
    for cores in (1, 2, 3):
        use_cores(monkeypatch, cores)
        span.save(features, tmp_path / f"{cores}.nk3m")
        saved.append((tmp_path / f"{cores}.nk3m").read_bytes())
    blocks = -(-dim // LIFT_BLOCK)
    assert pools == [min(cores, blocks) for cores in (1, 2, 3)]
    assert saved[1:] == saved[:1] * 2
    lifted = load_model(tmp_path / "1.nk3m").nullproj
    basis = features[span.train].T
    for got, part in ((lifted.w_n, span.model.nullproj.w_n), (lifted.mean, span.model.nullproj.mean)):
        want = basis @ (span.coeffs @ part)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("dim", [4219, 300, 2 * LIFT_BLOCK])
def test_streamed_container_equals_the_lifted_models(dim, cores, monkeypatch, tmp_path):
    # The file save() writes, the checksum it returns and a hash of the lift
    # stream the lifted model block by block; all must name the same bytes,
    # the container of the model the file loads as.
    rng = np.random.default_rng(dim + cores)
    features = rng.standard_normal((40, dim))
    span = random_span(rng, 40, 25, 20, 6)
    use_cores(monkeypatch, cores)
    checksum = span.save(features, tmp_path / "streamed.nk3m")
    assert checksum == hashlib.sha256((tmp_path / "streamed.nk3m").read_bytes()).hexdigest()
    assert _checksum(_lifted_parts(features, span)) == checksum
    assert model_checksum(load_model(tmp_path / "streamed.nk3m")) == checksum


@pytest.mark.parametrize("cores", [1, 2])
def test_streamed_lift_and_hash_hold_one_window_of_blocks(cores, monkeypatch):
    # Besides its inputs, the lift and hash may hold one gathered
    # n_train x LIFT_BLOCK block per worker, the window's w_n blocks (one per
    # worker, one formed and waiting, one being hashed), the lifted mean and
    # the two span products. A w_n formed whole, here about 3x that bound,
    # breaks it. tracemalloc sees numpy's buffers on every thread.
    rng = np.random.default_rng(cores)
    n_train, dim, rank, directions = 200, 20 * LIFT_BLOCK + 123, 40, 150
    features = rng.standard_normal((250, dim))
    span = random_span(rng, 250, n_train, rank, directions)
    use_cores(monkeypatch, cores)
    tracemalloc.start()
    try:
        _checksum(_lifted_parts(features, span))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    workers = min(cores, -(-dim // LIFT_BLOCK))
    window = (workers + 2) * LIFT_BLOCK * directions
    bound = 8 * (workers * n_train * LIFT_BLOCK + window + dim + n_train * (directions + 1))
    assert peak <= 1.1 * bound


def test_a_stream_closed_early_or_a_failed_write_leaves_no_pool_thread(monkeypatch, tmp_path):
    rng = np.random.default_rng(5)
    features = rng.standard_normal((40, 4219))
    span = random_span(rng, 40, 25, 20, 6)
    use_cores(monkeypatch, 2)
    before = set(threading.enumerate())
    parts = _lifted_parts(features, span)
    for _ in range(10):     # the header, the mean and the first w_n blocks
        next(parts)
    assert set(threading.enumerate()) > before      # the lift pool is running
    parts.close()
    assert set(threading.enumerate()) == before

    class FullDisk:
        """A file whose eighth write fails, as on a full disk."""
        writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, part):
            FullDisk.writes += 1
            if FullDisk.writes == 8:
                raise OSError(28, "No space left on device")

    monkeypatch.setattr(nullmargin._binio, "open", lambda path, mode: FullDisk(), raising=False)
    # The kept traceback holds the failed call's frames, so a stream left
    # open there would keep its pool alive.
    with pytest.raises(OSError, match="No space left") as failed:
        span.save(features, tmp_path / "model.nk3m")
    assert set(threading.enumerate()) == before, failed


def test_results_hold_no_array_as_long_as_the_feature_dimension():
    # No lifted model is held: every array a result keeps is span-sized.
    table = generate_synthetic(SyntheticSpec(
        identities=16, cameras=2, dim=LIFT_BLOCK + 300,
        per_camera_transform_strength=0.5, noise_sigma=0.5, seed=3,
    ))

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif is_dataclass(value):
            for f in fields(value):
                yield from arrays(getattr(value, f.name))
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)

    results = run_protocols(table, SplitSpec(seed=2, trials=2), LoopConfig(), MODES)
    held = list(arrays(results))
    assert len(held) > 2 * 6    # each final span model's arrays are walked
    assert all(table.dim not in a.shape for a in held)


def test_lifted_models_identical_at_any_lift_worker_count(monkeypatch, tmp_path):
    table = generate_synthetic(SyntheticSpec(
        identities=16, cameras=2, dim=LIFT_BLOCK + 300,
        per_camera_transform_strength=0.5, noise_sigma=0.5, seed=3,
    ))
    spec = SplitSpec(seed=2, trials=2)
    runs, saved = [], []
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        runs.append(run_protocol(table, spec, LoopConfig(), "semi_supervised", ns=(1, 5)))
        runs[-1].final_span.save(table.features, tmp_path / f"{cores}.nk3m")
        saved.append((tmp_path / f"{cores}.nk3m").read_bytes())
    one, two = runs
    assert one.model_checksums == two.model_checksums
    assert saved[0] == saved[1]


def test_protocol_holds_only_the_last_trial_model(noisefree_table, monkeypatch):
    # Trials fit span-coordinate models; only the last trial returns its
    # model, which the run keeps in span coordinates, where its checksum is,
    # and the non-final ones are released. Trials may run at once, so each
    # is recorded under its index.
    models, spans = {}, {}
    current = threading.local()     # the trial a worker thread runs
    real_fit, real_trial = nullmargin.evaluation.fit_nk3ml, nullmargin.evaluation._run_trial

    def recording_fit(*args):
        model = real_fit(*args)
        models[current.trial] = weakref.ref(model)
        return model

    def recording_trial(*args):
        current.trial = args[5]
        record, span = real_trial(*args)
        spans[args[5]] = span
        return record, span

    monkeypatch.setattr(nullmargin.evaluation, "fit_nk3ml", recording_fit)
    monkeypatch.setattr(nullmargin.evaluation, "_run_trial", recording_trial)
    spec = SplitSpec(seed=6, trials=3)
    result = run_protocol(noisefree_table, spec, LoopConfig(), "labeled_only")
    gc.collect()
    assert [spans[t] for t in range(2)] == [None, None]
    assert [models[t]() is not None for t in range(3)] == [False, False, True]
    assert result.final_span is spans[2] and result.final_span.model is models[2]()
    lifted = lifted_model(result.final_span, noisefree_table.features)
    assert lifted.nullproj.dim == noisefree_table.dim
    assert result.trials[-1].checksum == model_checksum(result.final_span.model)


@pytest.mark.parametrize("cores", [1, 3])
def test_run_lifts_the_last_model_once_per_mode_after_its_trials(easy_table, monkeypatch, tmp_path, cores):
    lock = threading.Lock()
    running, returned, lifts, span_models = [0], [0], [], {}
    current = threading.local()     # the (mode, trial) a worker thread runs
    real_trial, real_lift = nullmargin.evaluation._run_trial, nullmargin.evaluation._lift
    real_fit, real_loop = nullmargin.evaluation.fit_nk3ml, nullmargin.evaluation.run_self_training

    def spy_trial(*args):
        with lock:
            running[0] += 1
        current.key = args[3], args[5]
        outcome = real_trial(*args)
        with lock:
            running[0] -= 1
            returned[0] += 1
        return outcome

    def spy_fit(*args):
        span_models[current.key] = model = real_fit(*args)
        return model

    def spy_loop(*args):
        model, trace = real_loop(*args)
        span_models[current.key] = model
        return model, trace

    def spy_lift(*args):
        with lock:
            lifts.append((running[0], returned[0]))
        return real_lift(*args)

    monkeypatch.setattr(nullmargin.evaluation, "_run_trial", spy_trial)
    monkeypatch.setattr(nullmargin.evaluation, "fit_nk3ml", spy_fit)
    monkeypatch.setattr(nullmargin.evaluation, "run_self_training", spy_loop)
    monkeypatch.setattr(nullmargin.evaluation, "_lift", spy_lift)
    use_cores(monkeypatch, cores)
    spec = SplitSpec(seed=2, trials=3)
    # A protocol pass lifts nothing: every checksum is of a span model.
    results = run_protocols(easy_table, spec, LoopConfig(), MODES)
    assert lifts == []
    for mode, result in zip(MODES, results):
        assert [record.checksum for record in result.trials] == [
            model_checksum(span_models[mode, t]) for t in range(3)
        ]

    # `run` lifts once per mode, each once every trial has returned, and
    # reports the written file's checksum for the last trial.
    returned[0] = 0
    data, out = tmp_path / "table.ssml", tmp_path / "out"
    save_feature_table(easy_table, data, "binary")
    argv = ["run", "--input", data, "-o", out, "--mode", "both", "--trials", 3]
    assert nullmargin.cli.main([str(a) for a in argv]) == 0
    assert lifts == [(0, 6), (0, 6)]
    report = json.loads((out / "report.json").read_text())
    for mode in MODES:
        checksums = [t["model_checksum"] for t in report["results"][mode]["per_trial"]]
        spans = [model_checksum(span_models[mode, t]) for t in range(3)]
        written = hashlib.sha256((out / f"model_{mode}.nk3m").read_bytes()).hexdigest()
        assert checksums == spans[:-1] + [written]
        assert written != spans[-1]


@pytest.mark.parametrize("mode", MODES)
def test_a_trial_hashes_each_model_once(easy_table, monkeypatch, mode):
    # The loop hashes each round's model, the last one the model it returns,
    # and the protocol keeps that hash; only a labeled-only trial's model is
    # hashed by the protocol.
    hashed = []

    def spy(module):
        real = module.model_checksum

        def counting(model):
            checksum = real(model)
            hashed.append((module.__name__, checksum))
            return checksum

        monkeypatch.setattr(module, "model_checksum", counting)

    spy(nullmargin.evaluation)
    spy(nullmargin.selftrain)
    result = run_protocol(easy_table, SplitSpec(seed=2, trials=1), LoopConfig(), mode)
    if mode == "labeled_only":
        assert hashed == [("nullmargin.evaluation", result.trials[0].checksum)]
    else:
        records = result.trials[0].trace.records
        assert len(records) > 1
        assert hashed == [("nullmargin.selftrain", record.model_checksum) for record in records]
    assert [record.checksum for record in result.trials] == [model_checksum(result.final_span.model)]


def test_protocol_outputs_do_not_depend_on_the_core_count(easy_table, monkeypatch, tmp_path):
    # The trial pool is min(usable cores, trials) wide. The trial records,
    # the kept span model and every file `run` writes are the same at any
    # width; report.json differs only in its echo of the output directory.
    widths = record_pool_widths(monkeypatch, nullmargin.evaluation)
    spec = SplitSpec(seed=2, trials=2)     # so 3 cores still make 2 workers
    data = tmp_path / "table.ssml"
    save_feature_table(easy_table, data, "binary")
    results, outputs = [], []
    for cores in (1, 2, 3):
        use_cores(monkeypatch, cores)
        widths.clear()
        results.append(run_protocols(easy_table, spec, LoopConfig(), MODES))
        assert widths == [min(cores, spec.trials)]
        out = tmp_path / f"out{cores}"
        argv = ["run", "--input", data, "-o", out, "--mode", "both", "--trials", 3, "--seed", 2]
        assert nullmargin.cli.main([str(a) for a in argv]) == 0
        files = {f.name: f.read_bytes() for f in out.iterdir()}
        echo = json.dumps(str(out)).encode()
        assert files["report.json"].count(echo) == 1
        files["report.json"] = files["report.json"].replace(echo, b'"OUT"')
        outputs.append(files)
    assert sorted(outputs[0]) == [
        "cmc_labeled_only.csv", "cmc_semi_supervised.csv", "model_labeled_only.nk3m",
        "model_semi_supervised.nk3m", "report.json", "trace.jsonl",
    ]
    assert outputs[1:] == outputs[:1] * 2
    for mode_results in zip(*results):
        first = mode_results[0]
        for result in mode_results[1:]:
            assert result.curve == first.curve and result.trials == first.trials
            span, want = result.final_span, first.final_span
            assert model_checksum(span.model) == model_checksum(want.model)
            assert span.train.tobytes() == want.train.tobytes()
            assert span.coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("cores", [1, 3])
def test_no_pool_is_wider_than_the_usable_cores(monkeypatch, tmp_path, cores):
    # The binary load's fill, the trial pool and the lift are the program's
    # thread pools, all made through the ThreadPoolExecutor name dataio and
    # evaluation import; each is sized min(usable cores, its work). A load
    # that could fill on a thread per byte, then `run --mode both` over 3
    # trials and a lift of several blocks, reaches the core count and never
    # passes it.
    src = Path(nullmargin.evaluation.__file__).parent
    pooled = [
        path.stem for path in sorted(src.glob("*.py"))
        if any(name in path.read_text() for name in ("ThreadPoolExecutor", "threading", "multiprocessing"))
    ]
    assert pooled == ["dataio", "evaluation"]
    widths = record_pool_widths(monkeypatch, nullmargin.dataio, nullmargin.evaluation)
    monkeypatch.setattr(nullmargin.dataio, "_FILL_CHUNK", 1)
    use_cores(monkeypatch, cores)
    data = tmp_path / "table.ssml"
    table = generate_synthetic(SyntheticSpec(
        identities=12, cameras=2, dim=2 * LIFT_BLOCK + 7, noise_sigma=0.3, seed=5,
    ))
    save_feature_table(table, data, "binary")
    argv = ["run", "--input", data, "-o", tmp_path / "out", "--mode", "both", "--trials", 3]
    assert nullmargin.cli.main([str(a) for a in argv]) == 0
    # the trial pool and one lift per mode; a one-worker fill runs on the
    # calling thread, so only a wider one makes a pool
    assert widths == [cores] * (3 if cores == 1 else 4)


def test_lift_runs_at_one_blas_thread(easy_table, monkeypatch, tmp_path):
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
    use_cores(monkeypatch, 2)
    result = run_protocol(easy_table, SplitSpec(seed=2, trials=2), LoopConfig(), "labeled_only")
    result.final_span.save(easy_table.features, tmp_path / "model.nk3m")
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


def test_tiny_protocol_margin_fits_keep_the_cholesky_route(monkeypatch):
    # Every margin fit of a semi-supervised multicam pass is a singleton fit:
    # the primary fits on the null-space class points, the secondary on the
    # anchor camera's one image per identity. Each takes the guarded pivoted
    # Cholesky basis; an eigh call would be a fallback.
    identities, cameras, dim, strength, noise = TINY_SHAPES["multicam_tiny"]
    table = generate_synthetic(SyntheticSpec(
        identities=identities, cameras=cameras, dim=dim,
        per_camera_transform_strength=strength, noise_sigma=noise, seed=1,
    ))
    factored, solved = [], []
    pivot_basis = nullmargin.kmmc.pivot_basis

    def recording_basis(s, tol):
        factored.append(len(s))
        return pivot_basis(s, tol)

    monkeypatch.setattr(nullmargin.kmmc, "pivot_basis", recording_basis)
    monkeypatch.setattr(nullmargin.kmmc, "eigh", lambda a: (solved.append(len(a)), np.linalg.eigh(a))[1])
    run_protocols(table, SplitSpec(seed=1, trials=2), LoopConfig(), ("semi_supervised",))
    assert len(factored) >= 20
    assert solved == []


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
        pdist(embed(lifted_model(result.final_span, table.features), rows)), expected, rtol=0,
        atol=1e-9 * expected.max()
    )
