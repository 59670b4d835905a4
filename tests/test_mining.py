import numpy as np
import pytest
from scipy.spatial.distance import cdist

import nullmargin.mining
import nullmargin.selftrain

from nullmargin import (
    KernelSpec,
    LoopConfig,
    build_anchor_context,
    fit_nk3ml,
    k_reciprocal,
    mine_pseudo_classes,
    run_self_training,
    select_anchor,
)
from nullmargin.errors import DataValidationError
from nullmargin.kmmc import project_kernel
from nullmargin.mining import export_pseudo_classes_csv, find_anchor, view_identity_groups
from nullmargin.nk3ml import embed

from conftest import make_table

# Chain where the leftmost node's nearest neighbor does not reciprocate.
FIG4A = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 0.0]])  # A, B, C
# A -- B -- C with a (C, D, E) clique on the right.
FIG4B = np.array(
    [[0.0, 0.0], [0.9, 0.0], [2.0, 0.0], [2.4, 0.3], [2.4, -0.3]]  # A B C D E
)
A, B, C, D, E = range(5)


def brute_reciprocal(queries, gallery, k, exclude_self=False):
    """O(n^2) mutual-membership oracle with (distance, index) tie order."""

    def topk(idx, points, others):
        pairs = [
            (float(np.linalg.norm(points[idx] - others[j])), j)
            for j in range(len(others))
            if not (exclude_self and j == idx)
        ]
        pairs.sort()
        return [j for _, j in pairs[:k]]

    forward = [topk(i, queries, gallery) for i in range(len(queries))]
    reverse = [topk(g, gallery, queries) for g in range(len(gallery))]
    return [[g for g in forward[i] if i in reverse[g]] for i in range(len(queries))]


def test_select_anchor_argmax():
    # camera 0: identities {0,1,2,3,4}; camera 1: identities {0,1,2}
    cams = [0] * 5 + [1] * 3
    wv = [0, 1, 2, 3, 4, 0, 1, 2]
    table = make_table(np.random.default_rng(0).standard_normal((8, 3)), cams, [None] * 8, wv)
    assert select_anchor(table) == 0


def test_select_anchor_tie_breaks_low():
    cams = [1, 1, 0, 0]
    wv = [0, 1, 0, 1]
    table = make_table(np.ones((4, 2)), cams, [None] * 4, wv)
    assert select_anchor(table) == 0


def test_select_anchor_counts_identities_not_images():
    # camera 0: 3 identities x 4 images; camera 1: 5 identities x 1 image
    cams = [0] * 12 + [1] * 5
    wv = [i // 4 for i in range(12)] + list(range(5))
    table = make_table(np.random.default_rng(1).standard_normal((17, 2)), cams, [None] * 17, wv)
    assert select_anchor(table) == 1


def test_select_anchor_single_camera_errors():
    table = make_table(np.ones((3, 2)), [0, 0, 0], [None] * 3, [0, 1, 2])
    with pytest.raises(DataValidationError):
        select_anchor(table)


def test_knn_fig4a_relations():
    sets = k_reciprocal(FIG4A, FIG4A, k=1, exclude_self=True)
    assert sets.neighbors[A].tolist() == [B]
    assert sets.neighbors[B].tolist() == [C]
    assert sets.neighbors[C].tolist() == [B]


def test_knn_k_at_least_gallery():
    rng = np.random.default_rng(3)
    queries = rng.standard_normal((2, 2))
    gallery = rng.standard_normal((4, 2))
    sets = k_reciprocal(queries, gallery, k=10)
    for i in range(2):
        dists = np.linalg.norm(gallery - queries[i], axis=1)
        assert sets.neighbors[i].tolist() == np.argsort(dists, kind="stable").tolist()


def test_knn_tie_breaks_by_lower_index():
    queries = np.array([[0.0, 0.0]])
    gallery = np.array([[1.0, 0.0], [-1.0, 0.0]])
    sets = k_reciprocal(queries, gallery, k=2)
    assert sets.neighbors[0].tolist() == [0, 1]


def test_knn_empty_gallery():
    with pytest.raises(DataValidationError):
        k_reciprocal(np.ones((1, 2)), np.empty((0, 2)), k=1)


def test_k_reciprocal_fig4a():
    sets = k_reciprocal(FIG4A, FIG4A, k=1, exclude_self=True)
    assert sets.reciprocal[A].tolist() == []
    assert sets.reciprocal[B].tolist() == [C]
    assert sets.reciprocal[C].tolist() == [B]


def test_k_reciprocal_fig4b():
    sets = k_reciprocal(FIG4B, FIG4B, k=2, exclude_self=True)
    recip = [set(r.tolist()) for r in sets.reciprocal]
    # C, D, E are pairwise reciprocal
    assert recip[C] == {D, E}
    assert recip[D] == {C, E}
    assert recip[E] == {C, D}
    # A and C are not reciprocal neighbors of each other
    assert C not in recip[A] and A not in recip[C]
    assert recip[B] == {A}


def test_k_reciprocal_matches_brute_force():
    rng = np.random.default_rng(4)
    points = rng.standard_normal((30, 3))
    sets = k_reciprocal(points, points, k=3, exclude_self=True)
    oracle = brute_reciprocal(points, points, k=3, exclude_self=True)
    for i in range(30):
        assert sets.reciprocal[i].tolist() == oracle[i]


def test_k_reciprocal_cross_set_matches_brute_force():
    rng = np.random.default_rng(5)
    queries = rng.standard_normal((12, 4))
    gallery = rng.standard_normal((20, 4))
    for k in (1, 2, 5):
        sets = k_reciprocal(queries, gallery, k=k)
        oracle = brute_reciprocal(queries, gallery, k=k)
        for i in range(12):
            assert sets.reciprocal[i].tolist() == oracle[i]


def two_cdist_reciprocal(queries, gallery, k, exclude_self=False):
    """k_reciprocal's construction with a second cdist for the reverse lists."""

    def lists(q, g):
        dist = cdist(q, g)
        if exclude_self:
            np.fill_diagonal(dist, np.inf)
        order = np.argsort(dist, axis=1, kind="stable")
        return [row[dist[i, row] < np.inf][:k] for i, row in enumerate(order)]

    forward, reverse = lists(queries, gallery), lists(gallery, queries)
    reciprocal = [[g for g in forward[i] if i in reverse[g]] for i in range(len(queries))]
    return forward, reciprocal


@pytest.mark.parametrize("exclude_self", [False, True])
def test_k_reciprocal_matches_two_cdist_construction_with_ties(exclude_self):
    # Points on a small integer grid, some repeated: many exact distance ties.
    rng = np.random.default_rng(6)
    for trial in range(40):
        queries = rng.integers(0, 3, (int(rng.integers(1, 9)), 2)).astype(float)
        if exclude_self:
            gallery = queries
        else:
            gallery = rng.integers(0, 3, (int(rng.integers(1, 9)), 2)).astype(float)
        k = int(rng.integers(1, 5))
        sets = k_reciprocal(queries, gallery, k, exclude_self)
        forward, reciprocal = two_cdist_reciprocal(queries, gallery, k, exclude_self)
        assert [n.tolist() for n in sets.neighbors] == [n.tolist() for n in forward]
        assert [r.tolist() for r in sets.reciprocal] == reciprocal


def row_loop_groups(table):
    """view_identity_groups' per-row construction."""
    groups = {}
    for row in range(table.n):
        key = (int(table.camera_ids[row]), int(table.within_view_ids[row]))
        groups.setdefault(key, []).append(row)
    return {key: np.array(rows) for key, rows in sorted(groups.items())}


def test_view_identity_groups_match_row_loop():
    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 17, 60):
        cams = rng.integers(0, 4, n)
        views = rng.integers(0, 6, n)
        table = make_table(np.zeros((n, 1)), cams, [None] * n, within_view=views)
        got, want = view_identity_groups(table), row_loop_groups(table)
        assert list(got) == list(want)
        for key, rows in want.items():
            assert got[key].dtype == rows.dtype
            assert got[key].tolist() == rows.tolist()


def _mining_setup(noisefree_table, labeled_count=4):
    labeled_rows = [
        r for r in range(noisefree_table.n)
        if noisefree_table.identities[r] < labeled_count
    ]
    unlabeled_rows = [
        r for r in range(noisefree_table.n)
        if noisefree_table.identities[r] >= labeled_count
    ]
    labeled = noisefree_table.subset(labeled_rows)
    unlabeled = noisefree_table.subset(unlabeled_rows)
    unlabeled = unlabeled.with_identities([None] * unlabeled.n)
    kernel = KernelSpec()
    model = fit_nk3ml(labeled, kernel)
    ctx = build_anchor_context(find_anchor(unlabeled), model, kernel)
    return labeled, unlabeled, model, ctx


def test_mine_noise_free_finds_true_matches(noisefree_table):
    _, unlabeled, model, ctx = _mining_setup(noisefree_table)
    pairs = mine_pseudo_classes(ctx, k=1)
    assert len(pairs) == 8
    for pc in pairs:
        assert pc.affinity == 1.0
        # within_view_id equals the true identity in the generator
        assert pc.anchor_identity[1] == pc.matched_identity[1]
        assert pc.anchor_identity[0] != pc.matched_identity[0]


def test_mine_unmatched_anchor_absent():
    # Anchor camera 0 has identities at 0 and 0.9; camera 1 has one identity
    # at 2.0 whose nearest anchor is the right one only.
    feats = np.array(
        [[0.0, 0.0, 0.0, 0.0], [0.9, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]
    )
    cams = [0, 0, 1]
    wv = [0, 1, 0]
    labeled_feats = np.array(
        [
            [10.0, 0.0, 0.0, 0.0],
            [10.0, 0.1, 0.0, 0.0],
            [0.0, 10.0, 0.0, 0.0],
            [0.0, 10.0, 0.1, 0.0],
        ]
    )
    labeled = make_table(labeled_feats, [0, 1, 0, 1], [0, 0, 1, 1], prefix="lab")
    model = fit_nk3ml(labeled, KernelSpec())
    unlabeled = make_table(feats, cams, [None] * 3, wv)
    ctx = build_anchor_context(find_anchor(unlabeled), model, KernelSpec())
    pairs = mine_pseudo_classes(ctx, k=1)
    # camera 1 offers a single identity, so at most one anchor can pair and
    # the unmatched anchor identity must be absent from the output
    assert len(pairs) <= 1
    anchors = {pc.anchor_identity for pc in pairs}
    assert not {(0, 0), (0, 1)} <= anchors


def test_mine_matches_mutual_nearest_centroid_oracle(easy_table):
    _, unlabeled, model, ctx = _mining_setup(easy_table, labeled_count=8)
    pairs = mine_pseudo_classes(ctx, k=1)

    secondary = project_kernel(ctx.secondary, embed(model, unlabeled.features))
    cents = {}
    for row in range(unlabeled.n):
        key = (int(unlabeled.camera_ids[row]), int(unlabeled.within_view_ids[row]))
        cents.setdefault(key, []).append(secondary[row])
    cents = {key: np.mean(v, axis=0) for key, v in cents.items()}
    anchor_keys = sorted(k for k in cents if k[0] == ctx.anchor_camera)
    other_keys = sorted(k for k in cents if k[0] != ctx.anchor_camera)
    expected = set()
    for akey in anchor_keys:
        dists = [np.linalg.norm(cents[akey] - cents[o]) for o in other_keys]
        best_o = other_keys[int(np.argmin(dists))]
        back = [np.linalg.norm(cents[best_o] - cents[a]) for a in anchor_keys]
        if anchor_keys[int(np.argmin(back))] == akey:
            expected.add((akey, best_o))
    assert {(pc.anchor_identity, pc.matched_identity) for pc in pairs} == expected


def test_mine_identities_used_once(easy_table):
    _, unlabeled, model, ctx = _mining_setup(easy_table, labeled_count=8)
    for k in (1, 3):
        pairs = mine_pseudo_classes(ctx, k=k)
        seen = [pc.anchor_identity for pc in pairs] + [pc.matched_identity for pc in pairs]
        assert len(seen) == len(set(seen))


def test_mine_affinities_sorted_in_unit_interval(easy_table):
    _, unlabeled, model, ctx = _mining_setup(easy_table, labeled_count=8)
    pairs = mine_pseudo_classes(ctx, k=2)
    affs = [pc.affinity for pc in pairs]
    assert all(0 < a <= 1 for a in affs)
    assert affs == sorted(affs, reverse=True)


def test_mine_row_permutation_invariant(noisefree_table):
    _, unlabeled, model, ctx = _mining_setup(noisefree_table)
    rng = np.random.default_rng(7)
    perm = rng.permutation(unlabeled.n)
    shuffled = unlabeled.subset(perm)
    ctx2 = build_anchor_context(find_anchor(shuffled), model, KernelSpec())
    a = mine_pseudo_classes(ctx, k=1)
    b = mine_pseudo_classes(ctx2, k=1)
    key = lambda pcs: [(pc.anchor_identity, pc.matched_identity, round(pc.affinity, 12)) for pc in pcs]
    assert key(a) == key(b)


def test_secondary_keeps_anchor_classes_separated(noisefree_table):
    _, unlabeled, model, ctx = _mining_setup(noisefree_table)
    anchor_classes = [
        (wv, rows) for (cam, wv), rows in ctx.groups.items() if cam == ctx.anchor_camera
    ]
    anchor_rows = np.concatenate([rows for _, rows in anchor_classes])
    points = project_kernel(ctx.secondary, embed(model, unlabeled.features[anchor_rows]))
    labels = np.concatenate(
        [np.full(len(rows), wv) for wv, rows in anchor_classes]
    )
    cents = np.vstack([points[labels == wv].mean(axis=0) for wv, _ in anchor_classes])
    dists = cdist(cents, cents)
    off_diag = dists[~np.eye(len(cents), dtype=bool)]
    assert off_diag.min() > 0


def test_export_csv(tmp_path, noisefree_table):
    _, unlabeled, model, ctx = _mining_setup(noisefree_table)
    pairs = mine_pseudo_classes(ctx, k=1)
    path = tmp_path / "pseudo.csv"
    export_pseudo_classes_csv(pairs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,anchor_camera,anchor_id,matched_camera,matched_id,affinity"
    assert len(lines) == len(pairs) + 1


def test_mine_requires_non_anchor_camera(noisefree_table):
    _, unlabeled, model, ctx = _mining_setup(noisefree_table)
    only_anchor = unlabeled.subset(unlabeled.camera_ids == ctx.anchor_camera)
    assert find_anchor(only_anchor) is None
    # two cameras, but one identity in each: no anchor classes to separate
    one_each = unlabeled.subset(unlabeled.within_view_ids == unlabeled.within_view_ids[0])
    assert len(one_each.cameras()) >= 2
    assert find_anchor(one_each) is None


def test_round_embeds_pool_once(noisefree_table, monkeypatch):
    _, unlabeled, model, _ = _mining_setup(noisefree_table)
    calls = []

    def counting_embed(m, x):
        calls.append(len(x))
        return embed(m, x)

    monkeypatch.setattr(nullmargin.mining, "embed", counting_embed)
    ctx = build_anchor_context(find_anchor(unlabeled), model, KernelSpec())
    pairs = mine_pseudo_classes(ctx, k=1)
    assert calls == [unlabeled.n]
    np.testing.assert_array_equal(ctx.embedded, embed(model, unlabeled.features))
    assert len(pairs) == 8


def test_round_groups_pool_once(noisefree_table, monkeypatch):
    _, unlabeled, _, ctx = _mining_setup(noisefree_table)
    want = view_identity_groups(unlabeled)
    assert list(ctx.groups) == list(want)
    for key, rows in want.items():
        np.testing.assert_array_equal(ctx.groups[key], rows)

    def no_regrouping(table):
        raise AssertionError("mine_pseudo_classes regrouped the pool")

    monkeypatch.setattr(nullmargin.mining, "view_identity_groups", no_regrouping)
    assert len(mine_pseudo_classes(ctx, k=1)) == 8


def test_loop_groups_pool_once_per_round(noisefree_table, monkeypatch):
    # Each loop round starts with its primary fit; between two fits the pool
    # is grouped at most once, and exactly once in a round that mines.
    labeled, unlabeled, _, _ = _mining_setup(noisefree_table, labeled_count=3)
    events = []
    real_fit, real_groups = nullmargin.selftrain.fit_nk3ml, view_identity_groups

    def fit(*args):
        events.append("fit")
        return real_fit(*args)

    def groups(table):
        events.append("group")
        return real_groups(table)

    monkeypatch.setattr(nullmargin.selftrain, "fit_nk3ml", fit)
    monkeypatch.setattr(nullmargin.mining, "view_identity_groups", groups)
    _, trace = run_self_training(labeled, unlabeled, LoopConfig())
    per_round = [part.count("group") for part in " ".join(events).split("fit")[1:]]
    assert len(per_round) == len(trace.records)
    mined = [rec.pseudo_mined > 0 for rec in trace.records]
    assert sum(mined) >= 2
    for count, did_mine in zip(per_round, mined):
        assert count == 1 if did_mine else count <= 1
