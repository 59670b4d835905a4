from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import nullmargin.mining
import nullmargin.selftrain

from nullmargin import (
    FeatureTable,
    KernelSpec,
    LoopConfig,
    SyntheticSpec,
    build_anchor_context,
    find_anchor,
    fit_nk3ml,
    generate_synthetic,
    k_reciprocal,
    mine_pseudo_classes,
    run_self_training,
)
from nullmargin.dataio import group_rows
from nullmargin.errors import DataValidationError
from nullmargin.kmmc import project_kernel
from nullmargin.mining import export_pseudo_classes_csv
from nullmargin.nk3ml import embed

from conftest import anchor_of, labeled_gaussians, make_table

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


def within_set_reciprocal(points, k):
    """Within-set k-reciprocal lists of distinct rows, through k_reciprocal:
    the cross-set lists at k + 1 with each row's own index dropped."""
    sets = k_reciprocal(points, points, k + 1)
    return [[j for j in r.tolist() if j != i] for i, r in enumerate(sets.reciprocal)]


def nearest(queries, gallery, k):
    """Each query's top-k gallery indices, through k_reciprocal with that
    query alone: against one query every gallery row's reverse list holds
    it, so the mutual list is the whole forward list."""
    return [k_reciprocal(q[None], gallery, k).reciprocal[0].tolist() for q in queries]


def test_find_anchor_argmax():
    # camera 0: identities {0,1,2,3,4}; camera 1: identities {0,1,2}
    cams = [0] * 5 + [1] * 3
    wv = [0, 1, 2, 3, 4, 0, 1, 2]
    table = make_table(np.random.default_rng(0).standard_normal((8, 3)), cams, [None] * 8, wv)
    assert anchor_of(table).camera == 0


def test_find_anchor_tie_breaks_low():
    cams = [1, 1, 0, 0]
    wv = [0, 1, 0, 1]
    table = make_table(np.ones((4, 2)), cams, [None] * 4, wv)
    assert anchor_of(table).camera == 0


def test_find_anchor_counts_identities_not_images():
    # camera 0: 3 identities x 4 images; camera 1: 5 identities x 1 image
    cams = [0] * 12 + [1] * 5
    wv = [i // 4 for i in range(12)] + list(range(5))
    table = make_table(np.random.default_rng(1).standard_normal((17, 2)), cams, [None] * 17, wv)
    assert anchor_of(table).camera == 1


def test_find_anchor_single_camera_is_none():
    table = make_table(np.ones((3, 2)), [0, 0, 0], [None] * 3, [0, 1, 2])
    assert anchor_of(table) is None


def test_knn_fig4a_relations():
    # Each point's own index comes first, at distance 0.
    assert nearest(FIG4A, FIG4A, k=2) == [[A, B], [B, C], [C, B]]


def test_knn_k_at_least_gallery():
    rng = np.random.default_rng(3)
    queries = rng.standard_normal((2, 2))
    gallery = rng.standard_normal((4, 2))
    got = nearest(queries, gallery, k=10)
    for i in range(2):
        dists = np.linalg.norm(gallery - queries[i], axis=1)
        assert got[i] == np.argsort(dists, kind="stable").tolist()


def test_knn_tie_breaks_by_lower_index():
    queries = np.array([[0.0, 0.0]])
    gallery = np.array([[1.0, 0.0], [-1.0, 0.0]])
    sets = k_reciprocal(queries, gallery, k=2)
    assert sets.reciprocal[0].tolist() == [0, 1]


def test_knn_empty_gallery():
    with pytest.raises(DataValidationError):
        k_reciprocal(np.ones((1, 2)), np.empty((0, 2)), k=1)


def test_k_reciprocal_fig4a():
    assert within_set_reciprocal(FIG4A, k=1) == [[], [C], [B]]


def test_k_reciprocal_fig4b():
    recip = [set(r) for r in within_set_reciprocal(FIG4B, k=2)]
    # C, D, E are pairwise reciprocal
    assert recip[C] == {D, E}
    assert recip[D] == {C, E}
    assert recip[E] == {C, D}
    # A and C are not reciprocal neighbors of each other
    assert C not in recip[A] and A not in recip[C]
    assert recip[B] == {A}


def test_k_reciprocal_matches_brute_force():
    # Within a set of distinct rows, the lists at k + 1 less each row's own
    # index are the within-set lists at k.
    rng = np.random.default_rng(4)
    for _ in range(100):
        points = rng.standard_normal((int(rng.integers(2, 31)), int(rng.integers(1, 5))))
        assert len(np.unique(points, axis=0)) == len(points)
        for k in range(1, 6):
            oracle = brute_reciprocal(points, points, k=k, exclude_self=True)
            assert within_set_reciprocal(points, k) == oracle


def test_k_reciprocal_cross_set_matches_brute_force():
    rng = np.random.default_rng(5)
    queries = rng.standard_normal((12, 4))
    gallery = rng.standard_normal((20, 4))
    for k in (1, 2, 5):
        sets = k_reciprocal(queries, gallery, k=k)
        oracle = brute_reciprocal(queries, gallery, k=k)
        for i in range(12):
            assert sets.reciprocal[i].tolist() == oracle[i]


def two_cdist_reciprocal(queries, gallery, k):
    """k_reciprocal's construction with a second cdist for the reverse lists."""

    def lists(q, g):
        return np.argsort(cdist(q, g), axis=1, kind="stable")[:, :k]

    forward, reverse = lists(queries, gallery), lists(gallery, queries)
    reciprocal = [[g for g in forward[i] if i in reverse[g]] for i in range(len(queries))]
    return forward, reciprocal


def test_k_reciprocal_matches_two_cdist_construction_with_ties():
    # Points on a small integer grid, some repeated: many exact distance ties.
    rng = np.random.default_rng(6)
    for trial in range(40):
        queries = rng.integers(0, 3, (int(rng.integers(1, 9)), 2)).astype(float)
        gallery = rng.integers(0, 3, (int(rng.integers(1, 9)), 2)).astype(float)
        k = int(rng.integers(1, 5))
        sets = k_reciprocal(queries, gallery, k)
        forward, reciprocal = two_cdist_reciprocal(queries, gallery, k)
        assert nearest(queries, gallery, k) == [n.tolist() for n in forward]
        assert [r.tolist() for r in sets.reciprocal] == reciprocal


@pytest.mark.parametrize("k", [0, -1, 1.5, 2.0, True, "2", None])
def test_k_reciprocal_rejects_a_k_that_is_not_a_positive_integer(k):
    with pytest.raises(DataValidationError, match="k must be"):
        k_reciprocal(np.ones((1, 2)), np.ones((2, 2)), k)


def row_loop_groups(table):
    """Per-row construction of a table's (camera_id, within_view_id) groups."""
    groups = {}
    for row in range(table.n):
        key = (int(table.camera_ids[row]), int(table.within_view_ids[row]))
        groups.setdefault(key, []).append(row)
    return {key: np.array(rows) for key, rows in sorted(groups.items())}


def test_group_rows_match_row_loop():
    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 17, 60):
        cams = rng.integers(0, 4, n)
        views = rng.integers(0, 6, n)
        table = make_table(np.zeros((n, 1)), cams, [None] * n, within_view=views)
        got = group_rows(table.camera_ids, table.within_view_ids)
        want = row_loop_groups(table)
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
    unlabeled = replace(unlabeled, identities=[None] * unlabeled.n)
    kernel = KernelSpec()
    model = fit_nk3ml(labeled, kernel)
    ctx = build_anchor_context(anchor_of(unlabeled), model, kernel)
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
    ctx = build_anchor_context(anchor_of(unlabeled), model, KernelSpec())
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
    anchor_keys = sorted(k for k in cents if k[0] == ctx.anchor.camera)
    other_keys = sorted(k for k in cents if k[0] != ctx.anchor.camera)
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
    ctx2 = build_anchor_context(anchor_of(shuffled), model, KernelSpec())
    a = mine_pseudo_classes(ctx, k=1)
    b = mine_pseudo_classes(ctx2, k=1)
    key = lambda pcs: [(pc.anchor_identity, pc.matched_identity, round(pc.affinity, 12)) for pc in pcs]
    assert key(a) == key(b)


def test_secondary_keeps_anchor_classes_separated(noisefree_table):
    _, unlabeled, model, ctx = _mining_setup(noisefree_table)
    anchor = ctx.anchor
    anchor_rows = np.flatnonzero(anchor.keys[anchor.group, 0] == anchor.camera)
    points = project_kernel(ctx.secondary, embed(model, anchor.features[anchor_rows]))
    labels = anchor.keys[anchor.group[anchor_rows], 1]
    cents = np.vstack([points[labels == wv].mean(axis=0) for wv in np.unique(labels)])
    assert len(cents) >= 2
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
    only_anchor = unlabeled.subset(unlabeled.camera_ids == ctx.anchor.camera)
    assert anchor_of(only_anchor) is None
    # two cameras, but one identity in each: no anchor classes to separate
    one_each = unlabeled.subset(unlabeled.within_view_ids == unlabeled.within_view_ids[0])
    assert len(np.unique(one_each.camera_ids)) >= 2
    assert anchor_of(one_each) is None


def test_round_embeds_pool_once(noisefree_table, monkeypatch):
    _, unlabeled, model, _ = _mining_setup(noisefree_table)
    calls = []

    def counting_embed(m, x):
        calls.append(len(x))
        return embed(m, x)

    monkeypatch.setattr(nullmargin.mining, "embed", counting_embed)
    ctx = build_anchor_context(anchor_of(unlabeled), model, KernelSpec())
    pairs = mine_pseudo_classes(ctx, k=1)
    assert calls == [unlabeled.n]
    np.testing.assert_array_equal(ctx.embedded, embed(model, unlabeled.features))
    assert len(pairs) == 8


def test_mine_forms_one_distance_matrix_per_camera(monkeypatch):
    # The affinities and sigma come from the matrix k_reciprocal ranked.
    table = generate_synthetic(SyntheticSpec(
        identities=14, cameras=3, dim=30, per_camera_transform_strength=0.3,
        noise_sigma=0.05, seed=12,
    ))
    labeled = table.subset([r for r in range(table.n) if table.identities[r] < 5])
    pool = table.subset([r for r in range(table.n) if table.identities[r] >= 5])
    pool = replace(pool, identities=[None] * pool.n)
    ctx = build_anchor_context(anchor_of(pool), fit_nk3ml(labeled), KernelSpec())
    expected = mine_pseudo_classes(ctx, k=1)
    shapes = []

    def counting_cdist(a, b):
        shapes.append((len(a), len(b)))
        return cdist(a, b)

    monkeypatch.setattr(nullmargin.mining, "cdist", counting_cdist)
    assert mine_pseudo_classes(ctx, k=1) == expected
    assert shapes == [(9, 9), (9, 9)]
    assert len(expected) >= 6


def test_k_reciprocal_carries_the_ranked_distances():
    rng = np.random.default_rng(2)
    queries, gallery = rng.standard_normal((7, 3)), rng.standard_normal((5, 3))
    sets = k_reciprocal(queries, gallery, 2)
    np.testing.assert_array_equal(sets.distances, cdist(queries, gallery))


def test_round_groups_pool_once(noisefree_table, monkeypatch):
    # The Anchor holds the pool's layout; mining reads it and groups nothing.
    _, unlabeled, _, ctx = _mining_setup(noisefree_table)
    want = row_loop_groups(unlabeled)
    assert list(map(tuple, ctx.anchor.keys.tolist())) == list(want)
    for at, rows in enumerate(want.values()):
        np.testing.assert_array_equal(np.flatnonzero(ctx.anchor.group == at), rows)
    assert not hasattr(nullmargin.mining, "group_rows")

    def no_regrouping(*args, **kwargs):
        raise AssertionError("mine_pseudo_classes regrouped the pool")

    monkeypatch.setattr("nullmargin.dataio.group_rows", no_regrouping)
    assert len(mine_pseudo_classes(ctx, k=1)) == 8


class _Captured(Exception):
    pass


@pytest.mark.parametrize("seed", range(6))
def test_anchor_layout_matches_row_loop_oracle(seed, monkeypatch):
    # Shuffled pools of 3-4 cameras whose groups hold 1-3 rows, with every
    # fourth group popped as a self-training round pops the groups it moves.
    rng = np.random.default_rng(seed)
    cams, views = [], []
    for cam in range(int(rng.integers(3, 5))):
        for wv in rng.choice(50, size=int(rng.integers(3, 7)), replace=False).tolist():
            size = int(rng.integers(1, 4))
            cams += [cam] * size
            views += [wv] * size
    perm = rng.permutation(len(cams))
    table = make_table(
        rng.standard_normal((len(cams), 20)), np.array(cams)[perm], [None] * len(cams),
        np.array(views)[perm],
    )
    pool = group_rows(table.camera_ids, table.within_view_ids)
    for key in list(pool)[3::4]:
        del pool[key]
    anchor = find_anchor(table.features, pool)

    rows = sorted(row for members in pool.values() for row in members.tolist())
    counts = {}
    for cam, _ in pool:
        counts[cam] = counts.get(cam, 0) + 1
    assert anchor.camera == min(counts, key=lambda cam: (-counts[cam], cam))
    assert [tuple(key) for key in anchor.keys.tolist()] == sorted(set(pool))
    np.testing.assert_array_equal(anchor.features, table.features[rows])
    np.testing.assert_array_equal(
        anchor.keys[anchor.group],
        np.column_stack([table.camera_ids[rows], table.within_view_ids[rows]]),
    )

    def spy(points, labels, kernel):
        raise _Captured(points, labels)

    monkeypatch.setattr(nullmargin.mining, "fit_nkmmc", spy)
    model = fit_nk3ml(labeled_gaussians(rng, classes=4, per_class=3, dim=20))
    with pytest.raises(_Captured) as captured:
        build_anchor_context(anchor, model, KernelSpec())
    points, labels = captured.value.args
    anchor_keys = [key for key in sorted(pool) if key[0] == anchor.camera]
    want_rows = [rows.index(row) for key in anchor_keys for row in sorted(pool[key].tolist())]
    want_labels = [key[1] for key in anchor_keys for _ in pool[key]]
    np.testing.assert_array_equal(points, embed(model, anchor.features)[want_rows])
    assert labels.tolist() == want_labels


def test_loop_groups_pool_once_per_loop(noisefree_table, monkeypatch):
    # The loop groups its unlabeled table once; a round then subsets that
    # table only for the rows it moves, never for the pool that remains.
    labeled, unlabeled, _, _ = _mining_setup(noisefree_table, labeled_count=3)
    grouped, subsets = [], []
    real_subset = FeatureTable.subset

    def groups(cameras, within_view):
        grouped.append((cameras, within_view))
        return group_rows(cameras, within_view)

    def subset(table, indices):
        subsets.append((table, len(indices)))
        return real_subset(table, indices)

    monkeypatch.setattr(nullmargin.selftrain, "group_rows", groups)
    monkeypatch.setattr(FeatureTable, "subset", subset)
    _, trace = run_self_training(labeled, unlabeled, LoopConfig())
    assert len(grouped) == 1
    assert grouped[0][0] is unlabeled.camera_ids and grouped[0][1] is unlabeled.within_view_ids
    moved = [2 * rec.pseudo_accepted for rec in trace.records if rec.pseudo_mined]
    assert len(moved) >= 2
    assert [table is unlabeled for table, _ in subsets] == [True] * len(moved)
    assert [rows for _, rows in subsets] == moved


def test_loop_anchors_equal_anchors_of_the_unmoved_groups(monkeypatch):
    # Oracle: each round's Anchor, formed from the groups no round has moved,
    # equals find_anchor on a fresh table of exactly those groups' rows. Six
    # synthetic cameras read as three, so every (camera, within_view_id)
    # group holds two rows; shuffled, so a group's rows are not adjacent.
    table = generate_synthetic(SyntheticSpec(
        identities=20, cameras=6, dim=300, per_camera_transform_strength=0.3,
        noise_sigma=0.2, seed=8,
    ))
    table = replace(table, camera_ids=table.camera_ids // 2)
    table = table.subset(np.random.default_rng(3).permutation(table.n))
    labeled = table.subset([ident < 6 for ident in table.identities])
    unlabeled = table.subset([ident >= 6 for ident in table.identities])
    unlabeled = replace(unlabeled, identities=[None] * unlabeled.n)
    anchors, mined = [], []
    real_context, real_mine = build_anchor_context, mine_pseudo_classes

    def context(anchor, *args):
        anchors.append(anchor)
        return real_context(anchor, *args)

    def mine(*args, **kwargs):
        mined.append(real_mine(*args, **kwargs))
        return mined[-1]

    monkeypatch.setattr(nullmargin.selftrain, "build_anchor_context", context)
    monkeypatch.setattr(nullmargin.selftrain, "mine_pseudo_classes", mine)
    _, trace = run_self_training(labeled, unlabeled, LoopConfig())
    assert len(anchors) >= 3 and len(np.unique(unlabeled.camera_ids)) == 3
    unmoved = group_rows(unlabeled.camera_ids, unlabeled.within_view_ids)
    assert {len(rows) for rows in unmoved.values()} == {2}
    for anchor, pairs, rec in zip(anchors, mined, trace.records):
        rows = np.sort(np.concatenate(list(unmoved.values())))
        want = anchor_of(unlabeled.subset(rows))
        assert anchor.camera == want.camera
        np.testing.assert_array_equal(anchor.features, want.features)
        np.testing.assert_array_equal(anchor.keys, want.keys)
        np.testing.assert_array_equal(anchor.group, want.group)
        for pc in pairs[: rec.pseudo_accepted]:
            del unmoved[pc.anchor_identity], unmoved[pc.matched_identity]
