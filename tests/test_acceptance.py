"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The standard synthetic fixture (100 identities, 2 cameras, dim 200, 1/3
labeled) uses a distortion/noise level calibrated once and frozen below so
that the labeled-only baseline lands mid-band (40-80% rank-1): strength 0.85,
noise 0.1 gives ~61% labeled-only and ~100% semi-supervised over 10 trials.
"""

import json
import time

import numpy as np

from nullmargin import (
    KernelSpec,
    LoopConfig,
    SplitSpec,
    SyntheticSpec,
    cmc,
    fit_nfst,
    fit_nkmmc,
    generate_synthetic,
    k_reciprocal,
    run_protocol,
    run_self_training,
    save_feature_table,
)
from nullmargin.cli import main as cli_main
from nullmargin.kmmc import _margin_operator, gram
from nullmargin.nfst import project_null

from conftest import make_table
from test_mining import FIG4A, FIG4B, B, C, D, E, brute_reciprocal, within_set_reciprocal
from test_scatter import loop_scatter

# Frozen calibration of the standard fixture (see module docstring).
STANDARD_FIXTURE = SyntheticSpec(
    identities=100,
    cameras=2,
    dim=200,
    per_camera_transform_strength=0.85,
    noise_sigma=0.1,
    seed=20250808,
)
STANDARD_SPLIT = SplitSpec(seed=99, trials=10)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' (' + detail + ')' if detail else ''}")
    assert ok, f"{name}: {detail}"


def random_sss_fixture(rng):
    c = int(rng.integers(2, 11))
    per_class = int(rng.integers(1, max(2, 60 // c)))
    n = c * per_class
    d = int(rng.integers(100, 501))
    feats = rng.standard_normal((n, d))
    labels = [k for k in range(c) for _ in range(per_class)]
    cams = [j % 2 for k in range(c) for j in range(per_class)]
    return make_table(feats, cams, labels), c, d


def test_nfst_collapse_20_fixtures():
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    for _ in range(20):
        table, c, d = random_sss_fixture(rng)
        proj, _ = fit_nfst(table)
        assert proj.w_n.shape == (d, c - 1), "expected exactly c-1 NPDs"
        ortho_err = np.abs(proj.w_n.T @ proj.w_n - np.eye(c - 1)).max()
        assert ortho_err <= 1e-8, f"orthonormality error {ortho_err}"
        projected = project_null(proj, table.features)
        labels = table.label_values()
        within = sum(
            float(np.sum((projected[labels == k] - projected[labels == k].mean(axis=0)) ** 2))
            for k in range(c)
        )
        total = float(np.sum(projected**2))
        assert within <= 1e-8 * total, f"within/total = {within / total}"
    elapsed = time.perf_counter() - t0
    report("nfst-collapse", elapsed < 5.0, f"20 fixtures in {elapsed:.2f}s")


def test_nfst_constraint_witness():
    rng = np.random.default_rng(77)
    for _ in range(5):
        table, c, d = random_sss_fixture(rng)
        proj, _ = fit_nfst(table)
        s_b, s_w, _ = loop_scatter(table.features, table.label_values())
        for k in range(c - 1):
            w = proj.w_n[:, k]
            assert w @ s_w @ w <= 1e-8 * np.trace(s_w) / d
            assert w @ s_b @ w > 0
    report("nfst-constraint-witness", True, "w'S_w w ~ 0 and w'S_b w > 0 on all NPDs")


def test_nkmmc_eigen_optimality():
    rng = np.random.default_rng(5150)
    t0 = time.perf_counter()
    for trial in range(10):
        c = int(rng.integers(2, 6))
        per_class = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 8))
        centers = rng.standard_normal((c, dim)) * 4.0
        points = np.vstack(
            [centers[k] + 0.4 * rng.standard_normal((per_class, dim)) for k in range(c)]
        )
        labels = np.repeat(np.arange(c), per_class)
        model = fit_nkmmc(points, labels, KernelSpec("rbf", "auto"))
        k_matrix = gram(points, points, model.kernel)
        k_matrix = (k_matrix + k_matrix.T) / 2
        s = _margin_operator(k_matrix, labels, np.ones(len(labels)))
        m = len(points)
        k_j = k_matrix + 1e-8 * (np.trace(k_matrix) / m) * np.eye(m)

        top = model.coeffs[:, 0]
        top_objective = float(top @ s @ top)
        r = rng.standard_normal((m, 10_000))
        r /= np.sqrt(np.einsum("jk,jk->k", r, k_matrix @ r))
        random_best = float(np.einsum("jk,jk->k", r, s @ r).max())
        assert top_objective >= random_best - 1e-8 * abs(top_objective), (
            f"fixture {trial}: random {random_best} beats fitted {top_objective}"
        )

        s_norm = np.linalg.norm(s, 2)
        for j in range(model.output_dim):
            a = model.coeffs[:, j]
            resid = np.linalg.norm(s @ a - model.eigenvalues[j] * (k_j @ a))
            assert resid <= 1e-6 * s_norm * np.linalg.norm(a)
    elapsed = time.perf_counter() - t0
    report("nkmmc-eigen-optimality", elapsed < 30.0, f"10 fixtures x 10k vectors in {elapsed:.1f}s")


def test_k_reciprocal_oracle_equivalence():
    # Within-set lists of the figures: the lists at k + 1 less each point's own index.
    assert within_set_reciprocal(FIG4A, k=1) == [[], [C], [B]]
    recip_b = within_set_reciprocal(FIG4B, k=2)
    assert {frozenset((C, D)), frozenset((C, E)), frozenset((D, E))} <= {
        frozenset((i, j))
        for i in (C, D, E)
        for j in recip_b[i]
    }

    rng = np.random.default_rng(4096)
    checked = 0
    for _ in range(50):
        n_q = int(rng.integers(2, 101))
        n_g = int(rng.integers(2, 101))
        dim = int(rng.integers(1, 6))
        queries = rng.standard_normal((n_q, dim))
        gallery = rng.standard_normal((n_g, dim))
        for k in (1, 2, 3, 5):
            got = k_reciprocal(queries, gallery, k=k)
            want = brute_reciprocal(queries, gallery, k=k)
            for i in range(n_q):
                assert got.reciprocal[i].tolist() == want[i]
            checked += 1
    report("k-reciprocal-oracle", True, f"{checked} set/k combinations match brute force")


def test_selftrain_termination_and_monotonicity():
    table = generate_synthetic(STANDARD_FIXTURE)
    from nullmargin import make_split

    split = make_split(table, STANDARD_SPLIT, 0)
    unlabeled_identities = len(set(split.unlabeled.within_view_ids.tolist()))
    model, trace = run_self_training(split.labeled, split.unlabeled, LoopConfig())
    counts = [r.labeled_classes for r in trace.records]
    strictly_up = all(b > a for a, b in zip(counts, counts[1:]))
    mining_rounds = len([r for r in trace.records if r.pseudo_mined > 0])
    report(
        "selftrain-termination",
        strictly_up and mining_rounds <= unlabeled_identities,
        f"{mining_rounds} mining rounds for {unlabeled_identities} unlabeled identities, "
        f"classes {counts[0]} -> {counts[-1]}",
    )


def test_semi_supervised_gain():
    t0 = time.perf_counter()
    table = generate_synthetic(STANDARD_FIXTURE)
    cfg = LoopConfig()
    labeled_only = run_protocol(table, STANDARD_SPLIT, cfg, "labeled_only", ns=(1,))
    semi = run_protocol(table, STANDARD_SPLIT, cfg, "semi_supervised", ns=(1,))
    lo = labeled_only.curve.accuracy_at(1)
    ss = semi.curve.accuracy_at(1)
    elapsed = time.perf_counter() - t0
    ok = 40.0 <= lo <= 80.0 and ss - lo >= 5.0 and elapsed < 180.0
    report(
        "semi-supervised-gain",
        ok,
        f"labeled_only {lo:.2f}%, semi {ss:.2f}%, gain {ss - lo:+.2f}pp in {elapsed:.0f}s",
    )


def test_cmc_correctness():
    gallery_ids = [10, 11, 12, 13, 14]
    rankings = np.array(
        [
            [0, 1, 2, 3, 4],
            [0, 1, 2, 3, 4],
            [3, 2, 1, 0, 4],
            [1, 2, 3, 4, 0],
        ]
    )
    curve = cmc(rankings, [10, 11, 12, 10], gallery_ids, ns=(1, 2, 5))
    assert [acc for _, acc in curve.ranks] == [25.0, 75.0, 100.0]

    rng = np.random.default_rng(404)
    for _ in range(20):
        g = int(rng.integers(3, 40))
        gallery_ids = list(rng.integers(0, 10, size=g))
        probe_ids = [gallery_ids[int(i)] for i in rng.integers(0, g, size=8)]
        rankings = np.vstack([rng.permutation(g) for _ in range(8)])
        curve = cmc(rankings, probe_ids, gallery_ids, ns=tuple(range(1, g + 1)))
        accs = [acc for _, acc in curve.ranks]
        assert accs == sorted(accs)
        assert accs[-1] == 100.0
    report("cmc-correctness", True, "hand-counted fixture and monotonicity hold")


def test_run_determinism_across_threads(tmp_path):
    data = tmp_path / "data.ssml"
    table = generate_synthetic(
        SyntheticSpec(
            identities=30, cameras=2, dim=60,
            per_camera_transform_strength=0.5, noise_sigma=0.1, seed=8,
        )
    )
    save_feature_table(table, data, "binary")
    outputs = []
    for run_id, threads in (("a", 1), ("b", 3)):
        out = tmp_path / run_id
        code = cli_main(
            [
                "run", "--input", str(data), "-o", str(out),
                "--mode", "semi_supervised", "--seed", "33", "--trials", "3",
                "--threads", str(threads),
            ]
        )
        assert code == 0
        outputs.append(out)
    cmc_equal = (outputs[0] / "cmc.csv").read_bytes() == (outputs[1] / "cmc.csv").read_bytes()
    reports = [json.loads((o / "report.json").read_text()) for o in outputs]
    checks = [
        [t["model_checksum"] for t in r["results"]["semi_supervised"]["per_trial"]]
        for r in reports
    ]
    model_equal = (outputs[0] / "model.nk3m").read_bytes() == (outputs[1] / "model.nk3m").read_bytes()
    report(
        "run-determinism",
        cmc_equal and checks[0] == checks[1] and model_equal,
        "byte-identical cmc.csv and model checksums at --threads 1 vs 3",
    )


def test_viper_shape_dry_run(tmp_path):
    # Same-shape stand-in for real VIPeR features: 632 identities, two
    # cameras, d=29920. Random content; only protocol execution and wall
    # clock are under test.
    t0 = time.perf_counter()
    data = tmp_path / "viper_shape.ssml"
    table = generate_synthetic(
        SyntheticSpec(identities=632, cameras=2, dim=29920, noise_sigma=1.0, seed=632)
    )
    save_feature_table(table, data, "binary")
    out = tmp_path / "out"
    code = cli_main(
        [
            "run", "--input", str(data), "-o", str(out),
            "--mode", "semi_supervised", "--seed", "1", "--trials", "10",
        ]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert len(rep["results"]["semi_supervised"]["per_trial"]) == 10
    assert (out / "trace.jsonl").exists() and (out / "model.nk3m").exists()
    report("viper-shape-dry-run", elapsed < 600.0, f"full 10-trial protocol in {elapsed:.0f}s")
