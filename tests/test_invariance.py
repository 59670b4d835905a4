"""Metamorphic tests: transforms of the features the method ignores.

In exact arithmetic the whole protocol is unchanged by an orthogonal change
of feature basis (a rotation or a column permutation), by a uniform scaling
(the auto bandwidth and the affinity scale with the data, and the linear
criterion only rescales) and by a translation (every stage reads centred
scatter, distances or differences). Each case runs both modes on the
transformed table and checks every trial's record against the original's:
equal CMC and, for a self-training trial, equal per-round class, mined and
accepted counts. The final models' pairwise embedding distances of the
table rows must agree once divided by the transform's known scale.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from nullmargin import KernelSpec, LoopConfig, SplitSpec, SyntheticSpec, embed, generate_synthetic, run_protocols
from nullmargin.evaluation import MODES

from conftest import lifted_model

SPEC = SplitSpec(seed=7, trials=2)

TABLES = {
    "80x2": SyntheticSpec(identities=80, cameras=2, dim=300, noise_sigma=0.5, seed=3),
    "60x4": SyntheticSpec(identities=60, cameras=4, dim=200, noise_sigma=0.5, seed=3),
}

# Largest embedding-distance error, relative to the largest original
# distance. Measured on these tables: at most 4.3e-13 under rotation,
# permutation and scaling, and 1.4e-8 under the translation, whose table
# Gram carries rounding of about eps * (offset / spread)^2.
EXACT_TOL = 1e-10
TRANSLATION_TOL = 1e-7

# The translation is r * std(X) * g for a fixed standard-normal g, at
# r = 1e3. It breaks further out, measured on both tables: at r = 1e6 one
# case's CMC (80x2, rbf, labeled_only) and another's round counts (60x4,
# linear, semi_supervised) move, and at r = 3e6 every case raises
# DegenerateDataError ("data not in general position") for data that are.
# ROADMAP.md item 15, a translation-invariant table Gram, is the mend; it
# may tighten this regime, never loosen it.
TRANSLATION_R = 1e3

SCALES = {"scale1e3": 1e3, "scale1e-3": 1e-3}


def _transform(name: str, x: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(11)
    d = x.shape[1]
    if name == "rotate":
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        return x @ (q * np.sign(np.diag(r)))
    if name == "permute":
        return x[:, rng.permutation(d)]
    if name in SCALES:
        return x * SCALES[name]
    assert name == "translate"
    return x + TRANSLATION_R * x.std() * rng.standard_normal(d)


def _protocol(name: str, kind: str, transform: str | None):
    """Both modes' results on the (transformed) table, and each one's final
    model's pairwise embedding distances of the table rows."""
    table = generate_synthetic(TABLES[name])
    features = table.features if transform is None else _transform(transform, table.features)
    table = replace(table, features=features)
    results = run_protocols(table, SPEC, LoopConfig(kernel=KernelSpec(kind=kind)), MODES)
    return results, [pdist(embed(lifted_model(r.final_span, features), features)) for r in results]


@pytest.fixture(scope="module")
def protocol():
    """_protocol, memoised while this module runs: each untransformed run is
    shared by its five transforms."""
    return functools.cache(_protocol)


def _rounds(record):
    return [(r.labeled_classes, r.pseudo_mined, r.pseudo_accepted) for r in record.trace.records]


@pytest.mark.parametrize("transform", ["rotate", "permute", *SCALES, "translate"])
@pytest.mark.parametrize("kind", ["rbf", "linear"])
@pytest.mark.parametrize("name", TABLES)
def test_protocol_ignores_the_transform(protocol, name, kind, transform):
    before, old_distances = protocol(name, kind, None)
    after, new_distances = protocol(name, kind, transform)
    # An rbf kernel with the auto bandwidth reads distances relative to
    # their mean, so its embedding does not scale; a linear one scales with x.
    scale = SCALES.get(transform, 1.0) if kind == "linear" else 1.0
    tol = TRANSLATION_TOL if transform == "translate" else EXACT_TOL
    for mode, old, new, want, got in zip(MODES, before, after, old_distances, new_distances):
        assert len(new.trials) == SPEC.trials
        for t, (a, b) in enumerate(zip(old.trials, new.trials)):
            assert b.curve == a.curve, (mode, t)
            if mode == "semi_supervised":
                assert _rounds(b) == _rounds(a), (mode, t)
        np.testing.assert_allclose(got / scale, want, rtol=0, atol=tol * want.max(), err_msg=mode)
