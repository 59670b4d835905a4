import math

import numpy as np
import pytest

from nullmargin import compute_scatter, fisher_value, fit_nfst, project_null
from nullmargin.errors import DegenerateDataError
from nullmargin.nfst import span_coefficients

from conftest import make_table
from test_scatter import loop_scatter


def random_sss_table(rng, classes, per_class, dim):
    feats = rng.standard_normal((classes * per_class, dim))
    labels = [c for c in range(classes) for _ in range(per_class)]
    cams = [j % 2 for c in range(classes) for j in range(per_class)]
    return make_table(feats, cams, labels)


def span_basis(rows):
    basis = rows.T @ span_coefficients(rows @ rows.T, rows.shape[1])
    np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    # every input row lies in the span
    np.testing.assert_allclose(basis @ (basis.T @ rows.T), rows.T, atol=1e-10)
    return basis


def test_span_coefficients_orthonormal_basis():
    rng = np.random.default_rng(0)
    assert span_basis(rng.standard_normal((40, 120))).shape == (120, 40)
    # more rows than dimensions: the span is all of R^d
    assert span_basis(rng.standard_normal((90, 25))).shape == (25, 25)


def test_span_coefficients_drop_dependent_rows():
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((5, 30))
    dependent = np.vstack([rows, 2.5 * rows[0], rows[1] - rows[2], rows[3]])
    assert span_basis(dependent).shape == (30, 5)
    # centered rows lose one dimension
    assert span_basis(rows - rows.mean(axis=0)).shape == (30, 4)


def test_minimal_two_singletons():
    table = make_table(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], cameras=[0, 1], identities=[0, 1]
    )
    proj = fit_nfst(table)
    assert proj.w_n.shape == (3, 1)
    a = project_null(proj, table.features[0])
    b = project_null(proj, table.features[1])
    assert abs(a[0] - b[0]) > 1e-8


def test_collapse_two_classes():
    rng = np.random.default_rng(2)
    table = random_sss_table(rng, classes=2, per_class=2, dim=10)
    proj = fit_nfst(table)
    assert proj.w_n.shape == (10, 1)
    stats = compute_scatter(table)
    w = proj.w_n[:, 0]
    assert stats.within_quadratic(w) <= 1e-8 * stats.trace_within / 10
    outs = [project_null(proj, x)[0] for x in table.features]
    assert abs(outs[0] - outs[1]) < 1e-8
    assert abs(outs[2] - outs[3]) < 1e-8


def test_five_classes_singular_points():
    rng = np.random.default_rng(3)
    table = random_sss_table(rng, classes=5, per_class=3, dim=50)
    proj = fit_nfst(table)
    assert proj.w_n.shape == (50, 4)
    np.testing.assert_allclose(proj.w_n.T @ proj.w_n, np.eye(4), atol=1e-8)
    projected = project_null(proj, table.features)
    points = [projected[table.label_values() == c].mean(axis=0) for c in range(5)]
    # all class points distinct, checked pairwise by brute force
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.linalg.norm(points[i] - points[j]) > 1e-6
        cls_rows = projected[table.label_values() == i]
        assert np.linalg.norm(cls_rows - points[i], axis=1).max() < 1e-8


def test_npd_constraints_against_loop_oracle():
    rng = np.random.default_rng(4)
    table = random_sss_table(rng, classes=4, per_class=3, dim=40)
    proj = fit_nfst(table)
    s_b, s_w, _ = loop_scatter(table.features, table.label_values())
    d = table.dim
    for k in range(proj.w_n.shape[1]):
        w = proj.w_n[:, k]
        assert w @ s_w @ w <= 1e-8 * np.trace(s_w) / d
        assert w @ s_b @ w > 0


def test_npd_is_fisher_infinite():
    rng = np.random.default_rng(5)
    table = random_sss_table(rng, classes=3, per_class=2, dim=20)
    proj = fit_nfst(table)
    stats = compute_scatter(table)
    for k in range(proj.w_n.shape[1]):
        assert fisher_value(stats, proj.w_n[:, k]) == math.inf


def test_projection_centering_and_linearity():
    rng = np.random.default_rng(6)
    table = random_sss_table(rng, classes=3, per_class=2, dim=15)
    proj = fit_nfst(table)
    np.testing.assert_allclose(project_null(proj, proj.mean), 0.0, atol=1e-12)
    x1, x2 = rng.standard_normal((2, 15))
    a = 0.3
    lhs = project_null(proj, a * x1 + (1 - a) * x2)
    rhs = a * project_null(proj, x1) + (1 - a) * project_null(proj, x2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_zero_within_variance_property():
    rng = np.random.default_rng(7)
    table = random_sss_table(rng, classes=6, per_class=4, dim=60)
    proj = fit_nfst(table)
    projected = project_null(proj, table.features)
    labels = table.label_values()
    within = sum(
        float(np.sum((projected[labels == c] - projected[labels == c].mean(axis=0)) ** 2))
        for c in range(6)
    )
    total = float(np.sum(projected ** 2))
    assert within <= 1e-8 * total


def test_degenerate_data_raises():
    # 5 classes in the plane: the within-class scatter fills the whole span,
    # leaving no null directions.
    rng = np.random.default_rng(8)
    table = random_sss_table(rng, classes=5, per_class=3, dim=2)
    with pytest.raises(DegenerateDataError) as excinfo:
        fit_nfst(table)
    assert excinfo.value.found < excinfo.value.expected


def test_excess_null_directions_warns():
    # Class 1's within-class spread along e3 is far below the nullspace
    # tolerance, so one extra eigenvalue lands under the threshold.
    eps = 1e-6
    feats = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 10.0, 0.0],
            [1.0, 10.0, eps],
        ]
    )
    table = make_table(feats, cameras=[0, 1, 0, 1], identities=[0, 0, 1, 1])
    with pytest.warns(RuntimeWarning, match="null"):
        proj = fit_nfst(table)
    assert proj.w_n.shape == (3, 1)


def test_deterministic_fit():
    rng = np.random.default_rng(9)
    table = random_sss_table(rng, classes=4, per_class=2, dim=30)
    a = fit_nfst(table)
    b = fit_nfst(table)
    assert a.w_n.tobytes() == b.w_n.tobytes()
