"""The BLAS thread helper, the thread count protocol trials run at, the
LAPACK routines bound from the loaded OpenBLAS or, without one, from scipy,
the span basis taken from their factor, and the one-product finiteness
proof every finiteness check makes."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nullmargin.evaluation
from nullmargin import LoopConfig, SplitSpec, fit_nk3ml, run_protocol, run_protocols
from nullmargin import _blas, kmmc
from nullmargin._blas import _pivoted_cholesky, blas_threads, span_coefficients
from nullmargin.evaluation import CmcCurve, TrialRecord
from nullmargin.errors import DataValidationError, ModelFormatError, NumericalError

from conftest import labeled_gaussians, make_table, model_bytes, read_model, use_cores


def counts():
    return [getter() for _, getter in _blas._controls()]


def test_loaded_openblas_is_found():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy is built against {blas}, not OpenBLAS")
    assert _blas._controls(), "numpy's OpenBLAS is loaded but no thread setter was found"


def test_every_loaded_openblas_has_a_setter():
    # A run maps only numpy's OpenBLAS. This process usually sees two,
    # because other test modules import scipy (whose wheel maps its own) as
    # an oracle; scipy's is also the one a run would use on the fallback
    # route. Any library left out would run at the host's thread count, and
    # its bits would follow the core count.
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        pytest.skip("no /proc/self/maps")
    paths = {f[5].strip() for f in fields if len(f) == 6}
    libraries = {p for p in paths if "openblas" in os.path.basename(p)}
    if not libraries:
        pytest.skip("no OpenBLAS is loaded")
    assert len(_blas._controls()) == len(libraries), sorted(libraries)


def test_phase_sets_one_thread_and_restores():
    before = counts()
    with blas_threads(2):
        with blas_threads(1):
            assert all(count == 1 for count in counts())
        assert all(count == 2 for count in counts())
    assert counts() == before


def test_phase_restores_after_exception():
    before = counts()
    with blas_threads(2):
        with pytest.raises(RuntimeError):
            with blas_threads(1):
                assert all(count == 1 for count in counts())
                raise RuntimeError("inside the phase")
        assert all(count == 2 for count in counts())
    assert counts() == before


def test_no_library_found_is_a_no_op(monkeypatch):
    real_getters = [getter for _, getter in _blas._controls()]
    with blas_threads(2):
        monkeypatch.setattr(_blas, "_controls", lambda: ())
        with blas_threads(1):
            assert all(getter() == 2 for getter in real_getters)
        assert all(getter() == 2 for getter in real_getters)


@pytest.mark.parametrize("cores", [1, 2])
def test_trials_run_at_one_blas_thread(easy_table, monkeypatch, cores):
    seen = []
    fit = nullmargin.evaluation.fit_nk3ml

    def recording_fit(*args, **kwargs):
        seen.append(counts())
        return fit(*args, **kwargs)

    monkeypatch.setattr(nullmargin.evaluation, "fit_nk3ml", recording_fit)
    use_cores(monkeypatch, cores)
    with blas_threads(2):
        run_protocol(easy_table, SplitSpec(seed=3, trials=2), LoopConfig(), "labeled_only")
        assert all(count == 2 for count in counts())
    assert len(seen) == 2
    assert all(count == 1 for trial in seen for count in trial)


def numpy_openblas() -> bool:
    return "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()


def run_script(script: str) -> dict:
    """Run a Python script on this checkout's sources in a fresh process and
    return the JSON object its last output line holds."""
    src = Path(_blas.__file__).resolve().parent.parent
    path_var = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path_var),
                         check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


_NO_SCIPY_RUN = """
import json, sys
import nullmargin.cli
from nullmargin import LoopConfig, SplitSpec, SyntheticSpec, _blas, generate_synthetic, run_protocols

table = generate_synthetic(SyntheticSpec(identities=20, cameras=2, dim=60,
                                         per_camera_transform_strength=0.2, noise_sigma=0.02, seed=11))
results = run_protocols(table, SplitSpec(seed=3, trials=2), LoopConfig(),
                        ("labeled_only", "semi_supervised"))
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "controls": len(_blas._controls()),
    "rank1": [r.curve.accuracy_at(1) for r in results],
}))
"""


@pytest.mark.skipif(not numpy_openblas(), reason="numpy is not built against OpenBLAS")
def test_a_run_imports_no_scipy_and_drives_one_openblas():
    # numpy's OpenBLAS serves every LAPACK call, so a run maps no second
    # BLAS: scipy's import alone costs about 30 MiB of resident memory.
    got = run_script(_NO_SCIPY_RUN)
    assert got["scipy"] == []
    assert len(got["rank1"]) == 2
    if Path("/proc/self/maps").exists():
        assert got["controls"] == 1


@pytest.fixture
def fresh_blas():
    """Resolve the routines and thread setters anew inside the test and after it."""
    _blas.routines.cache_clear()
    _blas._controls.cache_clear()
    yield
    _blas.routines.cache_clear()
    _blas._controls.cache_clear()


def psd(rng, n, rank):
    x = rng.standard_normal((n, rank)) * rng.uniform(0.1, 10.0)
    return x @ x.T


def duplicate_rows(rng, n):
    x = rng.standard_normal((n, n + 3))
    x[rng.integers(n, size=n // 2)] = x[rng.integers(n, size=n // 2)]
    return x @ x.T


GRAMS = {
    "psd": lambda rng: psd(rng, 40, 45),
    "rank-deficient": lambda rng: psd(rng, 50, 17),
    "duplicate-rows": lambda rng: duplicate_rows(rng, 30),
}


@pytest.mark.parametrize("name", sorted(GRAMS))
def test_scipy_fallback_factors_as_the_loaded_openblas(name, fresh_blas, monkeypatch):
    if not any(_blas._bind(lib) for lib in _blas._loaded()):
        pytest.skip("no loaded OpenBLAS exports LAPACKE dpstrf/dtrtri and CBLAS dtrmm")
    import scipy.linalg.lapack

    rng = np.random.default_rng(8)
    gram = GRAMS[name](rng)
    tol = gram.shape[0] * np.finfo(np.float64).eps * gram.diagonal().max()
    piv, factor, inv_t = _pivoted_cholesky(gram, tol)
    loaded = _blas.routines()
    calls = []
    real_dpstrf = scipy.linalg.lapack.dpstrf

    def counting_dpstrf(*args, **kwargs):
        calls.append(1)
        return real_dpstrf(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpstrf", counting_dpstrf)
    monkeypatch.setattr(_blas, "_ROUTINE_NAMES", ())
    _blas.routines.cache_clear()
    fb_piv, fb_factor, fb_inv_t = _pivoted_cholesky(gram, tol)
    assert calls == [1]
    np.testing.assert_array_equal(fb_piv, piv)
    assert fb_factor.shape == factor.shape
    assert (factor.shape[1] == gram.shape[0]) == (name == "psd")
    np.testing.assert_allclose(fb_factor, factor, rtol=1e-12, atol=0)
    np.testing.assert_allclose(fb_inv_t, inv_t, rtol=1e-12, atol=0)
    # the null basis's triangular multiply, B^T b
    b = rng.standard_normal((len(inv_t), 7))
    product = loaded.trmm(inv_t, np.asfortranarray(b))
    np.testing.assert_allclose(_blas.routines().trmm(inv_t, np.asfortranarray(b)), product, rtol=1e-12, atol=0)
    np.testing.assert_allclose(product, inv_t.T @ b, rtol=1e-9, atol=1e-12 * np.abs(product).max())


@pytest.mark.parametrize("fallback", [False, True])
def test_a_first_pivot_at_or_below_tol_counts_no_rank(fallback, fresh_blas, monkeypatch):
    # dpstrf checks only the pivots after the first against tol.
    if fallback:
        monkeypatch.setattr(_blas, "_ROUTINE_NAMES", ())
    piv, factor, inv_t = _pivoted_cholesky(np.array([[1e-20]]), 1.0)
    assert piv.tolist() == [0]
    assert factor.shape == (1, 0) and inv_t.shape == (0, 0)


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


def test_span_coefficients_empty_gram():
    assert span_coefficients(np.zeros((0, 0)), 5).shape == (0, 0)


def test_span_coefficients_drop_dependent_rows():
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((5, 30))
    dependent = np.vstack([rows, 2.5 * rows[0], rows[1] - rows[2], rows[3]])
    assert span_basis(dependent).shape == (30, 5)
    # centered rows lose one dimension
    assert span_basis(rows - rows.mean(axis=0)).shape == (30, 4)


def test_span_coefficients_column_count_is_the_matrix_rank():
    # Rank-deficient rows: duplicates and linear combinations of other rows,
    # interleaved at random. The basis is orthonormal to 1e-10 and has one
    # column per dimension numpy's matrix_rank finds.
    rng = np.random.default_rng(12)
    for case in range(40):
        independent, dim = rng.integers(1, 25), rng.integers(5, 60)
        base = rng.standard_normal((independent, dim)) * 10.0 ** rng.uniform(-3, 3)
        mix = rng.standard_normal((rng.integers(1, 20), independent))
        mix[rng.random(mix.shape) < 0.5] = 0.0                 # sparse combinations
        copies = base[rng.integers(0, independent, rng.integers(0, 6))]
        rows = np.vstack([base, mix @ base, copies])[rng.permutation(independent + len(mix) + len(copies))]
        basis = rows.T @ span_coefficients(rows @ rows.T, dim)
        np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), rtol=0, atol=1e-10)
        assert basis.shape[1] == np.linalg.matrix_rank(rows), case


_FALLBACK_THREADS = """
import ctypes, json, os, sys
from nullmargin import _blas

def mapped():    # read apart from the discovery under test
    with open("/proc/self/maps") as maps:
        paths = {f[5].strip() for f in (line.split(maxsplit=5) for line in maps) if len(f) == 6}
    return sorted(p for p in paths if "openblas" in os.path.basename(p))

def getter(path):
    lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    name = next(n for n in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                            "openblas_get_num_threads64_", "openblas_get_num_threads") if hasattr(lib, n))
    return getattr(lib, name)

_blas._ROUTINE_NAMES = ()
before = mapped()
with _blas.blas_threads(2):
    added = [p for p in mapped() if p not in before]
    two = [getter(p)() for p in added]
    with _blas.blas_threads(1):
        one = [getter(p)() for p in added]
    back = [getter(p)() for p in added]
print(json.dumps({"scipy": "scipy.linalg" in sys.modules, "added": added, "counts": [two, one, back]}))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
def test_blas_threads_drives_the_openblas_of_the_scipy_fallback():
    # With no loaded library exporting the routines, _blas imports scipy's
    # wrappers before it looks up the thread setters, so scipy's OpenBLAS is
    # set too.
    got = run_script(_FALLBACK_THREADS)
    assert got["scipy"]
    if not got["added"]:
        pytest.skip("scipy's wrappers mapped no OpenBLAS of their own")
    two, one, back = got["counts"]
    assert two == back == [2] * len(got["added"])
    assert one == [1] * len(got["added"])


class _GramIs(np.ndarray):
    """Features whose Gram X @ X.T is the features themselves."""

    def __matmul__(self, other):
        return np.asarray(self)


def _table_gram_check(values, monkeypatch):
    table = make_table(np.ones((2, 3)), cameras=[0, 1], identities=[0, 0])
    object.__setattr__(table, "features", values.view(_GramIs))
    # Past a finite Gram, one stub trial ends the run.
    empty_trial = (TrialRecord(CmcCurve(ranks=((1, 0.0),)), "", 0.0, None), None)
    monkeypatch.setattr(nullmargin.evaluation, "_run_trial", lambda *args: empty_trial)
    run_protocols(table, SplitSpec(seed=0, trials=1), LoopConfig(), ("labeled_only",), ns=(1,))


def _model_check(values, monkeypatch):
    model = fit_nk3ml(labeled_gaussians(np.random.default_rng(0), classes=4, per_class=2, dim=20))
    w_n = np.array(model.nullproj.w_n)
    w_n[0, :values.shape[1]] = values[0]
    read_model(model_bytes(replace(model, nullproj=replace(model.nullproj, w_n=w_n))))


# Each check's own error for a table, the table Gram, a margin kernel matrix
# and a model read from a container, given a matrix that starts with `values`.
FINITENESS_CHECKS = {
    "feature table": (lambda values, _: make_table(values, cameras=[0, 1], identities=[0, 0]),
                      DataValidationError, "features must be finite"),
    "table Gram": (_table_gram_check, NumericalError, "table Gram X X\\^T has non-finite entries"),
    "margin kernel": (lambda values, _: kmmc._check_finite(values),
                      NumericalError, "margin kernel matrix has non-finite entries"),
    "model reader": (_model_check, ModelFormatError, "non-finite values in w_n"),
}


@pytest.mark.parametrize("values, finite", [
    ([np.nan], False),
    ([np.inf], False),
    ([-np.inf], False),
    ([np.inf, -np.inf], False),         # a NaN row sum
    ([1e308, 1e308], True),             # a row sum that overflows
], ids=["nan", "+inf", "-inf", "+inf and -inf in one row", "finite, sum overflows"])
@pytest.mark.parametrize("check", FINITENESS_CHECKS)
def test_each_finiteness_check_rejects_nan_and_inf_and_accepts_an_overflowing_sum(monkeypatch, check, values, finite):
    run, error, match = FINITENESS_CHECKS[check]
    matrix = np.ones((2, 3))
    matrix[0, :len(values)] = values
    if finite:
        run(matrix, monkeypatch)
    else:
        with pytest.raises(error, match=match):
            run(matrix, monkeypatch)
