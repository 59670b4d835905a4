"""The BLAS thread helper and the thread count protocol trials run at."""

import os

import numpy as np
import pytest

import nullmargin.evaluation
from nullmargin import LoopConfig, SplitSpec, run_protocol
from nullmargin import _blas
from nullmargin._blas import blas_threads


def counts():
    return [getter() for _, getter in _blas._controls()]


def test_loaded_openblas_is_found():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy is built against {blas}, not OpenBLAS")
    assert _blas._controls(), "numpy's OpenBLAS is loaded but no thread setter was found"


def test_every_loaded_openblas_has_a_setter():
    # numpy's and scipy's wheels each map their own OpenBLAS; trials run
    # LAPACK in both, so a library left out would run at the host's thread
    # count and its bits would follow the core count.
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


@pytest.mark.parametrize("threads", [1, 2])
def test_trials_run_at_one_blas_thread(easy_table, monkeypatch, threads):
    seen = []
    fit = nullmargin.evaluation.fit_nk3ml

    def recording_fit(*args, **kwargs):
        seen.append(counts())
        return fit(*args, **kwargs)

    monkeypatch.setattr(nullmargin.evaluation, "fit_nk3ml", recording_fit)
    with blas_threads(2):
        run_protocol(easy_table, SplitSpec(seed=3, trials=2), LoopConfig(), "labeled_only",
                     threads=threads)
        assert all(count == 2 for count in counts())
    assert len(seen) == 2
    assert all(count == 1 for trial in seen for count in trial)
