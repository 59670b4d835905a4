"""Numerics both stages share: an orthonormal basis from a small Gram
matrix, the distance kernel, and the process's OpenBLAS that runs them.

The factor. Each basis either stage takes from the Gram matrix G (n, n) of
the vectors that span it, and the rank cut with it, comes from the pivoted
Cholesky factor P^T G P = L L^T (LAPACK dpstrf), stopped at the first pivot
L_jj^2 at or below a tolerance. With B = L^-T over the r pivots kept (dtrtri), the r
pivoted vectors times B are an orthonormal basis of the span of all n, for
a fraction of an eigendecomposition's cost; pivoting reveals the rank and
leaves the pivots positive and non-increasing (Higham, "Accuracy and
Stability of Numerical Algorithms", ch. 10). dpstrf checks only the pivots
after the first against the tolerance, so r is counted here.
_pivoted_cholesky returns the factor; pivot_basis returns P B, the (n, r)
coefficients of the basis on all n vectors, zero outside the kept pivot
rows, with the kept pivots.

The rank rules, one per use:
- a protocol trial's span (evaluation), and the kernel span of a margin fit
  whose classes share points (kmmc): max(n, d) * eps * max diag G, numpy's
  matrix_rank tolerance applied to the pivots (span_coefficients);
- the within-class basis Q (nfst.NullSpaceState.append_classes): the same
  rule, taken relative to the kept scale, the largest squared norm of any
  within-class row appended, in place of max diag G;
- the null directions W_N (nfst.NullSpaceState.projector):
  nfst.NULL_TOL * trace(S_b);
- the margin basis of a fit with no shared class (kmmc.fit_nkmmc):
  kmmc.CHOL_TOL * sum_j w_j K_jj, kept only when r = m - 1 and
  1 / |B|_F^2 clears the same floor; otherwise the fit solves S's
  eigenproblem.

The distances. _squared_distances takes every squared distance between two
point sets from one GEMM: with both sets centred at the second set's first
row, |a - b|^2 = |a|^2 + |b|^2 - 2 a.b. An entry at or below that sum's
rounding bound, 2 (p + 1) eps (|a|^2 + |b|^2) in p dimensions, is set to
exactly 0, so coincident rows are at distance 0 and negatives never reach a
square root. A row as centre keeps exactly representable inputs (integer
grids, duplicate rows) exact, so their distance ties stay exact ties. Every
rbf Gram and auto bandwidth (kmmc), gallery ranking (evaluation) and
cross-view matching (mining) read their distances from it.

The OpenBLAS. dpstrf, dtrtri, and the BLAS dtrmm that forms W_N, are taken
from the OpenBLAS libraries already loaded into the process, found on first
use from the process's memory map, the way threadpoolctl does, and called
with ctypes. numpy's wheel brings one that exports LAPACKE and CBLAS, so a
run maps no second BLAS; ctypes calls release the GIL, so concurrent trials
overlap these routines as they overlap numpy's. Only when no loaded library
exports them are scipy's wrappers imported, and that happens before the
thread setters are looked up, so blas_threads also drives the OpenBLAS
scipy brings. The thread count is global to the process: set it around a
phase, never from inside concurrent workers. Without a loaded OpenBLAS (or
without /proc/self/maps) blas_threads does nothing. The module also gives
the cores the process may use, and the finiteness proof, from row sums
that numpy reduces itself, so it runs no BLAS.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError

_EPS = np.finfo(np.float64).eps

# (setter, getter) names, wheel-prefixed and ILP64-suffixed variants first.
_SYMBOLS = tuple(
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)
# (dpstrf, dtrtri, dtrmm) names in the same order; integers are 64-bit when
# the name ends in 64_.
_ROUTINE_NAMES = tuple(
    (f"{prefix}LAPACKE_dpstrf{suffix}", f"{prefix}LAPACKE_dtrtri{suffix}", f"{prefix}cblas_dtrmm{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
)
# LAPACK_COL_MAJOR / CblasColMajor, CblasLeft, CblasUpper, CblasTrans, CblasNonUnit
_COL_MAJOR, _LEFT, _UPPER, _TRANS, _NON_UNIT = 102, 141, 121, 112, 131


class Routines(NamedTuple):
    """The factor's and the null basis's routines, on float64 arrays:

    pstrf(a, tol) -> (factor, piv, rank): LAPACK dpstrf of a copy of a
        symmetric (n, n) a, lower triangle read; piv is 1-based.
    trtri(l) -> l^-1 of a lower-triangular (r, r) l, on a copy.
    trmm(u, b) -> u^T b for an upper-triangular (r, r) u and b (r, d),
        written into b when b is Fortran-ordered.
    """

    pstrf: Callable
    trtri: Callable
    trmm: Callable


def _loaded() -> list[ctypes.CDLL]:
    """Each OpenBLAS mapped into the process now, in path order."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6}
    libs = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            libs.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD))    # only if already loaded
        except OSError:
            continue
    return libs


def _square(name: str, matrix: np.ndarray, rows: int) -> None:
    # the routines read rows x rows values through the pointer
    if matrix.shape != (rows, rows):
        raise ValueError(f"{name} needs a square ({rows}, {rows}) matrix, got {matrix.shape}")


def _checked(name: str, info: int) -> None:
    if info < 0:    # LAPACKE reports a NaN entry as an invalid matrix argument
        raise NumericalError(f"{name} rejected argument {-info} (a non-finite entry?)")


def _bind(lib: ctypes.CDLL) -> Routines | None:
    """The library's routines through ctypes, or None if it lacks them."""
    for names in _ROUTINE_NAMES:
        if not all(hasattr(lib, name) for name in names):
            continue
        integer = np.int64 if names[0].endswith("64_") else np.int32
        c_int_t = np.ctypeslib.as_ctypes_type(integer)
        matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS,WRITEABLE")
        ints = np.ctypeslib.ndpointer(integer, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
        dpstrf, dtrtri, dtrmm = (getattr(lib, name) for name in names)
        dpstrf.argtypes = [ctypes.c_int, ctypes.c_char, c_int_t, matrix, c_int_t, ints, ints, ctypes.c_double]
        dpstrf.restype = c_int_t
        dtrtri.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, c_int_t, matrix, c_int_t]
        dtrtri.restype = c_int_t
        dtrmm.argtypes = [ctypes.c_int] * 5 + [c_int_t, c_int_t, ctypes.c_double, matrix, c_int_t, matrix, c_int_t]
        dtrmm.restype = None

        def pstrf(a, tol):
            a = np.array(a, dtype=np.float64, order="F")
            n = a.shape[0]
            _square("dpstrf", a, n)
            piv, rank = np.zeros(n, dtype=integer), np.zeros(1, dtype=integer)
            _checked("dpstrf", dpstrf(_COL_MAJOR, b"L", n, a, max(n, 1), piv, rank, tol))
            return a, piv, int(rank[0])

        def trtri(lower):
            lower = np.array(lower, dtype=np.float64, order="F")
            r = lower.shape[0]
            _square("dtrtri", lower, r)
            _checked("dtrtri", dtrtri(_COL_MAJOR, b"L", b"N", r, lower, max(r, 1)))
            return lower

        def trmm(upper, b):
            upper = np.asfortranarray(upper, dtype=np.float64)
            b = np.asfortranarray(b, dtype=np.float64)
            r, d = b.shape
            _square("dtrmm", upper, r)
            dtrmm(_COL_MAJOR, _LEFT, _UPPER, _TRANS, _NON_UNIT, r, d, 1.0, upper, max(r, 1), b, max(r, 1))
            return b

        return Routines(pstrf, trtri, trmm)
    return None


def _scipy_routines() -> Routines:
    from scipy.linalg.blas import dtrmm
    from scipy.linalg.lapack import dpstrf, dtrtri

    return Routines(
        pstrf=lambda a, tol: dpstrf(a, tol=tol, lower=1)[:3],
        trtri=lambda lower: dtrtri(lower, lower=1)[0],
        trmm=lambda upper, b: dtrmm(1.0, upper, b, trans_a=1, overwrite_b=1),
    )


@cache
def routines() -> Routines:
    """The first loaded OpenBLAS's routines; scipy's wrappers if none has them."""
    for lib in _loaded():
        found = _bind(lib)
        if found is not None:
            return found
    return _scipy_routines()


def _pivoted_cholesky(gram: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factor of a positive semidefinite (n, n) gram, stopped at tol: the
    pivot order (n,), the r factored columns L[:, :r] (n, r), lower
    triangular in their first r rows, and B = L[:r, :r]^-T (r, r)."""
    lapack = routines()
    factor, piv, rank = lapack.pstrf(gram, tol)
    rank = int(np.count_nonzero(np.diagonal(factor)[:rank] ** 2 > tol))
    factor = np.tril(factor[:, :rank])
    inv_t = lapack.trtri(factor[:rank]).T if rank else np.zeros((0, 0))
    return piv - 1, factor, inv_t


def pivot_basis(gram: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients P B (n, r) of the orthonormal basis on the n vectors whose
    Gram is gram, zero outside the r kept pivot rows, and the kept pivots
    L_jj^2 (r,); the factor is stopped at tol."""
    piv, factor, inv_t = _pivoted_cholesky(gram, tol)
    basis = np.zeros((len(gram), len(inv_t)))
    basis[piv[: len(inv_t)]] = inv_t
    return basis, np.square(np.diagonal(factor))


def span_coefficients(gram: np.ndarray, dim: int) -> np.ndarray:
    """Coefficients A (n, r) such that rows.T @ A is an orthonormal basis of
    the span of n rows of dimension dim, given their Gram rows @ rows.T; the
    factor is stopped at numpy's matrix_rank tolerance. Dependent and
    duplicate rows add no column; a (0, 0) Gram gives a (0, 0) array."""
    tol = max(len(gram), dim) * _EPS * float(np.diagonal(gram).max(initial=0.0))
    return pivot_basis(gram, tol)[0]


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances (m_a, m_b) from one GEMM, with both sets centred at
    b's first row; entries at or below the sum's rounding bound are exactly
    0. A set's distances to itself (a is b) take one centred copy and A A^T."""
    same = a is b
    centre = b[0] if len(b) else 0.0
    b = b - centre
    a = b if same else a - centre
    norm_b = np.einsum("ij,ij->i", b, b)
    norms = (norm_b if same else np.einsum("ij,ij->i", a, a))[:, None] + norm_b
    sq = a @ b.T
    sq *= -2.0
    sq += norms
    norms *= 2 * (a.shape[1] + 1) * _EPS
    sq[sq <= norms] = 0.0
    return sq


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances (m_a, m_b): the square roots of _squared_distances."""
    sq = _squared_distances(a, b)
    return np.sqrt(sq, out=sq)


@cache
def _controls() -> tuple[tuple, ...]:
    """(setter, getter) of each loaded OpenBLAS, in path order."""
    routines()          # the scipy fallback maps its OpenBLAS before the scan
    found = []
    for lib in _loaded():
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((setter, getter))
                break
    return tuple(found)


@contextmanager
def blas_threads(count: int):
    """Run the block with every loaded OpenBLAS at `count` threads; the
    previous counts come back on exit, also when the block raises."""
    controls = _controls()
    previous = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(count)
    try:
        yield
    finally:
        for (setter, _), old in zip(controls, previous):
            setter(old)


def usable_cores() -> int:
    """The cores this process may run on: its affinity set where the
    platform reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def all_finite(values: np.ndarray) -> bool:
    """Whether every value of a 1-D or 2-D float64 array is finite.

    Its row sums prove it: a NaN or an inf makes its row's sum NaN or inf.
    A non-finite sum, which finite rows whose sum overflows also give, falls
    back to the elementwise check. The sums are numpy's own reduction, not a
    BLAS product, so no proof wakes the OpenBLAS thread pool, whose workers
    spin on after a call, and none needs blas_threads.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = values.sum(axis=-1)
    return bool(np.isfinite(sums).all()) or bool(np.isfinite(values).all())
