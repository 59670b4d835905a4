"""The process's OpenBLAS thread count, set for the length of a phase.

The OpenBLAS libraries already loaded into the process (numpy's and scipy's
wheels each bring their own) are found on first use from the process's
memory map and driven through their thread setters with ctypes, the way
threadpoolctl does. The count is global to the process: set it around a
phase, never from inside concurrent workers. Without a loaded OpenBLAS (or
without /proc/self/maps) the helper does nothing.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import cache

# (setter, getter) names, wheel-prefixed and ILP64-suffixed variants first.
_SYMBOLS = tuple(
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


@cache
def _controls() -> tuple[tuple, ...]:
    """(setter, getter) of each loaded OpenBLAS, in path order."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return ()
    paths = {f[5].strip() for f in fields if len(f) == 6}
    found = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)    # only if already loaded
        except OSError:
            continue
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
