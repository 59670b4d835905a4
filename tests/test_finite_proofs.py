"""Finiteness is proven in one idiom, owned by _blas: all_finite, from row
sums numpy reduces itself. No other module calls isfinite."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nullmargin"


def isfinite_calls(source: str) -> int:
    """Calls of isfinite in a module's source, as np.isfinite or by name."""
    return sum(
        isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute) and node.func.attr == "isfinite"
            or isinstance(node.func, ast.Name) and node.func.id == "isfinite"
        )
        for node in ast.walk(ast.parse(source))
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_blas_calls_isfinite(path):
    if path.stem != "_blas":
        assert isfinite_calls(path.read_text(encoding="utf-8")) == 0, path.name


def test_guard_sees_each_isfinite_call():
    source = "np.isfinite(a)\nnumpy.isfinite(a).all()\nisfinite(a)\nall_finite(a)\n"
    assert isfinite_calls(source) == 3
