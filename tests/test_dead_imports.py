"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nullmargin"

# Imported only so the benchmark's tracer can patch it by module and name; it
# goes with the tracer's entry for it (ROADMAP item 1).
ALLOWED = {("selftrain", "concat_tables")}


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module never reads and does not
    list in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(name for name in imported if name not in used | exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert [n for n in unused if (path.stem, n) not in ALLOWED] == [], path.name


def test_allowed_entries_are_still_unused_imports():
    # An entry whose import was dropped, or is now read, must leave ALLOWED.
    stale = [
        (module, name) for module, name in sorted(ALLOWED)
        if name not in unused_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
    ]
    assert stale == []


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
