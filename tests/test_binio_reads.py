"""Binary containers are read in one idiom, owned by _binio: positioned
reads on a file descriptor. No other module calls os.pread or os.preadv,
and no module reads through a stream cursor (seek, readinto)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nullmargin"

POSITIONED = {"pread", "preadv"}
CURSOR = {"seek", "readinto"}


def read_calls(source: str, owner: bool = False) -> list[str]:
    """Names of the forbidden read calls in a module's source: positioned
    reads unless the module is the owner, and stream-cursor reads always."""
    forbidden = CURSOR if owner else CURSOR | POSITIONED
    return sorted(
        node.func.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in forbidden
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_binio_reads_binary_files(path):
    assert read_calls(path.read_text(encoding="utf-8"), owner=path.stem == "_binio") == [], path.name


def test_guard_sees_each_read_call():
    source = "os.pread(fd, 4, 0)\nos.preadv(fd, [b], 0)\nf.seek(0)\nf.readinto(b)\n"
    assert read_calls(source) == ["pread", "preadv", "readinto", "seek"]
    assert read_calls(source, owner=True) == ["readinto", "seek"]
