"""Source checks that need no linter: every module-level import is used."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "symcol").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that top-level imports bind and the module never reads.

    A name counts as read where it appears as an identifier (an attribute
    chain ``a.b`` reads ``a``) or in ``__all__``.  ``from __future__``
    imports bind nothing.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    unread = sorted((line, name) for name, line in bound.items() if name not in read)
    return [f"line {line}: {name}" for line, name in unread]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import json as j\n"
        "from typing import Iterable, Sequence\n"
        "from .graphs import Graph, parse_graph6, encode_graph6\n"
        "__all__ = ['parse_graph6']\n"
        "def f(x: Iterable) -> Graph:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["line 3: j", "line 4: Sequence", "line 5: encode_graph6"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
