"""Source checks that need no linter: every module-level import is used,
every private top-level name is read somewhere in the package, every
name a module exports is defined in it, and every cache that lives as long
as the process is on a list."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Sequence

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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level functions, classes and constants of the modules
    ``sources`` (module name to source) that the package never reads.

    A name counts as read where it appears as an identifier or an attribute
    outside the statement that defines it (a recursive call does not
    count), or where another module imports it by name.
    """
    defined: list[tuple[str, int, str]] = []
    read: set[tuple[str, str]] = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = []
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.ImportFrom) and stmt.module and stmt.level:
                origin = stmt.module.rpartition(".")[2]
                read |= {(origin, alias.name) for alias in stmt.names}
            defined += [(module, stmt.lineno, name) for name in names if _private(name)]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id not in names:
                    read.add((module, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    read.add((node.value.id, node.attr))
    return [f"{module} line {line}: {name}" for module, line, name in defined
            if (module, name) not in read]


def test_unread_private_names_are_found():
    sources = {
        "autos": (
            "_CAP = 3\n"
            "_unused = {}\n"
            "def _kept(x):\n"
            "    return x + _CAP\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Exported:\n"
            "    pass\n"
            "def _via_module():\n"
            "    pass\n"
            "def run():\n"
            "    return _kept(1)\n"
        ),
        "families": (
            "from . import autos\n"
            "from .autos import _Exported\n"
            "def _leftover():\n"
            "    return _Exported(), autos._via_module()\n"
        ),
    }
    assert unread_private_names(sources) == [
        "autos line 2: _unused",
        "autos line 5: _recursive",
        "families line 3: _leftover",
    ]


def test_every_private_name_is_read():
    assert unread_private_names({path.stem: path.read_text() for path in SOURCES}) == []


def undefined_exports(source: str) -> list[str]:
    """The names in a module's ``__all__`` that no top-level statement of
    the module binds (a definition, an assignment or an import)."""
    bound: set[str] = set()
    exported: list[str] = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in stmt.names}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = [e.value for e in ast.walk(stmt.value) if isinstance(e, ast.Constant)]
    return [name for name in exported if name not in bound]


def test_undefined_exports_are_found():
    source = (
        "import os\n"
        "from .errors import BudgetExceededError as Budget\n"
        "__all__ = ['os', 'Budget', 'CAP', 'OLD_CAP', 'Kept', 'run', 'gone']\n"
        "CAP: int = 3\n"
        "class Kept:\n"
        "    OLD_CAP = 4\n"
        "def run():\n"
        "    gone = 1\n"
    )
    assert undefined_exports(source) == ["OLD_CAP", "gone"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_export_is_defined(path):
    assert undefined_exports(path.read_text()) == []


# Every cache that outlives a call; a new one must be added here.
PROCESS_WIDE_CACHES = {
    "families.all_graphs",
    "families.connected_graphs",
    "families.all_trees",
    "oracles._worker_search",
    "cli._source_digest",
}


def _called_name(node: ast.expr) -> str | None:
    """The last name of ``f``, ``m.f`` or a call of either."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def process_wide_caches(sources: dict[str, str]) -> list[str]:
    """The caches of the modules ``sources`` (module name to source) that
    live as long as the process: every function decorated with
    ``lru_cache`` or ``cache``, and every module-level name bound to an
    ``OrderedDict(...)``.  A per-object ``cached_property`` is not one."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _called_name(d) in ("lru_cache", "cache") for d in node.decorator_list
            ):
                found.append(f"{module}.{node.name}")
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            if isinstance(stmt.value, ast.Call) and _called_name(stmt.value) == "OrderedDict":
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                found += [f"{module}.{t.id}" for t in targets if isinstance(t, ast.Name)]
    return sorted(found)


def test_process_wide_caches_are_found():
    source = (
        "import collections, functools\n"
        "from functools import cache, cached_property, lru_cache\n"
        "_table = collections.OrderedDict()\n"
        "_typed: collections.OrderedDict[int, int] = collections.OrderedDict()\n"
        "_plain = {}\n"
        "@functools.lru_cache(maxsize=1)\n"
        "def a(): pass\n"
        "@lru_cache\n"
        "def b(): pass\n"
        "@cache\n"
        "def c(): pass\n"
        "@functools.cache\n"
        "def d(): pass\n"
        "class K:\n"
        "    @cached_property\n"
        "    def e(self): pass\n"
        "def f():\n"
        "    local = collections.OrderedDict()\n"
    )
    assert process_wide_caches({"m": source}) == [
        "m._table", "m._typed", "m.a", "m.b", "m.c", "m.d",
    ]


def test_process_wide_caches_are_listed():
    found = process_wide_caches({path.stem: path.read_text() for path in SOURCES})
    assert [name for name in found if name not in PROCESS_WIDE_CACHES] == []


def test_constructive_imports_nothing_from_oracles():
    # Every construction builds its coloring by rule; the exact oracles are
    # ground truth, not a step of any construction.
    source = next(p for p in SOURCES if p.stem == "constructive").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module or ''}.{alias.name}" for alias in node.names}
    assert [name for name in imported if "oracles" in name.split(".")] == []


def test_cli_asks_an_oracle_only_in_the_oracle_command():
    # `construct` and `sweep` build their colorings by rule; only `oracle`
    # searches.
    tree = ast.parse(next(p for p in SOURCES if p.stem == "cli").read_text())
    imports = [stmt for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))]
    from_oracles = [
        alias.name
        for stmt in imports
        for alias in stmt.names
        if "oracles" in (getattr(stmt, "module", None) or alias.name).split(".")
    ]
    assert sorted(from_oracles) == ["PARAM_KINDS", "exact_parameter"]
    readers = {
        getattr(stmt, "name", f"line {stmt.lineno}")
        for stmt in tree.body
        if stmt not in imports
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and node.id == "exact_parameter"
    }
    assert readers == {"_cmd_oracle"}
    assert "_oracle_witness" not in {getattr(stmt, "name", None) for stmt in tree.body}


def kind_name_tests(source: str, kinds: Sequence[str]) -> list[str]:
    """Where ``source`` tests a parameter kind's name: each comparison with
    a name or attribute called ``kind``, or with a string of ``kinds``, as
    "function: comparison"; and each other string of ``kinds``, as
    "function: 'string'".  The keys of the module-level ``_KINDS`` table
    are its declaration, not a test."""
    tree = ast.parse(source)
    declared = {
        id(key)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == ["_KINDS"]
        and isinstance(stmt.value, ast.Dict)
        for key in stmt.value.keys
    }

    def is_kind(node: ast.expr) -> bool:
        return (isinstance(node, ast.Name) and node.id == "kind"
                or isinstance(node, ast.Attribute) and node.attr == "kind")

    found: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(is_kind(x) for x in operands) or any(
                    isinstance(c, ast.Constant) and c.value in kinds
                    for x in operands for c in ast.walk(x)):
                found.append(f"{where or 'module'}: {ast.unparse(node)}")
                return
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in kinds and id(node) not in declared):
            found.append(f"{where or 'module'}: {node.value!r}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_kind_name_tests_are_found():
    source = (
        "_KINDS = {'A': 1, 'B': 2}\n"
        "_PLAIN = frozenset({'A'})\n"
        "class S:\n"
        "    def __init__(self, kind):\n"
        "        self.kind = kind\n"
        "        if kind == 'A' or kind in _KINDS:\n"
        "            pass\n"
        "    def run(self):\n"
        "        return self.kind != 'B', f'{self.kind}: A'\n"
        "def f(name):\n"
        "    return name in ('A', 'C')\n"
    )
    assert kind_name_tests(source, ("A", "B")) == [
        "module: 'A'",
        "S.__init__: kind == 'A'",
        "S.__init__: kind in _KINDS",
        "S.run: self.kind != 'B'",
        "f: name in ('A', 'C')",
    ]


def test_oracles_test_a_kind_name_only_where_the_table_cannot_say():
    # Each kind is declared once, in oracles._KINDS: what it colors and the
    # rules it keeps.  Only Dp's not-applicable rule, chitd's partition
    # witness and the unknown-kind error still read the name.
    from symcol.oracles import PARAM_KINDS

    source = next(p for p in SOURCES if p.stem == "oracles").read_text()
    assert kind_name_tests(source, PARAM_KINDS) == [
        "_Search.__init__: kind == 'Dp'",
        "_witness_from: kind == 'chitd'",
        "_solve: kind not in _KINDS",
    ]
