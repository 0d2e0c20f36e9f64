"""Every module of the package, and every test module, uses each name it
imports."""
import ast
import pathlib

import pytest

import hatcc

SOURCES = sorted(p for p in pathlib.Path(hatcc.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # its imports are the exports
MODULES = SOURCES + sorted(pathlib.Path(__file__).parent.glob("*.py"))
TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


def imports(source: str) -> tuple[dict[str, tuple[int, bool]], set[str]]:
    """Each name imported in ``source``, bar ``__future__`` imports, with
    its line and whether its import statement has ``# noqa`` on any of
    its lines; and the set of names read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        noqa = any("# noqa" in line
                   for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = \
                (node.lineno, noqa)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported, used


def unused_imports(source: str) -> list[str]:
    """Names imported in ``source`` and never read.  An import statement
    with ``# noqa`` on any of its lines is exempt, as are ``__future__``
    imports."""
    imported, used = imports(source)
    return [f"{name} (line {line})"
            for name, (line, noqa) in imported.items()
            if not noqa and name not in used]


def stale_noqa(source: str, sites: set[str]) -> list[str]:
    """Names imported in ``source`` on a ``# noqa`` import statement,
    never read, and not among ``sites``: the names kept only so that a
    tracer can wrap them there."""
    imported, used = imports(source)
    return [f"{name} (line {line})"
            for name, (line, noqa) in imported.items()
            if noqa and name not in used and name not in sites]


def tracer_sites(source: str) -> dict[str, set[str]]:
    """Module name -> the names that the ``TARGETS`` table of the tracer
    in ``source`` wraps in that module (a ``"module:Class.attr"`` site
    names the class)."""
    table = next(node.value for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["TARGETS"])
    sites: dict[str, set[str]] = {}
    for value in table.values:
        for site in ast.literal_eval(value.elts[0]):
            module, _, path = site.partition(":")
            sites.setdefault(module, set()).add(path.split(".")[0])
    return sites


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_noqa_imports_name_tracer_sites(path):
    sites = tracer_sites(TRACER.read_text()).get(path.stem, set())
    assert stale_noqa(path.read_text(), sites) == []


def test_finds_an_unused_import_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import (Optional,  # noqa: F401\n"
              "                    Sequence)\n"
              "from math import pi\n"
              "print(sys.argv, pi)\n")
    assert unused_imports(source) == ["os (line 2)"]


def test_finds_a_stale_noqa_import():
    source = ("from .nerve import (fundamental_cycle,  # noqa: F401\n"
              "                    tree_path)\n"
              "from .trees import bfs  # noqa: F401\n"
              "from .holonomy import compose  # noqa: F401\n"
              "print(bfs)\n")
    assert stale_noqa(source, {"fundamental_cycle"}) == [
        "tree_path (line 1)", "compose (line 4)"]
    tracer = ('TARGETS = {\n'
              '    "a.f": (["holonomy:f", "nerve:f"], None),\n'
              '    "a.C.m": (["nerve:C.m"], _note),\n'
              '}\n')
    assert tracer_sites(tracer) == {"holonomy": {"f"}, "nerve": {"f", "C"}}
