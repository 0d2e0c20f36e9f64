"""Every module of the package, and every test module, uses each name it
imports."""
import ast
import pathlib

import pytest

import hatcc

MODULES = sorted(p for p in pathlib.Path(hatcc.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # its imports are the exports
MODULES += sorted(pathlib.Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names imported in ``source`` and never read.  An import statement
    with ``# noqa`` on any of its lines is exempt, as are ``__future__``
    imports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = \
                node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import (Optional,  # noqa: F401\n"
              "                    Sequence)\n"
              "from math import pi\n"
              "print(sys.argv, pi)\n")
    assert unused_imports(source) == ["os (line 2)"]
