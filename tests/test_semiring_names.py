"""No module of the package branches on a semiring's name: a semiring is
its operations, so code reads ``add``, ``mul``, ``div``, ``zero``,
``one`` and ``forbidden`` instead of comparing ``.name``."""
import ast
import pathlib

import pytest

import hatcc

SOURCES = sorted(pathlib.Path(hatcc.__file__).parent.glob("*.py"))


def name_comparisons(source: str) -> list[str]:
    """The line of each comparison in ``source`` with a ``.name``
    attribute among its operands."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(isinstance(o, ast.Attribute) and o.attr == "name"
                    for o in (node.left, *node.comparators))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_comparison_on_a_name(path):
    assert name_comparisons(path.read_text()) == []


def test_finds_a_name_comparison():
    source = ('if sr.name == "boolean":\n'
              '    pass\n'
              'ok = graph.semiring != "sum_product"\n'
              'x = "min_sum" in (sr.name,) or f(sr.name)\n'
              'y = "max_product" != ops.name\n')
    assert name_comparisons(source) == ["line 1", "line 5"]
