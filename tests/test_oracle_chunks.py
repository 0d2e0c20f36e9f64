import numpy as np
import pytest

from conftest import random_graph
from hatcc import oracle
from hatcc.factor_graph import FactorDecl, FactorGraph, VariableDecl


def _with_semiring(g, semiring):
    factors = g.factors
    if semiring == "boolean":
        factors = tuple(FactorDecl(f.id, f.scope, (f.table > 0.5) * 1.0)
                        for f in factors)
    return FactorGraph(semiring, g.variables, factors)


@pytest.mark.parametrize("semiring", ["sum_product", "max_product",
                                      "min_sum", "boolean"])
def test_small_chunks_match_one_chunk(monkeypatch, semiring):
    """Folding across chunk boundaries keeps Z, marginals and the first
    best assignment."""
    for seed in range(6):
        g = _with_semiring(random_graph(seed, n=5, m=5), semiring)
        whole = oracle.exact_map(g)
        if semiring == "sum_product":
            marg = oracle.exact_marginals(g)
        monkeypatch.setattr(oracle, "CHUNK", 7)
        assert oracle.exact_map(g) == whole
        if semiring == "sum_product":
            chunked = oracle.exact_marginals(g)
            assert chunked.Z == pytest.approx(marg.Z, rel=1e-12)
            for a, b in zip(chunked.marginals, marg.marginals):
                np.testing.assert_allclose(a, b, rtol=1e-12)
        monkeypatch.undo()


def test_tie_across_chunks_goes_to_first_state(monkeypatch):
    g = FactorGraph("max_product", tuple(VariableDecl(i, 2)
                                         for i in range(4)),
                    (FactorDecl(0, (0, 3), [1.0, 2.0, 1.0, 2.0]),))
    monkeypatch.setattr(oracle, "CHUNK", 3)
    res = oracle.exact_map(g)
    assert res.assignment == (0, 0, 0, 1)
    assert res.weight == 2.0


def test_no_variables_weighs_empty_scope_factors():
    g = FactorGraph("sum_product", (), (FactorDecl(0, (), [3.0]),
                                        FactorDecl(1, (), [0.5])))
    assert oracle.exact_marginals(g).Z == 1.5
    assert oracle.exact_map(g) == oracle.OracleMap((), 1.5)
