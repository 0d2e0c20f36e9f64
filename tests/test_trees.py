"""The exact tree path under min-sum and max-product, against enumeration,
and the cost of calibration."""
import dataclasses

import numpy as np

from helpers import brute_force
from hatcc import bp_engine as bp
from hatcc.compile import hatcc_infer
from hatcc.factor_graph import SEMIRINGS, FactorDecl, FactorGraph, VariableDecl
from hatcc.oracle import exact_map
from hatcc.trees import calibrate


def chain(seed: int, n: int, semiring: str) -> FactorGraph:
    """Path of random pairwise factors over ternary variables; energies
    are the negative logs of the weights under min-sum."""
    r = np.random.default_rng(seed)
    tables = [r.uniform(0.1, 3.0, 9) for _ in range(n - 1)]
    if semiring == "min_sum":
        tables = [-np.log(t) for t in tables]
    return FactorGraph(semiring, tuple(VariableDecl(i, 3) for i in range(n)),
                       tuple(FactorDecl(i, (i, i + 1), t)
                             for i, t in enumerate(tables)))


def check_tree_path(graph: FactorGraph):
    res = hatcc_infer(graph)
    assert res.status == "ok"
    Z, marg = brute_force(graph)
    np.testing.assert_allclose(res.Z, exact_map(graph).weight, rtol=1e-12)
    np.testing.assert_allclose(res.Z, Z, rtol=1e-12)
    for got, want in zip(res.marginals, marg):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_min_sum_pair_is_minimum_energy():
    g = FactorGraph("min_sum", (VariableDecl(0, 2), VariableDecl(1, 2)),
                    (FactorDecl(0, (0, 1), [0.5, 1.0, 2.0, 3.0]),))
    res = hatcc_infer(g)
    assert res.Z == 0.5 == exact_map(g).weight
    np.testing.assert_array_equal(res.marginals[0], [0.0, 1.5])
    np.testing.assert_array_equal(res.marginals[1], [0.0, 0.5])


def test_min_sum_all_infinite_table_is_unsat():
    g = FactorGraph("min_sum", (VariableDecl(0, 2), VariableDecl(1, 2)),
                    (FactorDecl(0, (0, 1), [np.inf] * 4),))
    res = hatcc_infer(g)
    assert res.status == "unsat"
    assert res.Z == np.inf
    _bel, _Z, degenerate = bp.run_tree_exact(g)
    assert degenerate == [0, 1]


def test_chains_match_enumeration():
    for semiring in ("min_sum", "max_product"):
        for seed, n in enumerate((2, 3, 5, 7)):
            check_tree_path(chain(seed, n, semiring))


def test_two_component_forest_matches_enumeration():
    # variable 2 is touched by no factor; factor 2 has an empty scope
    for semiring, const in (("min_sum", 1.25), ("max_product", 0.75)):
        g = FactorGraph(semiring,
                        (VariableDecl(0, 2), VariableDecl(1, 3),
                         VariableDecl(2, 2)),
                        (FactorDecl(0, (0, 1), [0.5, 1.0, 2.0, 3.0, 0.2, 1.5]),
                         FactorDecl(1, (1,), [0.3, 2.0, 1.0]),
                         FactorDecl(2, (), [const])))
        check_tree_path(g)


def test_calibrate_multiplies_linear_in_cluster_degree():
    # a hub cluster joined to d leaves, all over one binary variable: every
    # belief is the product of all d + 1 tables
    def multiplies(d):
        calls = 0

        def mul(a, b):
            nonlocal calls
            calls += 1
            return np.multiply(a, b)

        sr = dataclasses.replace(SEMIRINGS["sum_product"], mul=mul)
        tables = list(np.random.default_rng(d).uniform(0.5, 2.0, (d + 1, 2)))
        beliefs, Z = calibrate(sr, [(0,)] * (d + 1), tables,
                               [(0, i, (0,)) for i in range(1, d + 1)])
        for b in beliefs:
            np.testing.assert_allclose(b, np.prod(tables, axis=0),
                                       rtol=1e-12)
        np.testing.assert_allclose(Z, np.prod(tables, axis=0).sum(),
                                   rtol=1e-12)
        return calls

    counts = [multiplies(d) for d in (100, 200, 400)]
    # O(d) doubles with d; the O(d^2) gather quadrupled
    for small, big in zip(counts, counts[1:]):
        assert big < 2.5 * small, counts
