import numpy as np
import pytest

from hatcc.factor_graph import FactorDecl, FactorGraph, VariableDecl
from hatcc.generators import gen_permutation_graph, gen_zk_sync
from hatcc.holonomy import compose, transport_kernel
from hatcc.metrics import mean_tv
from hatcc.oracle import exact_marginals
from hatcc.sectors import (base_generators, decompose, orbit_partition,
                           sector_infer, sector_report_json, variable_tree)
from hatcc.trees import tree_path


def chain(n=4, seed=0):
    r = np.random.default_rng(seed)
    variables = tuple(VariableDecl(i, 2) for i in range(n))
    factors = tuple(FactorDecl(i, (i, i + 1), r.uniform(0.1, 2, 4))
                    for i in range(n - 1))
    return FactorGraph("sum_product", variables, factors)


def edge_walk_generators(graph, tree, tol):
    """Reference generators, one edge kernel at a time: the tree path
    base -> i, the off-tree factor i -> j, then the tree path j -> base."""
    def up(v):
        return None if tree.parent[v] is None else tree.parent[v][0]

    def step(fid, a, b):
        return transport_kernel(graph, fid, (a,), (b,), tol).matrix

    def path(src, dst):
        nodes = tree_path(up, src, dst)
        M = np.eye(graph.cardinality(src), dtype=bool)
        for a, b in zip(nodes, nodes[1:]):
            fid = tree.parent[a][1] if up(a) == b else tree.parent[b][1]
            M = compose(M, step(fid, a, b))
        return M

    gens = []
    for fid in tree.offtree_factors:
        i, j = graph.factors[fid].scope
        gens.append(compose(compose(path(tree.base, i), step(fid, i, j)),
                            path(j, tree.base)))
    return gens


class TestVariableTree:
    def test_chain_has_no_offtree_factors(self):
        tree = variable_tree(chain(), 0)
        assert tree.offtree_factors == ()
        assert set(tree.tree_factors) == {0, 1, 2}

    def test_cycle_has_one_offtree_factor(self):
        inst = gen_zk_sync("cycle", 2, 0.1, 0.0, 0, n=5)
        tree = variable_tree(inst.graph, 0)
        assert len(tree.offtree_factors) == 1

    def test_tree_factors_pinned(self):
        cases = [
            (("random", 3, 0.1, 1.0, 1), dict(n=8),
             (0, 1, 2, 3, 4, 5, 6), (0, 1, 3, 6, 8, 9, 10)),
            (("grid", 2, 0.1, 1.0, 2), dict(rows=3, cols=4),
             (0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 13),
             (0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 13)),
            (("random", 3, 0.2, 0.5, 7), dict(n=10, p=0.4),
             (0, 1, 2, 3, 4, 5, 6, 8, 15), (1, 7, 8, 9, 10, 11, 12, 14, 15)),
        ]
        for args, kwargs, from_0, from_3 in cases:
            g = gen_zk_sync(*args, **kwargs).graph
            assert variable_tree(g, 0).tree_factors == from_0
            assert variable_tree(g, 3).tree_factors == from_3

    def test_higher_arity_rejected(self):
        g = FactorGraph("sum_product",
                        tuple(VariableDecl(i, 2) for i in range(3)),
                        (FactorDecl(0, (0, 1, 2), [1.0] * 8),))
        with pytest.raises(ValueError, match="arity"):
            variable_tree(g, 0)

    def test_disconnected_rejected(self):
        g = FactorGraph("sum_product",
                        tuple(VariableDecl(i, 2) for i in range(4)),
                        (FactorDecl(0, (0, 1), [1.0] * 4),
                         FactorDecl(1, (2, 3), [1.0] * 4)))
        with pytest.raises(ValueError, match="connected"):
            variable_tree(g, 0)


class TestGenerators:
    def test_tree_model_no_generators(self):
        _tree, gens = base_generators(chain(), 0)
        assert gens == []

    def test_corrupted_binary_triangle_swap_generator(self):
        inst = gen_zk_sync("cycle", 2, 0.1, 1.0, 0, n=3)
        assert len(inst.corrupted) == 1
        dec = decompose(inst.graph, tol=0.05)
        assert len(dec.generators) == 1
        np.testing.assert_array_equal(dec.generators[0],
                                      [[False, True], [True, False]])
        assert dec.orbits == ((0, 1),)

    def test_clean_binary_triangle_identity_generator(self):
        inst = gen_zk_sync("cycle", 2, 0.1, 0.0, 0, n=3)
        dec = decompose(inst.graph, tol=0.05)
        np.testing.assert_array_equal(dec.generators[0], np.eye(2))
        assert dec.orbits == ((0,), (1,))

    def test_loop_transport_matches_edge_walk(self):
        instances = [("cycle", dict(n=7)), ("random", dict(n=8, p=0.4)),
                     ("grid", dict(rows=3, cols=3))]
        nontrivial = 0
        for topology, kwargs in instances:
            for k in (2, 3):
                for tol in (0.0, 0.05):
                    for seed in range(5):
                        g = gen_zk_sync(topology, k, 0.01, 0.5, seed,
                                        **kwargs).graph
                        tree, gens = base_generators(g, tol=tol)
                        want = edge_walk_generators(g, tree, tol)
                        assert len(gens) == len(want)
                        for got, ref in zip(gens, want):
                            np.testing.assert_array_equal(got, ref)
                            nontrivial += not np.array_equal(
                                got, np.eye(k, dtype=bool))
        assert nontrivial > 0

    def test_consistent_permutation_cycle_identity(self):
        inst = gen_permutation_graph("cycle", 3, 0.0, 5, consistent=True,
                                     n=6)
        dec = decompose(inst.graph)
        for g in dec.generators:
            np.testing.assert_array_equal(g, np.eye(3, dtype=bool))


class TestOrbitPartition:
    def test_swap_single_orbit(self):
        swap = np.array([[0, 1], [1, 0]], dtype=bool)
        assert orbit_partition([swap], 2) == ((0, 1),)

    def test_no_generators_singletons(self):
        assert orbit_partition([], 3) == ((0,), (1,), (2,))

    def test_three_cycle_shift_one_orbit(self):
        shift = np.roll(np.eye(3, dtype=bool), 1, axis=1)
        assert orbit_partition([shift], 3) == ((0, 1, 2),)



class TestSectorInfer:
    def test_tree_decomposition_exact(self):
        g = chain(5, seed=2)
        res = sector_infer(g, mode="decomposition")
        truth = exact_marginals(g)
        assert mean_tv(res.marginals, truth.marginals) < 1e-12
        assert sum(res.weights) == pytest.approx(1.0, abs=1e-12)

    def test_clean_cycles_sector_bp_exact(self):
        for seed in range(10):
            inst = gen_zk_sync("cycle", 2, 0.2, 0.0, seed, n=6)
            res = sector_infer(inst.graph, tol=0.1, mode="sector_bp")
            truth = exact_marginals(inst.graph)
            assert mean_tv(res.marginals, truth.marginals) < 1e-8
            assert sum(res.weights) == pytest.approx(1.0, abs=1e-12)
            assert not res.unsat

    def test_weights_normalized_and_nonnegative(self):
        inst = gen_zk_sync("cycle", 3, 0.2, 0.5, 1, n=5)
        res = sector_infer(inst.graph, tol=0.1)
        assert all(w >= 0 for w in res.weights)
        assert sum(res.weights) == pytest.approx(1.0, abs=1e-12)
        for m in res.marginals:
            assert m.sum() == pytest.approx(1.0, abs=1e-9)

    def test_orbit_size_multiset_base_independent(self):
        inst = gen_zk_sync("cycle", 2, 0.1, 1.0, 2, n=5)
        sizes = []
        for base in range(5):
            dec = decompose(inst.graph, base=base, tol=0.05)
            sizes.append(sorted(len(o) for o in dec.orbits))
        assert all(s == sizes[0] for s in sizes)

    def test_all_zero_evidence_unsat_uniform(self):
        g = FactorGraph("sum_product",
                        (VariableDecl(0, 2), VariableDecl(1, 2)),
                        (FactorDecl(0, (0, 1), [0.0] * 4),))
        res = sector_infer(g)
        assert res.unsat
        assert res.weights == (0.0,) * len(res.weights)
        for m in res.marginals:
            np.testing.assert_allclose(m, [0.5, 0.5])

    def test_non_sum_product_rejected(self):
        g = FactorGraph("max_product",
                        (VariableDecl(0, 2), VariableDecl(1, 2)),
                        (FactorDecl(0, (0, 1), [1.0] * 4),))
        with pytest.raises(ValueError, match="sum_product"):
            sector_infer(g)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            sector_infer(chain(), mode="exactly")


def test_report_counts_nontrivial_generators():
    inst = gen_zk_sync("cycle", 2, 0.1, 1.0, 0, n=3)
    res = sector_infer(inst.graph, tol=0.05)
    rep = sector_report_json(res)
    assert rep["n_generators"] == 1
    assert rep["n_nontrivial_generators"] == 1
    assert rep["orbit_sizes"] == [2]
    assert rep["weights"] == pytest.approx(list(res.weights))
