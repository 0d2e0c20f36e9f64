import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatcc import bp_engine, compile as compile_mod
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
        return transport_kernel(graph, [(fid, (a,), (b,))], tol)[0]

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

    def test_base_out_of_range_rejected(self):
        g = gen_zk_sync("cycle", 2, 0.1, 0.0, 0, n=5).graph
        for base in (-1, 5):
            with pytest.raises(ValueError, match=f"base {base} is not"):
                decompose(g, base=base)
        with pytest.raises(ValueError, match="requires a variable"):
            decompose(FactorGraph("sum_product", (), ()))

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


def test_one_hatcc_infer_per_call(monkeypatch):
    calls = []
    real = compile_mod.hatcc_infer

    def counted(graph, *args, **kwargs):
        calls.append((graph, args, kwargs))
        return real(graph, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("sector_infer must not call bp_engine")

    monkeypatch.setattr(compile_mod, "hatcc_infer", counted)
    monkeypatch.setattr(bp_engine, "run", forbidden)
    monkeypatch.setattr(bp_engine, "run_tree_exact", forbidden)
    inst = gen_zk_sync("cycle", 3, 0.1, 0.0, 0, n=5)
    res = sector_infer(inst.graph, tol=0.05)
    assert len(res.decomposition.orbits) == 3
    assert calls == [(inst.graph, (), {})]


def test_capped_orbit_solve_sets_status(monkeypatch):
    # a capped solve's Z is NaN; it must not read as a zero evidence
    real = compile_mod.hatcc_infer
    monkeypatch.setattr(compile_mod, "hatcc_infer",
                        lambda graph: real(graph, cap=1))
    inst = gen_zk_sync("cycle", 2, 0.1, 0.0, 0, n=5)
    res = sector_infer(inst.graph, tol=0.05)
    assert res.status == "cap_exceeded" and not res.unsat
    assert all(np.isnan(z) for z in res.evidences)
    assert res.weights == (0.0,) * len(res.evidences)
    for m in res.marginals:
        np.testing.assert_allclose(m, [0.5, 0.5])
    rep = sector_report_json(res)
    assert rep["evidences"] == [None] * len(res.evidences)
    json.dumps(rep, allow_nan=False)


def clamped(graph, base, orbit):
    """The model times an indicator of the base lying in the orbit."""
    clamp = np.zeros(graph.cardinality(base))
    clamp[list(orbit)] = 1.0
    return FactorGraph(graph.semiring, graph.variables, graph.factors + (
        FactorDecl(len(graph.factors), (base,), clamp),))


@st.composite
def zk_with_fields(draw):
    """Corrupted Z_k sync on cycles and random graphs, with unary fields
    on some variables, a few of whose entries are hard zeros."""
    k = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2 ** 20))
    g = gen_zk_sync(draw(st.sampled_from(("cycle", "random"))), k,
                    draw(st.sampled_from((0.01, 0.1, 0.3))),
                    draw(st.sampled_from((0.0, 0.5, 1.0))), seed,
                    n=draw(st.integers(3, 9 if k == 2 else 6)), p=0.5).graph
    rng = np.random.default_rng(seed)
    p_field = draw(st.sampled_from((0.0, 0.5, 1.0)))
    p_zero = draw(st.sampled_from((0.0, 0.3)))
    fields = []
    for v in g.variables:
        if rng.random() < p_field:
            table = rng.uniform(0.1, 2.0, k) * (rng.random(k) >= p_zero)
            fields.append(FactorDecl(len(g.factors) + len(fields), (v.id,),
                                     table))
    return FactorGraph(g.semiring, g.variables, g.factors + tuple(fields))


@given(zk_with_fields(), st.sampled_from((0.0, 0.05)))
@settings(max_examples=150, deadline=None)
def test_sectors_match_oracle(g, tol):
    """status "ok" => the recombined marginals and every orbit's evidence
    are exact against the oracle, and the weights sum to one; an
    all-zero model is "unsat"."""
    res = sector_infer(g, tol=tol)
    truth = exact_marginals(g)
    assert res.status in ("ok", "unsat")
    if res.status == "unsat":
        assert truth.Z == 0.0
    else:
        for got, want in zip(res.marginals, truth.marginals):
            assert 0.5 * np.abs(got - want).sum() < 1e-10
        dec = res.decomposition
        for orbit, z in zip(dec.orbits, res.evidences):
            want = exact_marginals(clamped(g, dec.base, orbit)).Z
            assert abs(z - want) <= 1e-10 * want
        assert sum(res.weights) == pytest.approx(1.0, abs=1e-12)
        one = compile_mod.hatcc_infer(g)
        for got, want in zip(res.marginals, one.marginals):
            np.testing.assert_array_equal(got, want)
        base = one.marginals[dec.base]
        assert res.weights == tuple(float(base[list(orbit)].sum())
                                    for orbit in dec.orbits)
    zero = FactorGraph(g.semiring, g.variables, tuple(
        FactorDecl(f.id, f.scope, 0.0 * f.table) for f in g.factors))
    assert sector_infer(zero, tol=tol).status == "unsat"
