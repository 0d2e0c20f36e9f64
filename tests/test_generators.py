import numpy as np
import pytest

from hatcc.generators import (gen_four_cycle, gen_grid_mrf,
                              gen_permutation_graph, gen_zk_sync,
                              topology_edges)
from hatcc.oracle import exact_marginals
from hatcc.sectors import decompose


class TestTopologies:
    def test_cycle_edges(self):
        n, edges = topology_edges("cycle", n=4)
        assert n == 4
        assert edges == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_grid_edge_count(self):
        n, edges = topology_edges("grid", rows=3, cols=4)
        assert n == 12
        assert len(edges) == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_random_connected(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n, edges = topology_edges("random", n=9, p=0.2, rng=rng)
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in edges:
                parent[find(a)] = find(b)
            assert len({find(v) for v in range(n)}) == 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            topology_edges("cycle", n=2)
        with pytest.raises(ValueError):
            topology_edges("grid", rows=2)
        with pytest.raises(ValueError):
            topology_edges("hypercube", n=4)


class TestZkSync:
    def test_deterministic_for_seed(self):
        a = gen_zk_sync("random", 3, 0.2, 0.5, 7, n=8, p=0.4)
        b = gen_zk_sync("random", 3, 0.2, 0.5, 7, n=8, p=0.4)
        assert a.x_star == b.x_star
        assert a.shifts == b.shifts
        assert a.corrupted == b.corrupted
        for fa, fb in zip(a.graph.factors, b.graph.factors):
            assert fa.scope == fb.scope
            np.testing.assert_array_equal(fa.table, fb.table)

    def test_table_values_two_levels(self):
        inst = gen_zk_sync("cycle", 2, 0.2, 0.0, 0, n=4)
        for f in inst.graph.factors:
            values = sorted(set(np.round(f.table, 12)))
            assert values == [0.1, 0.9]
            assert f.table.sum() == pytest.approx(2.0)

    def test_clean_shifts_match_ground_truth(self):
        inst = gen_zk_sync("cycle", 4, 0.1, 0.0, 3, n=6)
        assert inst.corrupted == ()
        for f, shift in zip(inst.graph.factors, inst.shifts):
            i, j = f.scope
            assert shift == (inst.x_star[j] - inst.x_star[i]) % 4

    def test_corruption_count_ceiling(self):
        # an 8-cycle has 1 off-tree edge; any eps > 0 corrupts it
        inst = gen_zk_sync("cycle", 2, 0.1, 0.25, 0, n=8)
        assert len(inst.corrupted) == 1
        for idx, delta in inst.corrupted:
            assert 1 <= delta < 2

    def test_corrupted_triangle_swap_generator(self):
        inst = gen_zk_sync("cycle", 2, 0.1, 1.0, 0, n=3)
        dec = decompose(inst.graph, tol=0.05)
        np.testing.assert_array_equal(dec.generators[0],
                                      [[False, True], [True, False]])

    def test_corrupted_edges_pinned(self):
        # the corrupted edges index the spanning tree's off-tree edges, so
        # any change to that tree changes every generated instance
        cases = [
            (("cycle", 2, 0.1, 0.5, 0), dict(n=8), ((4, 1),)),
            (("random", 3, 0.1, 1.0, 1), dict(n=8),
             ((7, 1), (8, 1), (9, 2), (10, 2), (11, 2), (12, 2), (13, 2),
              (14, 1))),
            (("grid", 2, 0.1, 1.0, 2), dict(rows=3, cols=4),
             ((1, 1), (5, 1), (6, 1), (14, 1), (15, 1), (16, 1))),
            (("random", 3, 0.2, 0.5, 7), dict(n=10, p=0.4),
             ((7, 1), (10, 2), (12, 1), (14, 1), (17, 1), (18, 1))),
        ]
        for args, kwargs, corrupted in cases:
            assert gen_zk_sync(*args, **kwargs).corrupted == corrupted

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_zk_sync("cycle", 1, 0.1, 0.0, 0, n=4)
        with pytest.raises(ValueError):
            gen_zk_sync("cycle", 2, 0.0, 0.0, 0, n=4)
        with pytest.raises(ValueError):
            gen_zk_sync("cycle", 2, 0.1, 1.5, 0, n=4)


class TestPermutationGraphs:
    def test_deterministic_support(self):
        inst = gen_permutation_graph("cycle", 3, 0.0, 1, n=4)
        for f, perm in zip(inst.graph.factors, inst.permutations):
            table = inst.graph.factor_nd(f)
            assert (table > 0).sum() == 3
            for x, y in enumerate(perm):
                assert table[x, y] == 1.0

    def test_consistent_cycles_compose_to_identity(self):
        for seed in range(10):
            inst = gen_permutation_graph("random", 4, 0.0, seed,
                                         consistent=True, n=7, p=0.5)
            dec = decompose(inst.graph)
            for g in dec.generators:
                np.testing.assert_array_equal(g, np.eye(4, dtype=bool))

    def test_inconsistent_cycle_can_frustrate(self):
        # unconstrained sampling eventually produces a nonidentity cycle
        hits = 0
        for seed in range(10):
            inst = gen_permutation_graph("cycle", 3, 0.0, seed, n=5)
            dec = decompose(inst.graph)
            hits += any(not np.array_equal(g, np.eye(3, dtype=bool))
                        for g in dec.generators)
        assert hits > 0

    def test_noise_floor_in_tables(self):
        inst = gen_permutation_graph("cycle", 2, 0.5, 0, n=4)
        for f in inst.graph.factors:
            assert f.table.min() == pytest.approx(0.25)
            assert f.table.max() == pytest.approx(0.75)


class TestGridMrf:
    def test_factor_count_without_field(self):
        g = gen_grid_mrf(3, 3, 2.0, 0.0, 0)
        assert len(g.factors) == 12
        assert all(len(f.scope) == 2 for f in g.factors)

    def test_factor_count_with_field(self):
        g = gen_grid_mrf(2, 3, 2.0, 0.5, 0)
        assert len(g.factors) == 7 + 6
        unaries = [f for f in g.factors if len(f.scope) == 1]
        assert len(unaries) == 6
        for f in unaries:
            assert f.table[0] * f.table[1] == pytest.approx(1.0)

    def test_coupling_matrix(self):
        g = gen_grid_mrf(1, 2, 3.0, 0.0, 0)
        np.testing.assert_array_equal(g.factor_nd(g.factors[0]),
                                      [[3.0, 1.0], [1.0, 3.0]])


class TestFourCycle:
    def test_odd_unsatisfiable(self):
        res = exact_marginals(gen_four_cycle("odd"))
        assert res.unsat

    def test_even_two_satisfying_states(self):
        res = exact_marginals(gen_four_cycle("even"))
        assert res.Z == 2.0
        for m in res.marginals:
            np.testing.assert_allclose(m, [0.5, 0.5])

    def test_labels_and_structure(self):
        g = gen_four_cycle("odd")
        assert [v.label for v in g.variables] == ["A", "B", "C", "D"]
        assert [f.scope for f in g.factors] == [(0, 1), (1, 2), (2, 3),
                                                (3, 0)]

    def test_bad_parity(self):
        with pytest.raises(ValueError):
            gen_four_cycle("mixed")
