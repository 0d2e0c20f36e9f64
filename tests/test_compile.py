import numpy as np
import pytest

from conftest import all_pairs_nerve, brute_force, random_nerve_tree
from hatcc import bp_engine as bp
from hatcc import factor_graph, holonomy
from hatcc.compile import (CompiledModel, UnsatCertificate, augment,
                           build_selector, check_descent_datum,
                           cluster_tree_propagate, glue_restriction,
                           hatcc_infer, marginalize_modes)
from hatcc.factor_graph import (SEMIRINGS, FactorDecl, FactorGraph,
                                PotentialSlice, VariableDecl, restrict)
from hatcc.generators import (gen_four_cycle, gen_grid_mrf,
                              gen_permutation_graph, gen_zk_sync)
from hatcc.holonomy import diagnose
from hatcc.metrics import mean_tv
from hatcc.oracle import exact_marginals


class TestBuildSelector:
    def test_odd_cycle_unsat_certificate(self):
        g = gen_four_cycle("odd")
        rep = diagnose(g)
        cr = rep.chords[0]
        out = build_selector(g, cr.holonomy, cr.quotient)
        assert isinstance(out, UnsatCertificate)
        assert out.chord == cr.holonomy.chord.key

    def test_even_cycle_diagonal_selector(self):
        g = gen_four_cycle("even")
        rep = diagnose(g)
        cr = rep.chords[0]
        sel = build_selector(g, cr.holonomy, cr.quotient)
        assert sel.n_modes == 2
        np.testing.assert_array_equal(sel.table, np.eye(2))

    def test_all_ones_holonomy_single_mode(self):
        r = np.random.default_rng(0)
        variables = tuple(VariableDecl(i, 2) for i in range(4))
        factors = tuple(FactorDecl(i, (i, (i + 1) % 4),
                                   r.uniform(0.1, 1, 4)) for i in range(4))
        g = FactorGraph("sum_product", variables, factors)
        cr = diagnose(g).chords[0]
        sel = build_selector(g, cr.holonomy, cr.quotient)
        assert sel.n_modes == 1
        assert (sel.table != 0).sum() == 2


class TestAugment:
    def test_tree_nerve_unchanged(self):
        g = random_nerve_tree(3)
        rep = diagnose(g)
        compiled = augment(g, rep)
        assert isinstance(compiled, CompiledModel)
        assert len(compiled.graph.variables) == len(g.variables)
        assert len(compiled.graph.factors) == len(g.factors)

    def test_even_cycle_counts(self):
        # the copy ring's holonomy is the identity: no mode variable
        g = gen_four_cycle("even")
        rep = diagnose(g)
        assert [cr.trivial for cr in rep.chords] == [True]
        compiled = augment(g, rep)
        assert len(compiled.graph.variables) == 4
        assert len(compiled.graph.factors) == 4
        assert len(compiled.cluster_edges) == 3
        # positive tables make it all ones: one mode variable and selector
        r = np.random.default_rng(0)
        g = FactorGraph("sum_product", g.variables,
                        tuple(FactorDecl(f.id, f.scope, r.uniform(0.1, 1, 4))
                              for f in g.factors))
        compiled = augment(g, diagnose(g))
        assert len(compiled.graph.variables) == 5
        assert len(compiled.graph.factors) == 5
        # augmented nerve: 5 clusters, 4 edges
        assert len(compiled.cluster_edges) == 4

    def test_one_mode_var_per_chord(self):
        # (graph, chords, non-trivial chords): consistent hard permutations,
        # corrupted Z_k sync, and inconsistent hard permutations (a mix)
        cases = [
            (gen_permutation_graph("grid", 2, 0.0, 0, consistent=True,
                                   rows=2, cols=3).graph, 2, 0),
            (gen_zk_sync("random", 2, 0.1, 0.5, 0, n=7, p=0.4).graph, 6, 6),
            (gen_permutation_graph("random", 3, 0.0, 4, consistent=False,
                                   n=7, p=0.5).graph, 2, 1),
        ]
        for g, n_chords, n_modes in cases:
            rep = diagnose(g)
            assert len(rep.backbone.chords) == n_chords
            nontrivial = {cr.holonomy.chord.key for cr in rep.chords
                          if not cr.trivial}
            assert len(nontrivial) == n_modes
            compiled = augment(g, rep)
            assert set(compiled.mode_vars) == nontrivial
            assert set(compiled.selector_ids) == nontrivial
            assert len(compiled.graph.variables) == \
                len(g.variables) + n_modes
            assert len(compiled.graph.factors) == len(g.factors) + n_modes

    def test_mode_quotient_once_per_nontrivial_chord(self, monkeypatch):
        calls = []
        real = holonomy.mode_quotient

        def counted(H):
            calls.append(H.chord.key)
            return real(H)
        monkeypatch.setattr(holonomy, "mode_quotient", counted)
        for g in (gen_permutation_graph("random", 3, 0.0, 4,
                                        consistent=False, n=7, p=0.5).graph,
                  gen_permutation_graph("random", 3, 0.0, 0, consistent=True,
                                        n=20, p=0.3).graph,
                  gen_zk_sync("random", 2, 0.1, 0.5, 1, n=7, p=0.4).graph):
            calls.clear()
            res = hatcc_infer(g)
            assert res.status == "ok"
            nontrivial = [cr.holonomy.chord.key for cr in res.report.chords
                          if not cr.trivial]
            assert calls == nontrivial

    def test_odd_cycle_unsat_propagates(self):
        g = gen_four_cycle("odd")
        assert isinstance(augment(g, diagnose(g)), UnsatCertificate)

    def test_running_intersection_flags_pinned(self):
        g = gen_grid_mrf(3, 3, 2.0, 0.3, 0)
        compiled = augment(g, diagnose(g))
        assert compiled.running_intersection_ok is False
        assert compiled.ri_violations == (4, 5, 7, 8)
        # on a plain cycle the chord's variable skips the tree path
        cycle = gen_permutation_graph("cycle", 3, 0.1, 0, consistent=True,
                                      n=6).graph
        compiled = augment(cycle, diagnose(cycle))
        assert compiled.running_intersection_ok is False
        assert compiled.ri_violations == (5,)
        # a spanning tree: the all-pairs nerve's cycles are cliques around
        # one variable, which the sparse nerve leaves out
        star = gen_permutation_graph("random", 3, 0.1, 3, consistent=True,
                                     n=7, p=0.0).graph
        rep = diagnose(star)
        assert len(rep.backbone.chords) == 0
        compiled = augment(star, rep)
        assert compiled.running_intersection_ok is True
        assert compiled.ri_violations == ()
        res = hatcc_infer(star)
        assert res.status == "ok"
        assert res.compiled.selector_ids == {}

    def test_tree_identity_on_generated_instances(self):
        for seed in range(10):
            inst = gen_zk_sync("random", 2, 0.1, 0.5, seed, n=7, p=0.4)
            rep = diagnose(inst.graph)
            compiled = augment(inst.graph, rep)
            n_clusters = len(compiled.graph.factors)
            components = len(rep.backbone.roots)
            assert len(compiled.cluster_edges) == n_clusters - components


class TestClusterTree:
    def test_single_factor_graph(self):
        g = FactorGraph("sum_product",
                        (VariableDecl(0, 2), VariableDecl(1, 2)),
                        (FactorDecl(0, (0, 1), [2.0, 1.0, 1.0, 2.0]),))
        compiled = augment(g, diagnose(g))
        res = cluster_tree_propagate(compiled)
        assert res.Z == pytest.approx(6.0)

    def test_two_factor_chain_matches_oracle(self):
        r = np.random.default_rng(5)
        g = FactorGraph("sum_product",
                        tuple(VariableDecl(i, 2) for i in range(3)),
                        (FactorDecl(0, (0, 1), r.uniform(0.1, 2, 4)),
                         FactorDecl(1, (1, 2), r.uniform(0.1, 2, 4))))
        compiled = augment(g, diagnose(g))
        res = cluster_tree_propagate(compiled)
        truth = exact_marginals(g)
        assert res.Z == pytest.approx(truth.Z, rel=1e-12)
        marg = marginalize_modes(compiled, res)
        assert mean_tv(marg, truth.marginals) < 1e-12

    def test_even_cycle_z_two(self):
        compiled = augment(gen_four_cycle("even"),
                           diagnose(gen_four_cycle("even")))
        res = cluster_tree_propagate(compiled)
        assert res.Z == pytest.approx(2.0)
        marg = marginalize_modes(compiled, res)
        for m in marg:
            np.testing.assert_allclose(m, [0.5, 0.5])

    def test_calibration_on_separators(self):
        inst = gen_permutation_graph("random", 3, 0.0, 2, consistent=True,
                                     n=6, p=0.5)
        compiled = augment(inst.graph, diagnose(inst.graph))
        res = cluster_tree_propagate(compiled)
        sr = inst.graph.ops
        for e in compiled.cluster_edges:
            a = restrict(res.beliefs[e.a], e.separator, sr).table
            b = restrict(res.beliefs[e.b], e.separator, sr).table
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-300)


class TestMarginalizeModes:
    def test_unary_bias_on_tree(self):
        g = FactorGraph("sum_product",
                        (VariableDecl(0, 2), VariableDecl(1, 2)),
                        (FactorDecl(0, (0, 1), [1.0] * 4),
                         FactorDecl(1, (0,), [3.0, 1.0])))
        res = hatcc_infer(g)
        np.testing.assert_allclose(res.marginals[0], [0.75, 0.25])

    def test_any_containing_cluster_agrees(self):
        inst = gen_permutation_graph("cycle", 2, 0.0, 1, consistent=True,
                                     n=5)
        compiled = augment(inst.graph, diagnose(inst.graph))
        res = cluster_tree_propagate(compiled)
        sr = inst.graph.ops
        for v in range(compiled.original_var_count):
            vals = []
            for b in res.beliefs:
                if v in b.scope:
                    vec = restrict(b, (v,), sr).table
                    vals.append(vec / vec.sum())
            for w in vals[1:]:
                np.testing.assert_allclose(vals[0], w, rtol=1e-12)


class TestHatccInfer:
    def test_forests_match_run_tree_exact(self):
        # a forest compiles with no chord; run_tree_exact calibrates the
        # bipartite forest instead, so the two agree up to rounding
        def in_semiring(g, semiring, extras):
            def table(t):
                if semiring == "min_sum":
                    return -np.log(t)
                if semiring == "boolean":
                    return (t > 1.2).astype(float)
                return t
            variables, factors = g.variables, g.factors
            if extras:
                # an untouched ternary variable and an empty-scope factor
                variables += (VariableDecl(len(variables), 3),)
                factors += (FactorDecl(len(factors), (), [1.5]),)
            return FactorGraph(semiring, variables, tuple(
                FactorDecl(f.id, f.scope, table(f.table)) for f in factors))

        statuses = set()
        for semiring in SEMIRINGS:
            for seed in range(12):
                g = in_semiring(random_nerve_tree(seed), semiring,
                                extras=seed % 2 == 1)
                bel, Z, _deg = bp.run_tree_exact(g)
                res = hatcc_infer(g)
                assert not res.report.backbone.chords
                status = "unsat" if g.ops.is_zero(Z) else "ok"
                statuses.add((semiring, res.status))
                assert res.status == status, (semiring, seed)
                np.testing.assert_allclose(res.Z, Z, rtol=1e-12)
                for a, b in zip(res.marginals, bel):
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        assert ("boolean", "unsat") in statuses
        assert ("boolean", "ok") in statuses

    def test_tree_path_checks_once(self, monkeypatch):
        calls = {"validate": 0, "is_bipartite_forest": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(factor_graph, "validate")
        counted(bp, "is_bipartite_forest")
        hatcc_infer(random_nerve_tree(1))
        assert calls == {"validate": 1, "is_bipartite_forest": 0}

    def test_odd_cycle_unsat(self):
        res = hatcc_infer(gen_four_cycle("odd"))
        assert res.status == "unsat"
        assert res.unsat_chord is not None

    def test_even_cycle_matches_oracle(self):
        res = hatcc_infer(gen_four_cycle("even"))
        truth = exact_marginals(gen_four_cycle("even"))
        assert res.status == "ok"
        assert res.Z == pytest.approx(truth.Z, rel=1e-12)
        assert mean_tv(res.marginals, truth.marginals) < 1e-12

    def test_trivial_holonomy_instances_exact(self):
        for seed in range(10):
            inst = gen_permutation_graph("random", 3, 0.0, seed,
                                         consistent=True, n=7, p=0.4)
            res = hatcc_infer(inst.graph)
            truth = exact_marginals(inst.graph)
            assert all(cr.trivial for cr in res.report.chords)
            assert mean_tv(res.marginals, truth.marginals) < 1e-10
            assert abs(res.Z - truth.Z) <= 1e-10 * truth.Z

    def test_wide_interface_all_ones_not_unsat(self):
        # the chord interface (0..8) has 512 states, each joined to each
        # by 1024 paths through the 10-variable factor
        variables = tuple(VariableDecl(i, 2) for i in range(10))
        scopes = (tuple(range(9)), tuple(range(10)), (0, 9))
        factors = tuple(FactorDecl(i, s, np.ones(2 ** len(s)))
                        for i, s in enumerate(scopes))
        g = FactorGraph("sum_product", variables, factors)
        res = hatcc_infer(g)
        truth = exact_marginals(g)
        assert res.status == "ok"
        assert res.running_intersection_ok
        assert res.Z == truth.Z == 1024
        assert mean_tv(res.marginals, truth.marginals) < 1e-12

    @pytest.mark.parametrize("semiring",
                             ["sum_product", "max_product", "min_sum"])
    def test_sparse_nerve_no_worse_than_all_pairs(self, semiring,
                                                  monkeypatch):
        graphs = []
        for seed in range(6):
            for consistent in (True, False):
                for noise in (0.0, 0.2):
                    g = gen_permutation_graph("random", 3, noise, seed,
                                              consistent=consistent, n=6,
                                              p=0.5).graph
                    tables = [f.table for f in g.factors]
                    if semiring == "min_sum":
                        with np.errstate(divide="ignore"):
                            tables = [-np.log(t) for t in tables]
                    graphs.append(FactorGraph(
                        semiring, g.variables,
                        tuple(FactorDecl(f.id, f.scope, t)
                              for f, t in zip(g.factors, tables))))

        def exact(res, Z, marg):
            if res.status == "unsat":
                return Z == SEMIRINGS[semiring].zero
            return (np.isclose(res.Z, Z, rtol=1e-10, atol=1e-10)
                    and all(np.allclose(a, b, rtol=1e-10, atol=1e-10)
                            for a, b in zip(res.marginals, marg)))

        reference_exact = 0
        for g in graphs:
            new = hatcc_infer(g)
            with monkeypatch.context() as m:
                m.setattr(holonomy, "build_factor_nerve", all_pairs_nerve)
                ref = hatcc_infer(g)
            assert len(new.report.backbone.chords) <= \
                len(ref.report.backbone.chords)
            assert new.status == ref.status
            Z, marg = brute_force(g)
            if exact(ref, Z, marg):
                reference_exact += 1
                assert exact(new, Z, marg)
        assert reference_exact >= len(graphs) // 2

    def test_phase_timings_present(self):
        res = hatcc_infer(gen_four_cycle("even"))
        for key in ("validate", "diagnose", "augment", "propagate",
                    "marginalize"):
            assert key in res.timings


class TestDescentDatum:
    def _global_slice(self, seed, n=6):
        r = np.random.default_rng(seed)
        return PotentialSlice(tuple(range(n)), r.uniform(0.1, 2.0,
                                                         (2,) * n))

    def _graph(self, n=6):
        return FactorGraph("sum_product",
                           tuple(VariableDecl(i, 2) for i in range(n)), ())

    def test_restrictions_of_global_table_compatible(self):
        sr = SEMIRINGS["sum_product"]
        for seed in range(10):
            full = self._global_slice(seed)
            cover = [(0, 1, 2), (2, 3), (3, 4, 5), (1, 4)]
            tables = [restrict(full, p, sr) for p in cover]
            rep = check_descent_datum(self._graph(), cover, tables,
                                      tolerance=1e-9)
            assert rep.compatible

    def test_chord_inconsistent_counterexample_fails(self):
        # pairwise beliefs around the frustrated 4-cycle: consistent on
        # every backbone overlap, inconsistent on the chord overlap {A}
        g = gen_four_cycle("odd")
        cover = [(0, 1), (1, 2), (2, 3), (0, 3)]
        tables = [
            PotentialSlice((0, 1), [[0.6, 0.0], [0.0, 0.4]]),
            PotentialSlice((1, 2), [[0.6, 0.0], [0.0, 0.4]]),
            PotentialSlice((2, 3), [[0.0, 0.6], [0.4, 0.0]]),
            PotentialSlice((3, 0), [[0.4, 0.0], [0.0, 0.6]]),
        ]
        rep = check_descent_datum(g, cover, tables, tolerance=1e-9)
        assert not rep.compatible
        bad = [c for c in rep.overlaps if not c.discrepancy < 1e-9]
        assert [c.overlap for c in bad] == [(0,)]

    def test_single_piece_cover_trivially_compatible(self):
        sr = SEMIRINGS["sum_product"]
        full = self._global_slice(1)
        rep = check_descent_datum(self._graph(), [tuple(range(6))],
                                  [full], tolerance=1e-12)
        assert rep.compatible
        assert rep.overlaps == ()

    def test_coverage_violations_rejected(self):
        sr = SEMIRINGS["sum_product"]
        full = self._global_slice(2)
        with pytest.raises(ValueError, match="misses variable"):
            check_descent_datum(self._graph(), [(0, 1, 2)],
                                [restrict(full, (0, 1, 2), sr)])

    def test_gluing_unique_across_piece_choices(self):
        sr = SEMIRINGS["sum_product"]
        for seed in range(10):
            full = self._global_slice(seed)
            cover = [(0, 1, 2, 3), (2, 3, 4, 5), (1, 2, 4)]
            tables = [restrict(full, p, sr) for p in cover]
            target = (2,)
            pieces = [i for i, p in enumerate(cover) if 2 in p]
            outs = [glue_restriction(cover, tables, target, sr, piece=i)
                    for i in pieces]
            for out in outs[1:]:
                np.testing.assert_allclose(outs[0].table, out.table,
                                           rtol=1e-12)
            np.testing.assert_allclose(
                outs[0].table, restrict(full, target, sr).table, rtol=1e-12)
