import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (all_pairs_nerve, assert_junction_tree, brute_force,
                     count_calls, enumerate_semiring, in_semiring,
                     random_cnf, random_nerve_tree,
                     running_intersection_violations)
from hatcc import bp_engine as bp
from hatcc import factor_graph, holonomy
from hatcc.compile import (CompiledModel, UnsatCertificate, augment,
                           check_descent_datum, cluster_tree_propagate,
                           glue_restriction, hatcc_infer, marginalize_modes,
                           min_fill_order, result_to_json_dict)
from hatcc.factor_graph import (SEMIRINGS, FactorDecl, FactorGraph,
                                PotentialSlice, VariableDecl, restrict)
from hatcc.generators import (gen_four_cycle, gen_grid_mrf,
                              gen_permutation_graph, gen_zk_sync)
from hatcc.holonomy import diagnose
from hatcc.metrics import mean_tv
from hatcc.oracle import exact_map, exact_marginals


class TestBuildSelector:
    """A chord's selector is its holonomy's mode structure: the identity
    holonomy selects each interface state on its own and is cut, a
    holonomy with no fixed point selects nothing and certifies unsat."""

    def test_odd_cycle_unsat_certificate(self):
        g = gen_four_cycle("odd")
        rep = diagnose(g)
        cr = rep.chords[0]
        assert not cr.quotient.fixed_point_mask.any()
        out = augment(g, rep)
        assert isinstance(out, UnsatCertificate)
        assert out.chord == cr.cycle.chord.key
        res = hatcc_infer(g)
        assert res.status == "unsat"
        assert res.unsat_chord == cr.cycle.chord.key

    def test_even_cycle_diagonal_selector(self):
        g = gen_four_cycle("even")
        rep = diagnose(g)
        cr = rep.chords[0]
        np.testing.assert_array_equal(cr.holonomy.matrix, np.eye(2))
        assert cr.quotient.modes == ((0,), (1,))
        assert cr.quotient.fixed_point_mask.all()
        assert cr.trivial
        compiled = augment(g, rep)
        assert compiled.cut == (cr.cycle.chord.key,)
        res = hatcc_infer(g)
        assert res.status == "ok"
        truth = exact_marginals(g)
        assert res.Z == pytest.approx(truth.Z, rel=1e-12)
        assert mean_tv(res.marginals, truth.marginals) < 1e-12


class TestAugment:
    def test_tree_nerve_unchanged(self):
        g = random_nerve_tree(3)
        rep = diagnose(g)
        compiled = augment(g, rep)
        assert isinstance(compiled, CompiledModel)
        assert_junction_tree(compiled)
        assert compiled.cut == ()
        assert [len(c) for c in compiled.var_copies] == [1] * len(
            g.variables)

    def test_even_cycle_counts(self):
        # the copy ring's holonomy is the identity: the chord is cut, so
        # its variable gets a copy at each end and the ring opens to a
        # path of five copies, four pair cliques and three edges
        g = gen_four_cycle("even")
        rep = diagnose(g)
        assert [cr.trivial for cr in rep.chords] == [True]
        compiled = augment(g, rep)
        assert_junction_tree(compiled)
        assert compiled.cut == (rep.chords[0].cycle.chord.key,)
        assert len(compiled.graph.variables) == 5
        assert sorted(map(len, compiled.var_copies)) == [1, 1, 1, 2]
        assert len(compiled.graph.factors) == 4
        assert len(compiled.cluster_edges) == 3
        # positive tables: the rank-1 rule keeps the chord; one fill edge
        # closes the ring into two triangle cliques
        r = np.random.default_rng(0)
        g = FactorGraph("sum_product", g.variables,
                        tuple(FactorDecl(f.id, f.scope, r.uniform(0.1, 1, 4))
                              for f in g.factors))
        rep = diagnose(g)
        assert [cr.rank_one for cr in rep.chords] == [True]
        compiled = augment(g, rep)
        assert_junction_tree(compiled)
        assert compiled.cut == ()
        assert len(compiled.graph.variables) == 4
        assert [len(f.scope) for f in compiled.graph.factors] == [3, 3]
        assert len(compiled.cluster_edges) == 1

    def test_cuts_exactly_the_trivial_chords(self):
        # (graph, chords, non-trivial chords): consistent hard permutations,
        # corrupted Z_k sync, and inconsistent hard permutations (a mix)
        cases = [
            (gen_permutation_graph("grid", 2, 0.0, 0, consistent=True,
                                   rows=2, cols=3).graph, 2, 0),
            (gen_zk_sync("random", 2, 0.1, 0.5, 0, n=7, p=0.4).graph, 6, 6),
            (gen_permutation_graph("random", 3, 0.0, 4, consistent=False,
                                   n=7, p=0.5).graph, 2, 1),
        ]
        for g, n_chords, n_kept in cases:
            rep = diagnose(g)
            assert len(rep.backbone.chords) == n_chords
            trivial = [cr.cycle.chord.key for cr in rep.chords
                       if cr.trivial]
            assert len(trivial) == n_chords - n_kept
            compiled = augment(g, rep)
            assert_junction_tree(compiled)
            assert list(compiled.cut) == trivial
            assert compiled.inexact_cuts == ()
            # a cut can only add copies; a model without one has none
            assert len(compiled.graph.variables) >= len(g.variables)
            if not trivial:
                assert len(compiled.graph.variables) == len(g.variables)

    def test_no_mode_quotient_in_the_solve(self, monkeypatch):
        # modes stay in diagnose's report; the solve never takes one
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
            assert calls == []
            # the report still takes each chord's modes once, on demand
            for cr in res.report.chords:
                assert cr.quotient is cr.quotient
            assert calls == [cr.cycle.chord.key for cr in res.report.chords]

    def test_odd_cycle_unsat_propagates(self):
        g = gen_four_cycle("odd")
        rep = diagnose(g)
        out = augment(g, rep)
        assert isinstance(out, UnsatCertificate)
        assert out.chord == rep.chords[0].cycle.chord.key

    def test_all_ones_holonomy_kept_by_the_rank_one_rule(self, monkeypatch):
        # positive tables make the holonomy all ones: not the identity,
        # decided without a single composition
        composed = count_calls(monkeypatch, holonomy, "compose")
        r = np.random.default_rng(0)
        variables = tuple(VariableDecl(i, 2) for i in range(4))
        factors = tuple(FactorDecl(i, (i, (i + 1) % 4),
                                   r.uniform(0.1, 1, 4)) for i in range(4))
        g = FactorGraph("sum_product", variables, factors)
        cr = diagnose(g).chords[0]
        assert cr.rank_one and not cr.trivial
        assert composed == []
        assert cr.holonomy.matrix.all()

    def test_junction_tree_has_running_intersection(self):
        # the backbone of a grid or a plain cycle breaks running
        # intersection; the compiled junction tree never does
        grid = gen_grid_mrf(3, 3, 2.0, 0.3, 0)
        cycle = gen_permutation_graph("cycle", 3, 0.1, 0, consistent=True,
                                      n=6).graph
        for g, bad in ((grid, [4, 5, 7, 8]), (cycle, [5])):
            rep = diagnose(g)
            backbone = [(e.f1, e.f2) for e in rep.backbone.tree_edges]
            assert running_intersection_violations(
                [f.scope for f in g.factors], backbone) == bad
            assert_junction_tree(augment(g, rep))
        # a spanning tree: the all-pairs nerve's cycles are cliques around
        # one variable, which the sparse nerve leaves out
        star = gen_permutation_graph("random", 3, 0.1, 3, consistent=True,
                                     n=7, p=0.0).graph
        rep = diagnose(star)
        assert len(rep.backbone.chords) == 0
        assert_junction_tree(augment(star, rep))
        res = hatcc_infer(star)
        assert res.status == "ok"
        assert res.report.chords == ()

    def test_tree_identity_on_generated_instances(self):
        for seed in range(10):
            inst = gen_zk_sync("random", 2, 0.1, 0.5, seed, n=7, p=0.4)
            rep = diagnose(inst.graph)
            compiled = augment(inst.graph, rep)
            assert_junction_tree(compiled)
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
        for copies in compiled.var_copies:
            vals = []
            for b in res.beliefs:
                for c in set(copies) & set(b.scope):
                    vec = restrict(b, (c,), sr).table
                    vals.append(vec / vec.sum())
            assert vals
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
                if status == "unsat":
                    # the placeholder, not run_tree_exact's zero beliefs
                    bel = [g.ops.normalize(np.full(len(b), g.ops.one))
                           for b in bel]
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

    @pytest.mark.parametrize("semiring", sorted(SEMIRINGS))
    def test_unsat_marginals_are_normalized_ones(self, semiring):
        # the placeholder is sr.normalize(ones), as for an untouched
        # variable: 1/2 under sum-product, 1 under max-product and
        # boolean, energy 0 under min-sum
        sr = SEMIRINGS[semiring]
        g = gen_four_cycle("odd")
        g = FactorGraph(semiring, g.variables, tuple(
            FactorDecl(f.id, f.scope, np.where(np.asarray(f.table) > 0,
                                               sr.one, sr.zero))
            for f in g.factors))
        res = hatcc_infer(g)
        assert res.status == "unsat"
        assert res.Z == sr.zero
        want = sr.normalize(np.full(2, sr.one))
        for m in res.marginals:
            np.testing.assert_array_equal(m, want)

    @pytest.mark.parametrize("semiring", sorted(SEMIRINGS))
    def test_calibrated_unsat_marginals_are_normalized_ones(self, semiring):
        # an UNSAT 3-CNF on three variables has a chordless nerve; a path
        # of full-support factors from variable 0 to 1 closes one cycle,
        # which the rank-1 rule keeps, so calibration finds the zero Z
        sr = SEMIRINGS[semiring]
        cnf = random_cnf(0, 3, 40, semiring)
        m = len(cnf.factors)
        g = FactorGraph(semiring, cnf.variables + (
            VariableDecl(3, 2), VariableDecl(4, 2)), cnf.factors + tuple(
            FactorDecl(m + i, s, np.full(4, sr.one))
            for i, s in enumerate(((0, 3), (3, 4), (4, 1)))))
        assert exact_marginals(random_cnf(0, 3, 40, "sum_product")).unsat
        res = hatcc_infer(g)
        assert [(r.rank_one, r.trivial) for r in res.report.chords] == \
            [(True, False)]
        assert res.status == "unsat" and res.unsat_chord is None
        assert res.reason == "calibrated Z is the semiring zero"
        assert sr.is_zero(res.Z)
        want = sr.normalize(np.full(2, sr.one))
        for marg in res.marginals:
            np.testing.assert_array_equal(marg, want)

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
        assert_junction_tree(res.compiled)
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
        assert list(res.timings) == ["validate", "nerve", "backbone",
                                     "cycles", "holonomy", "augment",
                                     "propagate", "marginalize"]


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

    def test_forbidden_overlap_state_compatible(self):
        # min-sum restrictions of one table with x1 = 1 forbidden: the
        # equal +inf entries on the overlap {1} are no discrepancy
        sr = SEMIRINGS["min_sum"]
        table = np.random.default_rng(0).uniform(0.1, 2.0, (2, 2, 2))
        table[:, 1, :] = np.inf
        full = PotentialSlice((0, 1, 2), table)
        cover = [(0, 1), (1, 2)]
        graph = FactorGraph("min_sum", self._graph(3).variables, ())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_descent_datum(graph, cover,
                                      [restrict(full, p, sr) for p in cover],
                                      tolerance=1e-9)
        assert rep.compatible
        assert [c.discrepancy for c in rep.overlaps] == [0.0]

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


# ---------------------------------------------------------------------------
# Exactness gates
# ---------------------------------------------------------------------------

@st.composite
def models(draw):
    """Grids, corrupted Z_k sync, permutation graphs (inconsistent, or
    consistent, whose chords are cut) and random 3-CNF, in any
    semiring, small enough to enumerate."""
    family = draw(st.sampled_from(("grid", "zk", "perm", "cnf")))
    semiring = draw(st.sampled_from(sorted(SEMIRINGS)))
    seed = draw(st.integers(0, 2 ** 20))
    if family == "cnf":
        n = draw(st.integers(3, 10))
        return random_cnf(seed, n, draw(st.integers(1, 6 * n)), semiring)
    if family == "grid":
        g = gen_grid_mrf(draw(st.integers(1, 3)), draw(st.integers(2, 4)),
                         draw(st.sampled_from((0.5, 0.7, 1.4, 2.0))),
                         draw(st.sampled_from((0.0, 0.5))), seed)
    elif family == "zk":
        k = draw(st.integers(2, 3))
        g = gen_zk_sync(draw(st.sampled_from(("cycle", "random"))), k,
                        draw(st.sampled_from((0.1, 0.3))),
                        draw(st.sampled_from((0.0, 0.5, 1.0))), seed,
                        n=draw(st.integers(3, 9 if k == 2 else 6)),
                        p=0.5).graph
    else:
        d = draw(st.integers(2, 3))
        g = gen_permutation_graph(draw(st.sampled_from(("cycle", "random"))),
                                  d, draw(st.sampled_from((0.0, 0.2))), seed,
                                  consistent=draw(st.booleans()),
                                  n=draw(st.integers(3, 9 if d == 2 else 6)),
                                  p=0.5).graph
        # smoothing some hard tables mixes cut and kept chords
        smooth = np.random.default_rng(seed).random(len(g.factors)) < \
            draw(st.sampled_from((0.0, 0.3)))
        g = FactorGraph(g.semiring, g.variables, tuple(
            FactorDecl(f.id, f.scope, f.table + 0.2 * s)
            for f, s in zip(g.factors, smooth)))
    return in_semiring(g, semiring)


class TestExactness:
    @given(models(), st.sampled_from((0.0, 0.0, 0.05)))
    @settings(max_examples=400, deadline=None)
    def test_ok_means_exact(self, g, tol):
        """status "ok" => Z and marginals within 1e-10 of an enumeration:
        the oracle under sum-product, exact_map and the enumerated
        max-marginals otherwise."""
        res = hatcc_infer(g, tol=tol)
        if res.compiled is not None:
            assert_junction_tree(res.compiled)
        if g.semiring == "sum_product":
            truth = exact_marginals(g)
            Z, marg = truth.Z, truth.marginals
        else:
            Z, marg = enumerate_semiring(g)
            assert exact_map(g).weight == Z
        if res.status == "unsat":
            assert Z == g.ops.zero
            return
        assert res.status in ("ok", "approximate")
        if res.status == "approximate":
            assert tol > 0 and res.reason
            return
        if g.semiring == "min_sum":
            assert abs(res.Z - Z) <= 1e-10 * max(1.0, abs(Z))
        else:
            assert abs(res.Z - Z) <= 1e-10 * Z
        for got, want in zip(res.marginals, marg):
            if g.semiring == "sum_product":
                assert 0.5 * np.abs(got - want).sum() < 1e-10
            else:
                np.testing.assert_allclose(got, want, rtol=1e-10,
                                           atol=1e-10)


    @pytest.mark.parametrize("seed", range(4))
    def test_cut_and_kept_chords_together(self, seed):
        # a consistent hard permutation grid has identity holonomy on
        # every cycle; smoothing a factor on one cycle only makes that
        # chord rank-1 and kept, while the others stay cut
        g = gen_permutation_graph("grid", 3, 0.0, seed, consistent=True,
                                  rows=3, cols=3).graph
        on = Counter(f for cr in diagnose(g).chords
                     for f in cr.cycle.factor_sequence)
        lone = min(on, key=lambda f: (on[f], f))
        r = np.random.default_rng(seed)
        factors = [FactorDecl(f.id, f.scope, f.table + 0.2 * (f.id == lone))
                   for f in g.factors]
        factors += [FactorDecl(len(factors) + v.id, (v.id,),
                               r.uniform(0.5, 2.0, 3)) for v in g.variables]
        g = FactorGraph("sum_product", g.variables, tuple(factors))
        res = hatcc_infer(g)
        chords = res.report.chords
        assert sorted((c.trivial, c.rank_one) for c in chords) == \
            [(False, True)] + [(True, False)] * (len(chords) - 1)
        truth = exact_marginals(g)
        assert res.status == "ok"
        assert abs(res.Z - truth.Z) <= 1e-10 * truth.Z
        assert mean_tv(res.marginals, truth.marginals) < 1e-10
        for semiring in ("max_product", "min_sum"):
            h = in_semiring(g, semiring)
            res = hatcc_infer(h)
            Z, marg = enumerate_semiring(h)
            assert res.status == "ok"
            assert abs(res.Z - Z) <= 1e-10 * max(1.0, abs(Z))
            for got, want in zip(res.marginals, marg):
                np.testing.assert_allclose(got, want, rtol=1e-10,
                                           atol=1e-10)


def grid_transfer(graph: FactorGraph, rows: int, cols: int):
    """Z and marginals of a binary grid MRF by a row transfer matrix.

    Variable r * cols + c sits at row r and column c.  Each row state is
    a pattern of ``cols`` bits; unary and in-row factors weigh a row
    state, and column factors weigh a pair of adjacent row states.  The
    forward and backward sweeps are rescaled, with the scale kept as a
    log.
    """
    states = np.arange(2 ** cols)
    bits = (states[:, None] >> np.arange(cols)) & 1  # bits[s, c]
    within = [np.ones(len(states)) for _ in range(rows)]
    between = [np.ones((len(states), len(states))) for _ in range(rows - 1)]
    for f in graph.factors:
        t = graph.factor_nd(f)
        cells = [divmod(v, cols) for v in f.scope]
        if len(cells) == 1:
            (r, c), = cells
            within[r] *= t[bits[:, c]]
            continue
        (r1, c1), (r2, c2) = cells
        if r1 == r2:
            assert abs(c1 - c2) == 1
            within[r1] *= t[bits[:, c1], bits[:, c2]]
        else:
            assert c1 == c2 and abs(r1 - r2) == 1
            lo, hi = (bits[:, c1][:, None], bits[:, c2][None, :]) \
                if r1 < r2 else (bits[:, c1][None, :], bits[:, c2][:, None])
            between[min(r1, r2)] *= t[lo, hi]
    alpha, log_z = [within[0] / within[0].sum()], np.log(within[0].sum())
    for r in range(1, rows):
        a = (alpha[-1] @ between[r - 1]) * within[r]
        log_z += np.log(a.sum())
        alpha.append(a / a.sum())
    beta = [np.ones(len(states))]
    for r in range(rows - 2, -1, -1):
        b = between[r] @ (within[r + 1] * beta[0])
        beta.insert(0, b / b.sum())
    marg = []
    for r in range(rows):
        p = alpha[r] * beta[r]
        p /= p.sum()
        for c in range(cols):
            one = p[bits[:, c] == 1].sum()
            marg.append(np.array([1.0 - one, one]))
    return float(np.exp(log_z)), marg


@pytest.mark.parametrize("side", range(4, 11))
def test_grids_exact_against_transfer_matrix(side):
    coupling = 2.0 if side % 2 == 0 else 0.7
    g = gen_grid_mrf(side, side, coupling, 0.5, side)
    res = hatcc_infer(g)
    Z, marg = grid_transfer(g, side, side)
    assert res.status == "ok"
    assert abs(res.Z - Z) <= 1e-10 * Z
    assert max(0.5 * np.abs(a - b).sum()
               for a, b in zip(res.marginals, marg)) < 1e-10
    assert_junction_tree(res.compiled)


def test_grid_makes_no_composition(monkeypatch):
    composed = count_calls(monkeypatch, holonomy, "compose")
    kernels = count_calls(monkeypatch, holonomy, "transport_kernel")
    res = hatcc_infer(gen_grid_mrf(6, 6, 0.7, 0.5, 1))
    assert res.status == "ok"
    assert composed == kernels == []
    assert len(res.report.chords) == 25
    assert all(r.rank_one and not r.trivial for r in res.report.chords)


def test_json_builds_the_rank_one_holonomies_in_one_call(monkeypatch):
    res = hatcc_infer(gen_grid_mrf(10, 10, 1.4, 0.5, 0))
    assert all(r.rank_one for r in res.report.chords)
    kernels = count_calls(monkeypatch, holonomy, "transport_kernel")
    out = result_to_json_dict(res)
    assert len(kernels) == 1
    assert len(out["holonomy"]["chords"]) == len(res.report.chords) == 81


def test_permutation_graph_builds_kernels_in_one_call(monkeypatch):
    composed = count_calls(monkeypatch, holonomy, "compose")
    kernels = count_calls(monkeypatch, holonomy, "transport_kernel")
    g = gen_permutation_graph("random", 3, 0.0, 0, consistent=True, n=60,
                              p=2 / 59).graph
    res = hatcc_infer(g)
    assert res.status == "ok"
    assert len(kernels) == 1
    assert 0 < len(composed) < len(res.report.chords)
    assert all(r.trivial and not r.rank_one for r in res.report.chords)


class TestStatuses:
    @staticmethod
    def ring(table, n=4):
        """A ring of n binary pairwise factors, all with ``table``."""
        return FactorGraph(
            "sum_product", tuple(VariableDecl(i, 2) for i in range(n)),
            tuple(FactorDecl(i, (i, (i + 1) % n), table) for i in range(n)))

    def test_clique_over_cap(self):
        res = hatcc_infer(gen_grid_mrf(5, 5, 2.0, 0.3, 0), cap=16)
        assert res.status == "cap_exceeded"
        assert res.max_clique_entries > 16
        assert "clique" in res.reason
        assert math.isnan(res.Z)
        out = result_to_json_dict(res)
        assert out["Z"] is None and out["reason"] == res.reason
        assert hatcc_infer(gen_grid_mrf(5, 5, 2.0, 0.3, 0)).status == "ok"

    def test_over_cap_rank_one_chords_serialise_as_null(self):
        # the clique cap stops the solve after diagnose has decided every
        # chord by the rank-1 rule; none can be composed under cap 1
        res = hatcc_infer(gen_grid_mrf(3, 3, 2.0, 0.3, 0), cap=1)
        assert res.status == "cap_exceeded" and "clique" in res.reason
        assert res.report.chords and all(cr.rank_one
                                         for cr in res.report.chords)
        out = result_to_json_dict(res)
        assert [c["matrix_rows"] for c in out["holonomy"]["chords"]] == \
            [None] * len(res.report.chords)
        assert all(c["mode_sizes"] is None and c["trivial"] is False
                   for c in out["holonomy"]["chords"])
        json.dumps(out)
        full = result_to_json_dict(hatcc_infer(gen_grid_mrf(3, 3, 2.0, 0.3,
                                                            0)))
        assert [c["chord"] for c in full["holonomy"]["chords"]] == \
            [c["chord"] for c in out["holonomy"]["chords"]]
        assert all(c["matrix_rows"] is not None
                   for c in full["holonomy"]["chords"])

    def test_rank_one_chords_serialise_on_both_sides_of_the_cap(self):
        # a binary and a ternary 4-cycle of full-support pair factors: one
        # rank-1 chord each, on interfaces of 2 and of 3 states; under cap
        # 2 the first composes and the second does not
        rng = np.random.default_rng(0)
        variables = [VariableDecl(v, 2 if v < 4 else 3) for v in range(8)]
        factors = []
        for base, k in ((0, 2), (4, 3)):
            for i in range(4):
                scope = (base + i, base + (i + 1) % 4)
                factors.append(FactorDecl(len(factors), scope,
                                          rng.uniform(0.5, 2.0, k * k)))
        g = FactorGraph("sum_product", variables, factors)
        res = hatcc_infer(g, cap=2)
        assert res.status == "cap_exceeded" and "clique" in res.reason
        sizes = [math.prod(g.scope_shape(cr.cycle.interface_sequence[-1]))
                 for cr in res.report.chords]
        assert sorted(sizes) == [2, 3]
        assert all(cr.rank_one for cr in res.report.chords)
        out = result_to_json_dict(res)["holonomy"]["chords"]
        full = result_to_json_dict(hatcc_infer(g))["holonomy"]["chords"]
        for n, c, ref in zip(sizes, out, full):
            if n <= 2:
                assert c["matrix_rows"] == ref["matrix_rows"] is not None
                assert c["mode_sizes"] == ref["mode_sizes"] is not None
            else:
                assert c["matrix_rows"] is None and c["mode_sizes"] is None
        json.dumps(out)

    def test_interface_over_cap(self):
        res = hatcc_infer(gen_four_cycle("odd"), cap=1)
        assert res.status == "cap_exceeded"
        assert "interface" in res.reason
        assert res.report is None
        out = result_to_json_dict(res)
        assert out["status"] == "cap_exceeded" and out["Z"] is None
        assert out["reason"] == res.reason and "holonomy" not in out

    def test_tolerance_cut_of_a_non_identity_holonomy_is_approximate(self):
        leaky_copy = [1.0, 0.01, 0.01, 1.0]
        g = self.ring(leaky_copy)
        exact = hatcc_infer(g)
        assert exact.status == "ok"
        assert [r.rank_one for r in exact.report.chords] == [True]
        res = hatcc_infer(g, tol=0.1)
        assert res.status == "approximate"
        assert [r.trivial for r in res.report.chords] == [True]
        assert str(res.report.chords[0].cycle.chord.key) in res.reason
        # a cut the exact holonomy agrees with stays "ok"
        assert hatcc_infer(gen_four_cycle("even"), tol=0.1).status == "ok"

    def test_tolerance_never_certifies_unsat_alone(self):
        # within tol the ring is a frustrated swap; exactly it is
        # satisfiable, so the chord is kept and solved exactly
        g = self.ring([1.0, 1.0, 1.0, 1.0], n=3)
        g = FactorGraph("sum_product", g.variables, g.factors[:2] + (
            FactorDecl(2, (2, 0), [0.01, 1.0, 1.0, 0.01]),))
        res = hatcc_infer(g, tol=0.1)
        truth = exact_marginals(g)
        assert not res.report.chords[0].trivial
        assert res.status == "ok"
        assert abs(res.Z - truth.Z) <= 1e-12 * truth.Z


def test_one_chord_list_in_the_json():
    # one entry per chord, under "holonomy" only; every interface here
    # is one binary variable
    def entry(chord, interface, length, rank_one, trivial, rows, modes):
        return {"chord": chord, "interface": interface,
                "interface_states": 2, "cycle_length": length,
                "rank_one": rank_one, "trivial": trivial,
                "matrix_rows": rows, "mode_sizes": modes}
    grid = gen_grid_mrf(3, 3, 2.0, 0.3, 0)
    spans = [([3, 5], [4], 4), ([4, 7], [5], 5), ([8, 10], [7], 6),
             ([9, 11], [8], 7)]
    cases = [
        (hatcc_infer(grid), "ok",
         [entry(c, i, n, True, False, ["11", "11"], [2])
          for c, i, n in spans]),
        (hatcc_infer(gen_four_cycle("even")), "ok",
         [entry([2, 3], [3], 4, False, True, ["10", "01"], [1, 1])]),
        (hatcc_infer(gen_four_cycle("odd")), "unsat",
         [entry([2, 3], [3], 4, False, False, ["01", "10"], [2])]),
        # the clique cap stops the solve; no rank-1 holonomy is composed
        (hatcc_infer(grid, cap=1), "cap_exceeded",
         [entry(c, i, n, True, False, None, None) for c, i, n in spans]),
    ]
    for res, status, chords in cases:
        out = result_to_json_dict(res)
        assert res.status == out["status"] == status
        assert "chords" not in out
        assert out["holonomy"]["chords"] == chords
    out = result_to_json_dict(cases[0][0])
    assert out["max_clique_entries"] == cases[0][0].max_clique_entries == 16
    assert "reason" not in out


def naive_min_fill(n, scopes):
    """Greedy min-fill recomputing every count at every step; ties to
    the smaller degree, then the smaller id."""
    adj = {v: set() for v in range(n)}
    for s in scopes:
        for v in s:
            adj[v] |= set(s) - {v}
    order = []
    while adj:
        def key(v):
            nb = sorted(adj[v])
            fill = sum(b not in adj[a] for i, a in enumerate(nb)
                       for b in nb[i + 1:])
            return fill, len(nb), v
        v = min(adj, key=key)
        nb = adj.pop(v)
        for a in nb:
            adj[a] |= nb - {a}
            adj[a].discard(v)
        order.append((v, tuple(sorted(nb))))
    return order


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(0, n - 1), unique=True,
                                  max_size=3), max_size=14))))
@settings(max_examples=300, deadline=None)
def test_min_fill_order_matches_naive_greedy(case):
    n, scopes = case
    assert min_fill_order(n, scopes) == naive_min_fill(n, scopes)
