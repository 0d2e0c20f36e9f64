import numpy as np
import pytest

from helpers import random_graph, random_pairwise_tree
from hatcc import bp_engine as bp
from hatcc.bp_engine import Direction, HalfEdge
from hatcc.factor_graph import (SEMIRINGS, FactorDecl, FactorGraph,
                                VariableDecl)
from hatcc.generators import gen_four_cycle
from hatcc.oracle import exact_marginals


def chain_two_vars() -> FactorGraph:
    return FactorGraph("sum_product",
                       (VariableDecl(0, 2), VariableDecl(1, 2)),
                       (FactorDecl(0, (0, 1), [2.0, 1.0, 1.0, 2.0]),))


class TestLocalUpdates:
    def test_var_with_single_neighbor_gives_ones(self):
        g = chain_two_vars()
        m = bp.init_messages(g)
        h = HalfEdge(0, 0, Direction.VAR_TO_FAC)
        np.testing.assert_array_equal(bp.update_var_to_fac(g, m, h),
                                      [1.0, 1.0])

    def test_var_product_of_two_incoming(self):
        g = FactorGraph("sum_product", (VariableDecl(0, 2),),
                        (FactorDecl(0, (0,), [1, 1]),
                         FactorDecl(1, (0,), [1, 1]),
                         FactorDecl(2, (0,), [1, 1])))
        m = bp.init_messages(g)
        m[HalfEdge(1, 0, Direction.FAC_TO_VAR)] = np.array([2.0, 1.0])
        m[HalfEdge(2, 0, Direction.FAC_TO_VAR)] = np.array([1.0, 3.0])
        out = bp.update_var_to_fac(g, m, HalfEdge(0, 0, Direction.VAR_TO_FAC))
        np.testing.assert_array_equal(out, [2.0, 3.0])

    def test_boolean_var_update_is_and(self):
        g = FactorGraph("boolean", (VariableDecl(0, 2),),
                        (FactorDecl(0, (0,), [1, 1]),
                         FactorDecl(1, (0,), [1, 1]),
                         FactorDecl(2, (0,), [1, 1])))
        m = bp.init_messages(g)
        m[HalfEdge(1, 0, Direction.FAC_TO_VAR)] = np.array([1.0, 0.0])
        m[HalfEdge(2, 0, Direction.FAC_TO_VAR)] = np.array([1.0, 1.0])
        out = bp.update_var_to_fac(g, m, HalfEdge(0, 0, Direction.VAR_TO_FAC))
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_pairwise_factor_update_uniform_incoming(self):
        g = chain_two_vars()
        m = bp.init_messages(g)
        out = bp.update_fac_to_var(g, m, HalfEdge(0, 0, Direction.FAC_TO_VAR))
        np.testing.assert_array_equal(out, [3.0, 3.0])

    def test_pairwise_factor_update_masked_incoming(self):
        g = chain_two_vars()
        m = bp.init_messages(g)
        m[HalfEdge(0, 1, Direction.VAR_TO_FAC)] = np.array([1.0, 0.0])
        out = bp.update_fac_to_var(g, m, HalfEdge(0, 0, Direction.FAC_TO_VAR))
        np.testing.assert_array_equal(out, [2.0, 1.0])

    def test_unary_factor_returns_own_table(self):
        g = FactorGraph("sum_product", (VariableDecl(0, 2),),
                        (FactorDecl(0, (0,), [3.0, 1.0]),))
        m = bp.init_messages(g)
        out = bp.update_fac_to_var(g, m, HalfEdge(0, 0, Direction.FAC_TO_VAR))
        np.testing.assert_array_equal(out, [3.0, 1.0])


class TestSteps:
    def test_fixed_point_preserved(self):
        g = random_pairwise_tree(0, n=6)
        sched = bp.tree_schedule(g)
        m = bp.step_scheduled(g, bp.init_messages(g), sched)
        m2 = bp.step_parallel(g, m)
        for h in m:
            np.testing.assert_allclose(m2[h], m[h], rtol=1e-12)

    def test_empty_schedule_is_identity(self):
        g = chain_two_vars()
        m = bp.init_messages(g)
        m2 = bp.step_scheduled(g, m, [])
        assert all(np.array_equal(m[h], m2[h]) for h in m)

    def test_single_edge_schedule_matches_single_update(self):
        g = chain_two_vars()
        m = bp.init_messages(g)
        m[HalfEdge(0, 1, Direction.VAR_TO_FAC)] = np.array([1.0, 0.0])
        h = HalfEdge(0, 0, Direction.FAC_TO_VAR)
        m2 = bp.step_scheduled(g, m, [h])
        np.testing.assert_array_equal(m2[h], bp.update_fac_to_var(g, m, h))

    def test_tree_stabilizes_after_diameter_steps(self):
        g = random_pairwise_tree(5, n=7)
        m = bp.init_messages(g)
        for _ in range(2 * (len(g.variables) + len(g.factors))):
            m = bp.step_parallel(g, m)
        m2 = bp.step_parallel(g, m)
        for h in m:
            np.testing.assert_allclose(m2[h], m[h], rtol=1e-9)

    def test_parallel_operator_is_not_additive(self):
        g = chain_two_vars()
        r = np.random.default_rng(7)
        m1 = {h: r.uniform(0.1, 1, 2) for h in bp.half_edges(g)}
        m2 = {h: r.uniform(0.1, 1, 2) for h in bp.half_edges(g)}
        s = bp.step_parallel(g, {h: m1[h] + m2[h] for h in m1})
        s1 = bp.step_parallel(g, m1)
        s2 = bp.step_parallel(g, m2)
        diff = max(np.abs(s[h] - (s1[h] + s2[h])).max() for h in s)
        assert diff > 1e-6


class TestRun:
    def test_tree_converges_quickly(self):
        g = random_pairwise_tree(1, n=10)
        res = bp.run(g)
        assert res.converged
        assert res.iterations <= 2 * (len(g.variables) + len(g.factors))
        assert res.residual_trace[-1] < 1e-6

    def test_odd_cycle_random_init_oscillates(self):
        # all-one messages are an exact fixed point of this model, so a
        # generic positive init is needed to expose the instability
        res = bp.run(gen_four_cycle("odd"), init="random", seed=3)
        assert not res.converged
        assert res.oscillating
        assert res.iterations == 200

    def test_zero_budget_returns_initial_state(self):
        res = bp.run(chain_two_vars(), max_iters=0)
        assert not res.converged
        assert res.iterations == 0


class TestBeliefs:
    def test_unary_normalization(self):
        g = FactorGraph("sum_product", (VariableDecl(0, 2),),
                        (FactorDecl(0, (0,), [2.0, 1.0]),))
        res = bp.run(g)
        np.testing.assert_allclose(res.beliefs[0], [2 / 3, 1 / 3])

    def test_symmetric_pairwise_uniform(self):
        res = bp.run(chain_two_vars())
        for b in res.beliefs:
            np.testing.assert_allclose(b, [0.5, 0.5])

    def test_unsat_model_degenerate_flag(self):
        g = FactorGraph("sum_product", (VariableDecl(0, 2),),
                        (FactorDecl(0, (0,), [0.0, 0.0]),))
        res = bp.run(g)
        assert res.degenerate == (0,)

    def test_tree_beliefs_match_oracle(self):
        for seed in range(10):
            g = random_pairwise_tree(seed, n=9)
            res = bp.run(g, schedule=bp.tree_schedule(g), max_iters=5)
            truth = exact_marginals(g)
            for b, t in zip(res.beliefs, truth.marginals):
                assert 0.5 * np.abs(b - t).sum() < 1e-10


class TestGauge:
    def test_identity_gauge_noop(self):
        g = chain_two_vars()
        m = bp.init_messages(g)
        k = {h: 1.0 for h in m}
        m2 = bp.gauge_act(k, m)
        assert all(np.array_equal(m[h], m2[h]) for h in m)

    def test_scalar_rescale(self):
        g = chain_two_vars()
        m = bp.init_messages(g)
        h = HalfEdge(0, 0, Direction.VAR_TO_FAC)
        m[h] = np.array([0.3, 0.7])
        k = {e: (2.0 if e == h else 1.0) for e in m}
        np.testing.assert_allclose(bp.gauge_act(k, m)[h], [0.6, 1.4])

    def test_action_composes(self):
        g = random_graph(0)
        r = np.random.default_rng(0)
        m = {h: r.uniform(0.1, 1, g.cardinality(h.variable_id))
             for h in bp.half_edges(g)}
        k1 = {h: float(r.uniform(0.5, 2)) for h in m}
        k2 = {h: float(r.uniform(0.5, 2)) for h in m}
        a = bp.gauge_act(k1, bp.gauge_act(k2, m))
        b = bp.gauge_act({h: k1[h] * k2[h] for h in m}, m)
        for h in m:
            np.testing.assert_allclose(a[h], b[h], rtol=1e-12)

    def test_chain_propagation_example(self):
        # 3-variable chain; the propagated rescale on f01 -> v1 equals
        # the incoming rescale on v0 -> f01
        g = FactorGraph("sum_product",
                        tuple(VariableDecl(i, 2) for i in range(3)),
                        (FactorDecl(0, (0, 1), [1.0] * 4),
                         FactorDecl(1, (1, 2), [1.0] * 4)))
        k = {h: 1.0 for h in bp.half_edges(g)}
        k[HalfEdge(0, 0, Direction.VAR_TO_FAC)] = 3.0
        out = bp.gauge_propagate(g, k)
        assert out[HalfEdge(0, 1, Direction.FAC_TO_VAR)] == 3.0

    def test_identity_gauge_propagates_to_identity(self):
        g = random_graph(1)
        k = {h: 1.0 for h in bp.half_edges(g)}
        out = bp.gauge_propagate(g, k)
        assert all(v == 1.0 for v in out.values())

    def test_propagation_is_homomorphism(self):
        for seed in range(20):
            g = random_graph(seed)
            r = np.random.default_rng(seed + 500)
            hs = bp.half_edges(g)
            k1 = {h: float(r.uniform(0.2, 3)) for h in hs}
            k2 = {h: float(r.uniform(0.2, 3)) for h in hs}
            lhs = bp.gauge_propagate(g, {h: k1[h] * k2[h] for h in hs})
            a = bp.gauge_propagate(g, k1)
            b = bp.gauge_propagate(g, k2)
            for h in hs:
                assert lhs[h] == pytest.approx(a[h] * b[h], rel=1e-12)

    def test_semi_equivariance(self):
        for seed in range(20):
            g = random_graph(seed)
            r = np.random.default_rng(seed + 900)
            m = {h: r.uniform(0.1, 1, g.cardinality(h.variable_id))
                 for h in bp.half_edges(g)}
            k = {h: float(r.uniform(0.2, 3)) for h in m}
            lhs = bp.step_parallel(g, bp.gauge_act(k, m))
            rhs = bp.gauge_act(bp.gauge_propagate(g, k),
                               bp.step_parallel(g, m))
            for h in m:
                np.testing.assert_allclose(lhs[h], rhs[h], rtol=1e-12)

    def test_beliefs_gauge_invariant(self):
        for seed in range(10):
            g = random_graph(seed)
            r = np.random.default_rng(seed + 77)
            m = {h: r.uniform(0.1, 1, g.cardinality(h.variable_id))
                 for h in bp.half_edges(g)}
            k = {h: float(r.uniform(0.2, 3)) for h in m}
            b1, _ = bp.beliefs(g, m)
            b2, _ = bp.beliefs(g, bp.gauge_act(k, m))
            for x, y in zip(b1, b2):
                np.testing.assert_allclose(x, y, rtol=1e-12)


# ---------------------------------------------------------------------------
# Differential tests: the flat parallel engine against single-edge updates
# ---------------------------------------------------------------------------

def reference_step(g, m):
    """The parallel operator, one single-edge update per half-edge."""
    return {h: (bp.update_var_to_fac(g, m, h)
                if h.direction is Direction.VAR_TO_FAC
                else bp.update_fac_to_var(g, m, h)) for h in m}


def reference_run(g, max_iters=200, threshold=1e-6, damping=0.0,
                  init="ones", seed=None, schedule=None):
    """The BP loop over ``reference_step`` (or ``step_scheduled``), on
    HalfEdge dicts."""
    sr = g.ops
    rng = np.random.default_rng(seed)
    m = {}
    for h in bp.half_edges(g):
        card = g.cardinality(h.variable_id)
        m[h] = (np.full(card, sr.one) if init == "ones"
                else rng.uniform(0.1, 1.0, card))
    m = {h: sr.normalize(v) for h, v in m.items()}
    trace, converged, iters = [], False, 0
    for iters in range(1, max_iters + 1):
        new = (reference_step(g, m) if schedule is None
               else bp.step_scheduled(g, m, schedule))
        if damping != 0.0:
            new = {h: (1.0 - damping) * new[h] + damping * m[h] for h in new}
        new = {h: sr.normalize(v) for h, v in new.items()}
        residual = max((np.abs(new[h] - m[h]).max() for h in new),
                       default=0.0)
        m = new
        trace.append(float(residual))
        if residual < threshold:
            converged = True
            break
    if max_iters == 0:
        iters = 0
    bel = []
    for v in g.variables:
        b = np.full(v.cardinality, sr.one)
        for f in g.var_neighbors(v.id):
            b = sr.mul(b, m[HalfEdge(f, v.id, Direction.FAC_TO_VAR)])
        bel.append(sr.normalize(b))
    oscillating = not converged and bp._detect_oscillation(trace, threshold)
    return iters, converged, oscillating, trace, bel


def in_semiring(g, semiring, zero_frac=0.0, seed=0):
    """g's positive tables as a valid model of ``semiring``, with a share
    of entries set to the semiring zero, plus an isolated variable and an
    empty-scope factor."""
    sr = SEMIRINGS[semiring]
    r = np.random.default_rng(seed)
    factors = []
    for f in g.factors:
        t = f.table.copy()
        if semiring == "boolean":
            t = (t > 0.6).astype(float)
        t[r.random(t.size) < zero_frac] = sr.zero
        factors.append(FactorDecl(f.id, f.scope, t))
    factors.append(FactorDecl(len(factors), (), [sr.one]))
    variables = g.variables + (VariableDecl(len(g.variables), 2),)
    return FactorGraph(semiring, variables, tuple(factors))


def random_messages(g, seed, zero_frac=0.0):
    sr = g.ops
    r = np.random.default_rng(seed)
    m = {}
    for h in bp.half_edges(g):
        v = r.uniform(0.1, 1.0, g.cardinality(h.variable_id))
        if sr.name == "boolean":
            v = (v > 0.3).astype(float)
        v[r.random(v.size) < zero_frac] = sr.zero
        m[h] = v
    return m


SEMIRING_NAMES = ("sum_product", "max_product", "min_sum", "boolean")


class TestFlatEngine:
    @pytest.mark.parametrize("semiring", SEMIRING_NAMES)
    def test_step_parallel_matches_single_edge_updates(self, semiring):
        for seed in range(15):
            g = in_semiring(random_graph(seed), semiring, 0.2, seed)
            m = random_messages(g, seed + 100, zero_frac=0.25)
            got = bp.step_parallel(g, m)
            want = reference_step(g, m)
            assert list(got) == list(want)
            for h in want:
                np.testing.assert_allclose(got[h], want[h], rtol=1e-12,
                                           atol=0.0)

    def test_step_parallel_keeps_input_key_order(self):
        g = random_graph(4)
        m = dict(reversed(list(random_messages(g, 0).items())))
        assert list(bp.step_parallel(g, m)) == list(m)

    @pytest.mark.parametrize("semiring", ("sum_product", "max_product"))
    @pytest.mark.parametrize("kwargs", [
        {}, {"damping": 0.5}, {"init": "random", "seed": 11},
        {"max_iters": 0}, {"max_iters": 7, "init": "random", "seed": 2}])
    def test_run_matches_reference_loop(self, semiring, kwargs):
        for seed in range(8):
            g = in_semiring(random_graph(seed), semiring, 0.1, seed)
            res = bp.run(g, **kwargs)
            iters, conv, osc, trace, bel = reference_run(g, **kwargs)
            assert (res.iterations, res.converged, res.oscillating) == \
                (iters, conv, osc)
            np.testing.assert_allclose(res.residual_trace, trace,
                                       rtol=0.0, atol=1e-12)
            assert len(res.beliefs) == len(bel)
            for a, b in zip(res.beliefs, bel):
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)
            assert list(res.messages) == bp.half_edges(g)

    def test_scheduled_run_matches_reference_loop(self):
        for seed in range(6):
            g = in_semiring(random_graph(seed), "sum_product", 0.1, seed)
            sched = bp.half_edges(g)[::-1]
            res = bp.run(g, schedule=sched, damping=0.25)
            iters, conv, osc, trace, bel = reference_run(
                g, schedule=sched, damping=0.25)
            assert (res.iterations, res.converged, res.oscillating) == \
                (iters, conv, osc)
            np.testing.assert_allclose(res.residual_trace, trace, rtol=0.0,
                                       atol=1e-12)
            for a, b in zip(res.beliefs, bel):
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_run_oscillation_matches_reference_loop(self):
        g = gen_four_cycle("odd")
        res = bp.run(g, init="random", seed=3)
        iters, conv, osc, trace, bel = reference_run(g, init="random",
                                                     seed=3)
        assert (res.iterations, res.converged, res.oscillating) == \
            (iters, conv, osc) == (200, False, True)
        np.testing.assert_allclose(res.residual_trace, trace, rtol=0.0,
                                   atol=1e-12)

    def test_random_init_draws_in_half_edge_order(self):
        g = random_graph(3)
        r = np.random.default_rng(5)
        m = bp.init_messages(g, "random", seed=5)
        assert list(m) == bp.half_edges(g)
        for h in bp.half_edges(g):
            np.testing.assert_array_equal(
                m[h], r.uniform(0.1, 1.0, g.cardinality(h.variable_id)))

    def test_beliefs_match_single_edge_products(self):
        for seed in range(10):
            g = in_semiring(random_graph(seed), "sum_product", 0.2, seed)
            m = random_messages(g, seed, zero_frac=0.3)
            got, degenerate = bp.beliefs(g, m)
            want = []
            for v in g.variables:
                b = np.ones(v.cardinality)
                for f in g.var_neighbors(v.id):
                    b = b * m[HalfEdge(f, v.id, Direction.FAC_TO_VAR)]
                want.append(b)
            assert degenerate == [i for i, b in enumerate(want)
                                  if not b.any()]
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, g.ops.normalize(b),
                                           rtol=1e-12, atol=0.0)
