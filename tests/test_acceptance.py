"""Acceptance gate: one test per release criterion.

Each test enforces both the accuracy tolerance and the wall-clock budget
of its criterion, so ``pytest -v tests/test_acceptance.py`` prints one
pass/fail line per criterion.
"""
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import random_graph, random_nerve_tree
from hatcc import bp_engine as bp
from hatcc.compile import augment, check_descent_datum, hatcc_infer
from hatcc.factor_graph import (SEMIRINGS, FactorDecl, FactorGraph,
                                PotentialSlice, VariableDecl, restrict)
from hatcc.generators import (gen_four_cycle, gen_grid_mrf,
                              gen_permutation_graph, gen_zk_sync)
from hatcc.holonomy import diagnose
from hatcc.metrics import mean_tv
from hatcc.oracle import exact_marginals
from hatcc.sectors import decompose, sector_infer


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.seconds, \
                f"runtime {elapsed:.2f}s exceeds the {self.seconds}s budget"


def test_criterion_1_worked_example_fidelity():
    with Budget(1.0):
        g = gen_four_cycle("odd")
        rep = diagnose(g)
        edges = {e.key: e.interface for e in rep.nerve.edges}
        assert edges == {(0, 1): (1,), (1, 2): (2,), (2, 3): (3,),
                         (0, 3): (0,)}
        assert len(rep.chords) == 1
        cr = rep.chords[0]
        np.testing.assert_array_equal(cr.holonomy.matrix.astype(int),
                                      [[0, 1], [1, 0]])
        assert cr.quotient.modes == ((0, 1),)
        res = hatcc_infer(g)
        assert res.status == "unsat"


def test_criterion_2_tree_exactness():
    with Budget(30.0):
        for seed in range(200):
            g = random_nerve_tree(seed, max_vars=12)
            rep = diagnose(g)
            assert rep.backbone.chords == ()
            truth = exact_marginals(g)
            bel, Z, _deg = bp.run_tree_exact(g)
            res = hatcc_infer(g)
            for b, h, t in zip(bel, res.marginals, truth.marginals):
                assert 0.5 * np.abs(b - t).sum() < 1e-10
                assert 0.5 * np.abs(h - t).sum() < 1e-10


def test_criterion_3_trivial_holonomy_exactness():
    with Budget(60.0):
        for seed in range(100):
            topology = "cycle" if seed % 2 == 0 else "random"
            if seed % 4 < 2:
                domain, n = 2, 6 + seed % 9  # up to 14 variables
            else:
                domain, n = 3, 5 + seed % 4
            inst = gen_permutation_graph(topology, domain, 0.0, seed,
                                         consistent=True, n=n, p=0.35)
            g = inst.graph
            rep = diagnose(g)
            assert all(cr.trivial for cr in rep.chords)
            res = hatcc_infer(g)
            truth = exact_marginals(g)
            for h, t in zip(res.marginals, truth.marginals):
                assert 0.5 * np.abs(h - t).sum() < 1e-10
            assert abs(res.Z - truth.Z) <= 1e-10 * truth.Z


def test_criterion_4_gauge_semi_equivariance():
    with Budget(10.0):
        for seed in range(500):
            g = random_graph(seed % 40)
            r = np.random.default_rng(10_000 + seed)
            hs = bp.half_edges(g)
            m = {h: r.uniform(0.1, 1, g.cardinality(h.variable_id))
                 for h in hs}
            k1 = {h: float(r.uniform(0.2, 3)) for h in hs}
            k2 = {h: float(r.uniform(0.2, 3)) for h in hs}
            lhs = bp.step_parallel(g, bp.gauge_act(k1, m))
            rhs = bp.gauge_act(bp.gauge_propagate(g, k1),
                               bp.step_parallel(g, m))
            for h in hs:
                np.testing.assert_allclose(lhs[h], rhs[h], rtol=1e-12)
            prod = bp.gauge_propagate(g, {h: k1[h] * k2[h] for h in hs})
            a = bp.gauge_propagate(g, k1)
            b = bp.gauge_propagate(g, k2)
            for h in hs:
                assert prod[h] == pytest.approx(a[h] * b[h], rel=1e-12)


def test_criterion_5_presheaf_descent_suite():
    sr = SEMIRINGS["sum_product"]
    with Budget(10.0):
        # functoriality of restriction on nested scope triples
        for seed in range(500):
            r = np.random.default_rng(seed)
            n = int(r.integers(3, 7))
            cards = tuple(int(r.integers(2, 4)) for _ in range(n))
            full = PotentialSlice(tuple(range(n)),
                                  r.uniform(0.1, 2.0, cards))
            mid = tuple(sorted(r.choice(n, size=int(r.integers(2, n + 1)),
                                        replace=False).tolist()))
            low = tuple(sorted(r.choice(
                mid, size=int(r.integers(1, len(mid) + 1)),
                replace=False).tolist()))
            via = restrict(restrict(full, mid, sr), low, sr)
            direct = restrict(full, low, sr)
            np.testing.assert_allclose(via.table, direct.table, rtol=1e-12)

        # restrictions of a global table always form a descent datum
        for seed in range(50):
            r = np.random.default_rng(5000 + seed)
            n = 6
            g = FactorGraph("sum_product",
                            tuple(VariableDecl(i, 2) for i in range(n)), ())
            full = PotentialSlice(tuple(range(n)),
                                  r.uniform(0.1, 2.0, (2,) * n))
            cover = []
            uncovered = set(range(n))
            while uncovered or len(cover) < 2:
                size = int(r.integers(2, 5))
                piece = tuple(sorted(r.choice(n, size=size,
                                              replace=False).tolist()))
                cover.append(piece)
                uncovered -= set(piece)
            tables = [restrict(full, p, sr) for p in cover]
            rep = check_descent_datum(g, cover, tables, tolerance=1e-9)
            assert rep.compatible

        # locally consistent but chord-inconsistent tables must fail
        g = gen_four_cycle("odd")
        cover = [(0, 1), (1, 2), (2, 3), (0, 3)]
        tables = [
            PotentialSlice((0, 1), [[0.6, 0.0], [0.0, 0.4]]),
            PotentialSlice((1, 2), [[0.6, 0.0], [0.0, 0.4]]),
            PotentialSlice((2, 3), [[0.0, 0.6], [0.4, 0.0]]),
            PotentialSlice((3, 0), [[0.4, 0.0], [0.0, 0.6]]),
        ]
        assert not check_descent_datum(g, cover, tables,
                                       tolerance=1e-9).compatible


def test_criterion_6_breakdown_correlation():
    eta, k, n = 0.1, 2, 8
    eps_grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    with Budget(120.0):
        conv_rates = []
        gen_means = []
        for eps in eps_grid:
            conv = 0
            gens = 0
            for seed in range(20):
                inst = gen_zk_sync("cycle", k, eta, eps, seed, n=n)
                res = bp.run(inst.graph, init="random", seed=seed)
                conv += int(res.converged)
                dec = decompose(inst.graph, tol=eta / k)
                gens += sum(
                    1 for g in dec.generators
                    if not np.array_equal(g, np.eye(g.shape[0],
                                                    dtype=bool)))
            conv_rates.append(conv / 20)
            gen_means.append(gens / 20)

        # nontrivial-generator count nondecreasing in the mean
        for a, b in zip(gen_means, gen_means[1:]):
            assert b >= a - 1e-12

        # convergence rate nonincreasing in corruption within noise
        rho = spearmanr(eps_grid, conv_rates).statistic
        assert rho <= -0.5, (
            f"Spearman(eps, convergence rate) = {rho} (rates {conv_rates}); "
            "sum-product convergence on these single-cycle models is "
            "corruption-independent")


def test_criterion_7_sector_recombination():
    with Budget(60.0):
        for seed in range(50):
            n = 4 + seed % 11  # up to 14 variables
            inst = gen_zk_sync("cycle", 2, 0.2, 0.0, seed, n=max(n, 3))
            res = sector_infer(inst.graph, tol=0.1, mode="sector_bp")
            truth = exact_marginals(inst.graph)
            assert mean_tv(res.marginals, truth.marginals) < 1e-8
            assert abs(sum(res.weights) - 1.0) <= 1e-12


def test_criterion_8_structural_invariants():
    instances = []
    for seed in range(10):
        instances.append(gen_zk_sync("random", 2, 0.1, 0.5, seed,
                                     n=7, p=0.4).graph)
        instances.append(gen_permutation_graph("random", 3, 0.0, seed,
                                               consistent=True, n=6,
                                               p=0.5).graph)
        instances.append(random_nerve_tree(seed))
    instances.append(gen_grid_mrf(3, 3, 2.0, 0.3, 0))
    instances.append(gen_four_cycle("even"))
    for g in instances:
        rep = diagnose(g)
        components = len(rep.backbone.roots)
        assert len(rep.backbone.chords) == (len(rep.nerve.edges)
                                            - len(rep.nerve.vertices)
                                            + components)
        compiled = augment(g, rep)
        assert len(compiled.cluster_edges) == \
            len(compiled.graph.factors) - components


def _chain_with_chord(n_factors, seed):
    r = np.random.default_rng(seed)
    n_vars = n_factors  # chain of n-1 factors plus one closing factor
    variables = tuple(VariableDecl(i, 2) for i in range(n_vars))
    factors = [FactorDecl(i, (i, i + 1), r.uniform(0.1, 2, 4))
               for i in range(n_vars - 1)]
    factors.append(FactorDecl(n_vars - 1, (0, n_vars - 1),
                              r.uniform(0.1, 2, 4)))
    return FactorGraph("sum_product", variables, tuple(factors))


def test_criterion_9_scaling_smoke():
    sizes = [50, 100, 200, 400]
    with Budget(120.0):
        times = []
        for n in sizes:
            g = _chain_with_chord(n, seed=n)
            best = min(
                sum(t for key, t in hatcc_infer(g).timings.items()
                    if key != "marginalize")
                for _ in range(3))
            times.append(best)
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert slope <= 2.3, f"log-log slope {slope:.2f} (times {times})"
