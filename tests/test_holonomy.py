import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hatcc.factor_graph import (SEMIRINGS, FactorDecl, FactorGraph,
                                PotentialSlice, VariableDecl, restrict)
from hatcc.generators import (gen_four_cycle, gen_grid_mrf,
                              gen_permutation_graph)
from helpers import count_calls
from hatcc import holonomy
from hatcc.holonomy import (HolonomyMatrix, InterfaceCapExceeded,
                            compose, diagnose, holonomy_matrix, is_trivial,
                            loop_holonomies, mode_quotient,
                            report_to_json_dict, structural_checksum,
                            transport_kernel)
from hatcc.nerve import NerveEdge, backbone, build_factor_nerve, \
    fundamental_cycle


def _h(matrix) -> HolonomyMatrix:
    edge = NerveEdge(0, 1, (0,), 0.0)
    return HolonomyMatrix(edge, (0,), np.asarray(matrix, dtype=bool))


class TestTransportKernel:
    def test_copy_factor_identity(self):
        g = gen_four_cycle("even")
        # factor 3 couples D and A with a copy constraint
        k, = transport_kernel(g, [(3, (0,), (3,))])
        np.testing.assert_array_equal(k, np.eye(2, dtype=bool))

    def test_not_factor_antidiagonal(self):
        g = gen_four_cycle("odd")
        # factor 2 couples C and D with a NOT constraint
        k, = transport_kernel(g, [(2, (3,), (2,))])
        np.testing.assert_array_equal(k, [[False, True], [True, False]])

    def test_all_zero_potential_empty_kernel(self):
        g = FactorGraph("sum_product",
                        (VariableDecl(0, 2), VariableDecl(1, 2)),
                        (FactorDecl(0, (0, 1), [0.0] * 4),))
        k, = transport_kernel(g, [(0, (0,), (1,))])
        assert not k.any()

    def test_overlapping_interfaces_require_agreement(self):
        g = FactorGraph("sum_product",
                        (VariableDecl(0, 2), VariableDecl(1, 2)),
                        (FactorDecl(0, (0, 1), [1.0] * 4),))
        k, = transport_kernel(g, [(0, (0,), (0, 1))])
        # source state x supports only target states agreeing on var 0
        for x in range(2):
            for y in range(4):
                y0 = y // 2
                assert k[x, y] == (x == y0)

    def test_scope_violation_rejected(self):
        g = gen_four_cycle("even")
        with pytest.raises(ValueError):
            transport_kernel(g, [(0, (2,), (0,))])

    def test_matches_restriction_support(self):
        r = np.random.default_rng(0)
        for seed in range(20):
            rr = np.random.default_rng(seed)
            table = rr.uniform(0, 1, (2, 3, 2))
            table[table < 0.4] = 0.0
            g = FactorGraph("sum_product",
                            (VariableDecl(0, 2), VariableDecl(1, 3),
                             VariableDecl(2, 2)),
                            (FactorDecl(0, (0, 1, 2), table.ravel()),))
            k, = transport_kernel(g, [(0, (0,), (2,))])
            marg = restrict(PotentialSlice((0, 1, 2), table), (0, 2),
                            SEMIRINGS["sum_product"])
            np.testing.assert_array_equal(k, marg.table > 0)

    def test_tolerance_drops_small_entries(self):
        table = np.array([[1.0, 0.05], [0.05, 1.0]])
        g = FactorGraph("sum_product",
                        (VariableDecl(0, 2), VariableDecl(1, 2)),
                        (FactorDecl(0, (0, 1), table.ravel()),))
        exact, = transport_kernel(g, [(0, (0,), (1,))])
        assert exact.all()
        tol, = transport_kernel(g, [(0, (0,), (1,))], tol=0.1)
        np.testing.assert_array_equal(tol, np.eye(2, dtype=bool))


@st.composite
def kernel_cases(draw):
    """A factor over up to four variables of cardinality 1-3, with some
    zero entries, and a source and target drawn from its scope: they may
    share variables, leave some out, or be empty."""
    cards = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    scope = tuple(draw(st.permutations(range(len(cards)))))
    size = math.prod(cards)
    table = np.array(draw(st.lists(st.sampled_from((0.0, 0.04, 0.5, 1.0)),
                                   min_size=size, max_size=size)))
    part = st.lists(st.sampled_from(scope), unique=True, max_size=len(scope))
    return (cards, scope, table, tuple(draw(part)), tuple(draw(part)),
            draw(st.sampled_from((0.0, 0.05))))


def brute_kernel(cards, scope, table, source, target, tol):
    """Entry (x, y) is 1 iff some full configuration agreeing with x on
    the source and y on the target has weight above tol."""
    nd = table.reshape([cards[v] for v in scope])
    kernel = np.zeros((math.prod(cards[v] for v in source),
                       math.prod(cards[v] for v in target)), dtype=bool)
    for config in itertools.product(*(range(cards[v]) for v in scope)):
        if nd[config] <= tol:
            continue
        state = dict(zip(scope, config))
        x = np.ravel_multi_index([state[v] for v in source],
                                 [cards[v] for v in source]) if source else 0
        y = np.ravel_multi_index([state[v] for v in target],
                                 [cards[v] for v in target]) if target else 0
        kernel[x, y] = True
    return kernel


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
@example(([2, 3], (0, 1), np.arange(6.0), (0,), (0, 1), 0.0))  # shared
@example(([2, 3, 2], (2, 0, 1), np.ones(12), (1,), (), 0.05))  # empty target
@example(([2, 2], (1, 0), np.eye(2).ravel(), (), (), 0.0))  # both empty
def test_transport_kernel_matches_enumeration(case):
    cards, scope, table, source, target, tol = case
    g = FactorGraph("sum_product",
                    tuple(VariableDecl(i, c) for i, c in enumerate(cards)),
                    (FactorDecl(0, scope, table),))
    # the request and its reverse, built in one call
    k, back = transport_kernel(g, [(0, source, target), (0, target, source)],
                               tol)
    assert k.shape == (math.prod(cards[v] for v in source),
                       math.prod(cards[v] for v in target))
    np.testing.assert_array_equal(
        k, brute_kernel(cards, scope, table, source, target, tol))
    np.testing.assert_array_equal(back, k.T)


@st.composite
def loop_cases(draw):
    """A factor graph on four variables of cardinality 1-3 with some zero
    entries, and closed loops of its factors.  Each interface is a subset
    (maybe empty) of the scopes of the two factors it joins, so a factor
    may carry shared variables and drop others; mixed cardinalities give
    one call several sequences of interface sizes."""
    cards = draw(st.lists(st.integers(1, 3), min_size=4, max_size=4))
    scopes = draw(st.lists(st.lists(st.integers(0, 3), min_size=1,
                                    max_size=3, unique=True),
                           min_size=2, max_size=5))
    tables = [np.array(draw(st.lists(
        st.sampled_from((0.0, 0.04, 0.5, 1.0)), min_size=n, max_size=n)))
        for n in (math.prod(cards[v] for v in s) for s in scopes)]
    loops = []
    for _ in range(draw(st.integers(1, 6))):
        factors = draw(st.lists(st.integers(0, len(scopes) - 1),
                                min_size=1, max_size=5))
        interfaces = [tuple(draw(st.lists(st.sampled_from(sorted(
            set(scopes[f]) & set(scopes[g]))), unique=True)))
            if set(scopes[f]) & set(scopes[g]) else ()
            for f, g in zip(factors, factors[1:] + factors[:1])]
        loops.append((factors, interfaces))
    return (cards, [tuple(s) for s in scopes], tables, loops,
            draw(st.sampled_from((0.0, 0.05))),
            draw(st.sampled_from((1, 4, 2 ** 16))))


@given(loop_cases())
@settings(max_examples=200, deadline=None)
def test_loop_holonomies_match_an_integer_fold(case):
    cards, scopes, tables, loops, tol, cap = case
    g = FactorGraph("sum_product",
                    tuple(VariableDecl(i, c) for i, c in enumerate(cards)),
                    tuple(FactorDecl(i, s, t)
                          for i, (s, t) in enumerate(zip(scopes, tables))))
    if max(math.prod(cards[v] for v in J)
           for _f, interfaces in loops for J in interfaces) > cap:
        with pytest.raises(InterfaceCapExceeded):
            loop_holonomies(g, loops, tol, cap)
        return
    matrices, identity, fixed = loop_holonomies(g, loops, tol, cap)
    assert len(matrices) == len(identity) == len(fixed) == len(loops)
    for (factors, interfaces), H, ident, fix in zip(loops, matrices,
                                                    identity, fixed):
        # the loop folded one enumerated kernel at a time, in integers
        want = None
        for f, source, target in zip(factors, [interfaces[-1], *interfaces],
                                     interfaces):
            k = brute_kernel(cards, scopes[f], tables[f], source, target,
                             tol).astype(np.int64)
            want = k if want is None else np.minimum(want @ k, 1)
        np.testing.assert_array_equal(H, want.astype(bool))
        assert ident == np.array_equal(want, np.eye(len(want), dtype=int))
        assert fix == np.diagonal(want).any()


class TestCompose:
    def test_exact_past_255_paths(self):
        # 256 paths from the one source state to the one target state
        out = compose(np.ones((1, 256), bool), np.ones((256, 1), bool))
        np.testing.assert_array_equal(out, [[True]])

    def test_matches_integer_product(self):
        r = np.random.default_rng(0)
        for n in (2, 7, 16, 40):
            a, b = r.random((n, n)) < 0.2, r.random((n, n)) < 0.2
            want = (a.astype(int) @ b.astype(int)) > 0
            np.testing.assert_array_equal(compose(a, b), want)


def _chord_cycle(graph):
    bb = backbone(build_factor_nerve(graph))
    return fundamental_cycle(graph, bb, bb.chords[0])


class TestHolonomyMatrix:
    def test_odd_cycle_swap(self):
        g = gen_four_cycle("odd")
        H = holonomy_matrix(g, _chord_cycle(g))
        np.testing.assert_array_equal(H.matrix.astype(int),
                                      [[0, 1], [1, 0]])

    def test_even_cycle_identity(self):
        g = gen_four_cycle("even")
        H = holonomy_matrix(g, _chord_cycle(g))
        assert is_trivial(H)

    def test_uniform_support_cycle_all_ones(self):
        # positive tables everywhere: every state reaches every state
        r = np.random.default_rng(1)
        variables = tuple(VariableDecl(i, 2) for i in range(4))
        factors = tuple(
            FactorDecl(i, (i, (i + 1) % 4), r.uniform(0.1, 1, 4))
            for i in range(4))
        g = FactorGraph("sum_product", variables, factors)
        H = holonomy_matrix(g, _chord_cycle(g))
        assert H.matrix.all()

    def test_composition_association_invariance(self):
        g = gen_four_cycle("odd")
        cyc = _chord_cycle(g)
        interfaces = cyc.interface_sequence
        kernels = transport_kernel(g, list(zip(
            cyc.factor_sequence, [interfaces[-1], *interfaces], interfaces)))
        left = kernels[0]
        for k in kernels[1:]:
            left = compose(left, k)
        right = kernels[-1]
        for k in reversed(kernels[:-1]):
            right = compose(k, right)
        np.testing.assert_array_equal(left, right)

    def test_interface_cap_enforced(self):
        g = gen_four_cycle("odd")
        with pytest.raises(InterfaceCapExceeded):
            holonomy_matrix(g, _chord_cycle(g), cap=1)


class TestModeQuotient:
    def test_swap_single_mode(self):
        q = mode_quotient(_h([[0, 1], [1, 0]]))
        assert q.modes == ((0, 1),)
        assert not q.fixed_point_mask.any()

    def test_identity_singleton_modes(self):
        q = mode_quotient(_h(np.eye(2)))
        assert q.modes == ((0,), (1,))
        assert list(q.quotient) == [0, 1]
        assert q.fixed_point_mask.all()

    def test_zero_matrix_singletons_no_fixed_points(self):
        q = mode_quotient(_h(np.zeros((3, 3))))
        assert q.modes == ((0,), (1,), (2,))
        assert not q.fixed_point_mask.any()

    def test_quotient_soundness_mutual_reachability(self):
        r = np.random.default_rng(4)
        for _ in range(60):
            n = int(r.integers(2, 41))
            mat = r.random((n, n)) < r.uniform(0.0, 0.3)
            q = mode_quotient(_h(mat))
            # reflexive-transitive closure by Warshall, without compose
            reach = mat | np.eye(n, dtype=bool)
            for k in range(n):
                reach |= np.outer(reach[:, k], reach[k])
            mutual = reach & reach.T
            # sound and complete: each mode is one mutual-reachability class
            for mode in q.modes:
                for x in mode:
                    assert tuple(np.flatnonzero(mutual[x])) == mode
            # sorted, ordered by least member, each state in one mode
            assert all(list(m) == sorted(m) for m in q.modes)
            assert [m[0] for m in q.modes] == sorted(m[0] for m in q.modes)
            assert sorted(x for m in q.modes for x in m) == list(range(n))
            # the quotient names each state's mode
            for i, mode in enumerate(q.modes):
                assert all(q.quotient[x] == i for x in mode)


class TestTriviality:
    def test_identity_trivial(self):
        assert is_trivial(_h(np.eye(3)))

    def test_swap_not_trivial(self):
        assert not is_trivial(_h([[0, 1], [1, 0]]))

    def test_upper_triangular_not_trivial(self):
        assert not is_trivial(_h([[1, 1], [0, 1]]))


class TestRankOne:
    def test_full_support_factor_decides_without_composition(
            self, monkeypatch):
        kernels = count_calls(monkeypatch, holonomy, "transport_kernel")
        composed = count_calls(monkeypatch, holonomy, "compose")
        rep = diagnose(gen_grid_mrf(3, 3, 0.7, 0.5, 0))
        assert [cr.rank_one for cr in rep.chords] == [True] * 4
        assert [cr.trivial for cr in rep.chords] == [False] * 4
        assert kernels == composed == []
        # the matrices, built together on the first read, agree: rank 1
        # and all ones
        passes = count_calls(monkeypatch, holonomy, "loop_holonomies")
        for cr in rep.chords:
            assert cr.holonomy.matrix.all() and not is_trivial(cr.holonomy)
        assert len(passes) == 1

    def test_diagnose_composes_the_open_chords_in_one_pass(self,
                                                           monkeypatch):
        # a consistent hard permutation grid, with one factor smoothed:
        # the chords through it are rank-1, the others stay open
        g = gen_permutation_graph("grid", 3, 0.0, 0, consistent=True,
                                  rows=3, cols=3).graph
        smooth = g.factors[0].id
        g = FactorGraph("sum_product", g.variables, tuple(
            FactorDecl(f.id, f.scope, f.table + 0.2 * (f.id == smooth))
            for f in g.factors))
        passes = count_calls(monkeypatch, holonomy, "loop_holonomies")
        rep = diagnose(g)
        flags = [cr.rank_one for cr in rep.chords]
        assert any(flags) and not all(flags)
        assert len(passes) == 1
        assert all(cr.trivial for cr in rep.chords if not cr.rank_one)
        assert not any(cr.trivial for cr in rep.chords if cr.rank_one)
        assert set(rep.timings) == {"nerve", "backbone", "cycles",
                                    "holonomy"}

    def test_loops_of_one_size_compose_as_one_padded_stack(self,
                                                          monkeypatch):
        # no field and no noise: every chord is open and every interface
        # one variable of 3 states; the shorter loops are padded with the
        # identity, so the stack takes (longest loop - 1) steps
        g = gen_permutation_graph("grid", 3, 0.0, 0, consistent=True,
                                  rows=3, cols=4).graph
        kernels = count_calls(monkeypatch, holonomy, "transport_kernel")
        composed = count_calls(monkeypatch, holonomy, "compose")
        rep = diagnose(g)
        lengths = [len(cr.cycle.factor_sequence) for cr in rep.chords]
        assert len(set(lengths)) > 1
        assert {cr.interface_states for cr in rep.chords} == {3}
        assert not any(cr.rank_one for cr in rep.chords)
        assert all(cr.trivial for cr in rep.chords)
        assert len(kernels) == 1
        assert len(composed) == max(lengths) - 1

    def test_rule_needs_disjoint_interfaces_and_two_states(self):
        # hard copy constraints: no factor has full support
        rep = diagnose(gen_four_cycle("even"))
        assert not rep.chords[0].rank_one and rep.chords[0].trivial
        # a single-state interface: the holonomy is 1x1 and may be I
        variables = (VariableDecl(0, 1),) + tuple(
            VariableDecl(i, 2) for i in range(1, 3))
        scopes = ((0, 1), (1, 2), (2, 0))
        g = FactorGraph("sum_product", variables, tuple(
            FactorDecl(j, s, np.ones(math.prod(variables[v].cardinality
                                               for v in s)))
            for j, s in enumerate(scopes)))
        rep = diagnose(g)
        assert [cr.rank_one for cr in rep.chords] == [False]
        assert rep.chords[0].trivial
        # a tolerance can remove full support
        table = [1.0, 0.01, 0.01, 1.0]
        g = FactorGraph("sum_product",
                        tuple(VariableDecl(i, 2) for i in range(4)),
                        tuple(FactorDecl(i, (i, (i + 1) % 4), table)
                              for i in range(4)))
        assert diagnose(g).chords[0].rank_one
        assert not diagnose(g, tol=0.1).chords[0].rank_one
        assert diagnose(g, tol=0.1).chords[0].trivial

    def test_report_reads_as_when_composed_eagerly(self):
        rep = diagnose(gen_grid_mrf(3, 3, 2.0, 0.3, 0))
        d = report_to_json_dict(rep)
        for cr, row in zip(rep.chords, d["chords"]):
            H = holonomy_matrix(gen_grid_mrf(3, 3, 2.0, 0.3, 0), cr.cycle)
            assert row["trivial"] == is_trivial(H) is False
            assert row["matrix_rows"] == ["".join("1" if x else "0"
                                                  for x in r)
                                          for r in H.matrix]
            assert row["mode_sizes"] == [len(m) for m in
                                         mode_quotient(H).modes]


class TestReport:
    def test_report_rows_for_odd_cycle(self):
        from hatcc.holonomy import report_to_json_dict
        rep = diagnose(gen_four_cycle("odd"))
        d = report_to_json_dict(rep)
        assert d["n_chords"] == 1
        assert d["chords"][0]["matrix_rows"] == ["01", "10"]
        assert d["chords"][0]["mode_sizes"] == [2]
        assert not d["chords"][0]["trivial"]

    def test_checksum_stable_and_parity_sensitive(self):
        odd = structural_checksum(diagnose(gen_four_cycle("odd")))
        odd2 = structural_checksum(diagnose(gen_four_cycle("odd")))
        even = structural_checksum(diagnose(gen_four_cycle("even")))
        assert odd == odd2
        assert odd != even
