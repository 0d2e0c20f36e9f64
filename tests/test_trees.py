"""The exact tree path under min-sum and max-product, against enumeration;
the cost of calibration; and ``calibrate`` against enumeration on random
cluster forests and on a forest whose blocks sit in non-consecutive
rows, in all four semirings."""
import dataclasses

import numpy as np

from helpers import brute_force
from hatcc import bp_engine as bp
from hatcc.compile import hatcc_infer
from hatcc.factor_graph import SEMIRINGS, FactorDecl, FactorGraph, VariableDecl
from hatcc.oracle import exact_map
from hatcc.trees import TableStacks, UnionFind, calibrate


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


class CountingUfunc:
    """A stand-in for a semiring's ``mul`` ufunc that counts the entries
    it writes, over calls, ``at`` and ``reduce``."""

    def __init__(self, ufunc):
        self.ufunc = ufunc
        self.entries = 0

    def __call__(self, a, b, out=None):
        result = self.ufunc(a, b, out=out)
        self.entries += np.size(result)
        return result

    def at(self, a, index, b):
        self.entries += np.size(a[index])
        self.ufunc.at(a, index, b)

    def reduce(self, a, *args, **kwargs):
        self.entries += np.size(a)
        return self.ufunc.reduce(a, *args, **kwargs)


def test_calibrate_multiplies_linear_in_cluster_degree():
    # a hub cluster joined to d leaves, all over one binary variable: every
    # belief is the product of all d + 1 tables
    def multiplied(d):
        mul = CountingUfunc(np.multiply)
        sr = dataclasses.replace(SEMIRINGS["sum_product"], mul=mul)
        tables = list(np.random.default_rng(d).uniform(0.5, 2.0, (d + 1, 2)))
        beliefs, Z = calibrate(sr, [(0,)] * (d + 1), TableStacks.of(tables),
                               [(0, i, (0,)) for i in range(1, d + 1)])
        for b in beliefs:
            np.testing.assert_allclose(b, np.prod(tables, axis=0),
                                       rtol=1e-12)
        np.testing.assert_allclose(Z, np.prod(tables, axis=0).sum(),
                                   rtol=1e-12)
        return mul.entries

    counts = [multiplied(d) for d in (100, 200, 400)]
    # O(d) doubles with d; the O(d^2) gather quadrupled
    for small, big in zip(counts, counts[1:]):
        assert big < 2.5 * small, counts


# ---------------------------------------------------------------------------
# calibrate against enumeration on random cluster forests
# ---------------------------------------------------------------------------

def random_forest(rng):
    """Random cluster forest with running intersection: each child's scope
    is part of its parent's (the separator, possibly empty) plus fresh
    variables, in shuffled axis order; roots may have empty scopes.
    Returns cards, scopes, edges ``(a, b, separator)`` in random
    orientation, and the roots to pass."""
    cards: list[int] = []

    def fresh(k):
        cards.extend(int(c) for c in rng.integers(1, 4, size=k))
        return list(range(len(cards) - k, len(cards)))

    scopes: list[tuple] = []
    edges = []
    for _component in range(int(rng.integers(1, 4))):
        first = len(scopes)
        scopes.append(tuple(fresh(int(rng.integers(0, 3)))))
        for _child in range(int(rng.integers(0, 6))):
            par = int(rng.integers(first, len(scopes)))
            sep = tuple(v for v in scopes[par] if rng.random() < 0.6)
            scope = [*sep, *fresh(int(rng.integers(0, 3)))]
            rng.shuffle(scope)
            edge = (par, len(scopes), tuple(rng.permutation(sep).tolist()))
            edges.append(edge if rng.random() < 0.5
                         else (edge[1], edge[0], edge[2]))
            scopes.append(tuple(scope))
    roots = [int(r) for r in rng.choice(len(scopes), size=2)]
    return cards, scopes, edges, roots


def random_table(rng, sr, shape):
    """Entries with about a third at the semiring zero."""
    if sr.name == "boolean":
        table = np.array(rng.random(shape) < 0.7, dtype=float)
    else:
        table = np.array(rng.uniform(0.1, 3.0, shape))
    table[np.asarray(rng.random(shape) < 0.3)] = sr.zero
    return table


def enumerated_beliefs(sr, cards, scopes, tables, edges):
    """Each cluster's belief, the marginal of the joint table of its own
    component, and Z, the semiring product of the components' totals."""
    uf = UnionFind(len(scopes))
    for a, b, _sep in edges:
        uf.union(a, b)
    n = len(cards)
    beliefs: list = [None] * len(scopes)
    Z = sr.one
    for comp in {uf.find(c) for c in range(len(scopes))}:
        members = [c for c in range(len(scopes)) if uf.find(c) == comp]
        joint = np.full(cards, sr.one)
        for c in members:
            axes = sorted(range(len(scopes[c])), key=scopes[c].__getitem__)
            view = [1] * n
            for v in scopes[c]:
                view[v] = cards[v]
            joint = sr.mul(joint, tables[c].transpose(axes).reshape(view))
        # the joint is constant along variables outside the component
        held = {v for c in members for v in scopes[c]}
        joint = joint[tuple(slice(None) if v in held else slice(0, 1)
                            for v in range(n))]
        for c in members:
            scope = scopes[c]
            b = sr.add_reduce(joint, tuple(v for v in range(n)
                                           if v not in scope))
            beliefs[c] = b.transpose(np.argsort(np.argsort(scope)))
        Z = sr.mul(Z, sr.add_reduce(joint, None))
    return beliefs, float(Z)


def test_calibrate_matches_enumeration_on_random_forests():
    for semiring, sr in SEMIRINGS.items():
        for seed in range(40):
            rng = np.random.default_rng(seed)
            cards, scopes, edges, roots = random_forest(rng)
            tables = [random_table(rng, sr, tuple(cards[v] for v in s))
                      for s in scopes]
            # a child whose message is the zero at a separator state, so
            # the downward pass divides zero by zero there
            for a, b, sep in edges[:1]:
                if sep:
                    child = b if len(scopes[b]) > 0 else a
                    pick = [slice(None)] * len(scopes[child])
                    pick[scopes[child].index(sep[0])] = 0
                    tables[child][tuple(pick)] = sr.zero
            want, want_Z = enumerated_beliefs(sr, cards, scopes, tables, edges)
            stacks = TableStacks.of(tables)
            got, Z = calibrate(sr, scopes, stacks, edges, roots)
            # the caller's stacks are left as they were, and the beliefs
            # keep their layout
            for t, s in zip(tables, stacks):
                np.testing.assert_array_equal(s, t)
            assert (got.stack, got.row) == (stacks.stack, stacks.row)
            assert len(got) == len(scopes)
            np.testing.assert_allclose(Z, want_Z, rtol=1e-12)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-300,
                                           err_msg=f"{semiring} {seed}")


def test_calibrate_matches_enumeration_on_non_consecutive_rows():
    # clusters 1 and 3 are the root's children, one block of level 1, and
    # cluster 2, a grandchild of the same shape, sits between them in
    # their stack; both children hang off one parent row
    cards = [2, 3, 2, 2, 3]
    scopes = [(0, 1), (1, 2), (4, 2), (1, 3)]
    edges = [(0, 1, (1,)), (1, 2, (2,)), (0, 3, (1,))]
    for semiring, sr in SEMIRINGS.items():
        for seed in range(10):
            rng = np.random.default_rng(seed)
            tables = [random_table(rng, sr, tuple(cards[v] for v in s))
                      for s in scopes]
            stacks = TableStacks.of(tables)
            assert [stacks.row[c] for c in (1, 2, 3)] == [0, 1, 2]
            want, want_Z = enumerated_beliefs(sr, cards, scopes, tables, edges)
            got, Z = calibrate(sr, scopes, stacks, edges, [0])
            np.testing.assert_allclose(Z, want_Z, rtol=1e-12)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-300,
                                           err_msg=f"{semiring} {seed}")
