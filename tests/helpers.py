"""Graph builders and brute-force references shared by the test modules."""
import itertools
import math
from collections import Counter

import numpy as np

from hatcc.factor_graph import (SEMIRINGS, FactorDecl, FactorGraph,
                                VariableDecl, joint_weight)
from hatcc.nerve import FactorNerve, NerveEdge
from hatcc.trees import UnionFind


def random_pairwise_tree(seed: int, n: int = 10,
                         semiring: str = "sum_product") -> FactorGraph:
    """Random variable-tree with positive pairwise tables."""
    r = np.random.default_rng(seed)
    variables = tuple(VariableDecl(i, 2) for i in range(n))
    factors = []
    for i in range(1, n):
        j = int(r.integers(0, i))
        factors.append(FactorDecl(len(factors), (j, i),
                                  r.uniform(0.1, 2.0, 4)))
    return FactorGraph(semiring, variables, tuple(factors))


def random_nerve_tree(seed: int, max_vars: int = 12) -> FactorGraph:
    """Random tree whose factor nerve is also a tree.

    Every variable is used by at most two factors, so the nerve has no
    cliques and hence no chords.
    """
    r = np.random.default_rng(seed)
    n_vars = 0
    scopes: list[tuple[int, ...]] = []
    open_vars: list[int] = []
    k = int(r.integers(1, 4))
    scopes.append(tuple(range(k)))
    n_vars = k
    open_vars = list(range(k))
    while n_vars < max_vars and open_vars:
        attach = int(open_vars[r.integers(0, len(open_vars))])
        open_vars.remove(attach)
        k = int(r.integers(1, 3))
        fresh = list(range(n_vars, min(n_vars + k, max_vars)))
        n_vars += len(fresh)
        scopes.append(tuple([attach] + fresh))
        open_vars += fresh
    variables = tuple(VariableDecl(i, 2) for i in range(n_vars))
    rt = np.random.default_rng(seed + 10 ** 6)
    factors = tuple(
        FactorDecl(i, s, rt.uniform(0.1, 2.0, 2 ** len(s)))
        for i, s in enumerate(scopes))
    return FactorGraph("sum_product", variables, factors)


def random_graph(seed: int, n: int = 6, m: int = 5,
                 max_card: int = 3) -> FactorGraph:
    """Random multi-arity factor graph with positive tables."""
    r = np.random.default_rng(seed)
    variables = tuple(VariableDecl(i, int(r.integers(2, max_card + 1)))
                      for i in range(n))
    factors = []
    for j in range(m):
        k = int(r.integers(1, min(4, n + 1)))
        scope = tuple(int(x) for x in r.choice(n, size=k, replace=False))
        size = int(np.prod([variables[v].cardinality for v in scope]))
        factors.append(FactorDecl(j, scope, r.uniform(0.1, 2.0, size)))
    return FactorGraph("sum_product", variables, tuple(factors))


def brute_force(graph: FactorGraph):
    """Semiring total and per-variable best-weight marginals, normalized
    by the semiring (min subtracted under min-sum, max divided out under
    max-product)."""
    sr = graph.ops
    cards = [v.cardinality for v in graph.variables]
    marg = [np.full(c, sr.zero) for c in cards]
    total = sr.zero
    for state in itertools.product(*map(range, cards)):
        w = joint_weight(graph, state)
        total = sr.add(total, w)
        for v, s in enumerate(state):
            marg[v][s] = sr.add(marg[v][s], w)
    return float(total), [sr.normalize(m) for m in marg]


def all_pairs_nerve(graph: FactorGraph) -> FactorNerve:
    """Reference nerve: every pair of factors whose scopes overlap."""
    scopes = [set(f.scope) for f in graph.factors]
    edges = []
    overlaps = [0] * len(scopes)
    for i, j in itertools.combinations(range(len(scopes)), 2):
        interface = tuple(sorted(scopes[i] & scopes[j]))
        if interface:
            w = sum(math.log(graph.cardinality(v)) for v in interface)
            edges.append(NerveEdge(i, j, interface, w))
            overlaps[i] += 1
            overlaps[j] += 1
    return FactorNerve(tuple(range(len(scopes))), tuple(edges),
                       tuple(overlaps))


def random_cnf(seed: int, n: int, m: int,
               semiring: str = "boolean") -> FactorGraph:
    """Random 3-CNF on ``n`` binary variables with ``m`` clauses.

    Each clause is a factor on three distinct variables whose table is
    the semiring one except at the single assignment that falsifies it,
    where it is the semiring zero.  Under sum-product Z counts models.
    """
    sr = SEMIRINGS[semiring]
    r = np.random.default_rng(seed)
    factors = []
    for j in range(m):
        scope = tuple(int(v) for v in r.choice(n, size=3, replace=False))
        falsifying = tuple(int(b) for b in r.integers(0, 2, 3))
        table = np.full((2, 2, 2), sr.one)
        table[falsifying] = sr.zero
        factors.append(FactorDecl(j, scope, table.ravel()))
    return FactorGraph(semiring, tuple(VariableDecl(i, 2) for i in range(n)),
                       tuple(factors))


def in_semiring(graph: FactorGraph, semiring: str) -> FactorGraph:
    """The same positive model under another semiring: energies -log t
    under min-sum; under Boolean, the entries at least their factor's
    mean (the support of a 0/1 table, an agreement pattern otherwise)."""
    def table(t):
        if semiring == "min_sum":
            with np.errstate(divide="ignore"):
                return -np.log(t)
        if semiring == "boolean":
            return (t >= t.mean()).astype(float)
        return t
    return FactorGraph(semiring, graph.variables, tuple(
        FactorDecl(f.id, f.scope, table(f.table)) for f in graph.factors))


def enumerate_semiring(graph: FactorGraph):
    """Semiring total and normalized per-variable marginals by building
    the full joint table: max-marginals under max-product, min-energy
    marginals under min-sum.  For desk-sized models only."""
    sr = graph.ops
    n = len(graph.variables)
    shape = tuple(v.cardinality for v in graph.variables)
    joint = np.full(shape, sr.one)
    for f in graph.factors:
        axes = sorted(range(len(f.scope)), key=lambda i: f.scope[i])
        view = [1] * n
        for v in f.scope:
            view[v] = shape[v]
        joint = sr.mul(joint, graph.factor_nd(f).transpose(axes)
                       .reshape(view))
    total = float(sr.add_reduce(joint, None))
    marg = [sr.normalize(sr.add_reduce(
        joint, tuple(a for a in range(n) if a != v))) for v in range(n)]
    return total, marg


def running_intersection_violations(scopes, edges) -> list:
    """Variables whose holding clusters do not form a connected subtree
    of the cluster forest ``edges`` (pairs of cluster indices).

    In a forest, the k clusters holding v are connected exactly when
    k - 1 edges join two of them.
    """
    holders = Counter(v for scope in scopes for v in scope)
    joins = Counter(v for a, b in edges for v in set(scopes[a]) &
                    set(scopes[b]))
    return sorted(v for v, k in holders.items() if joins[v] != k - 1)


def assert_junction_tree(compiled) -> None:
    """A compiled model is a junction forest: its edges form a forest,
    each separator is the intersection of its two cluster scopes, and
    the clusters holding each copy form a connected subtree."""
    scopes = [f.scope for f in compiled.graph.factors]
    uf = UnionFind()
    for e in compiled.cluster_edges:
        assert uf.union(e.a, e.b), "cluster edges close a cycle"
        assert set(e.separator) == set(scopes[e.a]) & set(scopes[e.b])
    assert running_intersection_violations(
        scopes, [(e.a, e.b) for e in compiled.cluster_edges]) == []


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` for the test; the returned list gains one
    entry per call."""
    calls: list = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls
