"""Graph builders and brute-force references shared by the test modules."""
import itertools
import math

import numpy as np

from hatcc.factor_graph import (FactorDecl, FactorGraph, VariableDecl,
                                joint_weight)
from hatcc.nerve import FactorNerve, NerveEdge


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
