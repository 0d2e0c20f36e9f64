"""Seeded instance generators for the benchmark model families.

All randomness flows through numpy's default PCG64 bit generator with
explicit SeedSequence stream splitting per instance component, so a
(parameters, seed) pair is fully reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .factor_graph import FactorDecl, FactorGraph, VariableDecl
from .trees import spanning_tree


# ---------------------------------------------------------------------------
# Topologies: edge lists over variables
# ---------------------------------------------------------------------------

def topology_edges(topology: str, n: Optional[int] = None,
                   rows: Optional[int] = None, cols: Optional[int] = None,
                   p: float = 0.3,
                   rng: Optional[np.random.Generator] = None
                   ) -> tuple[int, list[tuple[int, int]]]:
    """Return (variable count, edge list) for a named topology.

    'random' is Erdos-Renyi over the variables with a random spanning
    tree added first so the result is connected.
    """
    if topology == "cycle":
        if n is None or n < 3:
            raise ValueError("cycle topology needs n >= 3")
        return n, [(i, (i + 1) % n) for i in range(n)]
    if topology == "grid":
        if not rows or not cols:
            raise ValueError("grid topology needs rows and cols")
        def vid(r, c):
            return r * cols + c
        edges = []
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.append((vid(r, c), vid(r, c + 1)))
                if r + 1 < rows:
                    edges.append((vid(r, c), vid(r + 1, c)))
        return rows * cols, edges
    if topology == "random":
        if n is None or n < 2:
            raise ValueError("random topology needs n >= 2")
        if rng is None:
            raise ValueError("random topology needs an rng")
        edges = set()
        for i in range(1, n):
            j = int(rng.integers(0, i))
            edges.add((j, i))
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in edges and rng.random() < p:
                    edges.add((i, j))
        return n, sorted(edges)
    raise ValueError(f"unknown topology '{topology}'")


# ---------------------------------------------------------------------------
# Z_k synchronization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZkInstance:
    graph: FactorGraph
    x_star: tuple[int, ...]
    shifts: tuple[int, ...]  # per factor, after corruption
    corrupted: tuple[tuple[int, int], ...]  # (factor id, added shift)
    seed: int


def gen_zk_sync(topology: str, k: int, eta: float, epsilon: float,
                seed: int, n: Optional[int] = None,
                rows: Optional[int] = None, cols: Optional[int] = None,
                p: float = 0.3) -> ZkInstance:
    """Synchronization over Z_k with smoothing eta and corruption epsilon.

    Each edge (i, j) carries the table
    psi(x_i, x_j) = (1 - eta) * [x_j == x_i + g_ij mod k] + eta / k
    with g_ij taken from a sampled ground truth.  A fraction epsilon of
    the off-tree edges gets a uniformly random nonzero shift added.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    streams = np.random.SeedSequence(seed).spawn(4)
    rng_topo = np.random.default_rng(streams[0])
    rng_truth = np.random.default_rng(streams[1])
    rng_pick = np.random.default_rng(streams[2])
    rng_shift = np.random.default_rng(streams[3])

    n_vars, edges = topology_edges(topology, n=n, rows=rows, cols=cols,
                                   p=p, rng=rng_topo)
    x_star = rng_truth.integers(0, k, n_vars)
    shifts = [(int(x_star[j]) - int(x_star[i])) % k for i, j in edges]

    # the sector module's spanning tree, so corruption lands off it
    tree_idx = {idx for _node, _par, idx in spanning_tree(n_vars, edges)}
    offtree = [i for i in range(len(edges)) if i not in tree_idx]
    n_corrupt = math.ceil(epsilon * len(offtree))
    corrupted = []
    if n_corrupt:
        chosen = sorted(rng_pick.choice(len(offtree), size=n_corrupt,
                                        replace=False))
        for c in chosen:
            idx = offtree[c]
            delta = int(rng_shift.integers(1, k))
            shifts[idx] = (shifts[idx] + delta) % k
            corrupted.append((idx, delta))

    variables = tuple(VariableDecl(i, k) for i in range(n_vars))
    factors = []
    states = np.arange(k)
    for idx, (i, j) in enumerate(edges):
        table = np.full((k, k), eta / k)
        table[states, (states + shifts[idx]) % k] += 1.0 - eta
        factors.append(FactorDecl(idx, (i, j), table.ravel()))
    graph = FactorGraph("sum_product", variables, tuple(factors))
    return ZkInstance(graph, tuple(int(s) for s in x_star), tuple(shifts),
                      tuple(corrupted), seed)


# ---------------------------------------------------------------------------
# Permutation-constraint graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PermInstance:
    graph: FactorGraph
    permutations: tuple[tuple[int, ...], ...]  # per factor
    seed: int


def gen_permutation_graph(topology: str, domain_size: int, noise: float,
                          seed: int, consistent: bool = False,
                          n: Optional[int] = None,
                          rows: Optional[int] = None,
                          cols: Optional[int] = None,
                          p: float = 0.3) -> PermInstance:
    """Pairwise permutation constraints, optionally noise-smoothed.

    Each edge table is (1 - noise) * [x_j == phi_ij(x_i)] + noise / d.
    With ``consistent`` the permutations come from per-vertex labels
    (phi_ij = sigma_j o sigma_i^{-1}), so every cycle composes to the
    identity.
    """
    if domain_size < 2:
        raise ValueError("domain_size must be >= 2")
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise must lie in [0, 1]")
    streams = np.random.SeedSequence(seed).spawn(2)
    rng_topo = np.random.default_rng(streams[0])
    rng_perm = np.random.default_rng(streams[1])
    n_vars, edges = topology_edges(topology, n=n, rows=rows, cols=cols,
                                   p=p, rng=rng_topo)
    d = domain_size
    if consistent:
        sigma = [rng_perm.permutation(d) for _ in range(n_vars)]
        inv = [np.argsort(s) for s in sigma]
        perms = [sigma[j][inv[i]] for i, j in edges]
    else:
        perms = [rng_perm.permutation(d) for _ in edges]
    variables = tuple(VariableDecl(i, d) for i in range(n_vars))
    factors = []
    states = np.arange(d)
    for idx, (i, j) in enumerate(edges):
        table = np.full((d, d), noise / d)
        table[states, perms[idx]] += 1.0 - noise
        factors.append(FactorDecl(idx, (i, j), table.ravel()))
    graph = FactorGraph("sum_product", variables, tuple(factors))
    return PermInstance(graph, tuple(tuple(int(x) for x in p_)
                                     for p_ in perms), seed)


# ---------------------------------------------------------------------------
# Grid MRFs and the worked 4-cycle
# ---------------------------------------------------------------------------

def gen_grid_mrf(rows: int, cols: int, coupling: float,
                 field_strength: float, seed: int) -> FactorGraph:
    """Binary grid with agreement couplings and seeded unary fields."""
    if rows < 1 or cols < 1:
        raise ValueError("grid must be at least 1x1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_vars, edges = topology_edges("grid", rows=rows, cols=cols)
    variables = tuple(VariableDecl(i, 2) for i in range(n_vars))
    factors = []
    pair = np.array([[coupling, 1.0], [1.0, coupling]])
    for i, j in edges:
        factors.append(FactorDecl(len(factors), (i, j), pair.ravel()))
    if field_strength > 0.0:
        for v in range(n_vars):
            h = rng.uniform(-field_strength, field_strength)
            factors.append(FactorDecl(len(factors), (v,),
                                      np.array([math.exp(h),
                                                math.exp(-h)])))
    return FactorGraph("sum_product", variables, tuple(factors))


def gen_four_cycle(parity: str) -> FactorGraph:
    """The worked 4-variable constraint cycle.

    Variables A, B, C, D in a ring of copy constraints; 'odd' replaces
    the C-D factor with a NOT, making the model unsatisfiable.
    """
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    copy = np.eye(2).ravel()
    neg = np.array([[0.0, 1.0], [1.0, 0.0]]).ravel()
    variables = tuple(VariableDecl(i, 2, label)
                      for i, label in enumerate("ABCD"))
    factors = (
        FactorDecl(0, (0, 1), copy),
        FactorDecl(1, (1, 2), copy),
        FactorDecl(2, (2, 3), neg if parity == "odd" else copy),
        FactorDecl(3, (3, 0), copy),
    )
    return FactorGraph("sum_product", variables, factors)
