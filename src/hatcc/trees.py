"""Forests: union-find, rooted BFS, spanning trees, tree paths and exact
calibration.

``calibrate`` is the one exact tree solver.  It runs two-pass separator
message passing (Lauritzen & Spiegelhalter 1988, Shafer & Shenoy) over a
cluster forest in any semiring.  Its callers build the forest: the
augmented nerve of ``compile.cluster_tree_propagate``, which every
``hatcc_infer`` run calibrates, and the bipartite factor graph of
``bp_engine.run_tree_exact``.
"""
from __future__ import annotations

from typing import Callable, Hashable, Optional, Sequence

import numpy as np

from .factor_graph import Semiring


class UnionFind:
    """Disjoint sets over hashable items, created on first use."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x: Hashable) -> Hashable:
        parent = self.parent
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])  # path halving
            x = parent[x]
        return x

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Join the sets of a and b; False if they were already one set."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        self.parent[a] = b
        return True


def bfs(adj, roots) -> list[tuple]:
    """Breadth-first order of a forest, one component per new root.

    ``adj[node]`` lists ``(neighbour, label)`` pairs, visited in list
    order.  Each of ``roots`` not reached from an earlier one starts a
    component.  Returns ``(node, parent, label)`` triples in visit order;
    a root is ``(root, None, None)``, and ``label`` names the edge that
    joins a node to its parent.
    """
    order: list[tuple] = []
    seen = set()
    i = 0
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        order.append((root, None, None))
        while i < len(order):
            node = order[i][0]
            i += 1
            for nb, label in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    order.append((nb, node, label))
    return order


def spanning_tree(n: int, edges: Sequence[tuple[int, int]],
                  base: Optional[int] = None) -> list[tuple]:
    """Breadth-first spanning tree of a graph on nodes ``0 .. n-1``.

    Rooted at ``base``, by default the node of highest degree with ties
    to the smallest id.  Neighbours are visited in ascending id order,
    parallel edges in index order.  Returns the ``bfs`` triples
    ``(node, parent, edge index)`` of the base's component; the first
    names the base.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, (a, b) in enumerate(edges):
        adj[a].append((b, idx))
        adj[b].append((a, idx))
    for nbrs in adj:
        nbrs.sort()
    if base is None:
        base = max(range(n), key=lambda v: (len(adj[v]), -v))
    return bfs(adj, [base])


def tree_path(up: Callable[[Hashable], Optional[Hashable]], u: Hashable,
              v: Hashable) -> list:
    """Nodes on the unique path from u to v in a rooted forest.

    ``up(x)`` is x's parent, or None at a root.  The path climbs from u
    to the lowest common ancestor and descends to v.
    """
    anc_u = [u]
    while (x := up(anc_u[-1])) is not None:
        anc_u.append(x)
    pos = {node: i for i, node in enumerate(anc_u)}
    path_v = [v]
    while path_v[-1] not in pos:
        x = up(path_v[-1])
        if x is None:
            raise ValueError(f"{u} and {v} are in different trees")
        path_v.append(x)
    return anc_u[:pos[path_v[-1]]] + path_v[::-1]


def _message(sr: Semiring, table: np.ndarray, scope: Sequence[int],
             separator: Sequence[int], target: Sequence[int]) -> np.ndarray:
    """Restrict a cluster table to a separator, shaped to broadcast
    against the axes of the ``target`` cluster."""
    drop = tuple(i for i, v in enumerate(scope) if v not in separator)
    if drop:
        table = sr.add_reduce(table, drop)
    pos = [target.index(v) for v in scope if v in separator]
    shape = [1] * len(target)
    for p, n in zip(pos, table.shape):
        shape[p] = n
    return table.transpose(sorted(range(len(pos)),
                                  key=pos.__getitem__)).reshape(shape)


def calibrate(sr: Semiring, scopes: Sequence[Sequence[int]],
              tables: Sequence[np.ndarray],
              edges: Sequence[tuple[int, int, Sequence[int]]],
              roots: Sequence[int] = ()) -> tuple[list[np.ndarray], float]:
    """Two-pass separator message passing over a cluster forest.

    Cluster i holds ``tables[i]``, one axis per variable of ``scopes[i]``.
    ``edges`` are ``(a, b, separator)`` triples and must form a forest.
    The message from a to b is a's table times a's other incoming
    messages, restricted to the separator with the semiring add.

    Each component is rooted at the first of ``roots`` it holds, else at
    its smallest cluster.  Returns the unnormalized cluster beliefs, in
    scope axis order, and Z: the semiring product, over the components,
    of each root belief's semiring total.
    """
    adj: list[list] = [[] for _ in scopes]
    for a, b, sep in edges:
        adj[a].append((b, sep))
        adj[b].append((a, sep))
    messages: dict[tuple[int, int], np.ndarray] = {}

    def send(src: int, dst: int, sep: Sequence[int], acc: np.ndarray) -> None:
        messages[src, dst] = _message(sr, acc, scopes[src], sep, scopes[dst])

    order = bfs(adj, [*roots, *range(len(scopes))])
    for node, par, sep in reversed(order):
        if par is not None:
            acc = tables[node]
            for nb, _sep in adj[node]:
                if nb != par:
                    acc = sr.mul(acc, messages[nb, node])
            send(node, par, sep, acc)
    # Downward: each child's message is the table times the exclusive
    # product of the other incoming messages, a prefix times a suffix
    # product, so a cluster of degree d costs O(d) multiplies; no
    # division, which min-sum and zero entries forbid.
    beliefs: list = [None] * len(scopes)
    for node, par, _sep in order:
        incoming = [messages[nb, node] for nb, _sep in adj[node]]
        suffix: list = [None] * len(incoming)  # None: the empty product
        for i in range(len(incoming) - 1, 0, -1):
            suffix[i - 1] = incoming[i] if suffix[i] is None \
                else sr.mul(incoming[i], suffix[i])
        acc = tables[node]
        for (nb, sep), msg, rest in zip(adj[node], incoming, suffix):
            if nb != par:
                send(node, nb, sep, acc if rest is None else sr.mul(acc, rest))
            acc = sr.mul(acc, msg)
        beliefs[node] = acc
    Z = sr.one
    for node, par, _sep in order:
        if par is None:
            Z = sr.mul(Z, sr.add_reduce(beliefs[node], None))
    return beliefs, float(Z)
