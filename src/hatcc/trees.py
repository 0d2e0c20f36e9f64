"""Forests: union-find, rooted BFS, spanning trees, tree paths, shape
stacks and exact calibration.

``calibrate`` is the one exact tree solver.  It runs Hugin's two passes
(Jensen, Lauritzen & Olesen 1990) over a cluster forest in any
semiring, a breadth-first level at a time, on tables stacked by shape
(``TableStacks``); the messages of one level that share shapes and a
separator placement go as one stacked block, and the downward pass
divides with the semiring's zero-safe ``div``.  Its callers build the
forest: the split-model junction tree of
``compile.cluster_tree_propagate``, which every ``hatcc_infer`` run
calibrates, and the bipartite factor graph of
``bp_engine.run_tree_exact``.
"""
from __future__ import annotations

from functools import lru_cache
from typing import (Callable, Hashable, NamedTuple, Optional, Sequence,
                    Union)

import numpy as np

from .factor_graph import Semiring


class UnionFind:
    """Disjoint sets over the ints ``0 .. n-1``, each its own set at
    first, with path halving (Tarjan & van Leeuwen 1984)."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, a: int, b: int) -> bool:
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


class TableStacks:
    """Cluster tables stacked by shape.

    ``arrays[k]`` is a ``(G, *shape)`` array holding the tables of every
    cluster of the k-th distinct shape; cluster i is row ``row[i]`` of
    ``arrays[stack[i]]``.  Indexing gives one cluster's table, a view
    into its stack.
    """

    def __init__(self, arrays: list[np.ndarray], stack: Sequence[int],
                 row: Sequence[int]):
        self.arrays = arrays
        self.stack = stack
        self.row = row

    @staticmethod
    def _layout(shapes) -> tuple[dict, list[int], list[int], list[list[int]]]:
        """Stack index per distinct shape (first-seen order), each
        cluster's stack and row, and each stack's clusters."""
        index: dict = {}
        stack, row, members = [], [], []
        for i, shape in enumerate(shapes):
            k = index.setdefault(shape, len(index))
            if k == len(members):
                members.append([])
            stack.append(k)
            row.append(len(members[k]))
            members[k].append(i)
        return index, stack, row, members

    @classmethod
    def full(cls, shapes: Sequence[tuple[int, ...]],
             value: float) -> TableStacks:
        """One table per shape, every entry ``value``."""
        index, stack, row, members = cls._layout(shapes)
        return cls([np.full((len(m), *shape), value)
                    for shape, m in zip(index, members)], stack, row)

    @classmethod
    def of(cls, tables: Sequence[np.ndarray]) -> TableStacks:
        """Float64 copies of ``tables``, stacked."""
        _index, stack, row, members = cls._layout(map(np.shape, tables))
        return cls([np.array([tables[i] for i in m], dtype=np.float64)
                    for m in members], stack, row)

    def __len__(self) -> int:
        return len(self.stack)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.arrays[self.stack[i]][self.row[i]]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def row_index(rows: Sequence[int]) -> Union[slice, np.ndarray]:
    """An index for ``rows`` of a stack: a slice when they are
    consecutive, else an index array."""
    first = rows[0]
    if len(rows) == 1 or rows == list(range(first, first + len(rows))):
        return slice(first, first + len(rows))
    return np.array(rows)


def mul_rows(sr: Semiring, dst: np.ndarray, index: Union[slice, np.ndarray],
             x: np.ndarray) -> None:
    """``dst[index] ⊗= x`` in place, ``index`` from ``row_index``: on a
    view for a slice, with ``mul.at`` (which repeated rows need) for an
    index array."""
    if isinstance(index, slice):
        view = dst[index]
        sr.mul(view, x, out=view)
    else:
        sr.mul.at(dst, index, x)


class Placement(NamedTuple):
    """Where a separator sits in a child and in a parent table, on
    stacks with a leading row axis."""
    c_axes: tuple[int, ...]  # child axes summed out
    p_axes: tuple[int, ...]  # parent axes summed out
    c_shape: tuple[int, ...]  # a separator table over the child's axes
    p_shape: tuple[int, ...]  # and over the parent's
    # when the separator's order differs between them: the separator
    # alone in child and in parent order, and the transposes between
    sep_c: Optional[tuple[int, ...]]
    sep_p: Optional[tuple[int, ...]]
    to_p: Optional[tuple[int, ...]]
    to_c: Optional[tuple[int, ...]]


@lru_cache(maxsize=4096)
def placement(cshape: tuple[int, ...], pshape: tuple[int, ...],
              cpos: tuple[int, ...], ppos: tuple[int, ...]) -> Placement:
    """The placement of a separator whose variables sit at child axes
    ``cpos`` and, in the same order, at parent axes ``ppos``."""
    cpos, ppos = zip(*sorted(zip(cpos, ppos))) if cpos else ((), ())
    order = sorted(range(len(ppos)), key=ppos.__getitem__)
    moved = [None] * 4
    if order != list(range(len(order))):
        sizes = [cshape[i] for i in cpos]
        moved = [(-1, *sizes), (-1, *(sizes[i] for i in order)),
                 (0, *(1 + i for i in order)),
                 (0, *(1 + order.index(i) for i in range(len(order))))]
    return Placement(
        tuple(1 + i for i in range(len(cshape)) if i not in cpos),
        tuple(1 + j for j in range(len(pshape)) if j not in ppos),
        (-1, *(n if i in cpos else 1 for i, n in enumerate(cshape))),
        (-1, *(n if j in ppos else 1 for j, n in enumerate(pshape))),
        *moved)


def to_parent(m: np.ndarray, at: Placement) -> np.ndarray:
    """Separator tables laid out over the child's axes (``at.c_shape``),
    laid out over the parent's (``at.p_shape``)."""
    if at.to_p is not None:
        m = m.reshape(at.sep_c).transpose(at.to_p)
    return m.reshape(at.p_shape)


class _Messages:
    """The messages of one tree level that share a child stack, a parent
    stack and a separator placement, sent as one block.

    The children are one slice of their stack (``calibrate`` orders the
    rows so); the parents are indexed as ``row_index`` says.
    """
    __slots__ = ("kc", "kp", "ci", "pi", "at")

    def __init__(self, kc: int, kp: int, children: slice,
                 parent_rows: list[int], at: Placement):
        self.kc, self.kp, self.ci, self.at = kc, kp, children, at
        self.pi = row_index(parent_rows)

    def up(self, sr: Semiring, arrays: list[np.ndarray]) -> np.ndarray:
        """Multiply each child's message into its parent; returns the
        messages laid out over the children's axes."""
        at = self.at
        m = sr.add_reduce(arrays[self.kc][self.ci], at.c_axes, keepdims=True)
        mul_rows(sr, arrays[self.kp], self.pi, to_parent(m, at))
        return m

    def down(self, sr: Semiring, arrays: list[np.ndarray],
             m: np.ndarray) -> None:
        """Turn each child's product into its belief: times the parent
        belief's separator marginal divided by the child's message ``m``."""
        at = self.at
        pm = sr.add_reduce(arrays[self.kp][self.pi], at.p_axes, keepdims=True)
        if at.to_c is not None:
            pm = pm.reshape(at.sep_p).transpose(at.to_c)
        view = arrays[self.kc][self.ci]
        sr.mul(view, sr.div(pm.reshape(at.c_shape), m), out=view)


def calibrate(sr: Semiring, scopes: Sequence[Sequence[int]],
              tables: Union[TableStacks, Sequence[np.ndarray]],
              edges: Sequence[tuple[int, int, Sequence[int]]],
              roots: Sequence[int] = ()) -> tuple[TableStacks, float]:
    """Two-pass Hugin calibration of a cluster forest, a level at a time.

    Cluster i holds ``tables[i]`` (a sequence, or ``TableStacks``), one
    axis per variable of ``scopes[i]``.  ``edges`` are ``(a, b,
    separator)`` triples and must form a forest.  Each component is
    rooted at the first of ``roots`` it holds, else at its smallest
    cluster, and the clusters are levelled by breadth-first depth.

    Upward, deepest level first, each child sends its table times its
    children's messages, restricted to the separator with the semiring
    add, and the parent multiplies it in.  Downward, from the roots, a
    child's belief is that product times the parent belief's separator
    marginal divided (``sr.div``) by the child's own message (Jensen,
    Lauritzen & Olesen 1990); zero over zero is zero, which is exact,
    since a zero message entry zeroes the child's entries on both sides.
    The messages of one level that share a child shape, a parent shape
    and a separator placement go as one block: one gather, one reduce
    and one broadcast multiply, so a cluster of degree d costs O(d).

    Returns the unnormalized beliefs, stacked by shape in scope axis
    order, and Z: the semiring product, over the components, of each
    root belief's semiring total.
    """
    if not isinstance(tables, TableStacks):
        tables = TableStacks.of(tables)
    stack = tables.stack
    adj: list[list] = [[] for _ in scopes]
    for a, b, sep in edges:
        adj[a].append((b, sep))
        adj[b].append((a, sep))
    parent = [0] * len(scopes)
    depth = [0] * len(scopes)
    # level 0: the roots by stack; then per level, the children by key
    levels: list[dict] = [{}]
    for node, par, sep in bfs(adj, [*roots, *range(len(scopes))]):
        if par is None:
            levels[0].setdefault(stack[node], []).append(node)
            continue
        parent[node] = par
        d = depth[node] = depth[par] + 1
        if d == len(levels):
            levels.append({})
        key = (stack[node], stack[par], tuple(map(scopes[node].index, sep)),
               tuple(map(scopes[par].index, sep)))
        levels[d].setdefault(key, []).append(node)
    # renumber each stack's rows level by level and block by block, so
    # that a block's children are one slice; the copy is the gather
    row = [0] * len(scopes)
    take: list[list[int]] = [[] for _ in tables.arrays]
    for level in levels:
        for nodes in level.values():
            for node in nodes:
                t = take[stack[node]]
                row[node] = len(t)
                t.append(tables.row[node])
    arrays = [a[t] for a, t in zip(tables.arrays, take)]
    shapes = [a.shape[1:] for a in arrays]
    blocks = [[_Messages(kc, kp, slice(row[nodes[0]],
                                       row[nodes[0]] + len(nodes)),
                         [row[parent[n]] for n in nodes],
                         placement(shapes[kc], shapes[kp], cpos, ppos))
               for (kc, kp, cpos, ppos), nodes in level.items()]
              for level in levels[1:]]
    sent = [[b.up(sr, arrays) for b in level] for level in reversed(blocks)]
    for level, msgs in zip(blocks, reversed(sent)):
        for b, m in zip(level, msgs):
            b.down(sr, arrays, m)
    Z = sr.one
    for k, nodes in levels[0].items():
        first = row[nodes[0]]
        block = arrays[k][first:first + len(nodes)]
        Z = sr.mul(Z, sr.mul.reduce(sr.add_reduce(
            block, tuple(range(1, block.ndim)))))
    return TableStacks(arrays, stack, row), float(Z)
