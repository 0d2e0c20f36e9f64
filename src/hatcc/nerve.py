"""Factor nerve, backbone spanning tree, chords, fundamental cycles.

The nerve has one vertex per factor.  Its edges join factors whose scopes
overlap, weighted by the log-cardinality of the shared interface, but not
every overlapping pair: for each variable, Kruskal's algorithm picks a
maximum-weight spanning tree of the factors holding it, and the nerve is
the union of these per-variable trees (a junction graph in the sense of
Aji & McEliece 2000).  A maximum-weight spanning forest of the nerve is
the backbone; the remaining edges are chords, each closing one
fundamental cycle through the tree.

The backbone is the one the all-pairs nerve (every overlapping pair an
edge) would give.  Both use the strict total order ``(-weight, f1, f2)``.
By the cut property, each edge of the all-pairs maximum spanning forest T
comes first in that order across some cut of its component, so it also
comes first across that cut among the holders of any variable it shares,
and that variable's tree takes it.  Hence T lies in the sparse nerve, and
Kruskal there returns T again (Jensen & Jensen 1994 prove the spanning
tree property of clique intersection graphs this rests on).  The edges
left out are chords that close cycles around a single variable, whose
holonomy is trivial; a backbone that satisfies running intersection
leaves no chord at all.

Everything here runs on factor ids and flat lists: the holders of every
variable come from one pass over the (variable, factor) incidence, one
``trees.UnionFind`` over the factor ids serves all the per-variable
Kruskal runs and another the backbone, and ``fundamental_cycles`` climbs
every chord to its lowest common ancestor over per-factor parent and
depth lists.  ``NerveEdge`` is a ``NamedTuple``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import attrgetter
from typing import NamedTuple, Optional

from .factor_graph import FactorGraph
from .trees import UnionFind, bfs, tree_path


class NerveEdge(NamedTuple):
    f1: int
    f2: int  # f1 < f2
    interface: tuple[int, ...]  # sorted variable ids
    weight: float

    @property
    def key(self) -> tuple[int, int]:
        return (self.f1, self.f2)


def _kruskal_order(e: NerveEdge) -> tuple[float, int, int]:
    """Heaviest first, ties to the smaller (f1, f2): a strict total order."""
    return (-e.weight, e.f1, e.f2)


@dataclass(frozen=True)
class FactorNerve:
    vertices: tuple[int, ...]  # 0 .. m-1
    edges: tuple[NerveEdge, ...]
    overlaps: tuple[int, ...]  # per factor: other factors sharing a variable

    def edge_map(self) -> dict[tuple[int, int], NerveEdge]:
        return {e.key: e for e in self.edges}


@dataclass(frozen=True)
class Backbone:
    tree_edges: tuple[NerveEdge, ...]
    chords: tuple[NerveEdge, ...]
    roots: tuple[int, ...]  # one per connected component
    parent: dict  # factor id -> parent factor id (roots map to None)

    @cached_property
    def tree_interfaces(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Tree edge key -> interface."""
        return {e.key: e.interface for e in self.tree_edges}


@dataclass(frozen=True)
class FundamentalCycle:
    chord: NerveEdge
    factor_sequence: tuple[int, ...]  # tree path, chord endpoints at the ends
    interface_sequence: tuple[tuple[int, ...], ...]  # last = chord interface


def _edge(graph: FactorGraph, i: int, j: int,
          interface: tuple[int, ...]) -> NerveEdge:
    cards = graph._cardinalities
    return NerveEdge(i, j, interface,
                     sum(math.log(cards[v]) for v in interface))


def build_factor_nerve(graph: FactorGraph) -> FactorNerve:
    """Union of per-variable maximum-weight spanning trees.

    For each variable v, Kruskal in the backbone's order ``(-weight, f1,
    f2)`` joins the factors holding it.  An edge's interface is the full
    scope intersection of its two factors and its weight the sum of the
    interface's log-cardinalities.  Edges come sorted by key.  See the
    module docstring for why the backbone equals the all-pairs nerve's.

    Only holder pairs that share a second variable of cardinality > 1
    weigh more than log |v|; every other pair of v's holders weighs
    exactly that (a cardinality-1 variable adds log 1 = 0), so they tie
    and Kruskal takes them in (f1, f2) order.  After the heavy pairs,
    that order joins each remaining component to v's smallest holder
    through its own smallest member: a star, which a variable with no
    heavy pair takes whole, with no union-find step.  The holders come
    from one pass over the (variable, factor) incidence in factor order.
    Pairs sharing two or more variables are found by bucketing each
    factor under every pair of its scope variables, so the cost is
    O(sum of k_v + such pairs), not O(k_v^2) per variable.  One
    union-find over the factors serves every variable; each variable's
    Kruskal resets the entries of its holders.
    """
    cards = graph._cardinalities
    scopes = [f.scope for f in graph.factors]
    holders: list[list[int]] = [[] for _ in cards]
    by_var_pair: dict[tuple[int, int], list[int]] = {}
    for i, scope in enumerate(scopes):
        for v in scope:
            holders[v].append(i)
        if len(scope) > 1:
            for uv in combinations(sorted(scope), 2):
                by_var_pair.setdefault(uv, []).append(i)
    # factor pairs sharing two or more variables, with their full edges
    multi: dict[tuple[int, int], NerveEdge] = {}
    for hs in by_var_pair.values():
        for i, j in combinations(hs, 2):
            if (i, j) not in multi:
                shared = set(scopes[i]).intersection(scopes[j])
                multi[i, j] = _edge(graph, i, j, tuple(sorted(shared)))
    heavy: dict[int, list[NerveEdge]] = {}
    for e in multi.values():
        wide = [u for u in e.interface if cards[u] > 1]
        for v in e.interface:
            if any(u != v for u in wide):
                heavy.setdefault(v, []).append(e)

    uf = UnionFind(len(scopes))
    # a pair that shares only v is taken under v alone: one edge each
    edges: list[NerveEdge] = []
    chosen: dict[tuple[int, int], NerveEdge] = {}  # multi, taken once
    for v, hs in enumerate(holders):
        if len(hs) < 2:
            continue
        kruskal = heavy.get(v)
        if kruskal:
            for e in sorted(kruskal, key=_kruskal_order):
                if uf.union(e.f1, e.f2):
                    chosen[e.key] = e
        hub, interface, w = hs[0], (v,), math.log(cards[v])
        for j in hs[1:]:
            # a tied pair: not heavy, so joined only if Kruskal left it
            if not kruskal or uf.union(hub, j):
                if (hub, j) in multi:
                    chosen[hub, j] = multi[hub, j]
                else:
                    edges.append(NerveEdge(hub, j, interface, w))
        if kruskal:
            for j in hs:
                uf.parent[j] = j
    edges += chosen.values()
    edges.sort()  # by key: no two edges share one
    # sum of (k_v - 1) counts a pair once per shared variable
    more = [len(hs) - 1 for hs in holders]
    overlaps = [sum(map(more.__getitem__, scope)) for scope in scopes]
    for (i, j), e in multi.items():
        overlaps[i] -= len(e.interface) - 1
        overlaps[j] -= len(e.interface) - 1
    return FactorNerve(tuple(range(len(scopes))), tuple(edges),
                       tuple(overlaps))


def backbone(nerve: FactorNerve) -> Backbone:
    """Maximum-weight spanning forest via Kruskal, deterministic ties.

    Equal-weight ties prefer the lexicographically smaller (f1, f2): the
    edges are sorted by key, then stably by weight, heaviest first.
    Disconnected nerves yield one tree and one root per component; each
    root is the component's factor that overlaps the most other factors
    (``nerve.overlaps``), ties to the smallest id, and the components
    come in order of their least factor.  ``parent`` lists the factors
    in breadth-first order from the roots, neighbours in ascending id
    order; ``compile.split_scopes`` numbers the variable copies in it.
    """
    n = len(nerve.vertices)
    uf = UnionFind(n)
    tree, chords = [], []
    for e in sorted(sorted(nerve.edges), key=attrgetter("weight"),
                    reverse=True):
        (tree if uf.union(e.f1, e.f2) else chords).append(e)
    chords.sort()
    tree.sort()

    adj: list[list[tuple[int, None]]] = [[] for _ in range(n)]
    for f1, f2, _interface, _weight in tree:  # ascending neighbours
        adj[f1].append((f2, None))
        adj[f2].append((f1, None))
    # per Kruskal set, in order of least factor: the most overlapping
    best: dict[int, int] = {}
    overlaps = nerve.overlaps
    for v in range(n):
        r = uf.find(v)
        if r not in best or overlaps[v] > overlaps[best[r]]:
            best[r] = v
    roots = tuple(best.values())
    parent = {node: par for node, par, _ in bfs(adj, roots)}
    return Backbone(tuple(tree), tuple(chords), roots, parent)


def fundamental_cycles(bb: Backbone) -> list[FundamentalCycle]:
    """``fundamental_cycle`` of every chord of the backbone, in one pass.

    One walk over ``bb.parent`` fills per-factor lists of the parent,
    the depth and the interface to the parent; each chord's endpoints
    then climb, the deeper first, until they meet at their lowest common
    ancestor.
    """
    if not bb.chords:
        return []
    parent = [0] * len(bb.parent)
    depth = [0] * len(bb.parent)
    up: list = [None] * len(bb.parent)
    interfaces = bb.tree_interfaces
    for f, p in bb.parent.items():  # breadth-first: parents first
        if p is not None:
            parent[f] = p
            depth[f] = depth[p] + 1
            up[f] = interfaces[(f, p) if f < p else (p, f)]
    out = []
    for chord in bb.chords:
        a, b = chord.f2, chord.f1
        left, right = [a], [b]
        for _ in range(depth[a] - depth[b]):
            a = parent[a]
            left.append(a)
        for _ in range(depth[b] - depth[a]):
            b = parent[b]
            right.append(b)
        while a != b:
            a, b = parent[a], parent[b]
            left.append(a)
            right.append(b)
        right.pop()  # the common ancestor, already last on the left
        right.reverse()
        out.append(FundamentalCycle(chord, (*left, *right), (
            *[up[f] for f in left[:-1]], *[up[f] for f in right],
            chord.interface)))
    return out


def fundamental_cycle(graph: FactorGraph, bb: Backbone,
                      chord: NerveEdge) -> FundamentalCycle:
    """Tree path between the chord endpoints plus the chord itself.

    The factor sequence runs from the chord's second endpoint to its
    first; interfaces are those of the backbone edges along the path,
    and the last interface is the chord's own.  ``fundamental_cycles``
    gives every chord's at once.
    """
    path = tree_path(bb.parent.get, chord.f2, chord.f1)
    interfaces = [bb.tree_interfaces[min(a, b), max(a, b)]
                  for a, b in zip(path, path[1:])]
    interfaces.append(chord.interface)
    return FundamentalCycle(chord, tuple(path), tuple(interfaces))


def to_dot(nerve: FactorNerve, bb: Optional[Backbone] = None) -> str:
    """DOT rendering: backbone edges solid, chords dashed."""
    tree_keys = set(e.key for e in bb.tree_edges) if bb else None
    lines = ["graph nerve {"]
    for v in nerve.vertices:
        lines.append(f'  f{v} [label="f{v}"];')
    for e in nerve.edges:
        label = ",".join(f"v{x}" for x in e.interface)
        style = ""
        if tree_keys is not None and e.key not in tree_keys:
            style = ", style=dashed"
        lines.append(f'  f{e.f1} -- f{e.f2} [label="{label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
