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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

from .factor_graph import FactorGraph
from .trees import UnionFind, bfs, tree_path


@dataclass(frozen=True)
class NerveEdge:
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
    vertices: tuple[int, ...]
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

    @property
    def root(self) -> int:
        return self.roots[0]

    @cached_property
    def tree_interfaces(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Tree edge key -> interface."""
        return {e.key: e.interface for e in self.tree_edges}


@dataclass(frozen=True)
class FundamentalCycle:
    chord: NerveEdge
    factor_sequence: tuple[int, ...]  # tree path, chord endpoints at the ends
    interface_sequence: tuple[tuple[int, ...], ...]  # last = chord interface


def build_factor_nerve(graph: FactorGraph) -> FactorNerve:
    """Union of per-variable maximum-weight spanning trees.

    For each variable, Kruskal in the backbone's order ``(-weight, f1,
    f2)`` joins the factors holding it.  An edge's interface is the full
    scope intersection of its two factors and its weight the sum of the
    interface's log-cardinalities, computed once per overlapping pair.
    Edges come sorted by key.  See the module docstring for why the
    backbone equals the all-pairs nerve's.
    """
    scopes = [set(f.scope) for f in graph.factors]
    holders: dict[int, list[int]] = {}
    for i, f in enumerate(graph.factors):
        for v in f.scope:
            holders.setdefault(v, []).append(i)
    pairs: dict[tuple[int, int], NerveEdge] = {}
    chosen: dict[tuple[int, int], NerveEdge] = {}
    for hs in holders.values():
        clique = []
        for i, j in combinations(hs, 2):
            e = pairs.get((i, j))
            if e is None:
                interface = tuple(sorted(scopes[i] & scopes[j]))
                w = sum(math.log(graph.cardinality(v)) for v in interface)
                e = pairs[i, j] = NerveEdge(i, j, interface, w)
            clique.append(e)
        uf = UnionFind()
        for e in sorted(clique, key=_kruskal_order):
            if uf.union(e.f1, e.f2):
                chosen[e.key] = e
    overlaps = [0] * len(scopes)
    for i, j in pairs:
        overlaps[i] += 1
        overlaps[j] += 1
    return FactorNerve(tuple(range(len(scopes))),
                       tuple(chosen[k] for k in sorted(chosen)),
                       tuple(overlaps))


def backbone(nerve: FactorNerve) -> Backbone:
    """Maximum-weight spanning forest via Kruskal, deterministic ties.

    Equal-weight ties prefer the lexicographically smaller (f1, f2).
    Disconnected nerves yield one tree and one root per component; each
    root is the component's factor that overlaps the most other factors
    (``nerve.overlaps``), ties to the smallest id.
    """
    order = sorted(nerve.edges, key=_kruskal_order)
    uf = UnionFind()
    tree, chords = [], []
    for e in order:
        if uf.union(e.f1, e.f2):
            tree.append(e)
        else:
            chords.append(e)
    chords.sort(key=lambda e: e.key)
    tree.sort(key=lambda e: e.key)

    adj: dict[int, list[tuple[int, None]]] = {v: [] for v in nerve.vertices}
    for e in tree:
        adj[e.f1].append((e.f2, None))
        adj[e.f2].append((e.f1, None))
    seen: set[int] = set()
    roots: list[int] = []
    parent: dict[int, Optional[int]] = {}
    for v in nerve.vertices:
        if v in seen:
            continue
        # collect the component first so the root choice sees all of it
        comp = [node for node, _par, _ in bfs(adj, [v])]
        seen.update(comp)
        root = max(comp, key=lambda u: (nerve.overlaps[u], -u))
        roots.append(root)
        parent.update((node, par) for node, par, _ in bfs(adj, [root]))
    return Backbone(tuple(tree), tuple(chords), tuple(roots), parent)


def fundamental_cycle(graph: FactorGraph, bb: Backbone,
                      chord: NerveEdge) -> FundamentalCycle:
    """Tree path between the chord endpoints plus the chord itself.

    The factor sequence runs from the chord's second endpoint to its
    first; interfaces are those of the backbone edges along the path,
    and the last interface is the chord's own.
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
