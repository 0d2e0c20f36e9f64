"""Factor nerve, backbone spanning tree, chords, fundamental cycles.

The nerve has one vertex per factor and an edge wherever two factor
scopes overlap, weighted by the log-cardinality of the shared interface.
A maximum-weight spanning forest is the backbone; the remaining edges
are chords, each closing one fundamental cycle through the tree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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


@dataclass(frozen=True)
class FactorNerve:
    vertices: tuple[int, ...]
    edges: tuple[NerveEdge, ...]

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


@dataclass(frozen=True)
class FundamentalCycle:
    chord: NerveEdge
    factor_sequence: tuple[int, ...]  # tree path, chord endpoints at the ends
    interface_sequence: tuple[tuple[int, ...], ...]  # last = chord interface


def build_factor_nerve(graph: FactorGraph) -> FactorNerve:
    """All-pairs scope overlap scan."""
    scopes = [set(f.scope) for f in graph.factors]
    edges = []
    for i in range(len(scopes)):
        for j in range(i + 1, len(scopes)):
            shared = scopes[i] & scopes[j]
            if not shared:
                continue
            interface = tuple(sorted(shared))
            w = sum(math.log(graph.cardinality(v)) for v in interface)
            edges.append(NerveEdge(i, j, interface, w))
    return FactorNerve(tuple(range(len(scopes))), tuple(edges))


def backbone(nerve: FactorNerve) -> Backbone:
    """Maximum-weight spanning forest via Kruskal, deterministic ties.

    Equal-weight ties prefer the lexicographically smaller (f1, f2).
    Disconnected nerves yield one tree and one root per component; each
    root is the component's factor of highest nerve degree, ties to the
    smallest id.
    """
    order = sorted(nerve.edges, key=lambda e: (-e.weight, e.f1, e.f2))
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
    degree = {v: 0 for v in nerve.vertices}
    for e in nerve.edges:
        degree[e.f1] += 1
        degree[e.f2] += 1

    seen: set[int] = set()
    roots: list[int] = []
    parent: dict[int, Optional[int]] = {}
    for v in nerve.vertices:
        if v in seen:
            continue
        # collect the component first so the root choice sees all of it
        comp = [node for node, _par, _ in bfs(adj, [v])]
        seen.update(comp)
        root = max(comp, key=lambda u: (degree[u], -u))
        roots.append(root)
        parent.update((node, par) for node, par, _ in bfs(adj, [root]))
    return Backbone(tuple(tree), tuple(chords), tuple(roots), parent)


def fundamental_cycle(graph: FactorGraph, bb: Backbone,
                      chord: NerveEdge) -> FundamentalCycle:
    """Tree path between the chord endpoints plus the chord itself.

    The factor sequence runs from the chord's second endpoint to its
    first; interfaces are consecutive scope intersections, and the last
    interface is the chord's own.
    """
    path = tree_path(bb.parent.get, chord.f2, chord.f1)
    interfaces = []
    for a, b in zip(path, path[1:]):
        shared = set(graph.factors[a].scope) & set(graph.factors[b].scope)
        if not shared:
            raise ValueError(f"backbone path factors {a},{b} share no "
                             "variable")
        interfaces.append(tuple(sorted(shared)))
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
