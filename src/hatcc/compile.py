"""Holonomy-aware compilation to an exact junction tree.

Pipeline: ``diagnose`` finds the chords of the factor nerve and decides
each, composing in one pass the holonomies the rank-1 rule leaves open;
``augment`` cuts every chord whose holonomy is the identity and keeps
the rest.  It splits each variable into one copy per connected
component of its holders, joined by backbone tree edges and kept chords
(the *split model*), and builds a min-fill elimination junction tree
over the copies (Lauritzen & Spiegelhalter 1988; Koller & Friedman 2009,
ch. 9-10), its clique tables in one stack per clique shape.
``cluster_tree_propagate`` calibrates the stacks with
``trees.calibrate``, and ``marginalize_modes`` reads each marginal from
any copy of its variable, one reduce per group of marginals read from
one stack at one axis.  No per-cluster object is built on this path;
``CompiledModel.graph`` and ``ClusterTreeResult.beliefs`` are built on
first read.

A cut is exact.  In any supported configuration of the split model the
tree path carries the chord interface's state x2 at one endpoint to its
state x1 at the other, so H(x2, x1) = 1, and H = I forces x1 = x2.  The
holders of a variable are joined by nerve edges that hold it, so all its
copies agree: the supported configurations of the split model are the
original model's, with the same weights, in any semiring.  A kept chord
whose composed holonomy fixes no interface state certifies UNSAT,
returned as a result rather than raised.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .factor_graph import (FactorDecl, FactorGraph, PotentialSlice, Semiring,
                           VariableDecl, restrict, validate_strict)
from .holonomy import (DEFAULT_INTERFACE_CAP, HolonomyReport,
                       InterfaceCapExceeded, diagnose, loop_holonomies,
                       report_to_json_dict)
from .trees import (TableStacks, UnionFind, calibrate, mul_rows, placement,
                    row_index, to_parent)


# ---------------------------------------------------------------------------
# The split model and its junction tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnsatCertificate:
    chord: tuple[int, int]
    detail: str


@dataclass(frozen=True)
class CapExceeded:
    entries: int  # of the largest clique
    detail: str


class ClusterEdge(NamedTuple):
    a: int  # parent cluster index
    b: int  # child cluster index
    separator: tuple[int, ...]  # copy ids


@dataclass(frozen=True)
class CompiledModel:
    source: FactorGraph  # the model compiled
    scopes: tuple[tuple[int, ...], ...]  # per cluster: copy ids
    tables: TableStacks  # clique tables, stacked by shape
    cards: tuple[int, ...]  # per copy
    var_copies: tuple[tuple[int, ...], ...]  # per original variable
    home: tuple[int, ...]  # per copy: a cluster holding it
    cluster_edges: tuple[ClusterEdge, ...]
    roots: tuple[int, ...]  # cluster indices, one per component
    cut: tuple[tuple[int, int], ...]  # keys of the chords cut
    inexact_cuts: tuple[tuple[int, int], ...]  # cut, yet exact H is not I

    @cached_property
    def graph(self) -> FactorGraph:
        """The split model as a factor graph: the variable copies and one
        clique factor per cluster.  Built on first read; the solver
        works on the stacks."""
        return FactorGraph(
            self.source.semiring,
            tuple(VariableDecl(i, c) for i, c in enumerate(self.cards)),
            tuple(FactorDecl(i, s, t)
                  for i, (s, t) in enumerate(zip(self.scopes, self.tables))))


def split_scopes(graph: FactorGraph, report: HolonomyReport) -> tuple[
        list[tuple[int, ...]], list[int]]:
    """Factor scopes over the split model's variable copies.

    The holders of a variable are joined by the backbone tree edges and
    the non-trivial chords whose interface holds it; each component gets
    one copy.  Walking the backbone parent-first, a factor takes its
    parent's copy of each variable on their tree edge and a fresh copy
    of the rest; then the kept chords merge copies.  Returns each
    factor's scope in copy ids and each copy's original variable.
    """
    bb = report.backbone
    label: list = [None] * len(graph.factors)  # per factor: var -> copy
    copy_var: list[int] = []
    for f, p in bb.parent.items():  # breadth-first order
        shared = () if p is None else bb.tree_interfaces[min(f, p), max(f, p)]
        own = {}
        for v in graph.factors[f].scope:
            if v in shared:
                own[v] = label[p][v]
            else:
                own[v] = len(copy_var)
                copy_var.append(v)
        label[f] = own
    kept = [cr.cycle.chord for cr in report.chords if not cr.trivial]
    remap = range(len(copy_var))
    if kept:
        uf = UnionFind(len(copy_var))
        for e in kept:
            for v in e.interface:
                uf.union(label[e.f1][v], label[e.f2][v])
        dense: dict = {}
        remap = [dense.setdefault(uf.find(c), len(dense)) for c in remap]
        # merged copies are copies of one variable
        copy_var = list(dict(zip(remap, copy_var)).values())
    return ([tuple(remap[own[v]] for v in f.scope)
             for own, f in zip(label, graph.factors)], copy_var)


def min_fill_order(n: int, scopes: Sequence[Sequence[int]]) -> list[
        tuple[int, tuple[int, ...]]]:
    """Greedy min-fill elimination of the interaction graph on ``0..n-1``.

    Each step eliminates the node whose neighbours lack the fewest edges
    among themselves, ties to the smaller degree, then the smaller id,
    and joins those neighbours.  Fill counts are updated only where an
    elimination changes them; stale heap entries are skipped.  Returns
    each node with its sorted neighbours when eliminated, in order.
    """
    adj: list = [set() for _ in range(n)]
    for scope in scopes:
        for v in scope:
            adj[v].update(scope)
    for v in range(n):
        adj[v].discard(v)
    fill = [len(nb) * (len(nb) - 1) // 2
            - sum(len(adj[a] & nb) for a in nb) // 2 for nb in adj]
    heap = [(fill[v], len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order = []
    while heap:
        f, d, v = heapq.heappop(heap)
        nb = adj[v]
        if nb is None or f != fill[v] or d != len(nb):
            continue
        adj[v] = None  # eliminated
        touched = set(nb)
        for u in nb:
            adj[u].discard(v)
            fill[u] -= len(adj[u] - nb)  # pairs (v, x), x not next to v
        ordered = sorted(nb)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if b in adj[a]:
                    continue
                common = adj[a] & adj[b]
                for c in common:
                    fill[c] -= 1
                touched |= common
                fill[a] += len(adj[a] - adj[b])
                fill[b] += len(adj[b] - adj[a])
                adj[a].add(b)
                adj[b].add(a)
        for u in touched:
            heapq.heappush(heap, (fill[u], len(adj[u]), u))
        order.append((v, tuple(ordered)))
    return order


def elimination_tree(order: Sequence[tuple[int, tuple[int, ...]]],
                     factor_scopes: Sequence[tuple[int, ...]]) -> tuple[
        list[tuple[int, ...]], list[ClusterEdge], list[int], list[int],
        list[int]]:
    """Junction tree of an elimination order's cliques.

    The clique of v is v with its neighbours at elimination.  It hangs
    from the clique of the first of them eliminated, across those
    neighbours; that parent clique holds them all, so a parent equal to
    them is absorbed into the child rather than kept.  A factor joins
    the cluster of its first eliminated variable, whose clique holds its
    whole scope; a factor with an empty scope is a cluster of its own.
    Returns cluster scopes, edges and roots, each node's cluster and
    each factor's cluster.
    """
    pos = {v: i for i, (v, _nb) in enumerate(order)}
    size = {v: len(nb) + 1 for v, nb in order}
    cluster: dict = {}
    scopes: list[tuple[int, ...]] = []
    owner: list[int] = []  # the node whose clique is the cluster's scope
    edges: list[ClusterEdge] = []
    roots: list[int] = []
    for v, nb in reversed(order):
        p = min(nb, key=pos.__getitem__) if nb else None
        c = cluster.get(p)
        if c is not None and owner[c] == p and size[p] == len(nb):
            scopes[c] = (v, *nb)
            owner[c] = v
        else:
            if c is None:
                roots.append(len(scopes))
            else:
                edges.append(ClusterEdge(c, len(scopes), nb))
            c = len(scopes)
            scopes.append((v, *nb))
            owner.append(v)
        cluster[v] = c
    holder = []
    for s in factor_scopes:
        if s:
            holder.append(cluster[min(s, key=pos.__getitem__)])
        else:
            roots.append(len(scopes))
            holder.append(len(scopes))
            scopes.append(())
    return (scopes, edges, roots, [cluster[v] for v in range(len(order))],
            holder)


def _clique_stacks(graph: FactorGraph, split: Sequence[tuple[int, ...]],
                  holder: Sequence[int], scopes: Sequence[tuple[int, ...]],
                  shapes: Sequence[tuple[int, ...]]) -> TableStacks:
    """Each cluster's table, stacked by shape: the semiring product of
    the factors it holds, broadcast over its scope (semiring ones if it
    holds none).  The factors that share a clique stack and a placement
    in the clique's axes are multiplied in as one block."""
    sr = graph.ops
    stacks = TableStacks.full(shapes, sr.one)
    blocks: dict = {}
    for f, scope, c in zip(graph.factors, split, holder):
        pos = tuple(map(scopes[c].index, scope))
        tabs, rows = blocks.setdefault((stacks.stack[c], pos), ([], []))
        tabs.append(f.table)
        rows.append(stacks.row[c])
    for (k, pos), (tabs, rows) in blocks.items():
        dst = stacks.arrays[k]
        # a factor is a child whose whole scope is its separator
        at = placement(tuple(dst.shape[1 + p] for p in pos), dst.shape[1:],
                       tuple(range(len(pos))), pos)
        mul_rows(sr, dst, row_index(rows),
                 to_parent(np.concatenate(tabs).reshape(at.c_shape), at))
    return stacks


def augment(graph: FactorGraph, report: HolonomyReport,
            cap: int = DEFAULT_INTERFACE_CAP) -> Union[
                CompiledModel, UnsatCertificate, CapExceeded]:
    """Compile the split model into a min-fill junction tree.

    Cuts each chord whose holonomy is the identity and keeps the rest.
    Returns one clique table per cluster, stacked by shape, and one tree
    per backbone component, so the cluster edges number clusters minus
    components.  A kept chord whose composed holonomy fixes no interface
    state gives an ``UnsatCertificate``, and a clique of more than
    ``cap`` entries gives ``CapExceeded`` before any table is built.  A
    report taken with ``tol > 0`` may cut a chord whose exact holonomy is
    not the identity; those cuts are listed in ``inexact_cuts``.
    """
    # a tolerance only drops support, so the exact holonomies decide
    # whether a cut is exact and whether a missing fixed point is UNSAT
    open_ = [cr for cr in report.chords if not cr.rank_one]
    if report.tol == 0:
        identity = [cr.trivial for cr in open_]
        fixed = [cr.trivial or cr.fixed for cr in open_]  # I fixes all
    else:
        _m, identity, fixed = loop_holonomies(
            graph, [(cr.cycle.factor_sequence, cr.cycle.interface_sequence)
                    for cr in open_], 0.0, cap)
    for cr, fix in zip(open_, fixed):
        if not cr.trivial and not fix:
            return UnsatCertificate(cr.cycle.chord.key,
                                    "no interface state is fixed by the "
                                    "chord holonomy")
    cut = tuple(cr.cycle.chord.key for cr in report.chords if cr.trivial)
    inexact = tuple(cr.cycle.chord.key for cr, ident in zip(open_, identity)
                    if cr.trivial and not ident)

    split, copy_var = split_scopes(graph, report)
    scopes, edges, roots, home, holder = elimination_tree(
        min_fill_order(len(copy_var), split), split)
    cards = graph.scope_shape(copy_var)
    shapes = [tuple(map(cards.__getitem__, s)) for s in scopes]
    entries = max(map(math.prod, shapes), default=1)
    if entries > cap:
        return CapExceeded(entries, f"a clique of {entries} entries "
                           f"exceeds the cap {cap}")
    tables = _clique_stacks(graph, split, holder, scopes, shapes)
    # tree identity: edges = clusters - components
    assert len(edges) == len(scopes) - len(report.backbone.roots), \
        "the junction forest has one tree per backbone component"
    var_copies: list[list[int]] = [[] for _ in graph.variables]
    for c, v in enumerate(copy_var):
        var_copies[v].append(c)
    return CompiledModel(graph, tuple(scopes), tables, cards,
                         tuple(map(tuple, var_copies)), tuple(home),
                         tuple(edges), tuple(roots), cut, inexact)


# ---------------------------------------------------------------------------
# Calibration and marginals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterTreeResult:
    scopes: tuple[tuple[int, ...], ...]  # per cluster: copy ids
    stacks: TableStacks  # unnormalized beliefs, stacked by shape
    Z: float
    unsat: bool

    @cached_property
    def beliefs(self) -> tuple[PotentialSlice, ...]:
        """One unnormalized belief per cluster, built on first read."""
        return tuple(map(PotentialSlice, self.scopes, self.stacks))


def cluster_tree_propagate(compiled: CompiledModel) -> ClusterTreeResult:
    """Calibrate the junction tree's clique stacks with
    ``trees.calibrate``: Hugin's two passes, a tree level at a time; Z
    is read off the root beliefs, one per component.
    """
    sr = compiled.source.ops
    bel, Z = calibrate(sr, compiled.scopes, compiled.tables,
                       compiled.cluster_edges, compiled.roots)
    return ClusterTreeResult(compiled.scopes, bel, Z, bool(sr.is_zero(Z)))


def marginalize_modes(compiled: CompiledModel,
                      result: ClusterTreeResult) -> list[np.ndarray]:
    """Per-original-variable marginals from calibrated cluster beliefs.

    Each is read from the first copy of its variable, in a cluster that
    holds it; calibration makes every copy agree.  The variables read
    from one belief stack at one axis take one reduce and one
    ``normalize``.  A variable that no factor holds gets the normalized
    semiring ones.
    """
    source = compiled.source
    sr = source.ops
    bel = result.stacks
    out: list = [None] * len(compiled.var_copies)
    blocks: dict = {}
    for v, copies in enumerate(compiled.var_copies):
        if copies:
            c = compiled.home[copies[0]]
            vs, rows = blocks.setdefault(
                (bel.stack[c], compiled.scopes[c].index(copies[0])), ([], []))
            vs.append(v)
            rows.append(bel.row[c])
        else:
            out[v] = sr.normalize(np.full(source.cardinality(v), sr.one))
    for (k, axis), (vs, rows) in blocks.items():
        block = bel.arrays[k][row_index(rows)]
        vecs = sr.normalize(sr.add_reduce(block, tuple(
            i for i in range(1, block.ndim) if i != axis + 1)))
        for v, vec in zip(vs, vecs):
            out[v] = vec
    return out


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HatccResult:
    status: str  # "ok" | "unsat" | "approximate" | "cap_exceeded"
    Z: float
    marginals: tuple[np.ndarray, ...]
    report: Optional[HolonomyReport]  # None: an interface is over cap
    timings: dict
    max_clique_entries: int = 0
    reason: Optional[str] = None  # why the status is not "ok"
    unsat_chord: Optional[tuple[int, int]] = None
    compiled: Optional[CompiledModel] = None


def hatcc_infer(graph: FactorGraph, tol: float = 0.0,
                cap: int = DEFAULT_INTERFACE_CAP) -> HatccResult:
    """Run the full compile-and-solve pipeline.

    Phases: validate; diagnose's nerve, backbone, cycles (with the rank-1
    flags) and holonomy (one stacked composition of the holonomies the
    rank-1 rule leaves open); augment (the cut decisions, the split model
    and its junction tree); propagate; marginalize.  Every graph takes
    this one path; a forest is the case with no chord.  The chords cut
    are exactly the report's trivial chords.  The status is "unsat" on a
    certificate or a zero Z, each with its reason and the normalized
    semiring ones as every marginal; "cap_exceeded" when an interface or
    a clique is over ``cap``; and "approximate" when ``tol > 0`` cut a
    chord whose exact holonomy is not the identity.
    """
    sr = graph.ops
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    validate_strict(graph)
    timings["validate"] = time.perf_counter() - t0

    def placeholder():
        return tuple(sr.normalize(np.full(v.cardinality, sr.one))
                     for v in graph.variables)

    t0 = time.perf_counter()
    try:
        report = diagnose(graph, tol=tol, cap=cap)
    except InterfaceCapExceeded as exc:
        # no report, so no phase times: the attempt counts as holonomy
        timings["holonomy"] = time.perf_counter() - t0
        return HatccResult("cap_exceeded", math.nan, placeholder(), None,
                           timings, reason=str(exc))
    timings.update(report.timings)

    t0 = time.perf_counter()
    compiled = augment(graph, report, cap)
    timings["augment"] = time.perf_counter() - t0
    if isinstance(compiled, UnsatCertificate):
        return HatccResult("unsat", sr.zero, placeholder(), report, timings,
                           reason=compiled.detail, unsat_chord=compiled.chord)
    if isinstance(compiled, CapExceeded):
        return HatccResult("cap_exceeded", math.nan, placeholder(), report,
                           timings, compiled.entries, compiled.detail)

    t0 = time.perf_counter()
    ct = cluster_tree_propagate(compiled)
    timings["propagate"] = time.perf_counter() - t0

    Z = ct.Z
    # variables untouched by any factor contribute the total of sr.one
    for v, copies in zip(graph.variables, compiled.var_copies):
        if not copies:
            Z = float(sr.mul(Z, sr.add_reduce(np.full(v.cardinality, sr.one),
                                              None)))

    t0 = time.perf_counter()
    marg = placeholder() if ct.unsat else marginalize_modes(compiled, ct)
    timings["marginalize"] = time.perf_counter() - t0

    status, reason = "ok", None
    if ct.unsat:
        # float underflow can also zero Z, so this claims no infeasibility
        status, reason = "unsat", "calibrated Z is the semiring zero"
    elif compiled.inexact_cuts:
        status = "approximate"
        reason = (f"tol={tol} cut chord(s) {list(compiled.inexact_cuts)} "
                  "whose exact holonomy is not the identity")
    entries = max((math.prod(a.shape[1:]) for a in compiled.tables.arrays),
                  default=0)
    return HatccResult(status, Z, tuple(marg), report, timings, entries,
                       reason, compiled=compiled)


# ---------------------------------------------------------------------------
# Descent data over covers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OverlapCheck:
    i: int
    j: int
    overlap: tuple[int, ...]
    discrepancy: float


@dataclass(frozen=True)
class DescentReport:
    compatible: bool
    overlaps: tuple[OverlapCheck, ...]
    tolerance: float


def check_descent_datum(graph: FactorGraph, cover: Sequence[Sequence[int]],
                        local_tables: Sequence[PotentialSlice],
                        tolerance: float = 1e-12) -> DescentReport:
    """Pairwise overlap compatibility of local tables on a cover.

    The cover must contain every variable and contain each factor scope
    within a single piece.  Each nonempty pairwise overlap is checked by
    restricting both local tables to it and comparing entrywise.
    """
    pieces = [tuple(sorted(set(p))) for p in cover]
    if len(pieces) != len(local_tables):
        raise ValueError("one local table per cover piece is required")
    covered = set().union(*[set(p) for p in pieces]) if pieces else set()
    missing = [v.id for v in graph.variables if v.id not in covered]
    if missing:
        raise ValueError(f"cover misses variable(s) {missing}")
    for f in graph.factors:
        if not any(set(f.scope) <= set(p) for p in pieces):
            raise ValueError(f"factor {f.id} scope {f.scope} fits in no "
                             "cover piece")
    for piece, slc in zip(pieces, local_tables):
        if tuple(sorted(slc.scope)) != piece:
            raise ValueError(f"local table scope {slc.scope} does not match "
                             f"cover piece {piece}")
    sr = graph.ops
    checks = []
    ok = True
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            overlap = tuple(sorted(set(pieces[i]) & set(pieces[j])))
            if not overlap:
                continue
            a = restrict(local_tables[i], overlap, sr).table
            b = restrict(local_tables[j], overlap, sr).table
            disc = float(np.abs(a - b).max())
            if not disc < tolerance:
                ok = False
            checks.append(OverlapCheck(i, j, overlap, disc))
    return DescentReport(ok, tuple(checks), tolerance)


def glue_restriction(cover: Sequence[Sequence[int]],
                     local_tables: Sequence[PotentialSlice],
                     target: Sequence[int], semiring: Semiring,
                     piece: Optional[int] = None) -> PotentialSlice:
    """Evaluate the glued global function on a covered sub-scope.

    For a descent datum the answer is independent of which containing
    piece is used; ``piece`` selects one explicitly so uniqueness can be
    exercised from the outside.
    """
    target_set = set(target)
    candidates = [i for i, p in enumerate(cover) if target_set <= set(p)]
    if not candidates:
        raise ValueError(f"target scope {tuple(target)} fits in no cover "
                         "piece")
    chosen = candidates[0] if piece is None else piece
    if chosen not in candidates:
        raise ValueError(f"piece {chosen} does not contain {tuple(target)}")
    return restrict(local_tables[chosen], tuple(target), semiring)


def result_to_json_dict(result: HatccResult) -> dict:
    out: dict = {"status": result.status}
    if result.status == "unsat":
        out["unsat_chord"] = list(result.unsat_chord) \
            if result.unsat_chord else None
    if result.reason is not None:
        out["reason"] = result.reason
    out["Z"] = None if math.isnan(result.Z) else result.Z
    out["marginals"] = [[float(x) for x in m] for m in result.marginals]
    if result.report is not None:
        out["holonomy"] = report_to_json_dict(result.report)
    out["max_clique_entries"] = result.max_clique_entries
    out["timings_ms"] = {k: 1000.0 * v for k, v in result.timings.items()}
    return out
