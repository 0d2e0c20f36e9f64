"""Holonomy-aware compilation to an exactly solvable tree model.

Pipeline: detect chords of the factor nerve, compile each chord whose
holonomy is not the identity into a mode variable plus a selector
factor, check the augmented nerve is a tree, run two-pass separator
message passing over it, and marginalize the mode variables back out.
A trivial chord gets nothing: its selector would copy the interface
state into the mode and multiply every state by the semiring one.  An
all-zero selector is an UNSAT certificate, returned as a result rather
than raised.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .factor_graph import (FactorDecl, FactorGraph, PotentialSlice, Semiring,
                           VariableDecl, restrict, validate_strict)
from .holonomy import (HolonomyMatrix, HolonomyReport, ModeQuotient,
                       diagnose, report_to_json_dict)
from .trees import calibrate


# ---------------------------------------------------------------------------
# Selectors and the augmented model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectorFactor:
    chord: tuple[int, int]
    interface: tuple[int, ...]
    n_modes: int
    table: np.ndarray  # shape = interface shape + (n_modes,), semiring 0/1


@dataclass(frozen=True)
class UnsatCertificate:
    chord: tuple[int, int]
    detail: str


@dataclass(frozen=True)
class ClusterEdge:
    a: int  # cluster index
    b: int
    separator: tuple[int, ...]  # sorted variable ids


@dataclass(frozen=True)
class CompiledModel:
    graph: FactorGraph  # augmented
    original_var_count: int
    mode_vars: dict  # chord key -> mode variable id
    selector_ids: dict  # chord key -> selector factor id
    cluster_edges: tuple[ClusterEdge, ...]
    roots: tuple[int, ...]  # cluster indices, one per component
    running_intersection_ok: bool
    ri_violations: tuple[int, ...]  # variable ids


def build_selector(graph: FactorGraph, H: HolonomyMatrix,
                   Q: ModeQuotient) -> Union[SelectorFactor, UnsatCertificate]:
    """Indicator tying an interface state to its mode and feasibility.

    sigma(x, m) = 1 iff the state's mode is m and the holonomy fixes x
    (H(x, x) = 1).  A selector with no support certifies UNSAT.
    """
    sr = graph.ops
    iface_shape = graph.scope_shape(H.interface)
    n_states = math.prod(iface_shape)
    n_modes = len(Q.modes)
    flat = np.full((n_states, n_modes), sr.zero)
    fixed = Q.fixed_point_mask
    flat[fixed, Q.quotient[fixed]] = sr.one
    if not np.any(~sr.is_zero(flat)):
        return UnsatCertificate(H.chord.key,
                                "selector has empty support: no interface "
                                "state is fixed by the chord holonomy")
    return SelectorFactor(H.chord.key, H.interface, n_modes,
                          flat.reshape(iface_shape + (n_modes,)))


def _check_running_intersection(scopes: Sequence[Sequence[int]],
                                edges: Sequence[ClusterEdge]) -> list[int]:
    """Variables whose clusters do not form a connected subtree.

    In a forest, the k clusters holding v are connected exactly when
    k - 1 edges join two of them.
    """
    holders = Counter(v for scope in scopes for v in scope)
    joins = Counter(v for e in edges
                    for v in set(scopes[e.a]) & set(scopes[e.b]))
    return sorted(v for v, k in holders.items() if joins[v] != k - 1)


def augment(graph: FactorGraph,
            report: HolonomyReport) -> Union[CompiledModel, UnsatCertificate]:
    """Append one mode variable and one selector factor per non-trivial
    chord.

    A chord whose holonomy is the identity is skipped, so its mode
    quotient is never taken.  The augmented nerve keeps the backbone
    tree edges and attaches each selector as a leaf on the chord's
    smaller endpoint, so the edge count stays vertices minus
    components.  Running intersection is checked and flagged, not
    assumed.
    """
    variables = list(graph.variables)
    factors = list(graph.factors)
    mode_vars: dict = {}
    selector_ids: dict = {}
    edges = [ClusterEdge(e.f1, e.f2, e.interface)
             for e in report.backbone.tree_edges]
    for cr in report.chords:
        if cr.trivial:
            continue
        sel = build_selector(graph, cr.holonomy, cr.quotient)
        if isinstance(sel, UnsatCertificate):
            return sel
        mode_id = len(variables)
        variables.append(VariableDecl(mode_id, sel.n_modes,
                                      f"mode_{sel.chord[0]}_{sel.chord[1]}"))
        fac_id = len(factors)
        factors.append(FactorDecl(fac_id, sel.interface + (mode_id,),
                                  sel.table.ravel()))
        mode_vars[sel.chord] = mode_id
        selector_ids[sel.chord] = fac_id
        edges.append(ClusterEdge(min(sel.chord), fac_id, sel.interface))
    augmented = FactorGraph(graph.semiring, tuple(variables), tuple(factors))

    # tree identity: edges = vertices - components on the augmented nerve
    assert len(edges) == len(factors) - len(report.backbone.roots), \
        "augmented nerve violates the tree edge-count identity"

    scopes = [f.scope for f in factors]
    bad = _check_running_intersection(scopes, edges)
    return CompiledModel(augmented, len(graph.variables), mode_vars,
                         selector_ids, tuple(edges),
                         tuple(report.backbone.roots), not bad, tuple(bad))


# ---------------------------------------------------------------------------
# Cluster-tree message passing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterTreeResult:
    beliefs: tuple[PotentialSlice, ...]  # unnormalized, one per cluster
    Z: float
    unsat: bool


def cluster_tree_propagate(compiled: CompiledModel) -> ClusterTreeResult:
    """Two-pass separator message passing over the augmented nerve tree.

    The message from cluster a to neighbor b is the restriction to their
    separator of a's potential times all other incoming messages.  Z is
    read off the root beliefs, one factor per component.
    """
    g = compiled.graph
    sr = g.ops
    scopes = [f.scope for f in g.factors]
    edges = [(e.a, e.b, e.separator) for e in compiled.cluster_edges]
    bel, Z = calibrate(sr, scopes, [g.factor_nd(f) for f in g.factors],
                       edges, compiled.roots)
    return ClusterTreeResult(
        tuple(PotentialSlice(s, b) for s, b in zip(scopes, bel)), Z,
        bool(sr.is_zero(Z)))


def marginalize_modes(compiled: CompiledModel,
                      result: ClusterTreeResult) -> list[np.ndarray]:
    """Per-original-variable marginals from calibrated cluster beliefs."""
    g = compiled.graph
    sr = g.ops
    out = []
    holder: dict[int, int] = {}
    for ci, b in enumerate(result.beliefs):
        for v in b.scope:
            holder.setdefault(v, ci)
    for v_id in range(compiled.original_var_count):
        card = g.cardinality(v_id)
        if v_id not in holder:
            # variable untouched by any factor
            out.append(sr.normalize(np.full(card, sr.one)))
            continue
        b = result.beliefs[holder[v_id]]
        vec = restrict(b, (v_id,), sr).table
        out.append(sr.normalize(vec))
    return out


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HatccResult:
    status: str  # "ok" | "unsat"
    Z: float
    marginals: tuple[np.ndarray, ...]
    report: Optional[HolonomyReport]
    timings: dict
    running_intersection_ok: bool
    unsat_chord: Optional[tuple[int, int]] = None
    compiled: Optional[CompiledModel] = None


def hatcc_infer(graph: FactorGraph, tol: float = 0.0,
                cap: int = 2 ** 16) -> HatccResult:
    """Run the full compile-and-solve pipeline.

    Phases: validate, nerve, backbone/cycles + holonomy, mode quotients
    and selectors for the non-trivial chords, augmented-graph
    construction, separator passing over the augmented nerve tree, mode
    marginalization.  Every graph takes this one path; a forest is the
    case with no chord, so ``augment`` adds no selector and the backbone
    is already a junction tree.
    """
    sr = graph.ops
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    validate_strict(graph)
    timings["validate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = diagnose(graph, tol=tol, cap=cap)
    timings["diagnose"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    compiled = augment(graph, report)
    timings["augment"] = time.perf_counter() - t0
    if isinstance(compiled, UnsatCertificate):
        card = [v.cardinality for v in graph.variables]
        marg = tuple(np.full(c, 1.0 / c) for c in card)
        return HatccResult("unsat", sr.zero, marg, report, timings, True,
                           unsat_chord=compiled.chord)

    t0 = time.perf_counter()
    ct = cluster_tree_propagate(compiled)
    timings["propagate"] = time.perf_counter() - t0

    Z = ct.Z
    # variables untouched by any factor contribute the total of sr.one
    touched = {v for f in graph.factors for v in f.scope}
    for v in graph.variables:
        if v.id not in touched:
            Z = float(sr.mul(Z, sr.add_reduce(np.full(v.cardinality, sr.one),
                                              None)))

    t0 = time.perf_counter()
    marg = marginalize_modes(compiled, ct)
    timings["marginalize"] = time.perf_counter() - t0

    status = "unsat" if ct.unsat else "ok"
    return HatccResult(status, Z, tuple(marg), report, timings,
                       compiled.running_intersection_ok, compiled=compiled)


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
    out["Z"] = result.Z
    out["marginals"] = [[float(x) for x in m] for m in result.marginals]
    if result.report is not None:
        out["holonomy"] = report_to_json_dict(result.report)
    out["running_intersection_ok"] = result.running_intersection_ok
    out["timings_ms"] = {k: 1000.0 * v for k, v in result.timings.items()}
    return out
