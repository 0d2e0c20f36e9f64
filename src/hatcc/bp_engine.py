"""Belief propagation: parallel and scheduled updates, beliefs, gauges.

Messages live on directed half-edges of the bipartite factor graph.
The parallel operator recomputes every half-edge from the previous
state; scheduled updates apply single-edge updates in order, each
reading the freshest state.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .factor_graph import FactorGraph, validate_strict
from .trees import UnionFind, bfs, calibrate


class Direction(enum.Enum):
    VAR_TO_FAC = "v2f"
    FAC_TO_VAR = "f2v"


class HalfEdge(NamedTuple):
    factor_id: int
    variable_id: int
    direction: Direction


MessageState = dict  # HalfEdge -> np.ndarray
Gauge = dict  # HalfEdge -> float


def half_edges(graph: FactorGraph) -> list[HalfEdge]:
    out = []
    for f in graph.factors:
        for v in f.scope:
            out.append(HalfEdge(f.id, v, Direction.VAR_TO_FAC))
            out.append(HalfEdge(f.id, v, Direction.FAC_TO_VAR))
    return out


def init_messages(graph: FactorGraph, init: str = "ones",
                  seed: Optional[int] = None) -> MessageState:
    """All-one messages, or seeded positive uniforms ('random')."""
    sr = graph.ops
    rng = np.random.default_rng(seed) if init == "random" else None
    m: MessageState = {}
    for h in half_edges(graph):
        card = graph.cardinality(h.variable_id)
        if init == "ones":
            m[h] = np.full(card, sr.one)
        elif init == "random":
            # positive, bounded away from zero
            m[h] = rng.uniform(0.1, 1.0, card)
        else:
            raise ValueError(f"unknown init '{init}'")
    return m


def update_var_to_fac(graph: FactorGraph, m: MessageState,
                      h: HalfEdge) -> np.ndarray:
    """Product of incoming factor messages from all neighbors but h's factor."""
    if h.direction is not Direction.VAR_TO_FAC:
        raise ValueError("half-edge must be variable-to-factor")
    sr = graph.ops
    out = np.full(graph.cardinality(h.variable_id), sr.one)
    for g in graph.var_neighbors(h.variable_id):
        if g == h.factor_id:
            continue
        out = sr.mul(out, m[HalfEdge(g, h.variable_id, Direction.FAC_TO_VAR)])
    return out


def update_fac_to_var(graph: FactorGraph, m: MessageState,
                      h: HalfEdge) -> np.ndarray:
    """Multiply the potential by other incoming messages, eliminate to h's variable."""
    if h.direction is not Direction.FAC_TO_VAR:
        raise ValueError("half-edge must be factor-to-variable")
    sr = graph.ops
    f = graph.factors[h.factor_id]
    table = graph.factor_nd(f)
    for axis, v in enumerate(f.scope):
        if v == h.variable_id:
            continue
        msg = m[HalfEdge(f.id, v, Direction.VAR_TO_FAC)]
        shape = [1] * table.ndim
        shape[axis] = msg.size
        table = sr.mul(table, msg.reshape(shape))
    target_axis = f.scope.index(h.variable_id)
    other = tuple(i for i in range(table.ndim) if i != target_axis)
    if other:
        table = sr.add_reduce(table, axis=other)
    return table


def _update(graph: FactorGraph, m: MessageState, h: HalfEdge) -> np.ndarray:
    if h.direction is Direction.VAR_TO_FAC:
        return update_var_to_fac(graph, m, h)
    return update_fac_to_var(graph, m, h)


def step_parallel(graph: FactorGraph, m: MessageState) -> MessageState:
    """Synchronous update of every half-edge from the input state."""
    return {h: _update(graph, m, h) for h in m}


def step_scheduled(graph: FactorGraph, m: MessageState,
                   schedule: Sequence[HalfEdge]) -> MessageState:
    """Apply single-edge updates in order, each reading the freshest state."""
    out = dict(m)
    for h in schedule:
        out[h] = _update(graph, out, h)
    return out


# ---------------------------------------------------------------------------
# Convergence loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BPResult:
    messages: MessageState
    beliefs: tuple[np.ndarray, ...]
    degenerate: tuple[int, ...]  # variable ids with all-zero belief
    iterations: int
    converged: bool
    oscillating: bool
    residual_trace: tuple[float, ...]


OSCILLATION_WINDOW = 50
OSCILLATION_PERIODS = range(2, 11)
OSCILLATION_DEVIATION = 1e-8


def _detect_oscillation(trace: Sequence[float], threshold: float) -> bool:
    """Periodic residual trace at or above threshold over the last window."""
    if len(trace) < OSCILLATION_WINDOW:
        return False
    window = np.asarray(trace[-OSCILLATION_WINDOW:])
    if window[-1] < threshold:
        return False
    for p in OSCILLATION_PERIODS:
        dev = np.abs(window[p:] - window[:-p]).max()
        if dev < OSCILLATION_DEVIATION:
            return True
    return False


def run(graph: FactorGraph, max_iters: int = 200,
        residual_threshold: float = 1e-6, damping: float = 0.0,
        schedule: Optional[Sequence[HalfEdge]] = None, init: str = "ones",
        seed: Optional[int] = None) -> BPResult:
    """Iterate BP to convergence or the iteration budget.

    Messages are normalized after each sweep for numerical stability and
    the residual is the max L-inf distance between successive normalized
    messages.  Non-convergence is a result, not an error.
    """
    validate_strict(graph)
    sr = graph.ops
    m = init_messages(graph, init, seed)
    m = {h: sr.normalize(v) for h, v in m.items()}
    trace: list[float] = []
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        if schedule is None:
            new = step_parallel(graph, m)
        else:
            new = step_scheduled(graph, m, schedule)
        if damping != 0.0:
            new = {h: (1.0 - damping) * new[h] + damping * m[h] for h in new}
        new = {h: sr.normalize(v) for h, v in new.items()}
        residual = max((np.abs(new[h] - m[h]).max() for h in new),
                       default=0.0)
        m = new
        trace.append(float(residual))
        if residual < residual_threshold:
            converged = True
            break
    if max_iters == 0:
        iters = 0
    oscillating = (not converged) and _detect_oscillation(
        trace, residual_threshold)
    bel, degen = beliefs(graph, m)
    return BPResult(m, tuple(bel), tuple(degen), iters, converged,
                    oscillating, tuple(trace))


def beliefs(graph: FactorGraph,
            m: MessageState) -> tuple[list[np.ndarray], list[int]]:
    """Per-variable normalized beliefs and the ids with all-zero belief."""
    sr = graph.ops
    if not sr.supports_division:
        raise ValueError("beliefs require sum_product or max_product")
    out: list[np.ndarray] = []
    degenerate: list[int] = []
    for v in graph.variables:
        b = np.full(v.cardinality, sr.one)
        for f in graph.var_neighbors(v.id):
            b = sr.mul(b, m[HalfEdge(f, v.id, Direction.FAC_TO_VAR)])
        if np.all(sr.is_zero(b)):
            degenerate.append(v.id)
        out.append(sr.normalize(b))
    return out, degenerate


# ---------------------------------------------------------------------------
# Gauge action and propagation
# ---------------------------------------------------------------------------

def gauge_act(k: Gauge, m: MessageState) -> MessageState:
    """Rescale each half-edge message by its gauge scalar."""
    return {h: k[h] * m[h] for h in m}


def gauge_propagate(graph: FactorGraph, k: Gauge) -> Gauge:
    """Push a gauge through one BP step.

    The outgoing rescale on a half-edge is the product of the incoming
    rescales its update reads: for v->f, the gauges of g->v over the
    other neighboring factors g; for f->v, the gauges of u->f over the
    other scope variables u.
    """
    out: Gauge = {}
    for f in graph.factors:
        for v in f.scope:
            acc = 1.0
            for g in graph.var_neighbors(v):
                if g != f.id:
                    acc *= k[HalfEdge(g, v, Direction.FAC_TO_VAR)]
            out[HalfEdge(f.id, v, Direction.VAR_TO_FAC)] = acc
            acc = 1.0
            for u in f.scope:
                if u != v:
                    acc *= k[HalfEdge(f.id, u, Direction.VAR_TO_FAC)]
            out[HalfEdge(f.id, v, Direction.FAC_TO_VAR)] = acc
    return out


# ---------------------------------------------------------------------------
# Tree schedules and exact tree inference
# ---------------------------------------------------------------------------

def _incidence(graph: FactorGraph) -> list[tuple[int, int, tuple[int]]]:
    """Bipartite edges ``(f, m + v, (v,))``: factor f is node f and
    variable v is node m + v, where m is the factor count."""
    m = len(graph.factors)
    return [(f.id, m + v, (v,)) for f in graph.factors for v in f.scope]


def is_bipartite_forest(graph: FactorGraph) -> bool:
    """True iff the bipartite variable/factor graph is acyclic."""
    uf = UnionFind()
    return all(uf.union(f, node) for f, node, _sep in _incidence(graph))


def tree_schedule(graph: FactorGraph) -> list[HalfEdge]:
    """Leaf-to-root then root-to-leaf half-edge schedule.

    Requires the bipartite graph to be a forest; one full pass of this
    schedule reaches a fixed point of the parallel operator.
    """
    if not is_bipartite_forest(graph):
        raise ValueError("tree_schedule requires an acyclic factor graph")
    m = len(graph.factors)
    adj: list[list] = [[] for _ in range(m + len(graph.variables))]
    for f, node, (v,) in _incidence(graph):
        adj[f].append((node, (f, v)))
        adj[node].append((f, (f, v)))

    def half_edge(src: int, label: tuple[int, int]) -> HalfEdge:
        return HalfEdge(*label, Direction.FAC_TO_VAR if src < m
                        else Direction.VAR_TO_FAC)

    tree = [t for t in bfs(adj, range(len(adj))) if t[1] is not None]
    return ([half_edge(node, label) for node, _par, label in reversed(tree)]
            + [half_edge(par, label) for _node, par, label in tree])


def run_tree_exact(graph: FactorGraph):
    """Exact beliefs and Z on an acyclic factor graph.

    Calibrates the bipartite forest: one cluster per factor holding its
    table and one per variable holding ``sr.one``, joined along the
    incidence with separator ``(v,)``.  Returns (normalized beliefs, Z,
    ids of variables with all-zero belief).  Z is the semiring total over
    all joint states: the sum of weights under sum-product, the best
    weight under max-product, the least energy under min-sum.
    """
    validate_strict(graph)
    if not is_bipartite_forest(graph):
        raise ValueError("run_tree_exact requires an acyclic factor graph")
    sr = graph.ops
    m = len(graph.factors)
    scopes = [f.scope for f in graph.factors]
    scopes += [(v.id,) for v in graph.variables]
    tables = [graph.factor_nd(f) for f in graph.factors]
    tables += [np.full(v.cardinality, sr.one) for v in graph.variables]
    bel, roots = calibrate(sr, scopes, tables, _incidence(graph))
    Z = sr.one
    for r in roots:
        Z = sr.mul(Z, sr.add_reduce(bel[r], None))
    degenerate = [v.id for v in graph.variables
                  if np.all(sr.is_zero(bel[m + v.id]))]
    return [sr.normalize(b) for b in bel[m:]], float(Z), degenerate
