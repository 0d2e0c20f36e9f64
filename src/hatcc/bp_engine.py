"""Belief propagation: parallel and scheduled updates, beliefs, gauges.

Messages live on directed half-edges of the bipartite factor graph.
The parallel operator recomputes every half-edge from the previous
state; scheduled updates apply single-edge updates in order, each
reading the freshest state.  The parallel operator runs on grouped
flat buffers (``_Layout``); a ``HalfEdge`` dict is a view of them.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .factor_graph import FactorGraph, Semiring, validate_strict
from .trees import TableStacks, UnionFind, bfs, calibrate


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
    lay = _Layout(graph)
    return lay.unpack(lay.initial(graph.ops, init, seed), lay.half_edges)


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


# ---------------------------------------------------------------------------
# Grouped flat layout of the parallel operator
# ---------------------------------------------------------------------------

def _exclusive_products(sr: Semiring, msgs: np.ndarray) -> np.ndarray:
    """Along axis 1 of ``(V, d, c)``, the product of every message but one.

    Prefix and suffix products, so no division: min-sum and zero entries
    forbid it.
    """
    d = msgs.shape[1]
    if d == 1:
        return np.full_like(msgs, sr.one)
    pre = sr.mul.accumulate(msgs[:, :-1], axis=1)
    suf = sr.mul.accumulate(msgs[:, :0:-1], axis=1)[:, ::-1]
    out = np.empty_like(msgs)
    out[:, 0] = suf[:, 0]
    out[:, -1] = pre[:, -1]
    sr.mul(pre[:, :-1], suf[:, 1:], out=out[:, 1:-1])
    return out


class _Layout:
    """Grouped message buffers of one factor graph.

    A message state is a list of blocks, one per cardinality ``c`` in
    ``cards``.  Block row ``r`` is one incidence ``(f, v)`` with
    ``card(v) == c``; slot 0 holds its variable-to-factor message and
    slot 1 its factor-to-variable message.  Rows keep ``half_edges``
    order.  Factors are stacked by scope shape and variables grouped by
    (cardinality, degree), so every group is a dense array.
    """

    def __init__(self, graph: FactorGraph):
        self.half_edges = half_edges(graph)
        self.n_vars = len(graph.variables)
        card = np.array([v.cardinality for v in graph.variables],
                        dtype=np.int64)
        inc_var = np.array([v for f in graph.factors for v in f.scope],
                           dtype=np.int64)
        inc_card = card[inc_var]
        self.cards = sorted(set(inc_card.tolist()))
        block = {c: b for b, c in enumerate(self.cards)}
        self.incidences = [np.flatnonzero(inc_card == c) for c in self.cards]
        row = np.empty(len(inc_var), dtype=np.int64)
        for rows in self.incidences:
            row[rows] = np.arange(len(rows))
        self.keys = [[self.half_edges[2 * e + s] for e in rows for s in (0, 1)]
                     for rows in self.incidences]
        # each incidence's two messages are consecutive in half_edges order
        ends = 2 * np.cumsum(inc_card)
        self.offsets = ends - 2 * inc_card
        self.n_entries = int(ends[-1]) if len(ends) else 0

        by_shape: dict[tuple[int, ...], list] = {}
        first = 0
        for f in graph.factors:
            if f.scope:
                by_shape.setdefault(graph.scope_shape(f.scope), []).append(
                    (f.table, first))
            first += len(f.scope)
        # (stacked tables, [(block, rows) per axis])
        self.factor_groups = []
        for shape, members in by_shape.items():
            tables = np.stack([t for t, _ in members]).reshape(
                (len(members),) + shape)
            firsts = np.array([e for _, e in members], dtype=np.int64)
            axes = [(block[c], row[firsts + a]) for a, c in enumerate(shape)]
            self.factor_groups.append((tables, axes))

        degree = np.bincount(inc_var, minlength=self.n_vars)
        # each variable's incidences, in ascending factor order
        by_var = np.argsort(inc_var, kind="stable")
        start = np.cumsum(degree) - degree
        members_of: dict[tuple[int, int], list[int]] = {}
        for v, key in enumerate(zip(card.tolist(), degree.tolist())):
            members_of.setdefault(key, []).append(v)
        # (cardinality, block or None, variable ids, (V, d) rows)
        self.var_groups = []
        for (c, d), vs in members_of.items():
            vs = np.array(vs, dtype=np.int64)
            rows = row[by_var[start[vs][:, None] + np.arange(d)]]
            self.var_groups.append((c, block.get(c), vs, rows))

    def initial(self, sr: Semiring, init: str,
                seed: Optional[int]) -> list[np.ndarray]:
        """All-one blocks, or seeded uniforms drawn in ``half_edges`` order."""
        if init == "ones":
            return [np.full((len(rows), 2, c), sr.one)
                    for rows, c in zip(self.incidences, self.cards)]
        if init == "random":
            # positive, bounded away from zero
            draws = np.random.default_rng(seed).uniform(0.1, 1.0,
                                                        self.n_entries)
            return [draws[self.offsets[rows][:, None] + np.arange(2 * c)]
                    .reshape(-1, 2, c)
                    for rows, c in zip(self.incidences, self.cards)]
        raise ValueError(f"unknown init '{init}'")

    def pack(self, m: MessageState) -> list[np.ndarray]:
        """Blocks holding the messages of a ``HalfEdge`` dict."""
        return [np.array([m[h] for h in keys], dtype=np.float64)
                .reshape(-1, 2, c) for keys, c in zip(self.keys, self.cards)]

    def unpack(self, state: list[np.ndarray],
               order: Sequence[HalfEdge]) -> MessageState:
        """A ``HalfEdge`` dict of row views, keyed in ``order``."""
        view: MessageState = {}
        for keys, blk, c in zip(self.keys, state, self.cards):
            view.update(zip(keys, blk.reshape(-1, c)))
        return {h: view[h] for h in order}

    def sweep(self, sr: Semiring, state: list[np.ndarray]) -> list[np.ndarray]:
        """One parallel update of every half-edge from ``state``."""
        new = [np.empty_like(blk) for blk in state]
        for tables, axes in self.factor_groups:
            k = len(axes)
            msgs = []
            for a, (b, rows) in enumerate(axes):
                shape = [len(rows)] + [1] * k
                shape[a + 1] = self.cards[b]
                msgs.append(state[b][rows, 0].reshape(shape))
            for t, (b, rows) in enumerate(axes):
                acc = tables
                for a in range(k):
                    if a != t:
                        acc = sr.mul(acc, msgs[a])
                if k > 1:
                    acc = sr.add_reduce(acc, axis=tuple(
                        a + 1 for a in range(k) if a != t))
                new[b][rows, 1] = acc
        for _c, b, _vs, rows in self.var_groups:
            if rows.shape[1]:
                new[b][rows, 0] = _exclusive_products(sr, state[b][rows, 1])
        return new

    def beliefs(self, sr: Semiring, state: list[np.ndarray]
                ) -> tuple[list[np.ndarray], list[int]]:
        out: list[np.ndarray] = [None] * self.n_vars
        degenerate: list[int] = []
        for c, b, vs, rows in self.var_groups:
            if rows.shape[1]:
                bel = sr.mul.reduce(state[b][rows, 1], axis=1,
                                    initial=sr.one)
            else:
                bel = np.full((len(vs), c), sr.one)
            degenerate += vs[np.all(sr.is_zero(bel), axis=1)].tolist()
            out_rows = sr.normalize(bel)
            for v, r in zip(vs.tolist(), out_rows):
                out[v] = r
        return out, sorted(degenerate)


def step_parallel(graph: FactorGraph, m: MessageState) -> MessageState:
    """Synchronous update of every half-edge from the input state."""
    lay = _Layout(graph)
    return lay.unpack(lay.sweep(graph.ops, lay.pack(m)), m)


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
    """Periodic residual trace over the last window of an unconverged
    run, whose last residual is therefore not below ``threshold``."""
    if len(trace) < OSCILLATION_WINDOW:
        return False
    window = np.asarray(trace[-OSCILLATION_WINDOW:])
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
    messages; equal infinities are 0 apart, and a NaN makes it NaN.
    ``damping`` in [0, 1) is the share of the old message kept.  Under
    Boolean, damping must be 0 and ``init`` 'ones': a damped or random
    message holds fractions.  Non-convergence is a result, not an error.
    A schedule runs through ``step_scheduled`` on a dict view of the
    buffers.
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must be in [0, 1), got {damping}")
    validate_strict(graph)
    sr = graph.ops
    if sr.name == "boolean" and (damping != 0.0 or init != "ones"):
        raise ValueError("Boolean BP needs damping 0 and init 'ones', got "
                         f"damping={damping}, init={init!r}")
    lay = _Layout(graph)
    m = [sr.normalize(blk) for blk in lay.initial(sr, init, seed)]
    trace: list[float] = []
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        if schedule is None:
            new = lay.sweep(sr, m)
        else:
            new = lay.pack(step_scheduled(
                graph, lay.unpack(m, lay.half_edges), schedule))
        if damping != 0.0:
            new = [(1.0 - damping) * a + damping * b for a, b in zip(new, m)]
        new = [sr.normalize(blk) for blk in new]
        residual = 0.0
        for a, b in zip(new, m):
            diff = np.subtract(a, b, out=np.zeros(a.shape), where=a != b)
            residual = np.abs(diff, out=diff).max(initial=residual)
        m = new
        trace.append(float(residual))
        if residual < residual_threshold:
            converged = True
            break
    oscillating = (not converged) and _detect_oscillation(
        trace, residual_threshold)
    bel, degen = lay.beliefs(sr, m)
    return BPResult(lay.unpack(m, lay.half_edges), tuple(bel), tuple(degen),
                    iters, converged, oscillating, tuple(trace))


def beliefs(graph: FactorGraph,
            m: MessageState) -> tuple[list[np.ndarray], list[int]]:
    """Per-variable normalized beliefs and the ids with all-zero belief."""
    lay = _Layout(graph)
    return lay.beliefs(graph.ops, lay.pack(m))


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
    uf = UnionFind(len(graph.factors) + len(graph.variables))
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
    bel, Z = calibrate(sr, scopes, TableStacks.of(tables), _incidence(graph))
    degenerate = [v.id for v in graph.variables
                  if np.all(sr.is_zero(bel[m + v.id]))]
    return [sr.normalize(bel[m + v.id]) for v in graph.variables], Z, \
        degenerate
