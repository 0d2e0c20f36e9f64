"""Span tracer that wraps ``hatcc``'s public functions from the outside.

While installed, each traced function is replaced by a wrapper at every
place a caller looks it up (the defining module, each module that imported
it by name, or the class for a method).  A wrapper records one span --
name, start, end, parent span and op id -- in flat in-memory arrays, plus
up to two numbers read from the call's arguments or result (a *note*, such
as the number of sweeps of a BP run).  Uninstalling restores every
attribute.  A lookup site that no longer exists is skipped and listed in
``missing``; a note that no longer fits the result it reads is counted in
``note_errors``.  Neither stops the run.
"""
from __future__ import annotations

import importlib
import math
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _pairs(tr, args, kwargs, result):
    m = len(args[0].factors)
    return m * (m - 1) / 2, len(result.edges)


def _cycle_factors(tr, args, kwargs, result):
    return len(result.factor_sequence), 0


def _compose_macs(tr, args, kwargs, result):
    a, b = args[0], args[1]
    return a.shape[0] * a.shape[1] * b.shape[1], 0


def _trivial(tr, args, kwargs, result):
    mat = result.matrix
    return float(np.array_equal(mat, np.eye(mat.shape[0], dtype=bool))), 0


def _ri_violations(tr, args, kwargs, result):
    return len(getattr(result, "ri_violations", ())), 0


def _cluster_entries(tr, args, kwargs, result):
    return max(b.table.size for b in result.beliefs), 0


def _bp_run(tr, args, kwargs, result):
    return result.iterations, float(result.converged)


def _half_edges(tr, args, kwargs, result):
    return len(args[1]), 0


def _scheduled(tr, args, kwargs, result):
    return len(args[2]), 0


def _orbits(tr, args, kwargs, result):
    return len(result.orbits), 0


def _states(tr, args, kwargs, result):
    return math.prod(v.cardinality for v in args[0].variables), 0


def _first_in_op(tr, args, kwargs, result):
    """1 if no earlier call of this op asked for the same kernel."""
    graph, fid, src, tgt = args[:4]
    tol = args[4] if len(args) > 4 else kwargs.get("tol", 0.0)
    key = (tr.op_id, id(graph), fid, tuple(src), tuple(tgt), tol)
    if key in tr.kernel_keys:
        return 0, 0
    tr.kernel_keys.add(key)
    return 1, 0


# span name -> (lookup sites "module:attr" or "module:Class.attr", note)
TARGETS = {
    "factor_graph.validate": (["factor_graph:validate"], None),
    "factor_graph.var_neighbors": (["factor_graph:FactorGraph.var_neighbors"],
                                   None),
    "factor_graph.normalize": (["factor_graph:Semiring.normalize"], None),
    "nerve.build_factor_nerve": (["holonomy:build_factor_nerve",
                                  "nerve:build_factor_nerve"], _pairs),
    "nerve.backbone": (["holonomy:build_backbone", "nerve:backbone"], None),
    "nerve.fundamental_cycle": (["holonomy:fundamental_cycle",
                                 "nerve:fundamental_cycle"], _cycle_factors),
    "holonomy.diagnose": (["compile:diagnose", "holonomy:diagnose"], None),
    "holonomy.holonomy_matrix": (["holonomy:holonomy_matrix"], _trivial),
    "holonomy.transport_kernel": (["holonomy:transport_kernel",
                                   "sectors:transport_kernel"], _first_in_op),
    "holonomy.compose": (["holonomy:compose", "sectors:compose"],
                         _compose_macs),
    "holonomy.mode_quotient": (["holonomy:mode_quotient"], None),
    "compile.augment": (["compile:augment"], _ri_violations),
    "compile.cluster_tree_propagate": (["compile:cluster_tree_propagate"],
                                       _cluster_entries),
    "compile.marginalize_modes": (["compile:marginalize_modes"], None),
    "compile.hatcc_infer": (["compile:hatcc_infer"], None),
    "bp_engine.run": (["bp_engine:run"], _bp_run),
    "bp_engine.init_messages": (["bp_engine:init_messages"], None),
    "bp_engine.step_parallel": (["bp_engine:step_parallel"], _half_edges),
    "bp_engine.step_scheduled": (["bp_engine:step_scheduled"], _scheduled),
    "bp_engine.beliefs": (["bp_engine:beliefs"], None),
    "bp_engine.run_tree_exact": (["bp_engine:run_tree_exact"], None),
    "bp_engine.is_bipartite_forest": (["bp_engine:is_bipartite_forest"],
                                      None),
    "sectors.decompose": (["sectors:decompose"], _orbits),
    "sectors.sector_infer": (["sectors:sector_infer"], None),
    "oracle.exact_marginals": (["oracle:exact_marginals"], _states),
    "generators.gen_permutation_graph": (
        ["generators:gen_permutation_graph"], None),
    "generators.gen_grid_mrf": (["generators:gen_grid_mrf"], None),
    "generators.gen_zk_sync": (["generators:gen_zk_sync"], None),
}
NOTE_ERRORS = (AttributeError, TypeError, ValueError, IndexError, KeyError)


class Tracer:
    """In-memory spans of one traced phase, in flat typed arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.a = array("d")
        self.b = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.missing: list[str] = []
        self.note_errors = 0
        # (op, graph, factor, source, target, tol) of each kernel request
        self.kernel_keys: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self.a.append(0.0)
        self.b.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _note(self, i, note, args, kwargs, result) -> None:
        try:
            self.a[i], self.b[i] = note(self, args, kwargs, result)
        except NOTE_ERRORS:
            self.note_errors += 1

    def _wrap(self, name: str, fn, note):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if note is not None:
                self._note(i, note, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, op_id: int, name: str, fn, *args, **kwargs):
        """Run one benchmark op as a root span."""
        self.op_id = op_id
        note = TARGETS.get(name, (None, None))[1]
        return self._wrap(name, fn, note)(*args, **kwargs)

    @contextmanager
    def installed(self):
        """Wrap every reachable target; restore all of them on exit."""
        saved = []
        try:
            for name, (sites, note) in TARGETS.items():
                for site in sites:
                    module_name, _, path = site.partition(":")
                    try:
                        owner = importlib.import_module(f"hatcc.{module_name}")
                        *outer, attr = path.split(".")
                        for part in outer:
                            owner = getattr(owner, part)
                        original = owner.__dict__[attr] if isinstance(
                            owner, type) else getattr(owner, attr)
                    except (ImportError, AttributeError, KeyError):
                        if site not in self.missing:
                            self.missing.append(site)
                        continue
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        """Views of the span arrays; take them only once tracing is done,
        since an array with a live view cannot grow."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "a": np.frombuffer(self.a, dtype=np.float64),
            "b": np.frombuffer(self.b, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanStats:
    """Totals, counts, self time and note sums per span name."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        arr = tracer.arrays()
        self.name, self.parent = arr["name"], arr["parent"]
        self.a, self.b = arr["a"], arr["b"]
        self.dur = (arr["end"] - arr["start"]) / 1e9
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent],
                            weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.child = child
        self.self_time = self.dur - child
        self.roots = np.flatnonzero(self.parent < 0)

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(name)

    def total(self, name: str) -> float:
        return float(self.dur[self._mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def count(self, name: str) -> int:
        return int(self._mask(name).sum())

    def note_a(self, name: str) -> float:
        return float(self.a[self._mask(name)].sum())

    def note_b(self, name: str) -> float:
        return float(self.b[self._mask(name)].sum())

    def max_a(self, name: str) -> float:
        vals = self.a[self._mask(name)]
        return float(vals.max()) if vals.size else 0.0

    def count_under(self, name: str, parent_name: str) -> int:
        mask = self._mask(name) & (self.parent >= 0)
        parents = self.parent[mask]
        return int(self._mask(parent_name)[parents].sum())


def layer_metrics(stats: SpanStats, n_ops: int, gen_s: float) -> dict:
    """Per-layer metrics of one traced run.

    ``*_s`` and counts are per traced op; ``*_frac`` of a function is its
    share of the traced ops' total time.  Layers that some workload never
    calls (bp_engine, sectors, oracle) report shares and rates rather than
    seconds, so that an absent layer reads as a zero share, not as a zero
    duration.
    """
    op_time = float(stats.dur[stats.roots].sum())

    def per_op(x):
        return x / n_ops

    def share(x):
        return x / op_time

    def ratio(x, y):
        return x / y if y else 0.0

    s = stats
    return {
        "factor_graph.validate_s": per_op(s.total("factor_graph.validate")),
        "factor_graph.var_neighbors_calls":
            per_op(s.count("factor_graph.var_neighbors")),
        "nerve.build_factor_nerve_s":
            per_op(s.total("nerve.build_factor_nerve")),
        "nerve.pairs_scanned": per_op(s.note_a("nerve.build_factor_nerve")),
        "nerve.edges": per_op(s.note_b("nerve.build_factor_nerve")),
        "nerve.backbone_s": per_op(s.total("nerve.backbone")),
        "nerve.fundamental_cycle_s":
            per_op(s.total("nerve.fundamental_cycle")),
        "nerve.cycle_factors": per_op(s.note_a("nerve.fundamental_cycle")),
        "holonomy.diagnose_s": per_op(s.total("holonomy.diagnose")),
        "holonomy.transport_kernel_calls":
            per_op(s.count("holonomy.transport_kernel")),
        "holonomy.transport_kernel_unique_frac":
            ratio(s.note_a("holonomy.transport_kernel"),
                  s.count("holonomy.transport_kernel")),
        "holonomy.transport_kernel_s":
            per_op(s.total("holonomy.transport_kernel")),
        "holonomy.compose_calls": per_op(s.count("holonomy.compose")),
        "holonomy.compose_macs": per_op(s.note_a("holonomy.compose")),
        "holonomy.mode_quotient_s": per_op(s.total("holonomy.mode_quotient")),
        "holonomy.chords": per_op(s.count("holonomy.holonomy_matrix")),
        "holonomy.trivial_frac":
            ratio(s.note_a("holonomy.holonomy_matrix"),
                  s.count("holonomy.holonomy_matrix")),
        "compile.augment_s": per_op(s.total("compile.augment")),
        "compile.cluster_tree_propagate_s":
            per_op(s.total("compile.cluster_tree_propagate")),
        "compile.marginalize_modes_s":
            per_op(s.total("compile.marginalize_modes")),
        "compile.self_s": per_op(s.self_total("compile.hatcc_infer")),
        "compile.max_cluster_entries":
            s.max_a("compile.cluster_tree_propagate"),
        "compile.ri_violations": per_op(s.note_a("compile.augment")),
        "bp_engine.run_frac": share(s.total("bp_engine.run")),
        "bp_engine.sweeps": per_op(s.note_a("bp_engine.run")),
        "bp_engine.half_edge_updates":
            per_op(s.note_a("bp_engine.step_parallel")
                   + s.note_a("bp_engine.step_scheduled")),
        "bp_engine.half_edge_updates_per_s":
            ratio(s.note_a("bp_engine.step_parallel"),
                  s.total("bp_engine.step_parallel")),
        "bp_engine.converged_frac": ratio(s.note_b("bp_engine.run"),
                                          s.count("bp_engine.run")),
        "bp_engine.run_tree_exact_calls":
            per_op(s.count("bp_engine.run_tree_exact")),
        "bp_engine.run_tree_exact_frac":
            share(s.total("bp_engine.run_tree_exact")),
        "bp_engine.is_bipartite_forest_frac":
            share(s.total("bp_engine.is_bipartite_forest")),
        "sectors.decompose_frac": share(s.total("sectors.decompose")),
        "sectors.orbits": per_op(s.note_a("sectors.decompose")),
        "sectors.clamped_runs":
            per_op(s.count_under("bp_engine.run", "sectors.sector_infer")
                   + s.count_under("bp_engine.run_tree_exact",
                                   "sectors.sector_infer")),
        "sectors.self_frac": share(s.self_total("sectors.sector_infer")),
        "oracle.exact_marginals_frac":
            share(s.total("oracle.exact_marginals")),
        "oracle.states": per_op(s.note_a("oracle.exact_marginals")),
        "oracle.states_per_s": ratio(s.note_a("oracle.exact_marginals"),
                                     s.total("oracle.exact_marginals")),
        "generators.gen_s": gen_s,
    }
