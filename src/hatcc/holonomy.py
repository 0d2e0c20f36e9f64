"""Transport kernels, cycle holonomy matrices, and mode quotients.

A transport kernel is the Boolean support relation a factor induces
between two interface state spaces; ``loop_transport`` composes kernels
around a closed loop of factors.  A chord's fundamental cycle gives its
holonomy matrix, and ``sectors`` walks its base generators the same
way.  A holonomy matrix's strongly connected components are the modes,
read off the relation's reflexive-transitive closure.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .factor_graph import FactorGraph
from .nerve import Backbone, FactorNerve, FundamentalCycle, NerveEdge
from .nerve import build_factor_nerve, backbone as build_backbone
from .nerve import fundamental_cycle

DEFAULT_INTERFACE_CAP = 2 ** 16


class InterfaceCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class TransportKernel:
    source_scope: tuple[int, ...]
    target_scope: tuple[int, ...]
    matrix: np.ndarray  # bool, |Omega(source)| x |Omega(target)|


@dataclass(frozen=True)
class HolonomyMatrix:
    chord: NerveEdge
    interface: tuple[int, ...]
    matrix: np.ndarray  # bool, square


@dataclass(frozen=True)
class ModeQuotient:
    modes: tuple[tuple[int, ...], ...]  # SCCs, ordered by smallest member
    quotient: np.ndarray  # state -> mode index
    fixed_point_mask: np.ndarray  # bool, H(x, x) = 1


def transport_kernel(graph: FactorGraph, factor_id: int,
                     source: Sequence[int], target: Sequence[int],
                     tol: float = 0.0) -> TransportKernel:
    """Boolean support relation of a factor between two sub-scopes.

    Entry (x, y) is 1 iff some full scope configuration extending both
    has nonzero potential; pairs that disagree on shared variables are
    never supported.  ``tol`` widens what counts as zero.
    """
    f = graph.factors[factor_id]
    for name, part in (("source", source), ("target", target)):
        if not set(part) <= set(f.scope):
            raise ValueError(f"{name} scope {tuple(part)} not within "
                             f"factor {factor_id} scope {f.scope}")
    source = tuple(source)
    target = tuple(target)
    table = graph.factor_nd(f)
    supported = ~graph.ops.is_zero(table, tol)
    src_shape = graph.scope_shape(source)
    tgt_shape = graph.scope_shape(target)
    kernel = np.zeros((math.prod(src_shape), math.prod(tgt_shape)),
                      dtype=bool)
    configs = np.argwhere(supported)
    if configs.size:
        axis_of = {v: i for i, v in enumerate(f.scope)}
        src_idx = np.ravel_multi_index(
            tuple(configs[:, axis_of[v]] for v in source), src_shape) \
            if source else np.zeros(len(configs), dtype=np.int64)
        tgt_idx = np.ravel_multi_index(
            tuple(configs[:, axis_of[v]] for v in target), tgt_shape) \
            if target else np.zeros(len(configs), dtype=np.int64)
        kernel[src_idx, tgt_idx] = True
    return TransportKernel(source, target, kernel)


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product.

    A float BLAS product counts the paths; a sum of non-negative terms is
    0 only when every term is, so ``> 0`` is exact for any path count.
    """
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def loop_transport(graph: FactorGraph, factors: Sequence[int],
                   interfaces: Sequence[tuple[int, ...]], tol: float,
                   kernels: dict) -> np.ndarray:
    """Compose transport kernels around a closed loop of factors.

    ``factors[i]`` carries ``interfaces[i - 1]`` to ``interfaces[i]``, so
    the loop starts and ends at ``interfaces[-1]``.  ``kernels`` memoizes
    the kernel matrices built so far for this graph and ``tol``, keyed by
    (factor, source, target), and is shared by every loop of one caller.
    """
    H = None
    for fid, source, target in zip(factors, [interfaces[-1], *interfaces],
                                   interfaces):
        key = (fid, source, target)
        if key not in kernels:
            kernels[key] = transport_kernel(graph, fid, source, target,
                                            tol).matrix
        H = kernels[key] if H is None else compose(H, kernels[key])
    return H


def holonomy_matrix(graph: FactorGraph, cycle: FundamentalCycle,
                    tol: float = 0.0, cap: int = DEFAULT_INTERFACE_CAP, *,
                    _kernels: Optional[dict] = None) -> HolonomyMatrix:
    """Compose transport kernels around a fundamental cycle.

    The loop starts and ends at the chord interface: the first kernel
    carries chord-interface states into the path through the chord's far
    endpoint, then each path factor carries them one interface further,
    and the last kernel returns through the chord's near endpoint.
    ``_kernels`` is ``diagnose``'s memo for ``loop_transport``.
    """
    interfaces = cycle.interface_sequence
    for J in interfaces:
        size = math.prod(graph.scope_shape(J))
        if size > cap:
            raise InterfaceCapExceeded(
                f"interface {J} has {size} states, exceeding the cap "
                f"{cap}; refusing to build the holonomy matrix")
    H = loop_transport(graph, cycle.factor_sequence, interfaces, tol,
                       {} if _kernels is None else _kernels)
    return HolonomyMatrix(cycle.chord, interfaces[-1], H)


def reachability_classes(relation: np.ndarray) -> tuple[
        tuple[tuple[int, ...], ...], np.ndarray]:
    """Strongly connected classes of a square Boolean relation.

    Squaring ``relation | I`` with ``compose`` until it stops changing
    gives the reflexive-transitive closure (Fischer & Meyer 1971).  Each
    state joins the class of its least mutually reachable state, which
    is the first of the class in state order, so the classes come out
    sorted and ordered by least member.  Returns the classes and each
    state's class index.
    """
    reach = relation | np.eye(len(relation), dtype=bool)
    while (reach != (step := compose(reach, reach))).any():
        reach = step
    least = (reach & reach.T).argmax(axis=1).tolist()
    classes: dict[int, list[int]] = {}
    for x, low in enumerate(least):
        classes.setdefault(low, []).append(x)
    index = {low: i for i, low in enumerate(classes)}
    return (tuple(map(tuple, classes.values())),
            np.array([index[low] for low in least]))


def mode_quotient(H: HolonomyMatrix) -> ModeQuotient:
    """SCC partition of the digraph induced by the holonomy matrix."""
    modes, quotient = reachability_classes(H.matrix)
    return ModeQuotient(modes, quotient, np.diagonal(H.matrix).copy())


def is_identity(m: np.ndarray) -> bool:
    """True iff the square Boolean matrix is exactly the identity: a true
    diagonal and no other true entry."""
    return bool(np.diagonal(m).all() and np.count_nonzero(m) == len(m))


def is_trivial(H: HolonomyMatrix) -> bool:
    """True iff the holonomy matrix is exactly the identity."""
    return is_identity(H.matrix)


# ---------------------------------------------------------------------------
# Per-graph reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChordReport:
    """A chord's cycle and holonomy.  The mode quotient is taken on first
    use, so a trivial chord, which ``compile.augment`` skips, never pays
    for the closure."""
    cycle: FundamentalCycle
    holonomy: HolonomyMatrix

    @cached_property
    def quotient(self) -> ModeQuotient:
        return mode_quotient(self.holonomy)

    @cached_property
    def trivial(self) -> bool:
        return is_trivial(self.holonomy)


@dataclass(frozen=True)
class HolonomyReport:
    nerve: FactorNerve
    backbone: Backbone
    chords: tuple[ChordReport, ...]


def diagnose(graph: FactorGraph, tol: float = 0.0,
             cap: int = DEFAULT_INTERFACE_CAP) -> HolonomyReport:
    """Nerve, backbone, and per-chord holonomy; modes on demand.

    Each transport kernel is built once and shared by every chord whose
    cycle passes through it.
    """
    nerve = build_factor_nerve(graph)
    bb = build_backbone(nerve)
    kernels: dict = {}
    chords = []
    for chord in bb.chords:
        cycle = fundamental_cycle(graph, bb, chord)
        H = holonomy_matrix(graph, cycle, tol, cap, _kernels=kernels)
        chords.append(ChordReport(cycle, H))
    return HolonomyReport(nerve, bb, tuple(chords))


def report_to_json_dict(report: HolonomyReport) -> dict:
    chords = []
    for cr in report.chords:
        rows = ["".join("1" if x else "0" for x in row)
                for row in cr.holonomy.matrix]
        chords.append({
            "chord": list(cr.holonomy.chord.key),
            "interface": list(cr.holonomy.interface),
            "matrix_rows": rows,
            "mode_sizes": [len(m) for m in cr.quotient.modes],
            "trivial": cr.trivial,
        })
    return {
        "n_factors": len(report.nerve.vertices),
        "n_nerve_edges": len(report.nerve.edges),
        "n_chords": len(report.backbone.chords),
        "chords": chords,
    }


def structural_checksum(report: HolonomyReport) -> str:
    """Stable hash of the discrete holonomy/mode structure."""
    payload = json.dumps(report_to_json_dict(report), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
