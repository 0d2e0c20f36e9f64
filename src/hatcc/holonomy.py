"""Transport kernels, cycle holonomy matrices, and mode quotients.

A transport kernel is the Boolean support relation a factor induces
between two interface state spaces.  ``loop_holonomies`` composes kernels
around closed loops of factors in one stacked pass: one
``transport_kernel`` call builds every kernel, and the loops that share a
sequence of interface sizes are composed together as 3-D stacks.  A
chord's fundamental cycle gives its holonomy matrix, and ``sectors``
builds its base generators the same way.  A holonomy matrix's strongly
connected components are the modes, read off the relation's
reflexive-transitive closure.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .factor_graph import FactorGraph
from .nerve import Backbone, FactorNerve, FundamentalCycle, NerveEdge
from .nerve import build_factor_nerve, backbone as build_backbone
from .nerve import fundamental_cycle

DEFAULT_INTERFACE_CAP = 2 ** 16


class InterfaceCapExceeded(RuntimeError):
    pass


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


def transport_kernel(graph: FactorGraph, requests: Sequence[tuple[
        int, Sequence[int], Sequence[int]]],
                     tol: float = 0.0) -> list[np.ndarray]:
    """Boolean support relations of factors between sub-scopes.

    Request (f, source, target) gives the |Omega(source)| x
    |Omega(target)| matrix whose entry (x, y) is 1 iff some configuration
    of f's scope extending both has nonzero potential; pairs that
    disagree on shared variables are never supported.  ``tol`` widens
    what counts as zero.

    Requests with one table shape and the same source and target axes
    are built together on their stacked tables: one support test, one
    any-reduce over the other axes, and one write through a diagonal
    ``einsum`` view of the stacked source-by-target arrays, which ties a
    variable in both to one axis.
    """
    groups: dict = {}
    for i, (fid, source, target) in enumerate(requests):
        scope = graph.factors[fid].scope
        if not {*source, *target} <= set(scope):
            raise ValueError(f"source {tuple(source)} or target "
                             f"{tuple(target)} not within factor {fid} "
                             f"scope {scope}")
        groups.setdefault((graph.scope_shape(scope),
                           tuple(map(scope.index, source)),
                           tuple(map(scope.index, target))), []).append(i)
    out: list = [None] * len(requests)
    for (shape, source, target), members in groups.items():
        tables = np.stack([graph.factors[requests[i][0]].table
                           for i in members]).reshape(-1, *shape)
        kept = sorted({*source, *target})
        supported = (~graph.ops.is_zero(tables, tol)).any(axis=tuple(
            1 + a for a in range(len(shape)) if a not in kept))
        # einsum axis 0 is the stack, axis 1 + a the scope's axis a
        kernel = np.zeros((len(members), *(shape[a] for a in source),
                           *(shape[a] for a in target)), dtype=bool)
        np.einsum(kernel, [0, *(1 + a for a in source + target)],
                  [0, *(1 + a for a in kept)])[...] = supported
        kernel = kernel.reshape(
            len(members), math.prod(shape[a] for a in source), -1)
        for i, k in zip(members, kernel):
            out[i] = k
    return out


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product, of two matrices or two stacks of them.

    A float BLAS product counts the paths; a sum of non-negative terms is
    0 only when every term is, so ``> 0`` is exact for any path count.
    """
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def interface_sizes(graph: FactorGraph,
                    interfaces: Iterable[tuple[int, ...]],
                    cap: int = DEFAULT_INTERFACE_CAP) -> dict:
    """The state count of each distinct interface, in first-seen order.

    Raises ``InterfaceCapExceeded`` at the first interface of more than
    ``cap`` states: no holonomy through it is built.
    """
    size = dict.fromkeys(interfaces)
    for J in size:
        size[J] = math.prod(graph.scope_shape(J))
        if size[J] > cap:
            raise InterfaceCapExceeded(
                f"interface {J} has {size[J]} states, exceeding the cap "
                f"{cap}; refusing to build the holonomy matrix")
    return size


def loop_holonomies(graph: FactorGraph, loops: Sequence[tuple[
        Sequence[int], Sequence[tuple[int, ...]]]], tol: float = 0.0,
                    cap: int = DEFAULT_INTERFACE_CAP) -> tuple[
                        list[np.ndarray], np.ndarray, np.ndarray]:
    """Compose transport kernels around closed loops of factors in one
    stacked pass.

    A loop is (factors, interfaces): ``factors[i]`` carries
    ``interfaces[i - 1]`` to ``interfaces[i]``, so the loop starts and
    ends at ``interfaces[-1]``.  One ``transport_kernel`` call builds
    every kernel the loops pass through, and the kernels of each shape
    are stacked once.  Loops with one sequence of interface sizes are
    composed together, one ``compose`` per step on 3-D stacks, with no
    padding.  Returns each loop's matrix and, per loop, whether it is the
    identity and whether it fixes a state.  An interface over ``cap``
    states raises ``InterfaceCapExceeded`` before anything is built.
    """
    size = interface_sizes(graph, (J for _f, interfaces in loops
                                   for J in interfaces), cap)
    steps, groups = [], {}
    for i, (factors, interfaces) in enumerate(loops):
        around = (interfaces[-1], *interfaces)
        steps.append(list(zip(factors, around, interfaces)))
        groups.setdefault(tuple(map(size.get, around)), []).append(i)
    row = dict.fromkeys(key for s in steps for key in s)
    kernels = dict(zip(row, transport_kernel(graph, list(row), tol))
                   if row else ())
    by_shape: dict = {}
    for key in row:  # each kernel's row in the stack of its shape
        same = by_shape.setdefault(kernels[key].shape, [])
        row[key] = len(same)
        same.append(kernels[key])
    stacks = {shape: np.stack(same) for shape, same in by_shape.items()}
    matrices: list = [None] * len(loops)
    identity, fixed = np.zeros((2, len(loops)), dtype=bool)
    for sizes, members in groups.items():
        rows = np.array([[row[key] for key in steps[i]] for i in members])
        H = stacks[sizes[:2]][rows[:, 0]]
        for t, shape in enumerate(zip(sizes[1:], sizes[2:]), 1):
            H = compose(H, stacks[shape][rows[:, t]])
        diagonal = H.diagonal(axis1=1, axis2=2)
        identity[members] = diagonal.all(axis=1) & (
            np.count_nonzero(H, axis=(1, 2)) == sizes[0])
        fixed[members] = diagonal.any(axis=1)
        for i, m in zip(members, H):
            matrices[i] = m
    return matrices, identity, fixed


def holonomy_matrix(graph: FactorGraph, cycle: FundamentalCycle,
                    tol: float = 0.0,
                    cap: int = DEFAULT_INTERFACE_CAP) -> HolonomyMatrix:
    """Compose transport kernels around a fundamental cycle.

    The loop starts and ends at the chord interface: the first kernel
    carries chord-interface states into the path through the chord's far
    endpoint, then each path factor carries them one interface further,
    and the last kernel returns through the chord's near endpoint.
    """
    matrices, _identity, _fixed = loop_holonomies(
        graph, [(cycle.factor_sequence, cycle.interface_sequence)], tol, cap)
    return HolonomyMatrix(cycle.chord, cycle.interface_sequence[-1],
                          matrices[0])


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
    """A chord's cycle and holonomy, and whether that is the identity.

    ``interface_states`` counts the states of the chord's interface.
    ``rank_one`` marks a chord decided without composition: some factor
    on the cycle has full support and carries disjoint source and target
    interfaces, so its kernel is all ones and the holonomy is a rank-1
    Boolean matrix (every true entry pairs a state of one fixed row set
    with one of a fixed column set).  On an interface of two or more
    states such a matrix is never the identity, so the chord is not
    trivial.  ``diagnose`` composes every other chord's holonomy; the
    rank-1 chords' are composed together the first time one is read.
    """
    cycle: FundamentalCycle
    interface_states: int
    rank_one: bool
    trivial: bool  # the holonomy is the identity
    matrix: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def holonomy(self) -> HolonomyMatrix:
        return HolonomyMatrix(self.cycle.chord,
                              self.cycle.interface_sequence[-1],
                              self.matrix())

    @cached_property
    def quotient(self) -> ModeQuotient:
        return mode_quotient(self.holonomy)

    @property
    def fixed(self) -> bool:
        """True iff the holonomy fixes some interface state."""
        return bool(np.diagonal(self.holonomy.matrix).any())


@dataclass(frozen=True)
class HolonomyReport:
    nerve: FactorNerve
    backbone: Backbone
    chords: tuple[ChordReport, ...]
    tol: float  # support tolerance of the holonomies
    # seconds per phase of diagnose: nerve, backbone, cycles, holonomy
    timings: dict = field(compare=False)


def _full_support(graph: FactorGraph, tol: float = 0.0) -> np.ndarray:
    """Per factor: True iff no table entry counts as zero under ``tol``.
    The graph must have a factor."""
    tables = [f.table for f in graph.factors]
    starts = np.cumsum([0] + [t.size for t in tables[:-1]])
    zero = graph.ops.is_zero(np.concatenate(tables), tol)
    return ~np.logical_or.reduceat(zero, starts)


def _is_rank_one(states: int, cycle: FundamentalCycle,
                full: np.ndarray) -> bool:
    """The rank-1 rule: a chord interface of at least two ``states`` and
    a factor on the cycle with full support (``full``, from
    ``_full_support``) between disjoint source and target interfaces."""
    interfaces = cycle.interface_sequence
    return states >= 2 and any(
        full[fid] and set(source).isdisjoint(target)
        for fid, source, target in zip(
            cycle.factor_sequence, [interfaces[-1], *interfaces], interfaces))


def diagnose(graph: FactorGraph, tol: float = 0.0,
             cap: int = DEFAULT_INTERFACE_CAP) -> HolonomyReport:
    """Nerve, backbone, per-chord cycles and rank-1 flags, and the
    holonomies of the chords the rank-1 rule leaves open, composed in one
    ``loop_holonomies`` pass that decides ``trivial``.

    An interface of more than ``cap`` states among them raises
    ``InterfaceCapExceeded``.  The rank-1 chords' holonomies are composed
    in one more pass the first time any of them is read; reading one
    whose interfaces exceed ``cap`` raises ``InterfaceCapExceeded``, and
    the pass leaves it out.
    """
    stamps = [time.perf_counter()]
    nerve = build_factor_nerve(graph)
    stamps.append(time.perf_counter())
    bb = build_backbone(nerve)
    stamps.append(time.perf_counter())
    cycles = [fundamental_cycle(graph, bb, chord) for chord in bb.chords]
    # a chord implies a factor, which _full_support needs
    full = _full_support(graph, tol) if cycles else None
    states = [math.prod(graph.scope_shape(c.interface_sequence[-1]))
              for c in cycles]
    rank_one = [_is_rank_one(n, c, full) for n, c in zip(states, cycles)]
    stamps.append(time.perf_counter())
    matrices: dict[int, np.ndarray] = {}

    def compose_chords(ids: list[int]) -> np.ndarray:
        built, identity, _fixed = loop_holonomies(
            graph, [(cycles[i].factor_sequence, cycles[i].interface_sequence)
                    for i in ids], tol, cap)
        matrices.update(zip(ids, built))
        return identity

    def within_cap(i: int) -> bool:
        try:
            interface_sizes(graph, cycles[i].interface_sequence, cap)
        except InterfaceCapExceeded:
            return False
        return True

    def matrix(i: int) -> np.ndarray:
        if i not in matrices:  # a rank-1 chord's: compose them all
            interface_sizes(graph, cycles[i].interface_sequence, cap)
            compose_chords([j for j, r in enumerate(rank_one)
                            if r and within_cap(j)])
        return matrices[i]

    open_ = [i for i, r in enumerate(rank_one) if not r]
    # an empty pass costs microseconds that a chordless solve would feel
    trivial = dict(zip(open_, compose_chords(open_) if open_ else ()))
    stamps.append(time.perf_counter())
    chords = tuple(ChordReport(c, n, r, bool(trivial.get(i, False)),
                               partial(matrix, i))
                   for i, (c, n, r) in enumerate(zip(cycles, states,
                                                     rank_one)))
    return HolonomyReport(nerve, bb, chords, tol, dict(zip(
        ("nerve", "backbone", "cycles", "holonomy"),
        (b - a for a, b in zip(stamps, stamps[1:])))))


def report_to_json_dict(report: HolonomyReport) -> dict:
    """The report as JSON, one entry per chord; a chord whose holonomy is
    over the report's interface cap (a rank-1 chord, never composed) has
    ``null`` ``matrix_rows`` and ``mode_sizes``."""
    chords = []
    for cr in report.chords:
        try:
            rows = ["".join("1" if x else "0" for x in row)
                    for row in cr.holonomy.matrix]
            modes = [len(m) for m in cr.quotient.modes]
        except InterfaceCapExceeded:
            rows = modes = None
        chords.append({
            "chord": list(cr.cycle.chord.key),
            "interface": list(cr.cycle.interface_sequence[-1]),
            "interface_states": cr.interface_states,
            "cycle_length": len(cr.cycle.factor_sequence),
            "rank_one": cr.rank_one,
            "trivial": cr.trivial,
            "matrix_rows": rows,
            "mode_sizes": modes,
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
