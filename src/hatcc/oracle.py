"""Brute-force exact inference by full enumeration.

Desk-scale ground truth: partition function, per-variable marginals and
MAP assignment, by enumerating all joint assignments in vectorised chunks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .factor_graph import FactorGraph, validate_strict

DEFAULT_STATE_CAP = 2 ** 20
CHUNK = 2 ** 16  # states decoded at once


class StateSpaceCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class OracleMarginals:
    Z: float
    marginals: tuple[np.ndarray, ...]  # normalized, one per variable
    unsat: bool


@dataclass(frozen=True)
class OracleMap:
    assignment: tuple[int, ...]
    weight: float


def _joint_shape(graph: FactorGraph, cap: int) -> tuple[int, ...]:
    """All variables' cardinalities, once their product is within cap."""
    total = 1
    for v in graph.variables:
        total *= v.cardinality
        if total > cap:
            raise StateSpaceCapExceeded(
                f"joint state space exceeds cap {cap}")
    return graph.scope_shape(range(len(graph.variables)))


def _c_strides(shape: tuple[int, ...]) -> np.ndarray:
    """Element strides of a C-ordered array of this shape."""
    return np.array([math.prod(shape[i + 1:]) for i in range(len(shape))],
                    dtype=np.int64)


def _weights_by_chunk(graph: FactorGraph, shape: tuple[int, ...]):
    """Yield (state indices, weights) over all joint states, in chunks.

    A state's index is its C-order position in the joint table, last
    variable fastest, so enumeration order is lexicographic over the
    state vector.  Each factor is gathered with one flat index per state,
    built from the index digits of its scope, and folded in with
    ``sr.mul``.  Only vectors of the chunk's length are held, never a
    chunk-by-variable matrix.
    """
    sr = graph.ops
    radix = _c_strides(shape)
    factors = [(f.scope, _c_strides(graph.scope_shape(f.scope)), f.table)
               for f in graph.factors]
    total = math.prod(shape)
    chunk = min(total, CHUNK)
    for lo in range(0, total, chunk):
        index = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        w = np.full(len(index), sr.one)
        for scope, strides, table in factors:
            flat = np.zeros_like(index)
            for v, stride in zip(scope, strides):
                flat += index // radix[v] % shape[v] * stride
            w = sr.mul(w, table[flat])
        yield index, w


def exact_marginals(graph: FactorGraph,
                    cap: int = DEFAULT_STATE_CAP) -> OracleMarginals:
    """Enumerate all assignments; return Z and normalized marginals.

    Sum-product semantics: Z is the sum of joint weights and marginals
    are probability vectors.  Z = 0 is reported as UNSAT with uniform
    placeholder marginals.
    """
    validate_strict(graph)
    if graph.semiring != "sum_product":
        raise ValueError("exact_marginals requires the sum_product semiring")
    sr = graph.ops
    shape = _joint_shape(graph, cap)
    radix = _c_strides(shape)
    tallies = [np.zeros(card) for card in shape]
    Z = sr.zero
    for index, w in _weights_by_chunk(graph, shape):
        Z = sr.add(Z, sr.add_reduce(w, 0))
        for t, r, card in zip(tallies, radix, shape):
            t += np.bincount(index // r % card, weights=w, minlength=card)
    Z = float(Z)
    if Z == 0.0:
        marg = tuple(np.full(v.cardinality, 1.0 / v.cardinality)
                     for v in graph.variables)
        return OracleMarginals(0.0, marg, True)
    return OracleMarginals(Z, tuple(t / Z for t in tallies), False)


def exact_map(graph: FactorGraph, cap: int = DEFAULT_STATE_CAP) -> OracleMap:
    """Best joint assignment with lexicographic tie-breaking.

    The best weight is the one farthest from the semiring zero: the
    maximum for sum/max-product and boolean, the minimum (energy) for
    min-sum.  Ties go to the lexicographically smallest assignment, the
    first in enumeration order.
    """
    validate_strict(graph)
    sr = graph.ops
    shape = _joint_shape(graph, cap)
    # zero is the worst weight: +inf under min-sum, 0 otherwise
    lower_is_better = sr.zero > sr.one
    pick = np.argmin if lower_is_better else np.argmax
    best_w = None
    best_i = 0
    for index, w in _weights_by_chunk(graph, shape):
        i = int(pick(w))
        if best_w is None or (w[i] < best_w if lower_is_better
                              else w[i] > best_w):
            best_w = float(w[i])
            best_i = int(index[i])
    best_a = tuple(int(s) for s in np.unravel_index(best_i, shape))
    return OracleMap(best_a, best_w)
