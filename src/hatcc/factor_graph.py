"""Core data model for discrete factor graphs over a commutative semiring.

Tables are dense, row-major, with the LAST scope variable fastest-varying
(numpy C order with one axis per scope variable, in declared scope order).
Scopes derived by marginalization are returned in canonical order, i.e.
ascending variable id.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# Semirings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Semiring:
    """A commutative semiring on float64 values.

    ``add`` and ``mul`` are numpy ufuncs, so ``mul.at`` and ``out=``
    apply; ``add_reduce`` is ``add.reduce``, folding ``add`` along the
    given axes.  ``div`` is the zero-safe quotient that undoes ``mul``:
    ``div(mul(a, b), b) == a`` wherever b is not the semiring zero, and
    zero divided by zero is zero (÷ with 0/0 = 0 under sum- and
    max-product, − with ∞−∞ = ∞ under min-sum, and the identity under
    Boolean, whose ``mul`` is idempotent).  Dividing a marginal by a
    factor it holds is then exact: a zero divisor forces a zero
    dividend.  ``forbidden_rules`` pairs a description with an
    elementwise test for table entries the semiring cannot hold (NaN is
    always forbidden).
    """

    name: str
    add: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    add_reduce: Callable[..., np.ndarray]
    div: Callable[[np.ndarray, np.ndarray], np.ndarray]
    zero: float
    one: float
    forbidden_rules: tuple[tuple[str, Callable[[np.ndarray], np.ndarray]],
                           ...]

    def forbidden(self, table: np.ndarray) -> list[str]:
        """Descriptions of the forbidden entries in ``table``, if any.

        A NaN entry is reported alone; otherwise each rule that some
        entry breaks is reported once.
        """
        if np.isnan(table).any():
            return ["NaN entry"]
        return [f"{what} under {self.name}"
                for what, test in self.forbidden_rules if test(table).any()]

    def is_zero(self, x, tol: float = 0.0):
        """Support predicate: True where x counts as the semiring zero.

        Exact comparison by default; ``tol`` treats entries within ``tol``
        of zero as zero (an escape hatch for noisy inputs).  For min-sum,
        zero is +inf and tolerance has no sensible scale, so only +inf
        is zero.
        """
        x = np.asarray(x, dtype=np.float64)
        if tol == 0.0 or self.name == "min_sum":
            return x == self.zero
        return np.abs(x - self.zero) <= tol

    def normalize(self, vec: np.ndarray) -> np.ndarray:
        """Rescale a message/belief vector for numerical stability.

        Sum to one (sum-product), max to one (max-product / boolean),
        subtract the min (min-sum).  A stacked array is normalized row
        by row along its last axis.  Degenerate rows are returned
        unchanged: all-zero rows, and min-sum rows whose min is not
        finite.
        """
        vec = np.asarray(vec, dtype=np.float64)
        if self.name == "min_sum":
            m = vec.min(axis=-1, keepdims=True)
            m[~np.isfinite(m)] = 0.0
            return vec - m
        if self.name == "sum_product":
            total = vec.sum(axis=-1, keepdims=True)
        else:
            total = vec.max(axis=-1, keepdims=True)
        total[~(total > 0.0)] = 1.0
        return vec / total


# product semirings take finite nonnegative weights
_WEIGHT_RULES = (("infinite entry", np.isinf),
                 ("negative entry", lambda x: x < 0.0))


def _zero_safe(op, zero: float, one: float):
    """``op(a, b)`` with every zero b replaced by the one, so that a
    zero divisor, under a zero dividend, leaves the zero."""
    return lambda a, b: op(a, np.where(b == zero, one, b))


SEMIRINGS: dict[str, Semiring] = {
    "sum_product": Semiring(
        "sum_product", np.add, np.multiply, np.add.reduce,
        _zero_safe(np.divide, 0.0, 1.0), 0.0, 1.0, _WEIGHT_RULES),
    "max_product": Semiring(
        "max_product", np.maximum, np.multiply, np.maximum.reduce,
        _zero_safe(np.divide, 0.0, 1.0), 0.0, 1.0, _WEIGHT_RULES),
    # tropical: zero = +inf, one = 0; +inf marks a forbidden state
    "min_sum": Semiring(
        "min_sum", np.minimum, np.add, np.minimum.reduce,
        _zero_safe(np.subtract, np.inf, 0.0), np.inf, 0.0,
        (("-inf entry", np.isneginf),)),
    # boolean on {0,1}: add = OR, mul = AND
    "boolean": Semiring(
        "boolean", np.maximum, np.minimum, np.maximum.reduce,
        lambda a, b: a, 0.0, 1.0,
        (("entry other than 0 or 1", lambda x: (x != 0.0) & (x != 1.0)),)),
}


# ---------------------------------------------------------------------------
# Graph declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariableDecl:
    id: int
    cardinality: int
    label: Optional[str] = None


@dataclass(frozen=True)
class FactorDecl:
    id: int
    scope: tuple[int, ...]
    table: np.ndarray  # flat, length = prod of scope cardinalities

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(self.scope))
        object.__setattr__(
            self, "table", np.asarray(self.table, dtype=np.float64).ravel())


@dataclass(frozen=True)
class PotentialSlice:
    """A semiring-valued table over an ordered variable scope.

    ``table`` is an ndarray with one axis per scope variable, declared
    order, C layout (last variable fastest-varying).
    """
    scope: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(self.scope))
        object.__setattr__(
            self, "table", np.asarray(self.table, dtype=np.float64))


@dataclass(frozen=True)
class FactorGraph:
    semiring: str
    variables: tuple[VariableDecl, ...]
    factors: tuple[FactorDecl, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def ops(self) -> Semiring:
        return SEMIRINGS[self.semiring]

    def cardinality(self, var_id: int) -> int:
        return self.variables[var_id].cardinality

    @cached_property
    def _cardinalities(self) -> tuple[int, ...]:
        """Cardinality by variable position, built on first use."""
        return tuple(v.cardinality for v in self.variables)

    def scope_shape(self, scope: Sequence[int]) -> tuple[int, ...]:
        cards = self._cardinalities
        return tuple(cards[v] for v in scope)

    def factor_nd(self, f: FactorDecl) -> np.ndarray:
        return f.table.reshape(self.scope_shape(f.scope))

    @cached_property
    def _var_factors(self) -> dict[int, list[int]]:
        """Variable id -> ids of the factors holding it, in factor order.

        Built on first use, so constructing a graph stays cheap.
        """
        out: dict[int, list[int]] = {}
        for f in self.factors:
            for v in f.scope:
                out.setdefault(v, []).append(f.id)
        return out

    def var_neighbors(self, var_id: int) -> list[int]:
        """Factor ids whose scope contains var_id, ascending."""
        return list(self._var_factors.get(var_id, ()))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def validate(graph: FactorGraph) -> list[str]:
    """Check all structural invariants; return a list of violations.

    An empty list means the graph is well-formed.  Each violation names
    the offending variable or factor id.
    """
    problems: list[str] = []
    if graph.semiring not in SEMIRINGS:
        problems.append(f"unknown semiring '{graph.semiring}'")
        return problems
    n = len(graph.variables)
    for i, v in enumerate(graph.variables):
        if v.id != i:
            problems.append(f"variable at position {i} has id {v.id}; "
                            "ids must be contiguous 0..n-1")
        if v.cardinality < 1:
            problems.append(f"variable {v.id}: cardinality {v.cardinality} < 1")
    shaped = []  # factors whose table fits their scope
    for j, f in enumerate(graph.factors):
        if f.id != j:
            problems.append(f"factor at position {j} has id {f.id}; "
                            "ids must be contiguous 0..m-1")
        if len(set(f.scope)) != len(f.scope):
            problems.append(f"factor {f.id}: duplicate variable in scope "
                            f"{f.scope}")
            continue
        bad = [v for v in f.scope if not (0 <= v < n)]
        if bad:
            problems.append(f"factor {f.id}: unknown variable id(s) {bad}")
            continue
        expected = math.prod(graph.scope_shape(f.scope))
        if f.table.size != expected:
            problems.append(f"factor {f.id}: table length {f.table.size} "
                            f"!= expected {expected}")
            continue
        shaped.append(f)
    # one pass over every table; name the factors only on a violation
    sr = graph.ops
    if shaped and sr.forbidden(np.concatenate([f.table for f in shaped])):
        for f in shaped:
            problems.extend(f"factor {f.id}: {what}"
                            for what in sr.forbidden(f.table))
    return problems


def validate_strict(graph: FactorGraph) -> None:
    problems = validate(graph)
    if problems:
        raise ValueError("invalid factor graph:\n  " + "\n  ".join(problems))


def joint_weight(graph: FactorGraph, assignment: Sequence[int]) -> float:
    """Semiring product of all factor potentials at a full assignment."""
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (len(graph.variables),):
        raise ValueError("assignment must have one state per variable")
    for v in graph.variables:
        if not (0 <= assignment[v.id] < v.cardinality):
            raise ValueError(f"state {assignment[v.id]} out of range for "
                             f"variable {v.id}")
    sr = graph.ops
    acc = np.float64(sr.one)
    for f in graph.factors:
        idx = tuple(int(assignment[v]) for v in f.scope)
        acc = sr.mul(acc, graph.factor_nd(f)[idx])
    return float(acc)


def restrict(slc: PotentialSlice, target_scope: Sequence[int],
             semiring: Semiring) -> PotentialSlice:
    """Marginalize a potential slice onto a sub-scope.

    Eliminated coordinates are folded with the semiring add.  The result
    scope is the target in canonical (ascending id) order.
    """
    target = tuple(sorted(set(target_scope)))
    if not set(target) <= set(slc.scope):
        raise ValueError(f"target scope {target} not a subset of "
                         f"{slc.scope}")
    drop = tuple(i for i, v in enumerate(slc.scope) if v not in target)
    table = slc.table
    if drop:
        table = semiring.add_reduce(table, axis=drop)
    kept = [v for v in slc.scope if v in target]
    # reorder remaining axes to ascending variable id
    perm = sorted(range(len(kept)), key=lambda i: kept[i])
    table = np.transpose(table, perm)
    return PotentialSlice(target, table)


# ---------------------------------------------------------------------------
# JSON instance I/O
# ---------------------------------------------------------------------------

def to_json_dict(graph: FactorGraph) -> dict:
    out = {
        "semiring": graph.semiring,
        "variables": [],
        "factors": [],
    }
    for v in graph.variables:
        d = {"id": v.id, "cardinality": v.cardinality}
        if v.label is not None:
            d["label"] = v.label
        out["variables"].append(d)
    for f in graph.factors:
        out["factors"].append({
            "id": f.id,
            "scope": list(f.scope),
            "table": [float(x) for x in f.table],
        })
    return out


def from_json_dict(data: dict) -> FactorGraph:
    for key in ("semiring", "variables", "factors"):
        if key not in data:
            raise ValueError(f"instance missing required field '{key}'")
    variables = []
    for d in data["variables"]:
        for key in ("id", "cardinality"):
            if key not in d:
                raise ValueError(f"variable entry missing field '{key}': {d}")
        variables.append(VariableDecl(int(d["id"]), int(d["cardinality"]),
                                      d.get("label")))
    factors = []
    for d in data["factors"]:
        for key in ("id", "scope", "table"):
            if key not in d:
                raise ValueError(f"factor entry missing field '{key}'")
        factors.append(FactorDecl(int(d["id"]),
                                  tuple(int(v) for v in d["scope"]),
                                  np.asarray(d["table"], dtype=np.float64)))
    graph = FactorGraph(str(data["semiring"]), tuple(variables),
                        tuple(factors))
    validate_strict(graph)
    return graph


def save(graph: FactorGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(graph), fh, indent=1)
        fh.write("\n")


def load(path) -> FactorGraph:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"parse error in {path}: {exc}") from exc
    return from_json_dict(data)
