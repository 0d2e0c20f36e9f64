"""Exact references owned by the benchmark, independent of ``hatcc.oracle``.

Each reference reads the factor tables of a ``hatcc.FactorGraph`` and
returns a :class:`Reference`: the semiring total ``Z`` and one marginal
per variable, normalised the way ``hatcc`` normalises its own output:

* ``sum_product``: probabilities (sum to one);
* ``max_product``: max-marginals divided by their maximum;
* ``min_sum``: min-marginals (energies) minus their minimum.

Three methods cover the benchmark's workloads:

* :func:`perm_reference` -- closed-form label propagation for connected
  hard permutation-constraint graphs with unary fields (d feasible
  joint states, one per label of a root variable);
* :func:`grid_reference` -- row transfer-matrix forward/backward for
  binary and higher-cardinality grid MRFs (sum-product);
* :func:`brute_force_reference` -- vectorised chunked enumeration of
  every joint state, for any of the three semirings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CHUNK_STATES = 2 ** 18
BRUTE_FORCE_CAP = 2 ** 22


@dataclass(frozen=True)
class Reference:
    """Exact answer for one instance; references of unsatisfiable
    instances are never built (each method raises instead)."""
    semiring: str
    Z: float
    marginals: tuple[np.ndarray, ...]


def _make(semiring: str, Z: float, marginals) -> Reference:
    return Reference(semiring, float(Z),
                     tuple(np.asarray(m, dtype=np.float64) for m in marginals))


def _normalise(semiring: str, vec: np.ndarray) -> np.ndarray:
    if semiring == "sum_product":
        return vec / vec.sum()
    if semiring == "max_product":
        return vec / vec.max()
    return vec - vec.min()


def _tables(graph):
    return [(f.scope, graph.factor_nd(f)) for f in graph.factors]


# ---------------------------------------------------------------------------
# Permutation-constraint graphs
# ---------------------------------------------------------------------------

def perm_reference(graph) -> Reference:
    """Closed-form solution of a connected hard permutation graph.

    Every pairwise table must have exactly one supported entry per row and
    column (a permutation), and every cycle must compose to the identity.
    Propagating a root label through a spanning tree then fixes every
    variable, so the feasible joint states are exactly one per root label;
    each is scored with all factors (unary fields included).
    """
    sr = graph.ops
    n = len(graph.variables)
    d = graph.cardinality(0)
    if any(v.cardinality != d for v in graph.variables):
        raise ValueError("perm_reference needs one common cardinality")
    adj: dict[int, list[tuple[int, np.ndarray]]] = {v: [] for v in range(n)}
    for scope, table in _tables(graph):
        if len(scope) == 1:
            continue
        if len(scope) != 2:
            raise ValueError("perm_reference handles pairwise factors only")
        support = ~sr.is_zero(table)
        if not (np.all(support.sum(0) == 1) and np.all(support.sum(1) == 1)):
            raise ValueError(f"factor on {scope} is not a hard permutation")
        phi = support.argmax(axis=1)  # x_j = phi[x_i]
        i, j = scope
        adj[i].append((j, phi))
        adj[j].append((i, np.argsort(phi)))
    labels = np.full((n, d), -1, dtype=np.int64)  # labels[v, s]: x_v | x_0=s
    labels[0] = np.arange(d)
    order = [0]
    for u in order:
        for nb, phi in adj[u]:
            if labels[nb, 0] < 0:
                labels[nb] = phi[labels[u]]
                order.append(nb)
    if len(order) != n:
        raise ValueError("perm_reference needs a connected graph")
    weights = np.full(d, sr.one)
    for scope, table in _tables(graph):
        weights = sr.mul(weights, table[tuple(labels[v] for v in scope)])
    if np.any(sr.is_zero(weights)):
        raise ValueError("permutation constraints are inconsistent")
    Z = sr.add_reduce(weights, axis=0)
    marginals = []
    for v in range(n):
        vec = np.full(d, sr.zero)
        vec[labels[v]] = weights
        marginals.append(_normalise(graph.semiring, vec))
    return _make(graph.semiring, Z, marginals)


# ---------------------------------------------------------------------------
# Grid MRFs
# ---------------------------------------------------------------------------

def grid_reference(graph, rows: int, cols: int) -> Reference:
    """Sum-product transfer matrix over the rows of a ``rows x cols`` grid.

    Variable ``r * cols + c`` sits at row ``r``, column ``c``.  Unary
    factors and factors between horizontal neighbours fold into a row
    potential over ``prod(cards of the row)`` states; factors between
    vertical neighbours are applied one column at a time.  Forward and
    backward vectors are rescaled per row and the scales give ``log Z``.
    """
    if graph.semiring != "sum_product":
        raise ValueError("grid_reference is sum-product only")
    cards = [v.cardinality for v in graph.variables]
    if len(cards) != rows * cols:
        raise ValueError("variable count does not match the grid shape")
    row_pot = [np.ones([cards[r * cols + c] for c in range(cols)])
               for r in range(rows)]
    vertical = [[np.ones((cards[r * cols + c], cards[(r + 1) * cols + c]))
                 for c in range(cols)] for r in range(rows - 1)]
    for scope, table in _tables(graph):
        if len(scope) == 1:
            r, c = divmod(scope[0], cols)
            shape = [1] * cols
            shape[c] = table.size
            row_pot[r] = row_pot[r] * table.reshape(shape)
            continue
        if len(scope) != 2:
            raise ValueError("grid_reference handles unary/pairwise only")
        (ra, ca), (rb, cb) = divmod(scope[0], cols), divmod(scope[1], cols)
        if (ra, ca) > (rb, cb):
            (ra, ca), (rb, cb), table = (rb, cb), (ra, ca), table.T
        if ra == rb and cb == ca + 1:
            shape = [1] * cols
            shape[ca], shape[cb] = table.shape
            row_pot[ra] = row_pot[ra] * table.reshape(shape)
        elif ca == cb and rb == ra + 1:
            vertical[ra][ca] = vertical[ra][ca] * table
        else:
            raise ValueError(f"factor on {scope} is not a grid edge")

    def apply_vertical(vec, mats, transpose):
        for c, mat in enumerate(mats):
            mat = mat.T if transpose else mat
            vec = np.moveaxis(np.tensordot(vec, mat, axes=([c], [0])), -1, c)
        return vec

    log_z = 0.0
    alpha = [row_pot[0] / row_pot[0].sum()]
    log_z += math.log(row_pot[0].sum())
    for r in range(1, rows):
        a = apply_vertical(alpha[-1], vertical[r - 1], False) * row_pot[r]
        s = a.sum()
        log_z += math.log(s)
        alpha.append(a / s)
    beta = [np.ones_like(alpha[-1])]
    for r in range(rows - 2, -1, -1):
        b = apply_vertical(beta[0] * row_pot[r + 1], vertical[r], True)
        beta.insert(0, b / b.sum())
    marginals = []
    for r in range(rows):
        joint = alpha[r] * beta[r]
        joint = joint / joint.sum()
        for c in range(cols):
            other = tuple(i for i in range(cols) if i != c)
            marginals.append(joint.sum(axis=other) if other else joint)
    return _make("sum_product", math.exp(log_z), marginals)


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------

def brute_force_reference(graph) -> Reference:
    """Enumerate every joint state in chunks of at most ``CHUNK_STATES``.

    Each chunk decodes its state indices into a (states x variables) digit
    matrix, gathers every factor's entries with one flat index per factor,
    and folds them with the semiring product.  Z and the marginals are
    folded across chunks with the semiring sum.
    """
    sr = graph.ops
    if graph.semiring not in ("sum_product", "max_product", "min_sum"):
        raise ValueError(f"unsupported semiring {graph.semiring}")
    cards = np.array([v.cardinality for v in graph.variables], dtype=np.int64)
    total = 1
    for c in cards:
        total *= int(c)
        if total > BRUTE_FORCE_CAP:
            raise ValueError(f"joint state space exceeds {BRUTE_FORCE_CAP}")
    # place value of each variable, last variable fastest
    place = np.ones(len(cards), dtype=np.int64)
    for i in range(len(cards) - 2, -1, -1):
        place[i] = place[i + 1] * cards[i + 1]
    factors = []
    for f in graph.factors:
        strides = np.ones(len(f.scope), dtype=np.int64)
        for i in range(len(f.scope) - 2, -1, -1):
            strides[i] = strides[i + 1] * cards[f.scope[i + 1]]
        factors.append((list(f.scope), strides, f.table))
    Z = sr.zero
    acc = [np.full(int(c), sr.zero) for c in cards]
    fold = {"sum_product": np.add.at, "max_product": np.maximum.at,
            "min_sum": np.minimum.at}[graph.semiring]
    for lo in range(0, total, CHUNK_STATES):
        idx = np.arange(lo, min(total, lo + CHUNK_STATES), dtype=np.int64)
        digits = (idx[:, None] // place[None, :]) % cards[None, :]
        w = np.full(idx.size, sr.one)
        for scope, strides, table in factors:
            w = sr.mul(w, table[digits[:, scope] @ strides])
        Z = sr.add(Z, sr.add_reduce(w, axis=0))
        for v in range(len(cards)):
            fold(acc[v], digits[:, v], w)
    if (graph.semiring == "min_sum" and not np.isfinite(Z)) or \
            (graph.semiring != "min_sum" and Z == 0.0):
        raise ValueError("reference instance is unsatisfiable")
    return _make(graph.semiring, Z,
                 [_normalise(graph.semiring, a) for a in acc])
