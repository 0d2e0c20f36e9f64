"""Instance pools, operations and output checks for the three workloads.

An *instance* is one generated model in one or more semirings, with the
benchmark's exact reference for each.  An *op* is one call of a public
``hatcc`` entry point on one instance in one semiring.  A *pass* runs every
op of the workload once, in a fixed order.

Workloads (see README.md for why each exists):

* ``compile-perm`` -- ``hatcc_infer`` on consistent hard permutation graphs
  with unary fields, under sum_product, max_product and min_sum;
* ``bp-grid`` -- ``bp_engine.run`` then ``hatcc_infer`` on a size ladder of
  binary grid MRFs, couplings alternating repulsive and attractive;
* ``verify-small`` -- ``exact_marginals``, ``sector_infer`` and
  ``hatcc_infer`` on Z_k synchronization instances, pairwise trees and
  chains small enough for the oracle; trees and chains also run
  ``hatcc_infer`` under max_product and min_sum.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import refs

EXACT_TOL = 1e-10

# (module, attribute, keyword arguments) of each measured entry point; the
# span and op-kind name is "<module>.<attribute>".
METHODS = {
    "hatcc": ("compile", "hatcc_infer", {}),
    "bp": ("bp_engine", "run", {"max_iters": 200,
                                "residual_threshold": 1e-6}),
    "sectors": ("sectors", "sector_infer", {"mode": "sector_bp",
                                            "tol": 0.05}),
    "oracle": ("oracle", "exact_marginals", {}),
}

# compile-perm: variables per rung; average degree about 4
PERM_SIZES = (20, 40, 60, 80, 100, 120)
PERM_PER_SIZE = 2
PERM_DOMAIN = 3

# bp-grid: grid sides, smallest first; couplings alternate repulsive (<1)
# and attractive (>1) along the ladder.  Small grids repeat so that a
# 30-second run holds the 100 BP ops a p90 needs.
GRID_SIDES = (4, 4, 4, 4, 4, 5, 5, 5, 6, 6, 7, 8, 10)
GRID_COUPLINGS = (0.7, 1.4)
GRID_FIELD = 0.5

# verify-small: Z_k synchronization (k, n, topology, corruption epsilon)
ZK_CASES = ((2, 6, "cycle", 0.5), (2, 8, "cycle", 0.0),
            (2, 8, "random", 0.5), (2, 10, "cycle", 1.0),
            (2, 10, "random", 0.0), (2, 12, "cycle", 0.5),
            (2, 13, "cycle", 1.0),
            (3, 5, "cycle", 1.0), (3, 6, "cycle", 0.5),
            (3, 7, "cycle", 0.0), (3, 7, "random", 1.0))
# pairwise trees (family, k, n), run under three semirings.  A "tree" is a
# random spanning tree with unary evidence, so its factor nerve has cycles
# and hatcc_infer compiles it; a "chain" folds the evidence into its
# pairwise tables, so its nerve is a path and hatcc_infer takes the exact
# two-pass BP path.
TREE_CASES = (("tree", 2, 10), ("tree", 3, 6), ("chain", 2, 10),
              ("chain", 3, 7))
ZK_ETA = 0.1
SEMIRINGS = ("sum_product", "max_product", "min_sum")


@dataclass
class Instance:
    name: str
    family: str  # perm | grid | zk | tree | chain
    graphs: dict  # semiring -> FactorGraph
    shape: Optional[tuple[int, int]] = None  # grid rows, cols
    refs: dict = field(default_factory=dict)  # semiring -> refs.Reference


@dataclass(frozen=True)
class Op:
    method: str
    instance: Instance
    semiring: str

    @property
    def graph(self):
        return self.instance.graphs[self.semiring]

    @property
    def kind(self) -> str:
        module, attr, _kw = METHODS[self.method]
        return f"{module}.{attr}"


@dataclass(frozen=True)
class Outcome:
    """Result of checking one op against the reference.

    ``kind`` is ok, exception, wrong_ok or false_unsat.  ``known`` names the
    documented baseline defect that explains a failure, if one does.
    """
    kind: str
    known: Optional[str] = None
    marg_err: float = 0.0
    detail: str = ""


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------

def _seeds(seed: int, tag: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, tag]).generate_state(count)
    return [int(s) for s in state]


def _with_unary(hc, graph, rng, low: float, high: float):
    """Copy of ``graph`` with a random positive unary factor per variable."""
    fg = hc.factor_graph
    factors = list(graph.factors)
    for v in graph.variables:
        factors.append(fg.FactorDecl(len(factors), (v.id,),
                                     rng.uniform(low, high, v.cardinality)))
    return fg.FactorGraph(graph.semiring, graph.variables, tuple(factors))


def _in_semiring(hc, graph, semiring: str):
    """Same model under another semiring; min_sum tables become energies."""
    fg = hc.factor_graph
    if semiring == "min_sum":
        with np.errstate(divide="ignore"):
            factors = tuple(fg.FactorDecl(f.id, f.scope, -np.log(f.table))
                            for f in graph.factors)
    else:
        factors = graph.factors
    return fg.FactorGraph(semiring, graph.variables, factors)


def build_compile_perm(hc, seed: int) -> list[Instance]:
    seeds = _seeds(seed, 1, len(PERM_SIZES) * PERM_PER_SIZE + 1)
    rng = np.random.default_rng(seeds[-1])
    pool = []
    for i, n in enumerate(np.repeat(PERM_SIZES, PERM_PER_SIZE)):
        n = int(n)
        perm = hc.generators.gen_permutation_graph(
            "random", PERM_DOMAIN, 0.0, seeds[i], consistent=True, n=n,
            p=2.0 / (n - 1))
        g = _with_unary(hc, perm.graph, rng, 0.5, 2.0)
        graphs = {s: _in_semiring(hc, g, s) for s in SEMIRINGS}
        pool.append(Instance(f"perm-n{n}-{i % PERM_PER_SIZE}", "perm",
                             graphs))
    return pool


def build_bp_grid(hc, seed: int) -> list[Instance]:
    seeds = _seeds(seed, 2, len(GRID_SIDES))
    pool = []
    for i, (side, s) in enumerate(zip(GRID_SIDES, seeds)):
        coupling = GRID_COUPLINGS[i % len(GRID_COUPLINGS)]
        g = hc.generators.gen_grid_mrf(side, side, coupling, GRID_FIELD, s)
        pool.append(Instance(f"grid-{side}x{side}-c{coupling}-{i}", "grid",
                             {"sum_product": g}, shape=(side, side)))
    return pool


def _fold_unary(hc, graph, rng, low: float, high: float):
    """Copy of ``graph`` with random positive evidence on every variable,
    multiplied into the first factor whose scope holds it."""
    fg = hc.factor_graph
    tables = [graph.factor_nd(f).copy() for f in graph.factors]
    for v in graph.variables:
        f = next(f for f in graph.factors if v.id in f.scope)
        shape = [1] * len(f.scope)
        shape[f.scope.index(v.id)] = v.cardinality
        tables[f.id] *= rng.uniform(low, high, v.cardinality).reshape(shape)
    factors = tuple(fg.FactorDecl(f.id, f.scope, t)
                    for f, t in zip(graph.factors, tables))
    return fg.FactorGraph(graph.semiring, graph.variables, factors)


def build_verify_small(hc, seed: int) -> list[Instance]:
    seeds = _seeds(seed, 3, len(ZK_CASES) + len(TREE_CASES) + 1)
    rng = np.random.default_rng(seeds[-1])
    pool = []
    for (k, n, topo, eps), s in zip(ZK_CASES, seeds):
        zk = hc.generators.gen_zk_sync(topo, k, ZK_ETA, eps, s, n=n)
        g = _with_unary(hc, zk.graph, rng, 0.2, 1.0)
        pool.append(Instance(f"zk-k{k}-n{n}-{topo}-e{eps}", "zk",
                             {"sum_product": g}))
    for (family, k, n), s in zip(TREE_CASES, seeds[len(ZK_CASES):]):
        if family == "chain":
            # a one-row grid is a path
            chain = hc.generators.gen_zk_sync("grid", k, ZK_ETA, 0.0, s,
                                              rows=1, cols=n)
            g = _fold_unary(hc, chain.graph, rng, 0.2, 1.0)
        else:
            # a random topology with no extra edges is a random spanning tree
            tree = hc.generators.gen_zk_sync("random", k, ZK_ETA, 0.0, s,
                                             n=n, p=0.0)
            g = _with_unary(hc, tree.graph, rng, 0.2, 1.0)
        pool.append(Instance(f"{family}-k{k}-n{n}", family,
                             {sr: _in_semiring(hc, g, sr)
                              for sr in SEMIRINGS}))
    return pool


@dataclass(frozen=True)
class Workload:
    build: Callable
    lead: str  # method whose latency is the workload's lead.op_s_gmean

    def reference(self, inst: Instance, semiring: str):
        graph = inst.graphs[semiring]
        if inst.family == "perm":
            return refs.perm_reference(graph)
        if inst.family == "grid":
            return refs.grid_reference(graph, *inst.shape)
        return refs.brute_force_reference(graph)

    def ops(self, pool: list[Instance]) -> list[Op]:
        out = []
        for inst in pool:
            if inst.family == "perm":
                out += [Op("hatcc", inst, s) for s in SEMIRINGS]
            elif inst.family == "grid":
                out += [Op("bp", inst, "sum_product"),
                        Op("hatcc", inst, "sum_product")]
            else:
                out += [Op("oracle", inst, "sum_product"),
                        Op("sectors", inst, "sum_product")]
                out += [Op("hatcc", inst, s) for s in inst.graphs]
        return out


WORKLOADS = {
    "compile-perm": Workload(build_compile_perm, "hatcc"),
    "bp-grid": Workload(build_bp_grid, "bp"),
    "verify-small": Workload(build_verify_small, "oracle"),
}


# ---------------------------------------------------------------------------
# Checking outputs
# ---------------------------------------------------------------------------

def marginal_error(semiring: str, got, want) -> float:
    """Largest per-variable distance; total variation under sum_product.

    Under min_sum both vectors may hold +inf (infeasible states); they
    must agree on where, and the finite entries are compared.
    """
    worst = 0.0
    if len(got) != len(want):
        return float("inf")
    for a, b in zip(got, want):
        a = np.asarray(a, dtype=np.float64)
        if a.shape != b.shape:
            return float("inf")
        fa, fb = np.isfinite(a), np.isfinite(b)
        if not np.array_equal(fa, fb):
            return float("inf")
        diff = np.abs(a[fa] - b[fb])
        err = 0.5 * diff.sum() if semiring == "sum_product" else \
            (diff.max() if diff.size else 0.0)
        worst = max(worst, float(err))
    return worst


def mean_tv(got, want) -> float:
    return float(np.mean([0.5 * np.abs(np.asarray(a) - b).sum()
                          for a, b in zip(got, want)]))


def z_error(semiring: str, got: float, want: float) -> float:
    """Relative error of Z; absolute (log-domain) error for min_sum energies,
    scaled by max(1, |Z|)."""
    if semiring == "min_sum":
        return abs(got - want) / max(1.0, abs(want))
    return abs(got - want) / abs(want)


def _known_defect(op: Op, result, ref) -> Optional[str]:
    """Name the documented baseline defect that explains a wrong result."""
    if op.method != "hatcc":
        return None
    fam = op.instance.family
    if fam in ("grid", "zk") and \
            getattr(result, "running_intersection_ok", True) is False:
        return "hatcc-non-junction-tree"
    if fam == "chain" and op.semiring == "min_sum" and \
            abs(result.Z - (ref.Z + 1.0)) <= EXACT_TOL * max(1.0, abs(ref.Z)):
        return "hatcc-min-sum-tree-z-plus-one"
    return None


def check(op: Op, result) -> Outcome:
    """Classify one op's output against the instance's reference."""
    ref = op.instance.refs[op.semiring]
    if op.method == "bp":
        return Outcome("ok", marg_err=mean_tv(result.beliefs, ref.marginals))
    unsat = result.status == "unsat" if op.method == "hatcc" \
        else bool(result.unsat)
    if unsat:
        return Outcome("false_unsat", detail=f"reference Z={ref.Z!r}")
    if op.method == "sectors":
        return Outcome("ok", marg_err=mean_tv(result.marginals,
                                              ref.marginals))
    m_err = marginal_error(op.semiring, result.marginals, ref.marginals)
    z_err = z_error(op.semiring, float(result.Z), ref.Z)
    if m_err <= EXACT_TOL and z_err <= EXACT_TOL:
        return Outcome("ok", marg_err=m_err)
    return Outcome("wrong_ok", _known_defect(op, result, ref), m_err,
                   f"{op.instance.name} {op.semiring}: Z={result.Z!r} "
                   f"reference Z={ref.Z!r}, marginal error {m_err:.3g}")
