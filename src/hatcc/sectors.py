"""Base-vertex sector decomposition for pairwise models.

A spanning tree of the variable graph leaves one holonomy generator per
off-tree edge, acting on the base variable's state space.  Orbits of the
generated action partition that fiber; inference is run once per orbit
with the base clamped to it, and the per-orbit marginals are recombined
with normalized evidence weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bp_engine
from .factor_graph import FactorDecl, FactorGraph, validate_strict
# compose and transport_kernel are no longer called here, but
# perfbench/tracer.py wraps them under this module's name
from .holonomy import (compose, is_identity, loop_holonomies,  # noqa: F401
                       reachability_classes, transport_kernel)
from .trees import spanning_tree, tree_path


@dataclass(frozen=True)
class VariableTree:
    base: int
    tree_factors: tuple[int, ...]  # pairwise factor ids forming the tree
    offtree_factors: tuple[int, ...]
    parent: dict  # var -> (parent var, connecting factor id); base -> None


@dataclass(frozen=True)
class SectorDecomposition:
    base: int
    tree: VariableTree
    generators: tuple[np.ndarray, ...]  # bool matrices on the base fiber
    orbits: tuple[tuple[int, ...], ...]

    @property
    def n_nontrivial(self) -> int:
        """How many generators are not the identity."""
        return sum(not is_identity(g) for g in self.generators)


@dataclass(frozen=True)
class SectorResult:
    decomposition: SectorDecomposition
    mode: str  # "decomposition" | "sector_bp"
    evidences: tuple[float, ...]
    weights: tuple[float, ...]
    per_orbit_marginals: tuple[tuple[np.ndarray, ...], ...]
    marginals: tuple[np.ndarray, ...]  # recombined
    converged: tuple[bool, ...]  # per orbit (True for exact tree runs)
    unsat: bool
    iterations: tuple[int, ...]  # per orbit BP sweeps (0 for exact runs)
    oscillating: tuple[bool, ...]  # per orbit (False for exact runs)


def _pairwise_structure(graph: FactorGraph):
    """Split factors into unary and pairwise; reject higher arity."""
    unary, pairwise = [], []
    for f in graph.factors:
        if len(f.scope) == 1:
            unary.append(f.id)
        elif len(f.scope) == 2:
            pairwise.append(f.id)
        else:
            raise ValueError(f"factor {f.id} has arity {len(f.scope)}; "
                             "sector decomposition handles pairwise models "
                             "only")
    return unary, pairwise


def variable_tree(graph: FactorGraph,
                  base: Optional[int] = None) -> VariableTree:
    """BFS spanning tree of the variable graph rooted at the base.

    The default base is the variable of highest pairwise degree, ties to
    the smallest id.
    """
    _unary, pairwise = _pairwise_structure(graph)
    order = spanning_tree(len(graph.variables),
                          [graph.factors[fid].scope for fid in pairwise], base)
    parent = {node: None if par is None else (par, pairwise[idx])
              for node, par, idx in order}
    tree_factors = sorted(pairwise[idx] for _node, _par, idx in order[1:])
    if len(parent) != len(graph.variables):
        raise ValueError("sector decomposition requires a connected "
                         "pairwise model")
    offtree = tuple(sorted(set(pairwise) - set(tree_factors)))
    return VariableTree(order[0][0], tuple(tree_factors), offtree, parent)


def base_generators(graph: FactorGraph, base: Optional[int] = None,
                    tol: float = 0.0) -> tuple[VariableTree,
                                               list[np.ndarray]]:
    """One holonomy generator per off-tree edge, rebased at the base.

    Generator = the holonomy of the loop base->i along the tree, across
    the off-tree factor i->j, then j->base along the tree; the tree paths
    run through the lowest common ancestor.  ``loop_holonomies`` composes
    every loop in one stacked pass.  The base defaults as in
    ``variable_tree``.
    """
    validate_strict(graph)
    tree = variable_tree(graph, base)

    def up(v: int) -> Optional[int]:
        return None if tree.parent[v] is None else tree.parent[v][0]

    def tree_factors(path: list) -> list[int]:
        # the connecting factor is recorded on the child side
        return [tree.parent[a][1] if up(a) == b else tree.parent[b][1]
                for a, b in zip(path, path[1:])]

    loops = []
    for fid in tree.offtree_factors:
        i, j = graph.factors[fid].scope
        out, back = tree_path(up, tree.base, i), tree_path(up, j, tree.base)
        loops.append((tree_factors(out) + [fid] + tree_factors(back),
                      [(v,) for v in out[1:] + back]))
    return tree, loop_holonomies(graph, loops, tol)[0]


def orbit_partition(generators,
                    fiber_size: int) -> tuple[tuple[int, ...], ...]:
    """Mutual-reachability classes under the generated monoid action:
    SCCs of the union digraph of all generators."""
    union = np.zeros((fiber_size, fiber_size), dtype=bool)
    for g in generators:
        g = np.asarray(g, dtype=bool)
        if g.shape != (fiber_size, fiber_size):
            raise ValueError("generator shape does not match the fiber")
        union |= g
    return reachability_classes(union)[0]


def decompose(graph: FactorGraph, base: Optional[int] = None,
              tol: float = 0.0) -> SectorDecomposition:
    """Pick a base (max degree by default), build generators and orbits."""
    tree, gens = base_generators(graph, base, tol)
    orbits = orbit_partition(gens, graph.cardinality(tree.base))
    return SectorDecomposition(tree.base, tree, tuple(gens), orbits)


def _clamped_graph(graph: FactorGraph, keep_factors, base: int,
                   orbit) -> FactorGraph:
    """Sub-model with a unary indicator clamping the base to the orbit."""
    sr = graph.ops
    factors = []
    for fid in keep_factors:
        f = graph.factors[fid]
        factors.append(FactorDecl(len(factors), f.scope, f.table))
    clamp = np.full(graph.cardinality(base), sr.zero)
    for s in orbit:
        clamp[s] = sr.one
    factors.append(FactorDecl(len(factors), (base,), clamp))
    return FactorGraph(graph.semiring, graph.variables, tuple(factors))


def sector_infer(graph: FactorGraph,
                 decomposition: Optional[SectorDecomposition] = None,
                 base: Optional[int] = None, mode: str = "sector_bp",
                 tol: float = 0.0, max_iters: int = 200,
                 residual_threshold: float = 1e-6) -> SectorResult:
    """Per-orbit clamped inference and evidence-weighted recombination.

    Each orbit takes one path.  An exact solve of the clamped spanning
    tree model (unary factors, tree factors and the clamp) gives the
    orbit's evidence Z and, in 'decomposition' mode, its marginals.
    'sector_bp' mode keeps the off-tree factors: when there are any,
    loopy BP on the full clamped model (``max_iters``,
    ``residual_threshold``) gives the marginals and the converged flag;
    when there are none, the full model is the tree model and the exact
    solve gives everything.
    """
    if graph.semiring != "sum_product":
        raise ValueError("sector_infer requires the sum_product semiring")
    if mode not in ("decomposition", "sector_bp"):
        raise ValueError(f"unknown sector mode '{mode}'")
    if decomposition is None:
        decomposition = decompose(graph, base, tol)
    dec = decomposition
    unary, _pairwise = _pairwise_structure(graph)
    tree_keep = sorted(set(unary) | set(dec.tree.tree_factors))
    loopy = mode == "sector_bp" and bool(dec.tree.offtree_factors)

    evidences: list[float] = []
    all_marg: list[tuple[np.ndarray, ...]] = []
    converged: list[bool] = []
    iterations: list[int] = []
    oscillating: list[bool] = []
    for orbit in dec.orbits:
        bel, Z, _deg = bp_engine.run_tree_exact(
            _clamped_graph(graph, tree_keep, dec.base, orbit))
        ok, iters, osc = True, 0, False
        if loopy:
            res = bp_engine.run(
                _clamped_graph(graph, range(len(graph.factors)), dec.base,
                               orbit),
                max_iters=max_iters, residual_threshold=residual_threshold)
            bel, ok = res.beliefs, res.converged
            iters, osc = res.iterations, res.oscillating
        evidences.append(Z)
        all_marg.append(tuple(bel))
        converged.append(ok)
        iterations.append(iters)
        oscillating.append(osc)

    total = float(sum(evidences))
    n_orbits = len(dec.orbits)
    if total <= 0.0:
        weights = tuple(0.0 for _ in range(n_orbits))
        marg = tuple(np.full(v.cardinality, 1.0 / v.cardinality)
                     for v in graph.variables)
        return SectorResult(dec, mode, tuple(evidences), weights,
                            tuple(all_marg), marg, tuple(converged), True,
                            tuple(iterations), tuple(oscillating))
    weights = tuple(z / total for z in evidences)
    marg = []
    for v in graph.variables:
        acc = np.zeros(v.cardinality)
        for w, sector_marg in zip(weights, all_marg):
            acc += w * sector_marg[v.id]
        marg.append(acc)
    return SectorResult(dec, mode, tuple(evidences), weights,
                        tuple(all_marg), tuple(marg), tuple(converged),
                        False, tuple(iterations), tuple(oscillating))


def sector_report_json(result: SectorResult) -> dict:
    return {
        "base": result.decomposition.base,
        "n_generators": len(result.decomposition.generators),
        "n_nontrivial_generators": result.decomposition.n_nontrivial,
        "orbit_sizes": [len(o) for o in result.decomposition.orbits],
        "evidences": list(result.evidences),
        "weights": list(result.weights),
        "converged": list(result.converged),
        "iterations": list(result.iterations),
        "oscillating": list(result.oscillating),
        "unsat": result.unsat,
    }
