"""Base-vertex sector decomposition for pairwise models.

A spanning tree of the variable graph leaves one holonomy generator per
off-tree edge, acting on the base variable's state space.  Orbits of the
generated action partition that fiber.  Cutset conditioning on the base
(Pearl 1988, section 4.5) solves once per orbit.  As ``hatcc_infer`` is
exact on the loopy model and an orbit O's evidence, the Z of the model
with the base clamped to O, is Z * P(x_base in O), one unclamped solve
serves every orbit with no clamp.  Any grouping recombines exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import compile as compile_mod
from .factor_graph import FactorGraph, validate_strict
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
    evidences: tuple[float, ...]  # per orbit Z of the clamped model
    weights: tuple[float, ...]
    marginals: tuple[np.ndarray, ...]
    status: str  # "ok" | "unsat" | "cap_exceeded"

    @property
    def unsat(self) -> bool:
        return self.status == "unsat"


def _pairwise_structure(graph: FactorGraph) -> list[int]:
    """Ids of the pairwise factors; reject arity above two."""
    for f in graph.factors:
        if len(f.scope) > 2:
            raise ValueError(f"factor {f.id} has arity {len(f.scope)}; "
                             "sector decomposition handles pairwise models "
                             "only")
    return [f.id for f in graph.factors if len(f.scope) == 2]


def variable_tree(graph: FactorGraph,
                  base: Optional[int] = None) -> VariableTree:
    """BFS spanning tree of the variable graph rooted at the base.

    The default base is the variable of highest pairwise degree, ties to
    the smallest id.
    """
    n = len(graph.variables)
    if n == 0:
        raise ValueError("sector decomposition requires a variable")
    if base is not None and not 0 <= base < n:
        raise ValueError(f"base {base} is not a variable id 0..{n - 1}")
    pairwise = _pairwise_structure(graph)
    order = spanning_tree(n,
                          [graph.factors[fid].scope for fid in pairwise], base)
    parent = {node: None if par is None else (par, pairwise[idx])
              for node, par, idx in order}
    tree_factors = sorted(pairwise[idx] for _node, _par, idx in order[1:])
    if len(parent) != n:
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


def sector_infer(graph: FactorGraph,
                 decomposition: Optional[SectorDecomposition] = None,
                 base: Optional[int] = None, mode: str = "sector_bp",
                 tol: float = 0.0) -> SectorResult:
    """Orbit evidences and weights read off one exact solve.

    One ``hatcc_infer`` at tolerance 0 of the unclamped model gives Z and
    the marginals; an orbit's weight is its mass in the base marginal and
    its evidence is Z times that mass.  ``tol`` sets only the orbit
    grouping.  ``mode`` must be "decomposition" or "sector_bp" and selects
    nothing.  The status is the solve's; unless "ok", the weights are zero
    and the marginals uniform, and "cap_exceeded" makes every evidence NaN.
    """
    if graph.semiring != "sum_product":
        raise ValueError("sector_infer requires the sum_product semiring")
    if mode not in ("decomposition", "sector_bp"):
        raise ValueError(f"unknown sector mode '{mode}'")
    if decomposition is None:
        decomposition = decompose(graph, base, tol)
    dec = decomposition
    res = compile_mod.hatcc_infer(graph)
    mass = tuple(float(res.marginals[dec.base][list(orbit)].sum())
                 for orbit in dec.orbits)
    evidences = tuple(float(res.Z) * m for m in mass)
    weights = mass if res.status == "ok" else (0.0,) * len(mass)
    return SectorResult(dec, evidences, weights, res.marginals, res.status)


def sector_report_json(result: SectorResult) -> dict:
    return {
        "base": result.decomposition.base,
        "n_generators": len(result.decomposition.generators),
        "n_nontrivial_generators": result.decomposition.n_nontrivial,
        "orbit_sizes": [len(o) for o in result.decomposition.orbits],
        # JSON has no NaN: a capped solve's evidences are null
        "evidences": [None if np.isnan(z) else z
                      for z in result.evidences],
        "weights": list(result.weights),
        "status": result.status,
    }
