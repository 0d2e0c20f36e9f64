"""Discrete factor-graph inference with holonomy-aware tree compilation."""

from .factor_graph import (FactorDecl, FactorGraph, PotentialSlice, Semiring,
                           SEMIRINGS, VariableDecl, joint_weight, load,
                           restrict, save, validate)
from .bp_engine import (BPResult, Direction, HalfEdge, beliefs, gauge_act,
                        gauge_propagate, run, step_parallel, step_scheduled)
from .nerve import Backbone, FactorNerve, backbone, build_factor_nerve, \
    fundamental_cycle
from .holonomy import (HolonomyMatrix, ModeQuotient, diagnose, holonomy_matrix,
                       is_trivial, mode_quotient, transport_kernel)
from .compile import (CapExceeded, CompiledModel, HatccResult,
                      UnsatCertificate, augment, check_descent_datum,
                      cluster_tree_propagate, hatcc_infer, marginalize_modes)
from .sectors import (SectorDecomposition, SectorResult, base_generators,
                      decompose, orbit_partition, sector_infer)
from .oracle import exact_map, exact_marginals
from .generators import (gen_four_cycle, gen_grid_mrf, gen_permutation_graph,
                         gen_zk_sync)
from .metrics import holonomy_signature, map_hamming, mean_log_score, mean_tv

__version__ = "0.1.0"
