"""Certified Hamiltonian-cycle solving on split graphs.

Polynomial constructive solvers for K_{1,4}-free split graphs (path
assembly for delta_i <= 2, claw-free included; a short-cycle gate and one
pair search for delta_i = 3) with short-cycle certificates of
infeasibility, the reduction producing 5-star-free split instances from
bipartite max-degree-3 sources, and an exact oracle plus seeded
generators forming the verification harness.
"""

from .graph import (
    Graph,
    HamCycle,
    graph_from_edges,
    graph_from_split,
    validate_ham_cycle,
)
from .split import (
    SplitPartition,
    NotSplit,
    NoCycleCertificate,
    recognize_split,
    star_free_level,
)
from .paths import (
    DegreeTwoSubgraph,
    ShortCycleWitness,
    PathSystem,
    build_degree_two_subgraph,
    find_short_cycle,
    assemble_paths,
    hc_delta2,
)
from .solver import SolveOutcome, solve
from .delta3 import construct_cycle
from .oracle import OracleBudget, OracleResult, oracle_solve
from .reduction import (
    BipartiteInstance,
    ReductionOutput,
    bipartite_from_graph,
    reduce_to_split,
    verify_k15_free,
    map_solution_back,
)
from .generators import GenSpec, GeneratedInstance, generate

__version__ = "0.1.0"

__all__ = [
    "Graph", "HamCycle", "graph_from_edges", "graph_from_split",
    "validate_ham_cycle",
    "SplitPartition", "NotSplit", "NoCycleCertificate", "recognize_split",
    "star_free_level",
    "DegreeTwoSubgraph", "ShortCycleWitness", "PathSystem",
    "build_degree_two_subgraph", "find_short_cycle", "assemble_paths", "hc_delta2",
    "SolveOutcome", "solve",
    "construct_cycle",
    "OracleBudget", "OracleResult", "oracle_solve",
    "BipartiteInstance", "ReductionOutput", "bipartite_from_graph",
    "reduce_to_split", "verify_k15_free", "map_solution_back",
    "GenSpec", "GeneratedInstance", "generate",
]
