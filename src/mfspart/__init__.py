"""Topology-aware multilevel hypergraph partitioning for multi-FPGA
systems, with logic replication and deletion as refinement operators."""

from .model import (
    Hyperedge,
    Hypergraph,
    Placement,
    ResourceVector,
    Vertex,
    drain_fpgas,
)
from .topology import HopMatrix, MfsTopology, compute_hop_matrix, hop_sum, mean_capacity
from .metrics import MetricsReport, Violation, cut_size, io_usage_all, net_hop_distance, net_terms, report, total_hop_distance, validate
from .io import InstanceBundle, ParseError, gen_instance, parse_hmetis, parse_hypergraph, parse_solution, parse_topology, write_hypergraph, write_solution, write_topology
from .coarsen import CoarseningConfig, Level, alpha_at_level, best_partner, build_hierarchy, coarsen_level, heavy_node_penalty
from .assign import AssignResult, HeatScores, SearchBudget, compute_heats, dfs_assign, fpga_heat, node_heat, parallel_assign
from .refine import Op, RefineState, gain_delete, gain_exchange, gain_move, gain_replicate, project_to_finer, refine_level
from .oracle import best_single_replication, exhaustive_partition, full_gain_recompute

__version__ = "0.1.0"


def __getattr__(name: str):
    # `run_pipeline` lives in `.cli`, which is imported only when asked
    # for, so that `python -m mfspart.cli` does not find it imported already
    if name == "run_pipeline":
        from .cli import run_pipeline

        return run_pipeline
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
