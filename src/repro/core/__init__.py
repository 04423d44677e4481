"""The paper's primary contribution: hierarchical routing, MST, and friends."""

from .clique import CliqueEmulationResult, all_pairs_demand, emulate_clique
from .dense_clique import DenseCliqueResult, dense_clique_emulation
from .embedding import G0Embedding, VirtualNodes, build_g0
from .hierarchy import (
    Hierarchy,
    Level,
    RepairReport,
    build_hierarchy,
    repair_overlay,
)
from .ledger import Charge, RoundLedger
from .mincut import MinCutResult, approximate_min_cut, tree_respecting_min_cut
from .mst import IterationStats, MstResult, MstRunner, minimum_spanning_tree
from .partition import HierarchicalPartition, build_partition
from .portals import PortalTable, build_portals
from .router import LevelCost, Router, RoutingError, RoutingResult
from .validate import ValidationReport, validate_hierarchy, validate_portals
from .virtual_tree import RebalanceReport, VirtualTree

__all__ = [
    "CliqueEmulationResult",
    "all_pairs_demand",
    "emulate_clique",
    "DenseCliqueResult",
    "dense_clique_emulation",
    "G0Embedding",
    "VirtualNodes",
    "build_g0",
    "Hierarchy",
    "Level",
    "RepairReport",
    "build_hierarchy",
    "repair_overlay",
    "Charge",
    "RoundLedger",
    "MinCutResult",
    "approximate_min_cut",
    "tree_respecting_min_cut",
    "IterationStats",
    "MstResult",
    "MstRunner",
    "minimum_spanning_tree",
    "HierarchicalPartition",
    "build_partition",
    "PortalTable",
    "build_portals",
    "LevelCost",
    "Router",
    "RoutingError",
    "RoutingResult",
    "ValidationReport",
    "validate_hierarchy",
    "validate_portals",
    "RebalanceReport",
    "VirtualTree",
]
