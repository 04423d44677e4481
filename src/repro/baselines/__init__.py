"""Baseline algorithms: centralized oracles and classic distributed MST."""

from .centralized_mst import is_spanning_tree, kruskal, mst_weight, prim
from .clique_baseline import TwoHopRelayResult, two_hop_relay_emulation
from .ghs import GhsResult, ghs_mst
from .ghs_congest import CongestGhsResult, congest_ghs_mst
from .gkp import GkpResult, gkp_mst
from .mincut_oracle import exact_min_cut
from .mst_verify import MstCertificate, verify_mst
from .routing_baselines import (
    StoreAndForwardResult,
    bfs_store_and_forward,
    schedule_paths,
    schedule_paths_csr,
)
from .routing_baselines_ref import schedule_paths_ref

__all__ = [
    "is_spanning_tree",
    "kruskal",
    "mst_weight",
    "prim",
    "TwoHopRelayResult",
    "two_hop_relay_emulation",
    "GhsResult",
    "ghs_mst",
    "CongestGhsResult",
    "congest_ghs_mst",
    "GkpResult",
    "gkp_mst",
    "exact_min_cut",
    "MstCertificate",
    "verify_mst",
    "StoreAndForwardResult",
    "bfs_store_and_forward",
    "schedule_paths",
    "schedule_paths_csr",
    "schedule_paths_ref",
]
