"""Experiment runners and table formatting for the reproduction suite."""

from .experiments import (
    beta_ablation,
    correlated_ablation,
    crossover_analysis,
    clique_emulation_sweep,
    dense_regime_sweep,
    mixing_bound_survey,
    mixing_scaling,
    mst_scaling,
    native_fidelity,
    parallel_walk_sweep,
    partition_structure,
    portal_uniformity,
    preset_ablation,
    recursion_decomposition,
    routing_scaling,
    stretch_profile,
    virtual_tree_trace,
)
from .fits import power_law_exponent
from .tables import format_number, format_table
from .workloads import circulation_paths

__all__ = [
    "beta_ablation",
    "correlated_ablation",
    "crossover_analysis",
    "clique_emulation_sweep",
    "dense_regime_sweep",
    "mixing_bound_survey",
    "mixing_scaling",
    "mst_scaling",
    "native_fidelity",
    "parallel_walk_sweep",
    "partition_structure",
    "portal_uniformity",
    "preset_ablation",
    "recursion_decomposition",
    "routing_scaling",
    "stretch_profile",
    "virtual_tree_trace",
    "format_number",
    "format_table",
    "power_law_exponent",
    "circulation_paths",
]
