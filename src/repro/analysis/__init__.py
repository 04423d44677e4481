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
from .export import rows_to_csv, write_csv
from .fits import is_subpolynomial_consistent, power_law_exponent
from .perf import (
    BenchRow,
    circulation_paths,
    run_bench_suite,
)
from .tables import format_number, format_table
from .workloads import (
    all_to_one_demand,
    bipartite_demand,
    hotspot_demand,
    neighbor_demand,
    permutation_demand,
    random_demand,
)

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
    "BenchRow",
    "circulation_paths",
    "run_bench_suite",
    "format_number",
    "format_table",
    "rows_to_csv",
    "is_subpolynomial_consistent",
    "power_law_exponent",
    "write_csv",
    "all_to_one_demand",
    "bipartite_demand",
    "hotspot_demand",
    "neighbor_demand",
    "permutation_demand",
    "random_demand",
]
