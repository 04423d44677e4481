"""Scenario: minimum-latency spanning tree of a peer-to-peer overlay.

The paper's motivating setting: overlay networks (Chord-like DHTs,
random-expander P2P systems) have excellent expansion and polylog mixing
time, but classic distributed MST algorithms pay the ``Omega(D +
sqrt(n))`` general-graph toll.  This example builds a random-regular
overlay with latency weights, computes the MST with the almost-mixing-
time algorithm (Theorem 1.1), checks it against Kruskal, and compares
round counts with the GHS-flooding and GKP baselines.

Run:  python examples/p2p_overlay_mst.py [n]
"""

import sys

import numpy as np

from repro import Params
from repro.core import minimum_spanning_tree
from repro.baselines import ghs_mst, gkp_mst, kruskal
from repro.graphs import random_regular, with_weights
from repro.theory import das_sarma_lower_bound


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 128
    rng = np.random.default_rng(13)
    params = Params.default()

    print(f"=== P2P overlay: {n} peers, 8 random links each, latency weights")
    links = random_regular(n, 8, rng)
    overlay = with_weights(links, rng.uniform(1.0, 50.0, size=links.num_edges))
    diameter = overlay.diameter()
    print(f"    diameter {diameter}, edges {overlay.num_edges}")

    print("=== Distributed MST in almost mixing time (Theorem 1.1)")
    result = minimum_spanning_tree(overlay, params, rng)
    reference = kruskal(overlay)
    print(f"    MST weight {result.total_weight:.1f} "
          f"({'matches' if result.edge_ids == reference else 'DIFFERS FROM'}"
          f" centralized Kruskal)")
    print(f"    {result.num_iterations} Boruvka iterations, "
          f"{result.rounds:,.0f} rounds "
          f"(+{result.construction_rounds:,.0f} construction)")
    print("    iteration trace (components, virtual-tree depth):")
    for stats in result.iterations:
        print(
            f"      it {stats.iteration:2d}: "
            f"{stats.components_before:3d} -> {stats.components_after:3d} "
            f"components, depth {stats.max_tree_depth}, "
            f"degree ratio {stats.max_tree_degree_ratio:.2f}"
        )

    print("=== Baselines on the same overlay")
    ghs = ghs_mst(overlay)
    gkp = gkp_mst(overlay)
    print(f"    GHS flooding Boruvka: {ghs.rounds:,} rounds "
          f"({ghs.iterations} iterations)")
    print(f"    GKP O(D + sqrt n):    {gkp.rounds:,} rounds "
          f"({gkp.fragments_after_phase1} fragments after phase 1)")
    print(f"    Das Sarma et al. barrier for general graphs: "
          f"~{das_sarma_lower_bound(n, diameter):,.0f} rounds")
    print()
    print("    Note: at simulable n the hierarchical algorithm's")
    print("    polylog^depth constants dominate; its advantage is")
    print("    asymptotic (see EXPERIMENTS.md, experiments E2/E6).")


if __name__ == "__main__":
    main()
