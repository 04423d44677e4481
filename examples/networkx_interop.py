"""Scenario: bring your own topology via NetworkX.

Loads a NetworkX-generated topology (a connected Watts–Strogatz small
world standing in for a measured overlay snapshot), converts it with
:func:`repro.graphs.from_networkx`, inspects its expansion profile, and
runs the full routing pipeline on it, plus a walk batch executed as
CONGEST messages.

Run:  python examples/networkx_interop.py [n]
"""

import sys

import numpy as np

from repro import Params
from repro.core import Router, build_hierarchy
from repro.congest import replay_walk_run
from repro.graphs import from_networkx, spectral_gap, to_networkx
from repro.walks import estimate_mixing_time, run_lazy_walks


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 96
    import networkx as nx

    print(f"=== A NetworkX topology: connected_watts_strogatz({n}, 6, 0.4)")
    nx_graph = nx.connected_watts_strogatz_graph(n, 6, 0.4, seed=11)
    graph = from_networkx(nx_graph)
    print(f"    converted: {graph!r}")
    print(f"    spectral gap {spectral_gap(graph):.4f}, "
          f"tau_mix ~ {estimate_mixing_time(graph)}")

    print("=== Route a permutation through the hierarchical structure")
    rng = np.random.default_rng(23)
    params = Params.default()
    hierarchy = build_hierarchy(graph, params, rng)
    router = Router(hierarchy, params=params, rng=rng)
    perm = rng.permutation(n)
    result = router.route(np.arange(n), perm)
    print(f"    delivered {result.delivered}, "
          f"{result.cost_rounds:,.0f} rounds "
          f"({result.num_phases} phase(s))")

    print("=== Walks as messages (Section 3.1.1's mechanic)")
    starts = rng.integers(0, n, size=40)
    run = run_lazy_walks(
        graph, starts, 12, np.random.default_rng(5), record_trajectory=True
    )
    replay = replay_walk_run(graph, run)
    print(f"    40 tokens, 12 steps: {replay.rounds} rounds and "
          f"{replay.messages} messages executed; Lemma 2.5 charges "
          f"{run.schedule_rounds()} rounds")

    print("=== Round-trip back to NetworkX")
    back = to_networkx(graph)
    print(f"    nx graph with {back.number_of_nodes()} nodes / "
          f"{back.number_of_edges()} edges "
          f"(connected: {nx.is_connected(back)})")


if __name__ == "__main__":
    main()
