"""Scenario: a tour of the message-passing layer.

Everything in the library's fast paths is backed by real CONGEST
protocols; this example runs them on one small network so their round
behaviour can be inspected directly:

1. leader election by min-ID flooding (the leader of Section 3.1.2),
2. a walk batch replayed as messages, forward and back (the Section
   3.1.1 mechanic),
3. full message-passing Boruvka, cross-checked against Kruskal.

Run:  python examples/congest_playground.py [n]
"""

import sys

import numpy as np

from repro.baselines import ghs_mst, kruskal
from repro.baselines.ghs_congest import congest_ghs_mst
from repro.congest import Network, elect_leader, replay_walk_run
from repro.graphs import random_regular, with_random_weights
from repro.walks import run_lazy_walks


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    rng = np.random.default_rng(29)
    graph = random_regular(n, 4, rng)
    network = Network(graph)
    print(f"=== Network: {graph!r}, diameter {graph.diameter()}")

    print("=== 1. Leader election by min-ID flooding (Section 3.1.2)")
    leader, rounds = elect_leader(network)
    print(f"    node {leader} elected in {rounds} rounds")

    print("=== 2. Walks as messages: forward, then back to the origins")
    starts = rng.integers(0, n, size=3 * n)
    rows = [starts]  # a step hook records the trajectory
    run = run_lazy_walks(
        graph, starts, 10, np.random.default_rng(31),
        on_step=lambda _before, after: rows.append(after),
    )
    trajectory = np.stack(rows)
    forward = replay_walk_run(graph, trajectory)
    # The reverse pass retraces every token's arcs, last step first.
    reverse = replay_walk_run(graph, trajectory[::-1])
    print(f"    {3 * n} tokens, 10 steps: forward {forward.rounds} rounds "
          f"(Lemma 2.5 charges {run.schedule_rounds()}), reverse "
          f"{reverse.rounds} rounds")

    print("=== 3. Message-passing Boruvka vs the accounted model")
    weighted = with_random_weights(graph, rng)
    real = congest_ghs_mst(weighted)
    accounted = ghs_mst(weighted)
    correct = real.edge_ids == kruskal(weighted)
    print(f"    real execution: {real.rounds} rounds, "
          f"{real.messages} messages, matches Kruskal: {correct}")
    print(f"    accounted model: {accounted.rounds} rounds "
          f"(ratio {real.rounds / accounted.rounds:.2f})")


if __name__ == "__main__":
    main()
