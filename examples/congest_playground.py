"""Scenario: a tour of the message-passing layer.

Everything in the library's fast paths is backed by real CONGEST
protocols; this example runs them all on one small network so their round
behaviour can be inspected directly:

1. flooding BFS and broadcast,
2. leader election + shared-seed dissemination (the Section 3.1.2 step),
3. pipelined min-collection over a BFS tree (the GKP phase-2 engine),
4. a walk batch replayed as messages, forward and back (the Section
   3.1.1 mechanic),
5. full message-passing Boruvka, cross-checked against Kruskal.

Run:  python examples/congest_playground.py [n]
"""

import sys

import numpy as np

from repro.baselines import ghs_mst, kruskal
from repro.baselines.ghs_congest import congest_ghs_mst
from repro.congest import (
    Network,
    broadcast_value,
    build_bfs_tree,
    disseminate_seed,
    pipelined_min_collect,
    replay_walk_run,
)
from repro.graphs import random_regular, with_random_weights
from repro.walks import WalkRun, run_lazy_walks


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    rng = np.random.default_rng(29)
    graph = random_regular(n, 4, rng)
    network = Network(graph)
    print(f"=== Network: {graph!r}, diameter {graph.diameter()}")

    print("=== 1. Flooding BFS and broadcast")
    parents, depths, rounds = build_bfs_tree(network, 0)
    print(f"    BFS tree from node 0: depth {max(depths)}, "
          f"{rounds} rounds")
    values, rounds = broadcast_value(network, 0, ("cfg", 42))
    print(f"    broadcast reached all {len(values)} nodes in "
          f"{rounds} rounds")

    print("=== 2. Leader election + shared hash seed (Section 3.1.2)")
    seed, rounds = disseminate_seed(network, rng, words=4)
    print(f"    leader elected and {len(seed)} seed words delivered "
          f"in {rounds} rounds")

    print("=== 3. Pipelined min-collect (the O(D + k) upcast)")
    items = [[(float(rng.integers(0, 1000)), v)] for v in range(n)]
    collected, rounds = pipelined_min_collect(network, 0, items, 5)
    print(f"    5 smallest of {n} items at the root in {rounds} rounds: "
          f"{[int(k) for k, __ in collected]}")

    print("=== 4. Walks as messages: forward, then back to the origins")
    starts = rng.integers(0, n, size=3 * n)
    run = run_lazy_walks(
        graph, starts, 10, np.random.default_rng(31), record_trajectory=True
    )
    forward = replay_walk_run(graph, run)
    # The reverse pass retraces every token's arcs, last step first.
    back = WalkRun(starts=run.positions, positions=starts, steps=run.steps)
    back.trajectory = run.trajectory[::-1]
    reverse = replay_walk_run(graph, back)
    print(f"    {3 * n} tokens, 10 steps: forward {forward.rounds} rounds "
          f"(Lemma 2.5 charges {run.schedule_rounds()}), reverse "
          f"{reverse.rounds} rounds")

    print("=== 5. Message-passing Boruvka vs the accounted model")
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
