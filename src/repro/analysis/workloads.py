"""Routing-demand generators for experiments and stress tests.

Theorem 1.2's promise is per-node load, not demand shape — these
generators produce structurally different demands (balanced, skewed,
local, adversarial) that all satisfy or deliberately violate the promise,
for the router's phasing logic to handle.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph

__all__ = [
    "permutation_demand",
    "random_demand",
    "hotspot_demand",
    "neighbor_demand",
    "bipartite_demand",
    "all_to_one_demand",
    "circulation_paths",
]


def permutation_demand(
    graph: Graph, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One packet per node, destinations a uniform permutation."""
    n = graph.num_nodes
    return np.arange(n), rng.permutation(n)


def random_demand(
    graph: Graph, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` independent uniform (source, destination) pairs."""
    n = graph.num_nodes
    return (
        rng.integers(0, n, size=count),
        rng.integers(0, n, size=count),
    )


def hotspot_demand(
    graph: Graph,
    count: int,
    rng: np.random.Generator,
    hotspots: int = 4,
    skew: float = 0.8,
) -> tuple[np.ndarray, np.ndarray]:
    """Skewed destinations: a ``skew`` fraction targets few hot nodes.

    Deliberately stresses the per-node load promise; the router responds
    by splitting into phases (footnote 3).
    """
    n = graph.num_nodes
    sources = rng.integers(0, n, size=count)
    hot_nodes = rng.choice(n, size=min(hotspots, n), replace=False)
    destinations = rng.integers(0, n, size=count)
    hot_mask = rng.random(count) < skew
    destinations[hot_mask] = hot_nodes[
        rng.integers(0, hot_nodes.shape[0], size=int(hot_mask.sum()))
    ]
    return sources, destinations


def neighbor_demand(
    graph: Graph, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Each node sends to a uniformly random neighbour (local traffic)."""
    n = graph.num_nodes
    sources = np.arange(n)
    offsets = (rng.random(n) * graph.degrees).astype(np.int64)
    offsets = np.minimum(offsets, np.maximum(graph.degrees - 1, 0))
    destinations = graph.indices[graph.indptr[:-1] + offsets]
    return sources, destinations


def bipartite_demand(
    graph: Graph, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Node halves exchange: each low-id node targets a high-id node."""
    n = graph.num_nodes
    half = n // 2
    low = np.arange(half)
    high = half + rng.permutation(n - half)[:half]
    sources = np.concatenate([low, high])
    destinations = np.concatenate([high, low])
    return sources, destinations


def all_to_one_demand(
    graph: Graph, target: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Every node sends to one target — the maximal destination skew."""
    n = graph.num_nodes
    return np.arange(n), np.full(n, target, dtype=np.int64)


def circulation_paths(
    graph: Graph, num_packets: int, length: int
) -> list[list[int]]:
    """Contention-free packet paths along an Eulerian circulation.

    Walks an Eulerian circuit of the symmetric digraph (every directed
    arc exactly once — it exists for any connected graph) and starts
    packet ``i`` at circuit offset ``2 i`` with ``length`` hops.  Every
    packet then occupies a *distinct* directed edge in every round: a
    congestion-free path system in the sense of the paper's routing
    sections, and the scheduler's throughput-bound regime.
    """
    num_arcs = int(graph.indptr[-1])
    if 2 * num_packets > num_arcs:
        raise ValueError(
            f"need 2*num_packets <= num_arcs, got {num_packets} packets "
            f"for {num_arcs} arcs"
        )
    nxt = graph.indptr[:-1].astype(np.int64)
    limit = graph.indptr[1:]
    stack = [0]
    circuit: list[int] = []
    while stack:
        v = stack[-1]
        if nxt[v] < limit[v]:
            arc = int(nxt[v])
            nxt[v] += 1
            stack.append(int(graph.indices[arc]))
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    if len(circuit) != num_arcs + 1:
        raise ValueError("circulation workload needs a connected graph")
    base = circuit[:-1]
    ext = base + base + base[: length + 1]
    return [ext[2 * i : 2 * i + length + 1] for i in range(num_packets)]
