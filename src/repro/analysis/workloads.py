"""Packet-path generators for scheduler experiments and stress tests."""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph

__all__ = ["circulation_paths"]


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
