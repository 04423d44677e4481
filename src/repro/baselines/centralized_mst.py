"""Centralized MST oracles: Kruskal and Prim.

Used as correctness references for the distributed algorithms.  Ties are
broken by ``(weight, edge_id)`` everywhere, so all implementations in
this library agree on a unique MST.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..graphs.graph import WeightedGraph

__all__ = ["kruskal", "prim", "is_spanning_tree", "mst_weight"]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        return True


def kruskal(graph: WeightedGraph) -> list[int]:
    """MST edge ids by Kruskal's algorithm (``(weight, id)`` ties)."""
    order = sorted(
        range(graph.num_edges), key=lambda eid: (graph.weights[eid], eid)
    )
    uf = _UnionFind(graph.num_nodes)
    chosen: list[int] = []
    for eid in order:
        u, v = graph.edge_array[eid]
        if uf.union(int(u), int(v)):
            chosen.append(eid)
    if len(chosen) != graph.num_nodes - 1:
        raise ValueError("graph is disconnected; no spanning tree exists")
    return sorted(chosen)


def prim(graph: WeightedGraph) -> list[int]:
    """MST edge ids by Prim's algorithm from node 0 (``(weight, id)``
    ties)."""
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[0] = True
    heap: list[tuple[float, int, int]] = []

    def push(node: int) -> None:
        for arc in graph.arcs_of(node):
            eid = int(graph.arc_edge[arc])
            other = int(graph.indices[arc])
            if not visited[other]:
                heapq.heappush(heap, (float(graph.weights[eid]), eid, other))

    push(0)
    chosen: list[int] = []
    while heap and len(chosen) < graph.num_nodes - 1:
        _w, eid, node = heapq.heappop(heap)
        u, v = graph.edge_array[eid]
        if visited[u] and visited[v]:
            continue
        target = int(v) if visited[u] else int(u)
        visited[target] = True
        chosen.append(eid)
        push(target)
    if len(chosen) != graph.num_nodes - 1:
        raise ValueError("graph is disconnected; no spanning tree exists")
    return sorted(chosen)


def is_spanning_tree(graph: WeightedGraph, edge_ids: list[int]) -> bool:
    """Whether the edge ids form a spanning tree of the graph."""
    if len(edge_ids) != graph.num_nodes - 1:
        return False
    uf = _UnionFind(graph.num_nodes)
    for eid in edge_ids:
        u, v = graph.edge_array[eid]
        if not uf.union(int(u), int(v)):
            return False
    return True


def mst_weight(graph: WeightedGraph) -> float:
    """Weight of the (unique) MST."""
    return graph.total_weight(kruskal(graph))
