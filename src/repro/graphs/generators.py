"""Graph families used throughout the experiments.

Expander families (random regular, hypercube) have mixing time
``polylog(n)`` and are where the paper's algorithm shines; slow-mixing
families (ring, barbell) are included as stress/contrast cases.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .graph import Graph, WeightedGraph

__all__ = [
    "complete_graph",
    "ring_graph",
    "path_graph",
    "star_graph",
    "binary_tree",
    "grid_torus",
    "hypercube",
    "barbell_graph",
    "erdos_renyi",
    "lollipop_graph",
    "random_regular",
    "watts_strogatz",
    "with_random_weights",
    "with_weights",
    "FAMILIES",
]


def complete_graph(n: int) -> Graph:
    """The complete graph ``K_n`` (the congested-clique topology)."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, edges)


def ring_graph(n: int) -> Graph:
    """The ``n``-cycle: diameter ``n/2``, mixing time ``Theta(n^2)``."""
    if n < 3:
        raise ValueError("ring needs at least 3 nodes")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """The path on ``n`` nodes."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """A star: node 0 is the hub."""
    return Graph(n, [(0, i) for i in range(1, n)])


def binary_tree(n: int) -> Graph:
    """A complete binary tree on ``n`` nodes (heap numbering)."""
    edges = []
    for child in range(1, n):
        edges.append(((child - 1) // 2, child))
    return Graph(n, edges)


def grid_torus(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` torus: 4-regular, mixing time ``Theta(n)``."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs at least 3 rows and 3 columns")

    def node(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append((node(r, c), node(r, (c + 1) % cols)))
            edges.append((node(r, c), node((r + 1) % rows, c)))
    return Graph(rows * cols, edges)


def hypercube(dim: int) -> Graph:
    """The ``dim``-dimensional hypercube: ``log n``-regular expander-like."""
    n = 1 << dim
    edges = []
    for v in range(n):
        for bit in range(dim):
            u = v ^ (1 << bit)
            if u > v:
                edges.append((v, u))
    return Graph(n, edges)


def barbell_graph(clique_size: int) -> Graph:
    """Two cliques joined by one bridge edge: near-zero conductance.

    The canonical slow-mixing graph — mixing time ``Theta(n^2)`` or worse —
    used to stress-test behaviour when ``tau_mix`` dominates.
    """
    k = clique_size
    edges = []
    for offset in (0, k):
        for u in range(k):
            for v in range(u + 1, k):
                edges.append((offset + u, offset + v))
    edges.append((k - 1, k))
    return Graph(2 * k, edges)


def lollipop_graph(clique_size: int, tail_length: int) -> Graph:
    """A clique with a path tail: the classic max-hitting-time graph.

    The expected hitting time from the clique to the tail end is
    ``Theta(n^3)`` — the worst case for blind-walk delivery, used as a
    stress family alongside the barbell.
    """
    if clique_size < 3 or tail_length < 1:
        raise ValueError("need clique_size >= 3 and tail_length >= 1")
    edges = []
    for u in range(clique_size):
        for v in range(u + 1, clique_size):
            edges.append((u, v))
    previous = clique_size - 1
    for i in range(tail_length):
        edges.append((previous, clique_size + i))
        previous = clique_size + i
    return Graph(clique_size + tail_length, edges)


def erdos_renyi(n: int, p: float, rng: np.random.Generator) -> Graph:
    """``G(n, p)``, redrawn until connected.

    Above the connectivity threshold ``p = Omega(log n / n)`` the retry
    loop terminates quickly w.h.p.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must be in (0, 1], got {p}")
    for _ in range(200):
        mask = rng.random((n, n)) < p
        upper = np.triu(mask, k=1)
        us, vs = np.nonzero(upper)
        graph = Graph(n, list(zip(us.tolist(), vs.tolist())))
        if graph.is_connected():
            return graph
    raise RuntimeError(
        f"G({n}, {p}) was never connected in 200 attempts; "
        "p is likely below the connectivity threshold"
    )


def random_regular(n: int, d: int, rng: np.random.Generator) -> Graph:
    """A random ``d``-regular simple graph via the pairing model.

    Random regular graphs with ``d >= 3`` are expanders w.h.p. — the
    paper's motivating topology for overlay/peer-to-peer networks.
    """
    if n * d % 2 != 0:
        raise ValueError("n * d must be even")
    if d >= n:
        raise ValueError("degree must be below n")
    for _ in range(50):
        pairs = _repaired_pairing(n, d, rng)
        if pairs is None:
            continue
        us, vs = pairs
        graph = Graph(n, list(zip(us.tolist(), vs.tolist())))
        if graph.is_connected():
            return graph
    raise RuntimeError(f"failed to sample a connected {d}-regular graph")


def _repaired_pairing(n: int, d: int, rng: np.random.Generator):
    """One pairing-model sample with conflict repair.

    Full rejection has success probability ``~exp(-d^2/4)`` and is hopeless
    already at ``d = 6``; instead, stubs involved in self-loops or repeated
    edges are reshuffled among themselves until no conflict remains.
    """
    stubs = np.repeat(np.arange(n), d)
    rng.shuffle(stubs)
    for _ in range(300):
        pairs = stubs.reshape(-1, 2)
        us = np.minimum(pairs[:, 0], pairs[:, 1])
        vs = np.maximum(pairs[:, 0], pairs[:, 1])
        keys = us.astype(np.int64) * n + vs
        bad = us == vs
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        duplicate = np.zeros_like(bad)
        repeats = sorted_keys[1:] == sorted_keys[:-1]
        duplicate[order[1:][repeats]] = True
        duplicate[order[:-1][repeats]] = True
        bad |= duplicate
        if not bad.any():
            return us, vs
        bad_stub_mask = np.repeat(bad, 2)
        conflicted = stubs[bad_stub_mask]
        if conflicted.shape[0] < 4:
            # A single bad pair cannot fix itself; reshuffle everything.
            rng.shuffle(stubs)
            continue
        rng.shuffle(conflicted)
        stubs[bad_stub_mask] = conflicted
    return None


def watts_strogatz(
    n: int, k: int, p: float, rng: np.random.Generator
) -> Graph:
    """Watts–Strogatz small world: ring lattice with rewired edges."""
    if k % 2 != 0 or k < 2:
        raise ValueError("k must be even and >= 2")
    edge_set = set()
    for v in range(n):
        for j in range(1, k // 2 + 1):
            u, w = v, (v + j) % n
            edge_set.add((min(u, w), max(u, w)))
    edges = list(edge_set)
    for i, (u, w) in enumerate(edges):
        if rng.random() < p:
            for _ in range(20):
                new_w = int(rng.integers(n))
                candidate = (min(u, new_w), max(u, new_w))
                if new_w != u and candidate not in edge_set:
                    edge_set.discard((u, w))
                    edge_set.add(candidate)
                    edges[i] = candidate
                    break
    graph = Graph(n, sorted(edge_set))
    if not graph.is_connected():
        return watts_strogatz(n, k, p, rng)
    return graph


def with_random_weights(graph: Graph, rng: np.random.Generator) -> WeightedGraph:
    """Attach i.i.d. uniform ``[0, 1)`` weights (distinct w.p. 1)."""
    weights = rng.uniform(0.0, 1.0, size=graph.num_edges)
    return WeightedGraph(graph.num_nodes, list(graph.edges()), weights)


def with_weights(graph: Graph, weights) -> WeightedGraph:
    """Attach the given weights to a graph."""
    return WeightedGraph(graph.num_nodes, list(graph.edges()), weights)


def _expander_factory(n: int, rng: np.random.Generator) -> Graph:
    degree = max(4, 2 * int(round(math.log2(n) / 2)))
    return random_regular(n, degree, rng)


#: Named graph families ``name -> factory(n, rng)`` used by benchmarks.
FAMILIES: dict[str, Callable[[int, np.random.Generator], Graph]] = {
    "expander": _expander_factory,
    "hypercube": lambda n, rng: hypercube(int(round(math.log2(n)))),
    "torus": lambda n, rng: grid_torus(
        int(round(math.sqrt(n))), int(round(math.sqrt(n)))
    ),
    "ring": lambda n, rng: ring_graph(n),
    "barbell": lambda n, rng: barbell_graph(n // 2),
    "erdos_renyi": lambda n, rng: erdos_renyi(
        n, min(1.0, 4.0 * math.log(n) / n), rng
    ),
}
