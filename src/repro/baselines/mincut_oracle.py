"""Centralized min-cut oracle: exact enumeration for small ``n``.

The verification reference for :mod:`repro.core.mincut`: it enumerates
every cut (``n <= 22``).
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph

__all__ = ["exact_min_cut"]


def exact_min_cut(graph: Graph) -> tuple[int, np.ndarray]:
    """Exact minimum cut by enumeration (``n <= 22``).

    Returns:
        ``(cut value, membership mask of one side)``.
    """
    n = graph.num_nodes
    if n > 22:
        raise ValueError("exact min cut is exponential in n; n <= 22")
    if n < 2:
        raise ValueError("min cut needs at least two nodes")
    best_value = graph.num_edges + 1
    best_side = None
    edges = graph.edge_array
    for bits in range(1, 1 << (n - 1)):  # node n-1 pinned to side 0
        side = np.zeros(n, dtype=bool)
        for v in range(n - 1):
            if bits >> v & 1:
                side[v] = True
        value = int(np.sum(side[edges[:, 0]] != side[edges[:, 1]]))
        if value < best_value:
            best_value = value
            best_side = side
    return best_value, best_side
