"""Mixing-time estimation: exact for small graphs, spectral for large.

The routing construction needs a walk length at least ``tau_mix``.  For
graphs up to :data:`EXACT_LIMIT` nodes we compute the exact Definition 2.1
mixing time by matrix powering; beyond that we use the relaxation-time
estimate ``t = ln(n^2 / min_u pi(u)) / gap`` from the standard
``|P^t - pi| <= sqrt(pi_max/pi_min) * (1 - gap)^t`` bound, which is an
upper bound of the same order for the families we simulate.
"""

from __future__ import annotations

import math

from ..graphs.graph import Graph
from ..graphs.properties import mixing_time, spectral_gap

__all__ = ["EXACT_LIMIT", "estimate_mixing_time"]

#: Largest n for which the exact matrix-powering computation is used.
EXACT_LIMIT = 1200


def _spectral_estimate(graph: Graph) -> int:
    gap = spectral_gap(graph, regular=False)
    if gap <= 0:
        raise ValueError("graph has zero spectral gap (disconnected?)")
    n = graph.num_nodes
    pi_min = graph.degrees.min() / (2.0 * graph.num_edges)
    return max(1, int(math.ceil(math.log(n * n / pi_min) / gap)))


def estimate_mixing_time(graph: Graph) -> int:
    """``tau_mix`` of the lazy walk: exact when feasible, else spectral."""
    if graph.num_nodes <= EXACT_LIMIT:
        return mixing_time(graph)
    return _spectral_estimate(graph)
