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

import numpy as np

from ..graphs.graph import Graph
from ..graphs.properties import (
    mixing_time,
    regular_mixing_time,
    spectral_gap,
)
from .engine import run_lazy_walks

__all__ = [
    "EXACT_LIMIT",
    "estimate_mixing_time",
    "estimate_regular_mixing_time",
    "empirical_tv_distance",
]

#: Largest n for which the exact matrix-powering computation is used.
EXACT_LIMIT = 1200


def _spectral_estimate(graph: Graph, regular: bool) -> int:
    gap = spectral_gap(graph, regular=regular)
    if gap <= 0:
        raise ValueError("graph has zero spectral gap (disconnected?)")
    n = graph.num_nodes
    if regular:
        pi_min = 1.0 / n
    else:
        pi_min = graph.degrees.min() / (2.0 * graph.num_edges)
    return max(1, int(math.ceil(math.log(n * n / pi_min) / gap)))


def estimate_mixing_time(graph: Graph) -> int:
    """``tau_mix`` of the lazy walk: exact when feasible, else spectral."""
    if graph.num_nodes <= EXACT_LIMIT:
        return mixing_time(graph)
    return _spectral_estimate(graph, regular=False)


def estimate_regular_mixing_time(graph: Graph) -> int:
    """``tau_bar_mix`` of the ``2*Delta``-regular walk."""
    if graph.num_nodes <= EXACT_LIMIT:
        return regular_mixing_time(graph)
    return _spectral_estimate(graph, regular=True)


def empirical_tv_distance(
    graph: Graph,
    steps: int,
    rng: np.random.Generator,
    walks_per_node: int = 64,
) -> float:
    """Monte-Carlo total-variation distance from stationarity after ``steps``.

    Starts ``walks_per_node`` lazy walks at every node, runs them for
    ``steps`` steps, and compares the empirical end distribution with the
    degree-proportional stationary distribution.  Used by tests to sanity-
    check the exact mixing computation.
    """
    n = graph.num_nodes
    starts = np.repeat(np.arange(n), walks_per_node)
    run = run_lazy_walks(graph, starts, steps, rng)
    counts = np.bincount(run.positions, minlength=n).astype(float)
    empirical = counts / counts.sum()
    stationary = graph.degrees / (2.0 * graph.num_edges)
    return float(0.5 * np.abs(empirical - stationary).sum())
