"""Balliu-et-al.-style clique emulation baseline for dense graphs.

Balliu, Fraigniaud, Lotker, Olivetti (SIROCCO 2016) emulate the clique on
``G(n, p)`` in ``O(min{1/p^2, np})`` rounds.  The ``1/p^2`` branch is the
natural *two-hop relay*: the message for pair ``(u, v)`` travels over a
uniformly random common neighbour ``w`` (or directly over the edge
``{u, v}`` when it exists); the schedule length is the max number of
messages assigned to a single directed edge.  We implement that relay
with measured congestion, which is what the E3 benchmark compares the
hierarchical emulation against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..rng import resolve_rng

__all__ = ["TwoHopRelayResult", "two_hop_relay_emulation"]


@dataclass
class TwoHopRelayResult:
    """Outcome of the two-hop relay emulation.

    Attributes:
        rounds: measured schedule length (two sequential hop phases, each
            as long as its max directed-edge load).
        delivered: whether every pair had an edge or a common neighbour.
        direct_pairs: pairs that used a direct edge.
        relayed_pairs: pairs that used a common-neighbour relay.
        max_edge_load: worst per-directed-edge message count.
    """

    rounds: int
    delivered: bool
    direct_pairs: int
    relayed_pairs: int
    max_edge_load: int


def two_hop_relay_emulation(
    graph: Graph,
    rng: np.random.Generator | None = None,
) -> TwoHopRelayResult:
    """Emulate one clique round by two-hop relays, measuring congestion.

    Returns:
        A :class:`TwoHopRelayResult`; ``delivered`` is False if some node
        pair has neither an edge nor a common neighbour (possible below
        the ``G(n, p)`` density the baseline assumes).
    """
    rng = resolve_rng(rng)
    n = graph.num_nodes
    adjacency = np.zeros((n, n), dtype=bool)
    for u, v in graph.edges():
        adjacency[u, v] = True
        adjacency[v, u] = True
    first_load = np.zeros((n, n), dtype=np.int64)  # load on directed (u, w)
    second_load = np.zeros((n, n), dtype=np.int64)  # load on directed (w, v)
    direct = 0
    relayed = 0
    delivered = True
    neighbors = [np.flatnonzero(adjacency[u]) for u in range(n)]
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if adjacency[u, v]:
                first_load[u, v] += 1
                direct += 1
                continue
            common = neighbors[u][adjacency[v, neighbors[u]]]
            if common.size == 0:
                delivered = False
                continue
            w = int(common[rng.integers(0, common.size)])
            first_load[u, w] += 1
            second_load[w, v] += 1
            relayed += 1
    phase1 = int(first_load.max()) if n else 0
    phase2 = int(second_load.max()) if n else 0
    return TwoHopRelayResult(
        rounds=phase1 + phase2,
        delivered=delivered,
        direct_pairs=direct,
        relayed_pairs=relayed,
        max_edge_load=max(phase1, phase2),
    )
