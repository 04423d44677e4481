"""MST via congested-clique emulation — composing Theorems 1.1 and 1.3.

The congested-clique model (Lotker et al.) computes MSTs extremely fast
because any node can talk to any node.  Theorem 1.3 lets a general graph
*emulate* clique rounds; this module composes the two: run Boruvka in the
emulated clique, paying the measured emulation cost per clique round.

Per Boruvka iteration (all in emulated clique rounds):

1. every node sends its fragment id to everyone (1 round) — after which
   every node knows the full fragment partition;
2. every node sends its best outgoing candidate to its fragment leader
   (1 round);
3. each leader announces the fragment's minimum to everyone (1 round).

``O(log n)`` iterations, so ``O(log n)`` clique rounds in total — the
emulation turns that into ``O(log n) * T_clique(G)`` rounds of ``G``.
This is the "clique emulation as a network axiom" usage the paper cites
from Avin et al. [5].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import WeightedGraph
from ..params import Params
from ..rng import resolve_rng
from .clique import emulate_clique
from .hierarchy import Hierarchy, build_hierarchy
from .router import Router

__all__ = ["CliqueMstResult", "clique_boruvka_mst"]


@dataclass
class CliqueMstResult:
    """Output of the emulated-clique Boruvka.

    Attributes:
        edge_ids: MST edge ids (tie-break ``(weight, id)``; equals
            Kruskal's).
        total_weight: MST weight.
        iterations: Boruvka iterations used.
        clique_rounds: congested-clique rounds consumed.
        clique_round_cost: measured base-graph rounds per emulated clique
            round.
        rounds: total base-graph rounds
            (``clique_rounds * clique_round_cost``).
    """

    edge_ids: list[int]
    total_weight: float
    iterations: int
    clique_rounds: int
    clique_round_cost: float
    rounds: float


def clique_boruvka_mst(
    graph: WeightedGraph,
    params: Params | None = None,
    rng: np.random.Generator | None = None,
    hierarchy: Hierarchy | None = None,
    seed: int | None = None,
) -> CliqueMstResult:
    """Compute the MST of ``graph`` through emulated clique rounds.

    Args:
        graph: connected weighted graph.
        params: construction constants.
        rng: randomness source.
        hierarchy: optional prebuilt routing structure.

    Returns:
        A :class:`CliqueMstResult`; the MST is exact (classic Boruvka
        with ``(weight, id)`` tie-breaks, which needs no coin flips since
        the clique handles arbitrary merge shapes in O(1) rounds).
    """
    if not isinstance(graph, WeightedGraph):
        raise TypeError("clique_boruvka_mst needs a WeightedGraph")
    params = params or Params.default()
    rng = resolve_rng(rng, seed)
    hierarchy = hierarchy or build_hierarchy(graph, params, rng)
    router = Router(hierarchy, params=params, rng=rng)
    # Measure what one emulated clique round costs on this graph.
    emulation = emulate_clique(
        hierarchy, params, rng, router=router
    )
    if not emulation.delivered:
        raise RuntimeError("clique emulation failed on this graph")
    clique_round_cost = emulation.rounds

    n = graph.num_nodes
    component = np.arange(n, dtype=np.int64)
    edges = graph.edge_array
    weights = graph.weights
    edge_ids: list[int] = []
    clique_rounds = 0
    iterations = 0
    while True:
        comp_u = component[edges[:, 0]]
        comp_v = component[edges[:, 1]]
        outgoing = np.flatnonzero(comp_u != comp_v)
        if outgoing.size == 0:
            break
        iterations += 1
        # Rounds 1-3 of the emulated-clique protocol (see module doc).
        clique_rounds += 3
        best: dict[int, tuple[float, int]] = {}
        for eid in outgoing:
            key = (float(weights[eid]), int(eid))
            for comp in (int(comp_u[eid]), int(comp_v[eid])):
                if comp not in best or key < best[comp]:
                    best[comp] = key
        added = sorted({eid for __, eid in best.values()})
        for eid in added:
            u, v = int(edges[eid, 0]), int(edges[eid, 1])
            if component[u] == component[v]:
                continue
            edge_ids.append(eid)
            old, new = int(component[u]), int(component[v])
            component[component == old] = new
        if iterations > 4 * max(2, n).bit_length() + 8:
            raise RuntimeError("clique Boruvka did not converge")
    edge_ids = sorted(edge_ids)
    if len(edge_ids) != n - 1:
        raise RuntimeError("graph is disconnected; no spanning tree")
    return CliqueMstResult(
        edge_ids=edge_ids,
        total_weight=graph.total_weight(edge_ids),
        iterations=iterations,
        clique_rounds=clique_rounds,
        clique_round_cost=clique_round_cost,
        rounds=clique_rounds * clique_round_cost,
    )
