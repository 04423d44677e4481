"""Dense-regime clique emulation (Theorem 1.3, second clause).

For graphs with ``h(G) = Omega(Delta)`` and ``Delta >= n^{1/2+eps}`` the
paper improves the emulation to ``O(n/h(G) * log n * log* n)`` rounds.
In that regime the graph is so well-connected that the heavy hierarchy is
unnecessary: we implement the natural Valiant-style two-phase balancing
the improved bound is built around.

* **Phase 1 (spread)**: node ``u`` deals its ``n - 1`` outgoing messages
  round-robin onto its ``d(u)`` incident edges (``ceil((n-1)/d(u))``
  rounds), so each neighbour relay holds a balanced share.
* **Phase 2 (deliver)**: relay ``w`` forwards each held message ``(u ->
  v)`` over its edge to ``v`` if present, else over a uniformly random
  incident edge of a node adjacent to ``v`` — with ``h = Omega(Delta)``
  a relay is adjacent to most targets, and the residual messages re-enter
  phase 2 (at most ``O(log n)`` times w.h.p.).

Round cost is the *measured* per-edge load of each phase.  The
``delivered`` flag reports whether every message reached its target
within the retry budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph

__all__ = ["DenseCliqueResult", "dense_clique_emulation"]

#: Phase-2 passes before the residual messages are given up on.
MAX_RETRIES = 30


@dataclass
class DenseCliqueResult:
    """Outcome of the dense-regime emulation.

    Attributes:
        delivered: all ``n(n-1)`` messages arrived.
        rounds: measured schedule length (sum of per-phase max edge
            loads).
        spread_rounds: phase-1 rounds.
        deliver_rounds: phase-2 rounds (all retries included).
        retries: extra phase-2 passes needed for residual messages.
    """

    delivered: bool
    rounds: int
    spread_rounds: int
    deliver_rounds: int
    retries: int


def dense_clique_emulation(
    graph: Graph,
    rng: np.random.Generator,
) -> DenseCliqueResult:
    """Emulate one clique round on a dense, well-expanding graph.

    Args:
        graph: the network (intended: ``Delta = Omega(n^{1/2+eps})``,
            expansion ``Omega(Delta)``; works on anything connected but
            the round count degrades off-regime).
        rng: randomness source.

    Returns:
        A :class:`DenseCliqueResult` with measured round counts.
    """
    n = graph.num_nodes
    if n < 2:
        return DenseCliqueResult(True, 0, 0, 0, 0)
    adjacency = np.zeros((n, n), dtype=bool)
    for u, v in graph.edges():
        adjacency[u, v] = True
        adjacency[v, u] = True
    neighbors = [np.flatnonzero(adjacency[u]) for u in range(n)]

    # Phase 1: deal each node's n-1 messages over its incident edges.
    sources = np.repeat(np.arange(n), n - 1)
    targets = np.concatenate(
        [np.delete(np.arange(n), u) for u in range(n)]
    )
    relay = np.empty(sources.shape[0], dtype=np.int64)
    spread_rounds = 0
    cursor = 0
    for u in range(n):
        count = n - 1
        mine = slice(cursor, cursor + count)
        cursor += count
        degree = neighbors[u].shape[0]
        rotation = int(rng.integers(0, degree))
        deal = neighbors[u][(rotation + np.arange(count)) % degree]
        relay[mine] = deal
        spread_rounds = max(
            spread_rounds, int(np.ceil(count / degree))
        )

    # Phase 2: relays deliver; residuals re-relay until done.
    deliver_rounds = 0
    retries = 0
    current = relay
    pending = np.ones(sources.shape[0], dtype=bool)
    # Messages already at their target after phase 1 are done.
    pending &= current != targets
    for attempt in range(MAX_RETRIES + 1):
        if not pending.any():
            break
        idx = np.flatnonzero(pending)
        holders = current[idx]
        wanted = targets[idx]
        direct = adjacency[holders, wanted]
        # Direct deliveries: load = messages per directed edge (holder,
        # target).
        if direct.any():
            keys = holders[direct] * n + wanted[direct]
            __, counts = np.unique(keys, return_counts=True)
            deliver_rounds += int(counts.max())
            done_idx = idx[direct]
            current[done_idx] = wanted[direct]
            pending[done_idx] = False
        # Residuals hop to a random neighbour and try again.
        residual = idx[~direct]
        if residual.size:
            retries += 1
            hops = np.empty(residual.shape[0], dtype=np.int64)
            for i, message in enumerate(residual):
                nbrs = neighbors[current[message]]
                hops[i] = nbrs[rng.integers(0, nbrs.shape[0])]
            keys = current[residual] * n + hops
            __, counts = np.unique(keys, return_counts=True)
            deliver_rounds += int(counts.max())
            current[residual] = hops
    delivered = not pending.any()
    return DenseCliqueResult(
        delivered=delivered,
        rounds=spread_rounds + deliver_rounds,
        spread_rounds=spread_rounds,
        deliver_rounds=deliver_rounds,
        retries=retries,
    )
