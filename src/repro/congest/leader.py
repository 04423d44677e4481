"""Leader election by min-ID flooding.

Section 3.1.2 has "the leader of the network pick ``Theta(log^2 n)``
random bits" for the partition hash.  This module elects that leader as
real message passing: every node floods the smallest ID it has seen, and
the flood stabilises in ``O(D)`` rounds.
"""

from __future__ import annotations

from typing import Mapping

from .network import Network, NodeAlgorithm

__all__ = ["elect_leader"]


class _MinIdFlood(NodeAlgorithm):
    """Floods the minimum ID seen so far; stabilizes in D rounds."""

    def __init__(self, context):
        super().__init__(context)
        self.best = context.node_id
        self.finished = False
        self._last_sent = None

    def _announce(self) -> Mapping[int, tuple]:
        if self.best == self._last_sent:
            self.finished = True
            return {}
        self._last_sent = self.best
        self.finished = False
        return {w: ("lead", self.best) for w in self.context.neighbors}

    def initialize(self) -> Mapping[int, tuple]:
        return self._announce()

    def receive(self, round_number, inbox) -> Mapping[int, tuple]:
        improved = False
        for __, payload in inbox.items():
            if payload[1] < self.best:
                self.best = payload[1]
                improved = True
        if improved:
            return self._announce()
        self.finished = True
        return {}


def elect_leader(network: Network) -> tuple[int, int]:
    """Elect the minimum-ID node by flooding.

    Returns:
        ``(leader id, rounds)``; every node agrees on the leader.
    """
    algorithms = [
        _MinIdFlood(network.context(v))
        for v in range(network.graph.num_nodes)
    ]
    stats = network.run(algorithms)
    leaders = {algorithm.best for algorithm in algorithms}
    if len(leaders) != 1:
        raise RuntimeError(f"leader election did not converge: {leaders}")
    return leaders.pop(), stats.rounds
