"""One-hop demand forwarding with per-edge queues, as message passing.

The elementary scheduling unit everything else reduces to: a set of
``(origin, neighbour)`` demands is delivered with each directed edge
carrying one message per round; contended demands queue.  The completion
time equals the max per-arc demand count — the quantity the vectorized
engines charge — and this module executes it for real, so cross-checks
can compare the two (see ``tests/congest/test_walk_crosscheck.py`` and
``tests/congest/test_hop_crosscheck.py``).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..graphs.graph import Graph
from .faults import FaultPlan
from .network import Network, NodeAlgorithm

__all__ = ["TokenForwarder", "forward_demands"]


class TokenForwarder(NodeAlgorithm):
    """Sends queued single-hop demands, one per directed edge per round."""

    def __init__(self, context, targets: Iterable[int]):
        super().__init__(context)
        self.queues: dict[int, list[int]] = {}
        for target in targets:
            self.queues.setdefault(int(target), []).append(int(target))
        self.received = 0

    def _emit(self) -> Mapping[int, tuple]:
        outbox = {}
        for target in list(self.queues):
            queue = self.queues[target]
            if queue:
                queue.pop()
                outbox[target] = ("tok",)
            if not queue:
                del self.queues[target]
        self.finished = not self.queues
        return outbox

    def initialize(self) -> Mapping[int, tuple]:
        return self._emit()

    def receive(self, round_number, inbox) -> Mapping[int, tuple]:
        self.received += len(inbox)
        return self._emit()


def forward_demands(
    graph: Graph,
    origins,
    targets,
    validate: str = "full",
    faults: Optional[FaultPlan] = None,
    context=None,
) -> tuple[int, int]:
    """Deliver one-hop demands ``origin -> target`` under edge capacity 1.

    Args:
        graph: the network; every (origin, target) must be an edge.
        origins: demand origins.
        targets: demand targets (same length).
        validate: outbox-validation mode passed to
            :meth:`repro.congest.network.Network.run`.
        faults: optional :class:`~repro.congest.faults.FaultPlan`.  With
            an active (non-null) plan the unreliable queue protocol
            would lose tokens, so delivery is delegated to the ARQ path
            in :func:`repro.congest.reliable.reliable_forward_demands`
            — everything still arrives, at measured extra round cost, or
            a :class:`~repro.congest.faults.DeliveryTimeout` is raised.
        context: optional :class:`repro.runtime.RunContext`; with active
            faults the retry overhead is charged to it under
            ``faults/retry-rounds``.

    Returns:
        ``(rounds, messages)`` of the real execution; on a clean wire
        ``rounds`` equals the max number of demands sharing one directed
        edge.
    """
    if faults is not None and not faults.spec.is_null:
        from .reliable import reliable_forward_demands

        report = reliable_forward_demands(
            graph,
            origins,
            targets,
            faults=faults,
            validate=validate,
            context=context,
            recovery=getattr(context, "recovery", None) or "fail-fast",
        )
        return report.rounds, report.messages
    network = Network(graph)
    per_node: list[list[int]] = [[] for _ in range(graph.num_nodes)]
    for origin, target in zip(origins, targets):
        per_node[int(origin)].append(int(target))
    algorithms = [
        TokenForwarder(network.context(v), per_node[v])
        for v in range(graph.num_nodes)
    ]
    stats = network.run(
        algorithms,
        max_rounds=10 * len(list(origins)) + 100,
        validate=validate,
    )
    delivered = sum(algorithm.received for algorithm in algorithms)
    expected = sum(len(demands) for demands in per_node)
    if delivered != expected:
        raise RuntimeError(
            f"forwarding lost messages: {delivered} != {expected}"
        )
    return stats.rounds, stats.messages
