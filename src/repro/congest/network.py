"""A faithful synchronous CONGEST-model simulator.

The model of the paper's Section 1: the network is a graph; computation
proceeds in synchronous rounds; per round, each node may send one
``O(log n)``-bit message over each incident edge.  The simulator enforces
the one-message-per-edge-per-round constraint and the word budget, and
counts rounds and messages.  It is used to run the baselines and to
cross-validate the ledger-based round accounting of the walk machinery on
small graphs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar, Mapping, NamedTuple, Optional, Sequence

from ..graphs.graph import Graph, WeightedGraph
from .faults import FaultPlan, FaultRecord

__all__ = ["CongestViolation", "NodeContext", "NodeAlgorithm", "Network"]

#: Shared immutable inbox for nodes that received nothing this round —
#: avoids allocating ``n`` dicts per round when traffic is sparse.
_EMPTY_INBOX: Mapping[int, tuple] = MappingProxyType({})

#: How many O(log n)-bit words a single message may carry.  The model
#: allows O(log n) bits; we allow a small constant number of words
#: (IDs/weights), the standard reading used by all cited algorithms.
MESSAGE_WORD_LIMIT = 4


class CongestViolation(RuntimeError):
    """An algorithm broke a CONGEST constraint (bandwidth or addressing)."""


@dataclass(frozen=True)
class NodeContext:
    """What a node knows initially (the KT1 variant: neighbour IDs).

    Built once per graph and shared by every :class:`Network` on it.

    Attributes:
        node_id: this node's ID.
        num_nodes: ``n`` (standard assumption: nodes know ``n``).
        neighbors: IDs of adjacent nodes.
        edge_weights: weight per neighbour (same order), if the graph is
            weighted.
    """

    node_id: int
    num_nodes: int
    neighbors: tuple[int, ...]
    edge_weights: Optional[tuple[float, ...]] = None

    @property
    def degree(self) -> int:
        """Degree of this node."""
        return len(self.neighbors)


class NodeAlgorithm:
    """Base class for per-node CONGEST algorithms.

    Subclasses implement :meth:`initialize` and :meth:`receive`; both
    return the messages to send in the *next* round as a mapping
    ``neighbor_id -> payload``.  A payload is a tuple of at most
    :data:`MESSAGE_WORD_LIMIT` words (ints/floats/short strings).  Set
    :attr:`finished` once the node has terminated; the network stops when
    every node is finished and no message is in flight.

    Calling rule: :meth:`initialize` is called once on every node.  In
    each round, :meth:`receive` is called on every node that is
    unfinished or got mail that round, in ascending node id (crashed
    nodes are skipped).  A finished node is called again only in a round
    that brings it mail, so on an empty inbox a finished node must have
    nothing to send and nothing to change.  A node that acts every round
    while finished sets :attr:`daemon`.
    """

    #: A daemon node is called every round until the run ends, finished
    #: or not: it is finished from the start so that it never keeps the
    #: run alive, yet acts on its own schedule (a heartbeat).
    daemon: ClassVar[bool] = False

    def __init__(self, context: NodeContext):
        self.context = context
        self.finished = False

    def initialize(self) -> Mapping[int, tuple]:
        """Messages to send in round 1."""
        return {}

    def receive(
        self, round_number: int, inbox: Mapping[int, tuple]
    ) -> Mapping[int, tuple]:
        """Handle this round's inbox; return next round's outbox."""
        raise NotImplementedError


@dataclass
class RunStats:
    """Round and message accounting of a completed run.

    The four fault counters stay 0 on fault-free runs; under a
    :class:`~repro.congest.faults.FaultPlan` they tally what the wire
    actually injected during *this* run (the plan's own ``stats``
    aggregate across runs).
    """

    rounds: int = 0
    messages: int = 0
    max_messages_per_round: int = 0
    per_round_messages: list[int] = field(default_factory=list)
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    crash_dropped: int = 0


class _Wiring(NamedTuple):
    """A graph's per-node wiring, as :class:`Network` reads it.

    Holds no reference to the graph, so the weak cache entry keyed by
    the graph dies with it.
    """

    #: Per node, its :class:`NodeContext` (neighbour ids in arc order,
    #: and the incident edge weights if the graph is weighted).
    contexts: list[NodeContext]
    #: Per node, its neighbour ids as a set, for O(1) outbox validation.
    neighbor_sets: list[frozenset[int]]


#: Per graph, its :class:`_Wiring`; the entry dies with the graph.
_WIRING: "weakref.WeakKeyDictionary[Graph, _Wiring]" = (
    weakref.WeakKeyDictionary()
)


def _wiring_of(graph: Graph) -> _Wiring:
    """The graph's wiring, built on first use (graphs are immutable)."""
    wiring = _WIRING.get(graph)
    if wiring is not None:
        return wiring
    n = graph.num_nodes
    neighbor_lists = [
        tuple(int(w) for w in graph.neighbors(v)) for v in range(n)
    ]
    weighted = isinstance(graph, WeightedGraph)
    wiring = _WIRING[graph] = _Wiring(
        contexts=[
            NodeContext(
                node_id=v,
                num_nodes=n,
                neighbors=neighbor_lists[v],
                edge_weights=tuple(
                    float(graph.weights[graph.arc_edge[a]])
                    for a in graph.arcs_of(v)
                )
                if weighted
                else None,
            )
            for v in range(n)
        ],
        neighbor_sets=[frozenset(ids) for ids in neighbor_lists],
    )
    return wiring


class Network:
    """Synchronous executor for a set of :class:`NodeAlgorithm` instances.

    Building one is cheap after the first on a graph: the per-node
    wiring and contexts are built once per graph and shared.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        wiring = _wiring_of(graph)
        self._contexts = wiring.contexts
        self._neighbor_sets = wiring.neighbor_sets

    def context(self, v: int) -> NodeContext:
        """Initial knowledge of node ``v`` (the graph's shared, frozen
        context)."""
        return self._contexts[v]

    def _validate_outbox(
        self, sender: int, outbox: Mapping[int, tuple], round_number: int
    ) -> dict[int, tuple]:
        """A copy of one node's outbox, checked against the CONGEST
        contract."""
        outbox = dict(outbox)
        neighbors = self._neighbor_sets[sender]
        for target, payload in outbox.items():
            if target not in neighbors:
                raise CongestViolation(
                    f"round {round_number}: node {sender} sent to "
                    f"non-neighbor {target} (payload {payload!r}); CONGEST "
                    "messages travel only along edges of the graph"
                )
            if not isinstance(payload, tuple):
                raise CongestViolation(
                    f"round {round_number}: node {sender} sent a non-tuple "
                    f"payload {payload!r} to {target}; payloads must be "
                    "tuples of words"
                )
            if len(payload) > MESSAGE_WORD_LIMIT:
                raise CongestViolation(
                    f"round {round_number}: node {sender} exceeded the "
                    f"{MESSAGE_WORD_LIMIT}-word message budget to {target}: "
                    f"{len(payload)} words in {payload!r}"
                )
        return outbox

    def run(
        self,
        algorithms: Sequence[NodeAlgorithm],
        max_rounds: int = 1_000_000,
        faults: Optional[FaultPlan] = None,
    ) -> RunStats:
        """Run all nodes to completion (or ``max_rounds``).

        Event-driven: each round calls :meth:`NodeAlgorithm.receive`
        only on the nodes that are unfinished or got mail that round
        (and on daemon nodes), in ascending node id, so a round costs
        work where tokens are, not at every node.  Senders are delivered
        in ascending id, so a fault plan's draws follow a fixed order
        whichever nodes were called.  Every outbox is checked against
        the CONGEST contract in the round it is produced, so the
        contract stays machine-enforced.

        Args:
            algorithms: one :class:`NodeAlgorithm` per node.
            max_rounds: hard round budget.
            faults: optional :class:`~repro.congest.faults.FaultPlan`
                injecting wire-level faults.  ``None`` — and any plan
                whose spec is null — delivers every outbox intact, so a
                rate-0 plan is byte-identical to no plan.  Under a plan
                only the delivery step changes:

                * a sender that is crashed this round loses its whole
                  outbox;
                * each surviving fresh message passes through
                  :meth:`FaultPlan.link_copies` — dropped, duplicated
                  (extra copy one round later), or delayed copies wait
                  for their delivery round;
                * a copy arriving at a crashed receiver is lost;
                * two copies from the same sender contending for the
                  same ``(sender, target)`` wire slot in one round: the
                  second is pushed to the next round (the slot carries
                  one message);
                * crashed nodes are frozen — ``receive`` is not called
                  and they emit nothing — and resume untouched when
                  their window closes.

        Returns round/message statistics.  Raises
        :class:`CongestViolation` on any bandwidth/addressing violation
        (naming the lowest offending node id of its round) and
        ``RuntimeError`` if ``max_rounds`` is exhausted.  The run ends
        when no node is unfinished and nothing is in flight, pending
        delayed copies included, so a delayed copy is never silently
        discarded at shutdown.
        """
        if len(algorithms) != self.graph.num_nodes:
            raise ValueError("need exactly one algorithm per node")
        if faults is not None and faults.spec.is_null:
            faults = None
        stats = RunStats()
        # Per sender that sent something, in ascending id, its outbox.
        outboxes: dict[int, dict[int, tuple]] = {}
        unfinished: set[int] = set()
        daemons: list[int] = []
        for v, algorithm in enumerate(algorithms):
            outbox = algorithm.initialize()
            if outbox:
                outboxes[v] = self._validate_outbox(v, outbox, round_number=1)
            if not algorithm.finished:
                unfinished.add(v)
            if algorithm.daemon:
                daemons.append(v)
        # Fault-scheduled copies: delivery round -> [(sender, target,
        # payload)].  Fresh outbox messages with offset 0 never pass
        # through here, and a clean wire never fills it.
        pending: dict[int, list[tuple[int, int, tuple]]] = {}
        down: frozenset[int] = frozenset()
        while True:
            in_flight = sum(map(len, outboxes.values())) + sum(
                map(len, pending.values())
            )
            if in_flight == 0 and not unfinished:
                return stats
            if stats.rounds >= max_rounds:
                raise RuntimeError(
                    f"network did not terminate within {max_rounds} rounds"
                )
            stats.rounds += 1
            if faults is None:
                inboxes = self._deliver(outboxes)
                transmitted = in_flight
            else:
                down = faults.crashed(stats.rounds, self.graph.num_nodes)
                inboxes, transmitted = self._deliver_faulty(
                    outboxes, pending, down, faults, stats
                )
            stats.messages += transmitted
            stats.max_messages_per_round = max(
                stats.max_messages_per_round, transmitted
            )
            stats.per_round_messages.append(transmitted)
            awake = unfinished.union(inboxes, daemons)
            awake.difference_update(down)
            outboxes = {}
            for v in sorted(awake):
                algorithm = algorithms[v]
                outbox = algorithm.receive(
                    stats.rounds, inboxes.get(v, _EMPTY_INBOX)
                )
                if outbox:
                    outboxes[v] = self._validate_outbox(
                        v, outbox, round_number=stats.rounds + 1
                    )
                if algorithm.finished:
                    unfinished.discard(v)
                else:
                    unfinished.add(v)

    @staticmethod
    def _deliver(
        outboxes: Mapping[int, Mapping[int, tuple]],
    ) -> dict[int, dict[int, tuple]]:
        """Clean-wire delivery: every outbox message arrives this round.

        Inboxes exist only for nodes that receive something; everyone
        else shares the one immutable empty mapping.
        """
        inboxes: dict[int, dict[int, tuple]] = {}
        for sender, outbox in outboxes.items():
            for target, payload in outbox.items():
                box = inboxes.get(target)
                if box is None:
                    box = inboxes[target] = {}
                box[sender] = payload
        return inboxes

    @staticmethod
    def _deliver_faulty(
        outboxes: Mapping[int, Mapping[int, tuple]],
        pending: dict[int, list[tuple[int, int, tuple]]],
        down: frozenset[int],
        faults: FaultPlan,
        stats: RunStats,
    ) -> tuple[dict[int, dict[int, tuple]], int]:
        """Delivery through ``faults`` (the rules of :meth:`run`).

        Moves this round's due copies out of ``pending`` and schedules
        new ones into it, tallies the fault counters of ``stats``, and
        returns the inboxes with the number of copies put on the wire.
        """
        round_number = stats.rounds
        deliveries: list[tuple[int, int, tuple]] = []
        transmitted = 0
        for sender, outbox in outboxes.items():
            if sender in down:
                for target in outbox:
                    stats.crash_dropped += 1
                    faults.record(
                        FaultRecord(
                            "crash_drop", round_number, sender, target,
                            detail={"side": "sender"},
                        )
                    )
                continue
            for target, payload in outbox.items():
                transmitted += 1
                offsets = faults.link_copies(round_number, sender, target)
                if not offsets:
                    stats.dropped += 1
                    continue
                if len(offsets) > 1:
                    stats.duplicated += 1
                if offsets[0] > 0:
                    stats.delayed += 1
                for offset in offsets:
                    if offset == 0:
                        deliveries.append((sender, target, payload))
                    else:
                        pending.setdefault(
                            round_number + offset, []
                        ).append((sender, target, payload))
        due = pending.pop(round_number, ())
        transmitted += len(due)
        deliveries.extend(due)
        inboxes: dict[int, dict[int, tuple]] = {}
        for sender, target, payload in deliveries:
            if target in down:
                stats.crash_dropped += 1
                faults.record(
                    FaultRecord(
                        "crash_drop", round_number, sender, target,
                        detail={"side": "receiver"},
                    )
                )
                continue
            box = inboxes.get(target)
            if box is None:
                box = inboxes[target] = {}
            if sender in box:
                # The (sender, target) slot already carried a message
                # this round; the extra copy waits.
                pending.setdefault(round_number + 1, []).append(
                    (sender, target, payload)
                )
            else:
                box[sender] = payload
        return inboxes, transmitted
