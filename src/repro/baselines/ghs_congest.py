"""Message-passing Boruvka (GHS-style) on the CONGEST simulator.

Unlike :mod:`repro.baselines.ghs` — which *accounts* the convergecast
schedule — this implementation actually exchanges every message through
:class:`repro.congest.Network`, with nodes acting only on their local
state and inbox.  One Boruvka iteration is driven as four sub-phases,
each a separate synchronous execution sharing per-node state:

1. **ID exchange** — every node tells neighbours its fragment id.
2. **Convergecast** — leaves send their min outgoing edge up the
   fragment tree; internal nodes wait for all children, keep the min,
   forward it; terminates at the fragment leader.
3. **Broadcast + connect** — the leader floods the chosen edge down the
   tree; the fragment-side endpoint fires a connect message over it.
4. **Leader resolution + relabel** — each connect edge whose two
   fragments chose each other is a *core*; its higher-id endpoint
   becomes the merged fragment's leader and floods the new id over tree
   and connect edges.

Rounds are the sum of the sub-phase executions — every one of them a
real message-passing run.  The result is cross-checked against Kruskal,
and the test suite compares the round count with the accounted
:func:`repro.baselines.ghs.ghs_mst` model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..congest.network import Network, NodeAlgorithm
from ..graphs.graph import WeightedGraph
from .centralized_mst import kruskal

__all__ = ["CongestGhsResult", "congest_ghs_mst"]


@dataclass
class _NodeState:
    """Mutable per-node state shared across sub-phase executions."""

    fragment: int
    parent: Optional[int] = None  # tree neighbour towards the leader
    tree_neighbors: set[int] = field(default_factory=set)
    neighbor_fragments: dict[int, int] = field(default_factory=dict)
    candidate: Optional[tuple[float, int, int, int]] = None
    chosen: Optional[tuple[float, int, int, int]] = None  # (w, eid, u, v)
    connect_neighbors: set[int] = field(default_factory=set)


@dataclass
class CongestGhsResult:
    """Outcome of the message-passing Boruvka run.

    Attributes:
        edge_ids: the MST edge ids (verified equal to Kruskal's).
        rounds: total CONGEST rounds over all sub-phase executions.
        messages: total messages sent.
        iterations: Boruvka iterations.
    """

    edge_ids: list[int]
    rounds: int
    messages: int
    iterations: int


class _ExchangeIds(NodeAlgorithm):
    """Sub-phase 1: learn every neighbour's fragment id."""

    def __init__(self, context, state: _NodeState):
        super().__init__(context)
        self.state = state

    def initialize(self) -> Mapping[int, tuple]:
        self.finished = True
        return {
            w: ("frag", self.state.fragment)
            for w in self.context.neighbors
        }

    def receive(self, round_number, inbox) -> Mapping[int, tuple]:
        for sender, payload in inbox.items():
            self.state.neighbor_fragments[sender] = payload[1]
        return {}


class _Convergecast(NodeAlgorithm):
    """Sub-phase 2: min outgoing edge flows up the fragment tree."""

    def __init__(self, context, state: _NodeState):
        super().__init__(context)
        self.state = state
        self.waiting_for = set(state.tree_neighbors)
        if state.parent is not None:
            self.waiting_for.discard(state.parent)
        self.best = self._local_candidate()
        self.sent = False

    def _local_candidate(self):
        state = self.state
        best = None
        for index, neighbor in enumerate(self.context.neighbors):
            if state.neighbor_fragments.get(neighbor) == state.fragment:
                continue
            weight = self.context.edge_weights[index]
            key = (
                weight,
                min(self.context.node_id, neighbor),
                max(self.context.node_id, neighbor),
            )
            candidate = (weight, self.context.node_id, neighbor)
            if best is None or key < (best[0], min(best[1], best[2]),
                                      max(best[1], best[2])):
                best = candidate
        return best

    def _try_report(self) -> Mapping[int, tuple]:
        if self.waiting_for or self.sent:
            return {}
        self.sent = True
        self.finished = True
        if self.state.parent is None:
            # Leader: record the fragment's choice.
            self.state.chosen = self.best
            return {}
        payload = self.best if self.best is not None else (-1.0, -1, -1)
        return {self.state.parent: ("up",) + tuple(payload)}

    def initialize(self) -> Mapping[int, tuple]:
        return self._try_report()

    def receive(self, round_number, inbox) -> Mapping[int, tuple]:
        for sender, payload in inbox.items():
            if payload[0] != "up":
                continue
            self.waiting_for.discard(sender)
            if payload[2] >= 0:
                candidate = (payload[1], int(payload[2]), int(payload[3]))
                if self.best is None or self._key(candidate) < self._key(
                    self.best
                ):
                    self.best = candidate
        return self._try_report()

    @staticmethod
    def _key(candidate):
        weight, u, v = candidate
        return (weight, min(u, v), max(u, v))


class _BroadcastConnect(NodeAlgorithm):
    """Sub-phase 3: flood the chosen edge; its endpoint fires connect."""

    def __init__(self, context, state: _NodeState):
        super().__init__(context)
        self.state = state
        self.informed = state.parent is None  # leader starts informed

    def _act_on_choice(self) -> Mapping[int, tuple]:
        self.finished = True
        outbox = {}
        chosen = self.state.chosen
        payload = (
            ("edge",) + tuple(chosen)
            if chosen is not None
            else ("edge", -1.0, -1, -1)
        )
        for child in self.state.tree_neighbors:
            if child != self.state.parent:
                outbox[child] = payload
        if chosen is not None and chosen[1] == self.context.node_id:
            outbox[chosen[2]] = ("connect", self.state.fragment)
        return outbox

    def initialize(self) -> Mapping[int, tuple]:
        if self.informed:
            return self._act_on_choice()
        return {}

    def receive(self, round_number, inbox) -> Mapping[int, tuple]:
        outbox: dict[int, tuple] = {}
        for sender, payload in inbox.items():
            if payload[0] == "edge" and not self.informed:
                self.informed = True
                if payload[2] >= 0:
                    self.state.chosen = (
                        payload[1], int(payload[2]), int(payload[3])
                    )
                else:
                    self.state.chosen = None
                outbox.update(self._act_on_choice())
            elif payload[0] == "connect":
                self.state.connect_neighbors.add(sender)
        return outbox


class _Relabel(NodeAlgorithm):
    """Sub-phase 4: the core endpoint floods the merged fragment's id.

    Tree and connect edges together form the merged fragment; parents are
    re-oriented towards whoever relayed the new id.
    """

    def __init__(self, context, state: _NodeState):
        super().__init__(context)
        self.state = state
        self.new_fragment: Optional[int] = None
        self.is_core_leader = self._detect_core_leader()

    def _detect_core_leader(self) -> bool:
        chosen = self.state.chosen
        if chosen is None or chosen[1] != self.context.node_id:
            return False
        # Our fragment's chosen edge leaves from this node to `other`.
        other = chosen[2]
        # Core edge: the other fragment chose the same edge back at us.
        if other not in self.state.connect_neighbors:
            return False
        return self.context.node_id > other

    def _links(self) -> set[int]:
        links = set(self.state.tree_neighbors)
        links |= self.state.connect_neighbors
        chosen = self.state.chosen
        if chosen is not None and chosen[1] == self.context.node_id:
            links.add(chosen[2])
        return links

    def initialize(self) -> Mapping[int, tuple]:
        if self.is_core_leader:
            self.new_fragment = self.context.node_id
            self.state.parent = None
            self.finished = True
            return {
                w: ("newid", self.new_fragment) for w in self._links()
            }
        return {}

    def receive(self, round_number, inbox) -> Mapping[int, tuple]:
        for sender, payload in inbox.items():
            if payload[0] != "newid" or self.new_fragment is not None:
                continue
            self.new_fragment = payload[1]
            self.state.parent = sender
            self.finished = True
            return {
                w: ("newid", self.new_fragment)
                for w in self._links()
                if w != sender
            }
        return {}


def congest_ghs_mst(graph: WeightedGraph) -> CongestGhsResult:
    """Run message-passing Boruvka to completion on ``graph``.

    Every phase runs on :meth:`repro.congest.network.Network.run`, which
    checks each node's outbox against the CONGEST contract every round.
    Each Boruvka iteration at least halves the fragment count, so
    ``4 log2 n + 8`` iterations bound the run; a run that has not
    converged by then raises.
    """
    if not isinstance(graph, WeightedGraph):
        raise TypeError("congest_ghs_mst needs a WeightedGraph")
    if len(set(graph.weights.tolist())) != graph.num_edges:
        raise ValueError(
            "congest_ghs_mst requires distinct edge weights (its in-band "
            "tie-break is by endpoint ids, which cannot match Kruskal's "
            "edge-id tie-break on duplicate weights)"
        )
    network = Network(graph)
    n = graph.num_nodes
    states = [_NodeState(fragment=v) for v in range(n)]
    edge_ids: set[int] = set()
    rounds = 0
    messages = 0
    max_iterations = 4 * max(2, n).bit_length() + 8

    def run_phase(cls) -> None:
        nonlocal rounds, messages
        algorithms = [cls(network.context(v), states[v]) for v in range(n)]
        stats = network.run(algorithms, max_rounds=50 * n + 100)
        rounds += stats.rounds
        messages += stats.messages
        return algorithms

    edge_id_of = {}
    for eid, (u, v) in enumerate(graph.edges()):
        edge_id_of[(u, v)] = eid
        edge_id_of[(v, u)] = eid

    for _iteration in range(max_iterations):
        if len({state.fragment for state in states}) == 1:
            break
        for state in states:
            state.neighbor_fragments.clear()
            state.candidate = None
            state.chosen = None
            state.connect_neighbors.clear()
        run_phase(_ExchangeIds)
        run_phase(_Convergecast)
        run_phase(_BroadcastConnect)
        relabel = run_phase(_Relabel)
        # Commit: new fragment ids and the tree edges added by connects.
        for v, algorithm in enumerate(relabel):
            state = states[v]
            new_fragment = algorithm.new_fragment
            if new_fragment is None:
                continue  # fragment did not merge this iteration
            state.fragment = new_fragment
            chosen = state.chosen
            # Tree membership: connect edges become tree edges.
            for other in state.connect_neighbors:
                state.tree_neighbors.add(other)
                edge_ids.add(edge_id_of[(v, other)])
            if chosen is not None and chosen[1] == v:
                state.tree_neighbors.add(chosen[2])
                edge_ids.add(edge_id_of[(v, chosen[2])])
    else:
        if len({state.fragment for state in states}) != 1:
            raise RuntimeError("message-passing Boruvka did not converge")
    result_ids = sorted(edge_ids)
    if result_ids != kruskal(graph):
        raise AssertionError(
            "message-passing Boruvka diverged from Kruskal"
        )
    iterations = _iteration
    return CongestGhsResult(
        edge_ids=result_ids,
        rounds=rounds,
        messages=messages,
        iterations=iterations,
    )
