"""One-hop demand forwarding with per-edge queues, as message passing.

The elementary scheduling unit everything else reduces to: a set of
``(origin, neighbour)`` demands is delivered with each directed edge
carrying one message per round; contended demands queue.  The completion
time equals the max per-arc demand count — the quantity the vectorized
engines charge — and this module executes it for real, so cross-checks
can compare the two (see ``tests/congest/test_walk_crosscheck.py`` and
``tests/congest/test_hop_crosscheck.py``).

:func:`forward_demands` runs a clean-wire array executor: one FIFO
queue per busy directed node pair, drained one message per pair per
round.  It is the one-step case of ``_forward_steps_array``, which
:func:`repro.congest.native.replay_walk_run` uses to run a group of
walk steps (each with its own barrier) in one array pass.  The
per-node simulation — :class:`TokenForwarder` nodes on
:meth:`repro.congest.network.Network.run` — is kept as the oracle
(``_forward_demands_scalar``): the equivalence tests drive it, and
``replay_walk_run`` re-runs it on a sample of clean-wire walk steps.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Mapping

import numpy as np

from ..graphs.graph import Graph
from .network import CongestViolation, Network, NodeAlgorithm

__all__ = ["TokenForwarder", "forward_demands"]

#: Per graph, the sorted ``tail * n + head`` key of every arc (parallel
#: arcs repeat their pair's key), closed by a sentinel no key reaches.
#: Built once and reused by every call on that graph (graphs are
#: immutable; the entry dies with the graph).
_PAIR_INDEX: "weakref.WeakKeyDictionary[Graph, np.ndarray]" = (
    weakref.WeakKeyDictionary()
)


class _Idle(NodeAlgorithm):
    """A node no demand touches: finished and stateless, so one
    instance fills every such slot of a cross-run."""

    def __init__(self):
        super().__init__(None)
        self.finished = True

    def receive(self, round_number, inbox) -> Mapping[int, tuple]:
        raise RuntimeError("a node no demand touches received mail")


_IDLE = _Idle()


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


def _demand_arrays(origins, targets) -> tuple[np.ndarray, np.ndarray]:
    """Both demand sides as int64 arrays of one length.

    Accepts any iterable (an iterator is read exactly once).

    Raises:
        ValueError: if the two sides differ in length.
    """
    sides = [
        np.asarray(
            side if isinstance(side, np.ndarray) else list(side),
            dtype=np.int64,
        ).reshape(-1)
        for side in (origins, targets)
    ]
    if sides[0].shape != sides[1].shape:
        raise ValueError(
            f"origins and targets must have the same length, got "
            f"{sides[0].shape[0]} origins and {sides[1].shape[0]} targets"
        )
    return sides[0], sides[1]


def _pair_index(graph: Graph) -> np.ndarray:
    """The graph's sorted directed-pair keys (see :data:`_PAIR_INDEX`)."""
    index = _PAIR_INDEX.get(graph)
    if index is None:
        n = graph.num_nodes
        tails = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
        index = np.append(
            np.sort(tails * n + graph.indices), np.iinfo(np.int64).max
        )
        _PAIR_INDEX[graph] = index
    return index


def _non_edge(
    graph: Graph, origins: np.ndarray, targets: np.ndarray
) -> CongestViolation:
    """The violation naming the first demand that is not an edge."""
    n = graph.num_nodes
    for origin, target in zip(origins.tolist(), targets.tolist()):
        in_range = 0 <= origin < n and 0 <= target < n
        if not in_range or not graph.has_edge(origin, target):
            break
    return CongestViolation(
        f"round 1: node {origin} sent to non-neighbor {target}; demand "
        f"({origin}, {target}) is not an edge of the graph, and CONGEST "
        "messages travel only along edges"
    )


def _check_range(
    graph: Graph, origins: np.ndarray, targets: np.ndarray
) -> None:
    """Raise :func:`_non_edge` if a demand names a node outside
    ``[0, n)``, which could alias another node or pair."""
    if origins.shape[0] and (
        min(origins.min(), targets.min()) < 0
        or max(origins.max(), targets.max()) >= graph.num_nodes
    ):
        raise _non_edge(graph, origins, targets)


def _forward_steps_array(
    graph: Graph, bounds: np.ndarray, origins: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The clean-wire array executor, over a run of steps.

    Step ``s`` holds the demands ``bounds[s]:bounds[s + 1]`` of
    ``origins`` / ``targets``; its demands queue in one FIFO queue per
    directed node pair (parallel edges share a queue, as in
    :class:`TokenForwarder`), each busy pair sends its head token per
    round, and the step ends when its queues are empty.  Steps never
    share a round (a barrier separates them), so one sort of the key
    ``step * n**2 + origin * n + target`` yields every step's queues at
    once, and the edge check runs on the unique pairs only.

    Returns:
        Per step, ``(rounds, messages)`` as two int64 arrays: ``rounds``
        is the step's longest pair queue (what the round-by-round drain
        takes), ``messages`` its number of demands.

    Raises:
        CongestViolation: naming the first demand, in step order, that
            is not an edge of the graph.
    """
    n = graph.num_nodes
    messages = np.diff(bounds)
    rounds = np.zeros(messages.shape[0], dtype=np.int64)
    if origins.shape[0] == 0:
        return rounds, messages
    # An out-of-range id could alias another pair's key: check it first.
    _check_range(graph, origins, targets)
    keys = origins * n
    keys += targets
    keys += np.repeat(
        np.arange(messages.shape[0], dtype=np.int64) * (n * n), messages
    )
    keys, queues = np.unique(keys, return_counts=True)
    steps, pairs = np.divmod(keys, n * n)
    index = _pair_index(graph)
    if not (index[np.searchsorted(index, pairs)] == pairs).all():
        raise _non_edge(graph, origins, targets)
    firsts = np.flatnonzero(np.diff(steps, prepend=-1))
    rounds[steps[firsts]] = np.maximum.reduceat(queues, firsts)
    return rounds, messages


def _forward_demands_scalar(graph: Graph, origins, targets) -> tuple[int, int]:
    """The oracle: :class:`TokenForwarder` nodes on
    :meth:`~repro.congest.network.Network.run`, clean wire only.

    Only the demands' origins and targets get a forwarder; every other
    slot holds the shared idle node, so set-up costs O(demands), not
    O(n).  Returns ``(rounds, messages)`` of the simulated execution;
    raises :class:`CongestViolation` on a demand that is not an edge.
    """
    origins, targets = _demand_arrays(origins, targets)
    _check_range(graph, origins, targets)
    network = Network(graph)
    origin_ids, target_ids = origins.tolist(), targets.tolist()
    per_node: dict[int, list[int]] = {
        v: [] for v in sorted({*origin_ids, *target_ids})
    }
    for origin, target in zip(origin_ids, target_ids):
        per_node[origin].append(target)
    forwarders = [
        TokenForwarder(network.context(v), queue)
        for v, queue in per_node.items()
    ]
    algorithms: list[NodeAlgorithm] = [_IDLE] * graph.num_nodes
    for forwarder in forwarders:
        algorithms[forwarder.context.node_id] = forwarder
    stats = network.run(algorithms, max_rounds=10 * origins.shape[0] + 100)
    delivered = sum(forwarder.received for forwarder in forwarders)
    if delivered != origins.shape[0]:
        raise RuntimeError(
            f"forwarding lost messages: {delivered} != {origins.shape[0]}"
        )
    return stats.rounds, stats.messages


def forward_demands(graph: Graph, origins, targets) -> tuple[int, int]:
    """Deliver one-hop demands ``origin -> target`` under edge capacity 1.

    Runs the clean-wire array executor on one step: per-pair FIFO
    queues, one message per busy directed pair per round, with every
    demand checked against the graph's edges.  The per-node simulator
    it replaces stays as the oracle ``_forward_demands_scalar``,
    checked against this executor by
    ``tests/congest/test_hop_crosscheck.py`` and on sampled clean-wire
    steps of :func:`repro.congest.native.replay_walk_run`.  A faulty
    wire needs the ARQ path,
    :func:`repro.congest.reliable.reliable_forward_demands`.

    Args:
        graph: the network; every (origin, target) must be an edge.
        origins: demand origins (any iterable).
        targets: demand targets (any iterable, same length).

    Returns:
        ``(rounds, messages)`` of the execution; ``rounds`` equals the
        max number of demands sharing one directed node pair.

    Raises:
        ValueError: if ``origins`` and ``targets`` differ in length.
        CongestViolation: if a demand is not an edge.
    """
    origins, targets = _demand_arrays(origins, targets)
    rounds, messages = _forward_steps_array(
        graph, np.array([0, origins.shape[0]]), origins, targets
    )
    return int(rounds[0]), int(messages[0])
