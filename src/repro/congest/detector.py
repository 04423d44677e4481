"""Failure detection for the CONGEST runtime.

This module is the *only* sanctioned reader of crash state.  Recovery
code (router failover, reliable-delivery parking, hierarchy repair)
must consume crashes through a :class:`CrashView` — never by calling
``FaultPlan.crashed`` directly (reprolint rule R008 enforces this
outside ``repro/congest/``).

Two detectors are provided:

* :func:`crash_view` — the analytic detector.  It derives the view
  from the fault plan's crash entropy, which is sampled lazily per
  ``(window, n)`` and never consumes wire-fault draws, so the oracle
  and native backends observe the *same* view seed-for-seed.  The
  detection cost (heartbeat misses plus dissemination) is modeled
  and reported on the view for the caller to charge under
  ``recovery/detection``.
* :func:`run_heartbeat_detector` — a real CONGEST heartbeat protocol
  that runs on the faulty :class:`~repro.congest.network.Network` and
  suspects a neighbour after :data:`MISS_THRESHOLD` silent rounds.
  Tests use it to validate that the analytic view agrees with what
  the wire can actually observe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..graphs.graph import Graph
from .faults import FaultPlan
from .network import Network, NodeAlgorithm, RunStats

__all__ = [
    "MISS_THRESHOLD",
    "MAX_WAIT_ROUNDS",
    "CrashView",
    "crash_view",
    "detection_rounds",
    "HeartbeatNode",
    "DetectionReport",
    "run_heartbeat_detector",
]

# A neighbour is suspected after this many consecutive silent rounds.
MISS_THRESHOLD = 3

# Crash windows ending at or before this round are "waitable": the
# recovery layer may park traffic until the window closes.  Windows
# that outlive it are treated as permanent failures and repaired
# (failover / re-election / re-homing) instead of waited out.
MAX_WAIT_ROUNDS = 2048


class CrashView:
    """Round-indexed view of which nodes are down, and until when.

    Built once per ``(plan, num_nodes)`` by a detector; recovery code
    queries it instead of touching :class:`FaultPlan` internals.
    """

    def __init__(
        self,
        num_nodes: int,
        windows: Tuple[Tuple[int, int, FrozenSet[int]], ...],
        detection_rounds: float,
    ) -> None:
        self.num_nodes = num_nodes
        #: ``(start, end, nodes)`` per crash window, construction order.
        self.windows = windows
        #: Modeled cost (rounds) of detecting every window.
        self.detection_rounds = detection_rounds
        self._ever_down = frozenset().union(
            *(nodes for _, _, nodes in windows)
        ) if windows else frozenset()

    # -- basic queries ------------------------------------------------

    @property
    def is_null(self) -> bool:
        return not self.windows

    @property
    def ever_down(self) -> FrozenSet[int]:
        """Nodes that are down during at least one window."""
        return self._ever_down

    def down_until(self, node: int, round_number: int) -> int:
        """Last round of the window covering ``node`` at
        ``round_number`` (-1 when the node is up)."""
        best = -1
        for start, end, nodes in self.windows:
            if start <= round_number <= end and node in nodes:
                best = max(best, end)
        return best

    # -- recovery classification --------------------------------------

    def permanently_down(self) -> FrozenSet[int]:
        """Nodes in a window too long to wait out."""
        dead: FrozenSet[int] = frozenset()
        for _, end, nodes in self.windows:
            if end > MAX_WAIT_ROUNDS:
                dead = dead | nodes
        return dead

    def waitable_end(self) -> int:
        """Largest end round among waitable windows (0 if none)."""
        ends = [end for _, end, _ in self.windows if end <= MAX_WAIT_ROUNDS]
        return max(ends) if ends else 0


def detection_rounds(num_windows: int, num_nodes: int) -> float:
    """Modeled heartbeat-detection cost for ``num_windows`` windows.

    Each window costs :data:`MISS_THRESHOLD` missed heartbeats before
    suspicion plus an O(log n) dissemination sweep so every node
    shares the suspicion.
    """
    if num_windows <= 0:
        return 0.0
    spread = math.ceil(math.log2(max(2, num_nodes)))
    return float(num_windows * (MISS_THRESHOLD + spread))


def crash_view(plan: Optional[FaultPlan], num_nodes: int) -> CrashView:
    """Analytic failure detector: publish the plan's crash windows.

    Deterministic for a given ``(plan seed, num_nodes)`` because crash
    membership is sampled lazily from entropy split off at plan
    construction — querying it never advances the wire-fault stream,
    which is what keeps the oracle and native backends seed-for-seed
    comparable.
    """
    if plan is None or not plan.spec.crashes:
        return CrashView(num_nodes, (), 0.0)
    windows: List[Tuple[int, int, FrozenSet[int]]] = []
    for index, window in enumerate(plan.spec.crashes):
        # Force lazy sampling of this window's membership, then read
        # the per-window set (this module is the sanctioned accessor).
        plan.crashed(window.start, num_nodes)
        nodes = plan._crash_sets[(index, num_nodes)]
        windows.append((window.start, window.end, frozenset(nodes)))
    cost = detection_rounds(len(windows), num_nodes)
    return CrashView(num_nodes, tuple(windows), cost)


# -- wire heartbeat protocol ------------------------------------------


class HeartbeatNode(NodeAlgorithm):
    """Broadcast a 1-word heartbeat each round; suspect silent
    neighbours after :data:`MISS_THRESHOLD` missed rounds."""

    # Heartbeating is a daemon protocol: it stops at `duration` on its
    # own, and a permanently crashed node must not keep the network
    # alive, so the node is "finished" from the start, is called every
    # round all the same, and the run ends when no beats remain in
    # flight.
    daemon = True

    def __init__(self, context, duration: int) -> None:
        super().__init__(context)
        self.duration = duration
        self.last_heard: Dict[int, int] = {
            v: 0 for v in context.neighbors
        }
        self.suspected: Dict[int, int] = {}
        self.finished = True

    def _beat(self, round_number: int):
        if round_number >= self.duration:
            return {}
        return {v: ("hb",) for v in self.context.neighbors}

    def initialize(self):
        return self._beat(0)

    def receive(self, round_number: int, inbox):
        for sender in inbox:
            self.last_heard[sender] = round_number
        for v in self.context.neighbors:
            silent = round_number - self.last_heard[v]
            if silent >= MISS_THRESHOLD and v not in self.suspected:
                self.suspected[v] = round_number
        return self._beat(round_number)


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of a wire heartbeat run."""

    #: node -> earliest round at which any neighbour suspected it.
    suspected: Dict[int, int]
    stats: RunStats
    duration: int
    extra: Dict[str, float] = field(default_factory=dict)


def run_heartbeat_detector(
    graph: Graph,
    *,
    duration: int,
    faults: Optional[FaultPlan] = None,
) -> DetectionReport:
    """Run the heartbeat protocol on the (possibly faulty) wire."""
    network = Network(graph)
    algorithms = [
        HeartbeatNode(network.context(v), duration)
        for v in range(graph.num_nodes)
    ]
    stats = network.run(algorithms, max_rounds=duration + 2, faults=faults)
    suspected: Dict[int, int] = {}
    for algo in algorithms:
        for target, round_number in algo.suspected.items():
            prev = suspected.get(target)
            if prev is None or round_number < prev:
                suspected[target] = round_number
    return DetectionReport(
        suspected=suspected,
        stats=stats,
        duration=duration,
    )
