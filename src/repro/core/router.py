"""Permutation routing on the hierarchical structure (Section 3.2).

The routing problem: source–destination pairs ``(s, t)`` of real nodes,
each node source/destination of at most ``d(v) * O(log n)`` packets per
instance (heavier demands are split into phases, footnote 3 of the
paper).  The algorithm:

1. **Preparation**: every packet takes a lazy walk of length
   ``~tau_mix`` from its source and lands on a uniformly random virtual
   node; the destination is addressed by the *canonical* virtual node of
   the target's ID, whose partition label every source can compute from
   the shared hash (property P2).
2. **Recursion** (per level ``i``): a packet whose current position and
   temporary destination fall in the same level-``(i+1)`` part recurses
   directly; otherwise it is routed (recursively) to its *portal* towards
   the destination's part, hops one level-``i`` overlay boundary edge,
   and recurses in the target part.  At the bottom, parts are
   ``O(log n)``-node cliques and packets are delivered directly.

Costs follow Lemma 3.4's recursion
``T(m) = 2 T(m/beta) * emulation + hop``: stage costs are accounted in
the stage's own overlay rounds and converted through the *measured*
emulation factors; hop costs are the measured max boundary-edge
congestion.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from ..congest.detector import crash_view as build_crash_view
from ..congest.faults import FaultPlan, FaultRecord
from ..params import Params
from ..rng import derive_rng, resolve_rng
from ..walks.correlated import run_correlated_walks
from ..walks.engine import run_lazy_walks
from .hierarchy import Hierarchy
from .portals import PortalTable, build_portals

__all__ = ["RoutingError", "LevelCost", "RoutingResult", "Router"]


class RoutingError(RuntimeError):
    """Routing could not proceed (e.g. a missing portal).

    Usually means the construction constants were too aggressive for the
    instance; rebuild with a larger ``level_degree_factor`` or smaller
    ``beta``.
    """


@dataclass
class LevelCost:
    """Cost decomposition of one recursion level (Lemma 3.4's terms).

    Attributes:
        hop_rounds: total boundary-hop rounds, in level-``index`` overlay
            rounds (the ``O(log n)`` additive term).
        bottom_rounds: clique-delivery rounds (only at the bottom level),
            in bottom-overlay rounds.
        invocations: number of recursive invocations at this level
            (``2^index`` in the worst case).
        packets_crossing: packets that hopped between sibling parts here.
    """

    hop_rounds: float = 0.0
    bottom_rounds: float = 0.0
    invocations: int = 0
    packets_crossing: int = 0


@dataclass
class RoutingResult:
    """Outcome of one routing instance.

    Attributes:
        delivered: whether every packet reached its destination node.
        num_packets: packets routed.
        num_phases: phases used (1 unless the load promise was exceeded).
        prep_rounds: base-graph rounds of the preparation walks.
        cost_g0_rounds: recursion cost in ``G0`` rounds.
        cost_rounds: total base-graph rounds
            (``prep + cost_g0 * g0.round_cost``, plus ``fault_rounds``
            when routing under a fault plan).
        fault_rounds: extra base-graph rounds spent on modeled
            retransmissions under an active
            :class:`~repro.congest.faults.FaultPlan` (0.0 otherwise).
        recovery_rounds: extra base-graph rounds spent on portal
            failover and re-election under ``recovery="self-heal"``
            (0.0 under fail-fast).
        level_costs: per-level decomposition (index 0 = level 0).
        final_vnodes: final virtual-node position of every packet.
        packet_hops: per-packet overlay-edge hop counts (portal hops +
            bottom deliveries); only populated when routing with
            ``trace=True``.
    """

    delivered: bool
    num_packets: int
    num_phases: int
    prep_rounds: float
    cost_g0_rounds: float
    cost_rounds: float
    level_costs: dict[int, LevelCost] = field(default_factory=dict)
    final_vnodes: np.ndarray | None = None
    packet_hops: np.ndarray | None = None
    fault_rounds: float = 0.0
    recovery_rounds: float = 0.0

    @property
    def stretch_vs_tau_mix(self) -> float:
        """Total rounds divided by the instance's mixing time is reported
        by callers that know ``tau_mix``; kept here for convenience."""
        return self.cost_rounds


def _max_multiplicity(values: np.ndarray) -> int:
    """The largest number of times one value occurs (0 when empty)."""
    if not values.size:
        return 0
    return int(np.unique(values, return_counts=True)[1].max())


class Router:
    """Routes packet batches over a built hierarchy + portal table."""

    def __init__(
        self,
        hierarchy: Hierarchy,
        portals: PortalTable | None = None,
        params: Params | None = None,
        rng: np.random.Generator | None = None,
        context=None,
        walk_runner=None,
        faults: FaultPlan | None = None,
        recovery: str | None = None,
        crash_view=None,
    ):
        """Args:
            hierarchy: the built routing structure.
            portals: pre-built portal table (else built here).
            params: routing constants (default from ``context`` or
                :meth:`Params.default`).
            rng: randomness source (else the context's ``"router"``
                stream, else :data:`~repro.rng.DEFAULT_SEED`).
            context: optional :class:`repro.runtime.RunContext`; routing
                charges and walk-batch/scheduler events go through it.
            walk_runner: optional walk-execution override for the
                preparation walks (same contract as in
                :func:`~repro.core.embedding.build_g0`).
            faults: optional :class:`~repro.congest.faults.FaultPlan`
                (default: the context's plan).  On this vectorized path
                there is no wire to drop messages from; instead each
                delivery stage *models* the reliable layer — per-message
                geometric retransmission counts under the drop rate,
                converted to extra rounds and reported as
                ``RoutingResult.fault_rounds`` / charged as
                ``faults/retry-rounds``.  Exhausting the retry budget
                raises :class:`~repro.congest.faults.DeliveryTimeout`.
                Duplication/delay cost nothing here (acks dedup and
                absorb them); crash windows only act on the native wire.
            recovery: ``"fail-fast"`` (default; identical to the PR-4
                behaviour, draw for draw) or ``"self-heal"`` — portal
                lookups fail over to the next live redundant portal,
                re-electing from the part's boundary set when all ``k``
                are dead, with the failover cost charged under
                ``recovery/*``.  Defaults to the context's mode.
            crash_view: pre-built
                :class:`~repro.congest.detector.CrashView`; under
                self-heal one is derived from the context or the plan
                when absent.
        """
        self.hierarchy = hierarchy
        self._context = context
        self._walk_runner = walk_runner
        if context is not None:
            params = params or context.params
            if rng is None:
                rng = context.stream("router")
            if faults is None:
                faults = context.fault_plan
            if recovery is None:
                recovery = getattr(context, "recovery", None)
        if recovery is None:
            recovery = "fail-fast"
        if recovery not in ("fail-fast", "self-heal"):
            raise ValueError(
                f"recovery must be 'fail-fast' or 'self-heal', "
                f"got {recovery!r}"
            )
        if faults is not None and faults.spec.is_null:
            faults = None
        self._faults = faults
        self._warned_unmodeled = False
        self.params = params or Params.default()
        self.rng = resolve_rng(rng)
        self.recovery = recovery
        # Everything self-heal draws comes from streams separate from
        # self.rng, so fail-fast stays bit-identical draw for draw.
        view = crash_view
        if recovery == "self-heal" and view is None:
            num_real = hierarchy.g0.base_graph.num_nodes
            if context is not None:
                view = context.crash_view_for(num_real)
            elif faults is not None and faults.spec.crashes:
                view = build_crash_view(faults, num_real)
        self._crash_view = view
        self._self_heal = (
            recovery == "self-heal"
            and view is not None
            and not view.is_null
        )
        redundancy_rng = None
        recovery_rng = None
        if self._self_heal:
            if context is not None:
                redundancy_rng = context.fresh_stream("portals-redundant")
                recovery_rng = context.fresh_stream("recovery")
            else:
                redundancy_rng = derive_rng(
                    int(self.rng.integers(0, 2**62))
                )
                recovery_rng = derive_rng(
                    int(self.rng.integers(0, 2**62))
                )
        self._recovery_rng = recovery_rng
        if portals is not None:
            self.portals = portals
        else:
            self.portals = build_portals(
                hierarchy,
                self.params,
                self.rng,
                redundancy_rng=redundancy_rng,
            )
        if self._self_heal:
            host = hierarchy.g0.virtual.host
            dead_hosts = np.fromiter(
                sorted(view.ever_down), dtype=np.int64,
                count=len(view.ever_down),
            )
            self._dead_vnode = np.isin(host, dead_hosts)
        else:
            self._dead_vnode = None
        self._reelected: dict[tuple[int, int, int], int] = {}
        self._failover_events = 0
        self._reelections = 0
        self._failover_rounds_g = 0.0
        self._reelect_rounds_g = 0.0
        self._beta = hierarchy.beta
        self._level_costs: dict[int, LevelCost] = {}
        self._packet_hops: np.ndarray | None = None

    # -- store snapshots -----------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle everything except the walk-runner closure (a native
        backend re-binds its runner on a cache hit; the oracle default
        is ``None`` anyway)."""
        state = self.__dict__.copy()
        state["_walk_runner"] = None
        return state

    # -- session support -----------------------------------------------------

    def warm_state(self) -> dict:
        """Snapshot the state that survives *across* ``route()`` calls.

        ``route()`` resets its per-instance counters on entry, but the
        re-election memo and the recovery stream advance monotonically
        over a router's lifetime.  A warm session restores this snapshot
        before each request so the k-th served request sees exactly the
        state a cold run's first (and only) request would.
        """
        state: dict = {
            "reelected": dict(self._reelected),
            "warned_unmodeled": self._warned_unmodeled,
            "recovery_rng": None,
        }
        if self._recovery_rng is not None:
            state["recovery_rng"] = copy.deepcopy(
                self._recovery_rng.bit_generator.state
            )
        return state

    def restore_warm_state(self, state: dict) -> None:
        """Rewind cross-call state to a :meth:`warm_state` snapshot."""
        self._reelected = dict(state["reelected"])
        self._warned_unmodeled = bool(state["warned_unmodeled"])
        if (
            self._recovery_rng is not None
            and state["recovery_rng"] is not None
        ):
            self._recovery_rng.bit_generator.state = copy.deepcopy(
                state["recovery_rng"]
            )

    # -- public API ----------------------------------------------------------

    def route(
        self,
        sources: np.ndarray,
        destinations: np.ndarray,
        trace: bool = False,
    ) -> RoutingResult:
        """Deliver one packet per (source, destination) pair.

        Splits into phases automatically if the per-node load promise is
        exceeded (footnote 3 of the paper).

        Args:
            sources: real-node source per packet.
            destinations: real-node destination per packet.
            trace: also record per-packet overlay hop counts (the
                stretch measurement of experiment E13).

        Returns:
            The :class:`RoutingResult`; ``delivered`` is verified, not
            assumed.
        """
        sources = np.asarray(sources, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
        if sources.shape != destinations.shape:
            raise ValueError("sources and destinations must align")
        graph = self.hierarchy.g0.base_graph
        if sources.size and (
            sources.max() >= graph.num_nodes or sources.min() < 0
            or destinations.max() >= graph.num_nodes or destinations.min() < 0
        ):
            raise ValueError("source/destination node id out of range")
        num_phases = self._required_phases(sources, destinations)
        phase_of = self.rng.integers(0, num_phases, size=sources.shape[0])
        self._level_costs = {}
        self._failover_events = 0
        self._reelections = 0
        self._failover_rounds_g = 0.0
        self._reelect_rounds_g = 0.0
        self._packet_hops = (
            np.zeros(sources.shape[0], dtype=np.int64) if trace else None
        )
        total_prep = 0.0
        total_g0 = 0.0
        total_fault = 0.0
        final_vnodes = np.full(sources.shape[0], -1, dtype=np.int64)
        delivered = True
        for phase in range(num_phases):
            mask = phase_of == phase
            if not mask.any():
                continue
            prep, cost_g0, fault_g, fault_g0, vnodes, ok = self._route_phase(
                sources[mask], destinations[mask],
                ids=np.flatnonzero(mask) if trace else None,
            )
            total_prep += prep
            total_g0 += cost_g0
            total_fault += fault_g + fault_g0 * self.hierarchy.g0.round_cost
            final_vnodes[mask] = vnodes
            delivered &= ok
        cost_rounds = total_prep + total_g0 * self.hierarchy.g0.round_cost
        if self._faults is not None:
            cost_rounds += total_fault
            if self._context is not None:
                self._context.charge(
                    "faults/retry-rounds",
                    total_fault,
                    stage="route/model",
                    packets=int(sources.shape[0]),
                )
        recovery_rounds = self._failover_rounds_g + self._reelect_rounds_g
        if self._self_heal:
            cost_rounds += recovery_rounds
            if self._context is not None:
                if self._failover_rounds_g or self._failover_events:
                    self._context.charge(
                        "recovery/failover",
                        self._failover_rounds_g,
                        stage="route",
                        events=self._failover_events,
                    )
                if self._reelect_rounds_g or self._reelections:
                    self._context.charge(
                        "recovery/re-election",
                        self._reelect_rounds_g,
                        stage="route",
                        elections=self._reelections,
                    )
                self._context.emit(
                    "recovery",
                    "route/self-heal",
                    failovers=self._failover_events,
                    reelections=self._reelections,
                    recovery_rounds=recovery_rounds,
                )
        if self._context is not None:
            self._context.charge(
                "route/instance",
                cost_rounds,
                packets=int(sources.shape[0]),
                phases=num_phases,
            )
            self._context.emit(
                "scheduler",
                "route/levels",
                levels={
                    str(level): {
                        "invocations": cost.invocations,
                        "hop_rounds": cost.hop_rounds,
                        "packets_crossing": cost.packets_crossing,
                    }
                    for level, cost in sorted(self._level_costs.items())
                },
                delivered=delivered,
            )
        return RoutingResult(
            delivered=delivered,
            num_packets=int(sources.shape[0]),
            num_phases=num_phases,
            prep_rounds=total_prep,
            cost_g0_rounds=total_g0,
            cost_rounds=cost_rounds,
            level_costs=self._level_costs,
            final_vnodes=final_vnodes,
            packet_hops=self._packet_hops,
            fault_rounds=total_fault if self._faults is not None else 0.0,
            recovery_rounds=recovery_rounds if self._self_heal else 0.0,
        )

    # -- internals -----------------------------------------------------------

    def _required_phases(
        self, sources: np.ndarray, destinations: np.ndarray
    ) -> int:
        """Phases needed so the per-node load promise holds per phase."""
        graph = self.hierarchy.g0.base_graph
        load = np.bincount(sources, minlength=graph.num_nodes) + np.bincount(
            destinations, minlength=graph.num_nodes
        )
        allowed = self.params.packets_per_node(graph.num_nodes, graph.degrees)
        ratio = load / allowed
        return max(1, int(np.ceil(ratio.max()))) if load.size else 1

    def _model_fault_cost(
        self, num_messages: int, base_rounds: float, stage: str
    ) -> float:
        """Modeled retransmission rounds for one delivery stage (0 when
        no plan is active)."""
        plan = self._faults
        if plan is None:
            return 0.0
        if (
            not self._warned_unmodeled
            and (
                (plan.spec.crashes and not self._self_heal)
                or plan.spec.duplicate
                or plan.spec.delay
            )
        ):
            self._warned_unmodeled = True
            plan.record(
                FaultRecord(
                    "model-skip",
                    detail={
                        "stage": "route/model",
                        "reason": (
                            "crash/duplicate/delay faults act only on the "
                            "native wire; the oracle models drop retries"
                        ),
                    },
                )
            )
        return plan.retry_cost(num_messages, base_rounds, stage)

    def _route_phase(
        self,
        sources: np.ndarray,
        destinations: np.ndarray,
        ids: np.ndarray | None = None,
    ) -> tuple[float, float, float, float, np.ndarray, bool]:
        """Route one phase.

        Returns ``(prep G-rounds, G0 rounds, fault G-rounds, fault G0
        rounds, vnodes, ok)``; the two fault terms stay 0.0 without an
        active plan.
        """
        hierarchy = self.hierarchy
        virtual = hierarchy.g0.virtual
        graph = hierarchy.g0.base_graph
        # Preparation: spread packets uniformly over virtual nodes.
        prep_runner = self._walk_runner or (
            run_correlated_walks if self.params.use_correlated_walks
            else run_lazy_walks
        )
        prep_run = prep_runner(
            graph, sources, hierarchy.g0.walk_length, self.rng
        )
        current = virtual.random_vnode_of(prep_run.positions, self.rng)
        prep_rounds = float(prep_run.schedule_rounds())
        if self._context is not None:
            self._context.emit(
                "walk_batch",
                "route/prep",
                walks=int(sources.shape[0]),
                steps=hierarchy.g0.walk_length,
                schedule_rounds=prep_rounds,
            )
        fault_g = self._model_fault_cost(
            int(sources.shape[0]), prep_rounds, "route/prep"
        )
        target = virtual.canonical(destinations)
        cost_g0, fault_g0, final = self._route_within(0, current, target, ids)
        ok = bool(np.all(virtual.host[final] == destinations))
        return prep_rounds, cost_g0, fault_g, fault_g0, final, ok

    def _route_within(
        self,
        level: int,
        current: np.ndarray,
        target: np.ndarray,
        ids: np.ndarray | None = None,
    ) -> tuple[float, float, np.ndarray]:
        """Route packets whose position and target share a level part.

        Returns the cost in level-``level`` overlay rounds, the modeled
        fault overhead in the same unit (0.0 without an active plan),
        and the final positions (== targets on success).
        """
        stats = self._level_costs.setdefault(level, LevelCost())
        stats.invocations += 1
        if current.size == 0:
            return 0.0, 0.0, target.copy()
        if level == self.hierarchy.depth:
            rounds = self._bottom_deliver(current, target)
            stats.bottom_rounds += rounds
            moving_count = int((current != target).sum())
            fault = self._model_fault_cost(
                moving_count, rounds, f"route/bottom-L{level}"
            )
            if ids is not None and self._packet_hops is not None:
                moving = current != target
                self._packet_hops[ids[moving]] += 1
            return rounds, fault, target.copy()
        hierarchy = self.hierarchy
        next_level = level + 1
        parts_next = hierarchy.parts_at(next_level)
        part_current = parts_next[current]
        part_target = parts_next[target]
        crossing = part_current != part_target
        stats.packets_crossing += int(crossing.sum())
        stage_a_target = target.copy()
        if crossing.any():
            sibling = part_target[crossing] % self._beta
            portals = self.portals.portals_for(
                next_level, current[crossing], sibling
            )
            if self._self_heal:
                portals = self._failover_portals(
                    next_level, current[crossing], sibling, portals
                )
            if np.any(portals < 0):
                raise RoutingError(
                    f"missing portal at level {next_level}; increase "
                    "level_degree_factor or decrease beta"
                )
            stage_a_target[crossing] = portals
        emulation = hierarchy.levels[next_level - 1].emulation_cost
        cost_a, fault_a, positions = self._route_within(
            next_level, current, stage_a_target, ids
        )
        hop_rounds = 0.0
        hop_fault = 0.0
        cost_b = 0.0
        fault_b = 0.0
        if crossing.any():
            hopped, hop_rounds = self._hop(
                level, positions[crossing], part_target[crossing]
            )
            stats.hop_rounds += hop_rounds
            hop_fault = self._model_fault_cost(
                int(crossing.sum()), hop_rounds, f"route/hop-L{level}"
            )
            if ids is not None and self._packet_hops is not None:
                self._packet_hops[ids[crossing]] += 1
            cost_b, fault_b, landed = self._route_within(
                next_level, hopped, target[crossing],
                ids[crossing] if ids is not None else None,
            )
            positions = positions.copy()
            positions[crossing] = landed
        return (
            (cost_a + cost_b) * emulation + hop_rounds,
            (fault_a + fault_b) * emulation + hop_fault,
            positions,
        )

    def _failover_portals(
        self,
        level: int,
        vnodes: np.ndarray,
        siblings: np.ndarray,
        primaries: np.ndarray,
    ) -> np.ndarray:
        """Replace dead primary portals with live candidates.

        Failover order: the node's remaining ``k - 1`` redundant
        portals, then a re-election over the (part, sibling) boundary
        set (cached per instance so every node converges on the same
        replacement).  Costs are modeled analytically — one extra
        addressing round per stage that failed over, and a
        ``Theta(beta)``-walk election when the whole redundant set is
        dead — mirroring what the wire protocol would pay, so both
        backends stay seed-for-seed comparable.
        """
        dead = self._dead_vnode
        need = (primaries >= 0) & dead[primaries]
        if not need.any():
            return primaries
        out = primaries.copy()
        candidates = self.portals.redundant_portals_for(
            level, vnodes, siblings
        )
        parts_level = self.hierarchy.parts_at(level)
        hierarchy = self.hierarchy
        failed_over = 0
        for i in np.flatnonzero(need):
            pick = -1
            for candidate in candidates[i]:
                candidate = int(candidate)
                if candidate >= 0 and not dead[candidate]:
                    pick = candidate
                    break
            if pick < 0:
                part = int(parts_level[vnodes[i]])
                sibling = int(siblings[i])
                key = (level, part, sibling)
                if key not in self._reelected:
                    self._reelected[key] = self.portals.reelect(
                        level,
                        part,
                        sibling,
                        is_dead=lambda c: bool(dead[c]),
                        rng=self._recovery_rng,
                    )
                    self._reelections += 1
                    # Theta(beta) walks of level_walk_length steps on
                    # the part overlay announce the new portal.
                    num_vnodes = hierarchy.g0.virtual.count
                    walk_length = self.params.level_walk_length(
                        max(2, num_vnodes)
                    )
                    self._reelect_rounds_g += (
                        float(self._beta * walk_length)
                        * hierarchy.emulation_to_g(level)
                    )
                pick = self._reelected[key]
            out[i] = pick
            failed_over += 1
        if failed_over:
            self._failover_events += failed_over
            # Re-addressing the stage costs one extra overlay round.
            self._failover_rounds_g += hierarchy.emulation_to_g(level)
        return out

    def _hop(
        self, level: int, portals: np.ndarray, target_parts: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Hop packets over level-``level`` overlay boundary edges.

        Each packet sits at a portal that has at least one overlay edge
        into its target part; it crosses a uniformly random such edge
        (one ``self.rng.integers`` call draws every packet's pick, in
        packet order).  Cost is the measured max number of packets on a
        single edge.  A portal with no such edge raises
        :class:`RoutingError` for the first stranded packet before
        anything is drawn.
        """
        overlay = self.hierarchy.overlay_at(level)
        parts_next = self.hierarchy.parts_at(level + 1)
        # Every packet's overlay row, laid end to end in packet order.
        starts = overlay.indptr[portals]
        spans = overlay.indptr[portals + 1] - starts
        owner = np.repeat(np.arange(portals.size), spans)
        row_start = np.cumsum(spans) - spans
        arcs = np.arange(owner.size) + np.repeat(starts - row_start, spans)
        heads = overlay.indices[arcs]
        keep = parts_next[heads] == target_parts[owner]
        if self._self_heal:
            # Prefer boundary edges whose far endpoint is live; a hop
            # into a crashed node would strand the packet.
            live = keep & ~self._dead_vnode[heads]
            has_live = np.bincount(owner[live], minlength=portals.size) > 0
            keep = np.where(has_live[owner], live, keep)
        valid_arcs = arcs[keep]
        counts = np.bincount(owner[keep], minlength=portals.size)
        if not counts.all():
            i = int(np.argmin(counts))
            raise RoutingError(
                f"portal {int(portals[i])} lost its boundary edge to part "
                f"{int(target_parts[i])} at level {level + 1}"
            )
        picks = self.rng.integers(0, counts)
        chosen_arcs = valid_arcs[np.cumsum(counts) - counts + picks]
        landed = overlay.indices[chosen_arcs]
        # Per *directed* arc: opposite-direction crossings run in parallel
        # (one message per edge per direction per round).  Counted over
        # the picked arcs only, so the cost is request-sized.
        return landed, float(_max_multiplicity(chosen_arcs))

    def _bottom_deliver(
        self, current: np.ndarray, target: np.ndarray
    ) -> float:
        """Deliver within bottom-level cliques.

        One clique round carries one message per ordered node pair, so
        the cost is the max multiplicity over ordered (position, target)
        pairs among packets still in transit.
        """
        moving = current != target
        num = self.hierarchy.g0.virtual.count
        keys = current[moving] * num + target[moving]
        return float(_max_multiplicity(keys))
