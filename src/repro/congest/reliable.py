"""Reliable one-hop delivery over a faulty CONGEST wire.

:mod:`repro.congest.forwarding` assumes a lossless wire; this module is
its fault-tolerant twin.  Each directed link runs stop-and-wait ARQ:
tokens carry per-link sequence numbers, receivers acknowledge (and
re-acknowledge duplicates), senders retransmit on timeout with
exponential backoff.  The outcome is all-or-nothing by construction —
either every demand is delivered and counted, or a diagnosable
:class:`~repro.congest.faults.DeliveryTimeout` names what was lost.
Silent partial delivery is impossible.

Cost accounting: a fault-free stop-and-wait run of demand multiset ``D``
takes exactly ``2 * max_mult(D)`` rounds (token + ack per token, links
in parallel), so everything beyond that is fault overhead and is charged
to the run ledger as ``faults/retry-rounds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from ..graphs.graph import Graph
from .detector import CrashView, crash_view
from .faults import (
    BACKOFF_CAP,
    DEFAULT_MAX_ATTEMPTS,
    DeliveryTimeout,
    FaultPlan,
)
from .network import CongestViolation, Network, NodeAlgorithm, RunStats

__all__ = ["DeliveryReport", "ReliableForwarder", "reliable_forward_demands"]


class ReliableForwarder(NodeAlgorithm):
    """Stop-and-wait ARQ sender/receiver for one-hop demands.

    Per target neighbour, at most one token is un-acknowledged at a
    time.  Payloads are ``("rel", token_seq, ack_seq)`` — 3 words, under
    the :data:`~repro.congest.network.MESSAGE_WORD_LIMIT` — so a token
    and an acknowledgement for the opposite direction piggyback on the
    same edge slot and acks never contend with data.

    Receivers deduplicate on ``(sender, seq)`` and re-ack duplicates
    (the first ack may have been the casualty).  A token that exhausts
    ``max_attempts`` transmissions is abandoned and listed in
    :attr:`failed`; the driver turns a non-empty failed list into a
    :class:`DeliveryTimeout`.
    """

    def __init__(
        self,
        context,
        targets: Iterable[int],
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        crash_view: Optional[CrashView] = None,
    ):
        super().__init__(context)
        self.max_attempts = max_attempts
        # Self-heal mode: a failure-detector view lets the sender park
        # tokens to a temporarily-down target instead of burning
        # attempts into a black hole (see _emit).
        self.crash_view = crash_view
        self.parked = 0
        self.remaining: dict[int, int] = {}
        for target in targets:
            target = int(target)
            self.remaining[target] = self.remaining.get(target, 0) + 1
        self.next_seq: dict[int, int] = {}
        # target -> [seq, attempts, earliest retransmit round]
        self.in_flight: dict[int, list[int]] = {}
        self.acks_owed: dict[int, list[int]] = {}
        self.seen: set[tuple[int, int]] = set()
        self.received = 0
        self.sent = 0
        self.retries = 0
        self.failed: list[tuple[int, int]] = []
        self._update_finished()

    def _update_finished(self) -> None:
        self.finished = not (
            self.remaining or self.in_flight or self.acks_owed
        )

    def _emit(self, round_number: int) -> Mapping[int, tuple]:
        # Launch the next queued token on every idle link.
        for target in list(self.remaining):
            if target in self.in_flight:
                continue
            seq = self.next_seq.get(target, 0)
            self.next_seq[target] = seq + 1
            count = self.remaining[target]
            if count == 1:
                del self.remaining[target]
            else:
                self.remaining[target] = count - 1
            self.in_flight[target] = [seq, 0, 0]
        # (Re)transmit whatever is due, with exponential backoff.
        tokens: dict[int, int] = {}
        for target, flight in list(self.in_flight.items()):
            seq, attempts, resend_round = flight
            if round_number < resend_round:
                continue
            if self.crash_view is not None:
                # A copy emitted now is delivered next round; if the
                # detector says the target is down then, hold the token
                # (no transmission, no attempt burned) until the first
                # round whose delivery lands after the window.
                until = self.crash_view.down_until(
                    target, round_number + 1
                )
                if until >= 0:
                    flight[2] = until
                    self.parked += 1
                    continue
            if attempts >= self.max_attempts:
                self.failed.append((target, seq))
                del self.in_flight[target]
                continue
            flight[1] = attempts + 1
            flight[2] = round_number + 1 + min(
                2 ** flight[1], BACKOFF_CAP
            )
            tokens[target] = seq
            self.sent += 1
            if attempts:
                self.retries += 1
        outbox: dict[int, tuple] = {}
        for neighbor in set(tokens) | set(self.acks_owed):
            acks = self.acks_owed.get(neighbor)
            ack_seq = -1
            if acks:
                ack_seq = acks.pop(0)
                if not acks:
                    del self.acks_owed[neighbor]
            outbox[neighbor] = ("rel", tokens.get(neighbor, -1), ack_seq)
        self._update_finished()
        return outbox

    def initialize(self) -> Mapping[int, tuple]:
        return self._emit(0)

    def receive(self, round_number, inbox) -> Mapping[int, tuple]:
        for sender, payload in inbox.items():
            _, token_seq, ack_seq = payload
            if token_seq >= 0:
                key = (sender, token_seq)
                if key not in self.seen:
                    self.seen.add(key)
                    self.received += 1
                # Ack unconditionally: a duplicate token means our
                # previous ack may have been lost.
                self.acks_owed.setdefault(sender, []).append(token_seq)
            if ack_seq >= 0:
                flight = self.in_flight.get(sender)
                if flight is not None and flight[0] == ack_seq:
                    del self.in_flight[sender]
        return self._emit(round_number)

    def undelivered(self) -> list[tuple[int, int]]:
        """``(target, seq)`` tokens this node never got acknowledged."""
        pending = [
            (target, flight[0])
            for target, flight in sorted(self.in_flight.items())
        ]
        queued = [
            (target, -1)
            for target, count in sorted(self.remaining.items())
            for _ in range(count)
        ]
        return list(self.failed) + pending + queued


@dataclass(frozen=True)
class DeliveryReport:
    """Outcome of a completed (fully delivered) reliable forwarding run.

    Attributes:
        delivered: unique tokens accepted by receivers (== expected).
        expected: demand count.
        rounds: real rounds the run took.
        messages: wire transmissions, including retries and fault
            copies.
        ideal_rounds: what a fault-free stop-and-wait run of the same
            demands costs (``2 * max link multiplicity``).
        retry_rounds: ``max(0, rounds - ideal_rounds)`` — the fault
            overhead charged to the ledger.
        retransmissions: token re-sends across all senders.
        stats: the underlying :class:`RunStats` (fault counters
            included).
    """

    delivered: int
    expected: int
    rounds: int
    messages: int
    ideal_rounds: int
    retry_rounds: int
    retransmissions: int
    stats: RunStats
    #: Self-heal accounting (all empty/zero under fail-fast): demands
    #: re-addressed to an escrow neighbour because the original target
    #: is permanently down, as ``(origin, target, escrow)``; demands
    #: abandoned because the origin (or every escrow option) is
    #: permanently down, as ``(origin, target)``; tokens parked while a
    #: crash window passed; and the round surplus charged to
    #: ``recovery/wait`` instead of ``faults/retry-rounds``.
    rehomed: tuple = ()
    orphaned: tuple = ()
    parked: int = 0
    recovery_rounds: int = 0


def reliable_forward_demands(
    graph: Graph,
    origins,
    targets,
    *,
    faults: Optional[FaultPlan] = None,
    context=None,
    recovery: str = "fail-fast",
) -> DeliveryReport:
    """Deliver one-hop demands reliably, or raise :class:`DeliveryTimeout`.

    The fault-tolerant counterpart of
    :func:`repro.congest.forwarding.forward_demands`: same demand
    semantics (every ``(origin, target)`` must be an edge; contended
    demands queue), but delivery survives a faulty wire via per-link
    ARQ.

    Args:
        graph: the network.
        origins / targets: demand endpoints (same length).
        faults: :class:`FaultPlan` to run under; ``None`` or a null plan
            runs the clean wire (and then ``retry_rounds`` is 0).  Its
            spec's ``max_attempts`` is the per-token transmission budget
            (:data:`DEFAULT_MAX_ATTEMPTS` on a clean wire).
        context: optional :class:`repro.runtime.RunContext`; when given
            and faults are active, the overhead is charged as
            ``faults/retry-rounds`` (stage ``"forward"`` in charges and
            timeout diagnostics).
        recovery: ``"fail-fast"`` (PR-4 behaviour: crash windows that
            outlive the retry budget raise) or ``"self-heal"`` — the
            failure detector's crash view parks tokens through
            temporary windows, re-homes demands whose target is
            permanently down to the origin's lowest-ID live neighbour,
            and records demands from permanently dead origins as
            ``orphaned`` instead of raising.  The surplus rounds are
            charged to ``recovery/wait``.  The crash view comes from
            ``context`` (else from the plan); windows ending after
            :data:`~repro.congest.detector.MAX_WAIT_ROUNDS` count as
            permanent.

    Returns:
        a :class:`DeliveryReport`; ``delivered == expected`` always
        holds on return.

    Raises:
        DeliveryTimeout: if any token exhausted its retry budget or the
            network's round budget ran out (e.g. a crash window outlived
            every retry) — with the undelivered ``(node, target)`` pairs
            attached.
    """
    origins = [int(origin) for origin in origins]
    targets = [int(target) for target in targets]
    if len(origins) != len(targets):
        raise ValueError("origins and targets must have the same length")
    if recovery not in ("fail-fast", "self-heal"):
        raise ValueError(
            f"recovery must be 'fail-fast' or 'self-heal', "
            f"got {recovery!r}"
        )
    if faults is not None and faults.spec.is_null:
        faults = None
    max_attempts = (
        faults.spec.max_attempts if faults is not None
        else DEFAULT_MAX_ATTEMPTS
    )
    self_heal = (
        recovery == "self-heal"
        and faults is not None
        and bool(faults.spec.crashes)
    )
    rehomed: list[tuple[int, int, int]] = []
    orphaned: list[tuple[int, int]] = []
    view: Optional[CrashView] = None
    if self_heal:
        if context is not None:
            view = context.crash_view_for(graph.num_nodes)
        else:
            view = crash_view(faults, graph.num_nodes)
        dead = view.permanently_down()
        if dead:
            kept_origins: list[int] = []
            kept_targets: list[int] = []
            for origin, target in zip(origins, targets):
                if origin in dead:
                    orphaned.append((origin, target))
                    continue
                if target in dead:
                    escrow = next(
                        (
                            int(w)
                            for w in sorted(graph.neighbors(origin))
                            if int(w) not in dead
                        ),
                        None,
                    )
                    if escrow is None:
                        orphaned.append((origin, target))
                        continue
                    rehomed.append((origin, target, escrow))
                    target = escrow
                kept_origins.append(origin)
                kept_targets.append(target)
            origins, targets = kept_origins, kept_targets
    network = Network(graph)
    per_node: list[list[int]] = [[] for _ in range(graph.num_nodes)]
    link_load: dict[tuple[int, int], int] = {}
    for origin, target in zip(origins, targets):
        per_node[origin].append(target)
        link_load[(origin, target)] = link_load.get((origin, target), 0) + 1
    max_mult = max(link_load.values(), default=0)
    ideal_rounds = 2 * max_mult
    algorithms = [
        ReliableForwarder(
            network.context(v),
            per_node[v],
            max_attempts=max_attempts,
            crash_view=view,
        )
        for v in range(graph.num_nodes)
    ]
    # Bounded budget: a token retires (delivered or abandoned) within
    # max_attempts backoff periods, links run in parallel, so the run
    # either terminates within this budget or something is wedged
    # (e.g. a crash window outliving every retry) — which must surface
    # as a diagnosable timeout, never as an unbounded spin.
    budget = 100 + max(1, max_mult) * max_attempts * (BACKOFF_CAP + 2)
    if view is not None:
        # Parked tokens legitimately wait out waitable crash windows.
        budget += view.waitable_end()
    try:
        stats = network.run(algorithms, max_rounds=budget, faults=faults)
    except CongestViolation:
        raise
    except RuntimeError as error:
        undelivered = [
            (v, target)
            for v, algorithm in enumerate(algorithms)
            for target, _seq in algorithm.undelivered()
        ]
        culprits = _culprits(algorithms, max_attempts)
        raise DeliveryTimeout(
            f"forward: network round budget ({budget}) exhausted with "
            f"{len(undelivered)} demand(s) undelivered: "
            f"{undelivered[:8]}{'...' if len(undelivered) > 8 else ''}"
            f"{_worst_link(culprits)}",
            undelivered=undelivered,
            stage="forward",
            culprits=culprits,
        ) from error
    failed = [
        (v, target)
        for v, algorithm in enumerate(algorithms)
        for target, _seq in algorithm.failed
    ]
    delivered = sum(algorithm.received for algorithm in algorithms)
    expected = len(origins)
    if failed or delivered != expected:
        culprits = tuple(
            (v, target, max_attempts) for v, target in failed
        )
        raise DeliveryTimeout(
            f"forward: delivered {delivered}/{expected} demands; "
            f"{len(failed)} token(s) exhausted the {max_attempts}-attempt "
            f"retry budget: {failed[:8]}"
            f"{'...' if len(failed) > 8 else ''}"
            f"{_worst_link(culprits)}",
            undelivered=failed,
            stage="forward",
            culprits=culprits,
        )
    retry_rounds = max(0, stats.rounds - ideal_rounds)
    retransmissions = sum(algorithm.retries for algorithm in algorithms)
    parked = sum(algorithm.parked for algorithm in algorithms)
    recovery_rounds = retry_rounds if self_heal else 0
    if context is not None and faults is not None:
        if self_heal:
            # Under self-heal the surplus is dominated by waiting out
            # crash windows, so it books to recovery/* (the fail-fast
            # category stays comparable to PR-4 figures).
            context.charge(
                "recovery/wait",
                float(recovery_rounds),
                stage="forward",
                rounds_total=stats.rounds,
                ideal_rounds=ideal_rounds,
                parked=parked,
                rehomed=len(rehomed),
                orphaned=len(orphaned),
                retransmissions=retransmissions,
                crash_dropped=stats.crash_dropped,
            )
        else:
            context.charge(
                "faults/retry-rounds",
                float(retry_rounds),
                stage="forward",
                rounds_total=stats.rounds,
                ideal_rounds=ideal_rounds,
                retransmissions=retransmissions,
                dropped=stats.dropped,
                duplicated=stats.duplicated,
                delayed=stats.delayed,
                crash_dropped=stats.crash_dropped,
            )
    return DeliveryReport(
        delivered=delivered,
        expected=expected,
        rounds=stats.rounds,
        messages=stats.messages,
        ideal_rounds=ideal_rounds,
        retry_rounds=0 if self_heal else retry_rounds,
        retransmissions=retransmissions,
        stats=stats,
        rehomed=tuple(rehomed),
        orphaned=tuple(orphaned),
        parked=parked,
        recovery_rounds=recovery_rounds,
    )


def _culprits(algorithms, max_attempts: int) -> tuple:
    """``(node, target, attempts)`` for every link still holding or
    having abandoned a token."""
    out = []
    for v, algorithm in enumerate(algorithms):
        for target, _seq in algorithm.failed:
            out.append((v, target, max_attempts))
        for target, flight in sorted(algorithm.in_flight.items()):
            out.append((v, target, flight[1]))
    out.sort(key=lambda item: (-item[2], item[0], item[1]))
    return tuple(out)


def _worst_link(culprits: tuple) -> str:
    if not culprits:
        return ""
    v, target, attempts = culprits[0]
    return (
        f"; worst link {v}->{target} after {attempts} "
        f"attempt(s)"
    )
