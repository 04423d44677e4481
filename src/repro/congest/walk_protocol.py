"""Distributed random walks with reversal, as real message passing.

The paper's constructions all rest on one mechanic (Section 3.1.1): run
many walk tokens forward for ``~tau_mix`` steps — queuing on edges, one
token per edge per direction per round — while *every node remembers in
which direction it forwarded each token*; then run the tokens backwards
along the remembered directions to tell the sources where their walks
ended.

Two engines execute that mechanic:

* the **scalar oracle** — one :class:`~repro.congest.walk_state.
  ForwardWalkNode`/:class:`~repro.congest.walk_state.ReverseWalkNode`
  per node, message by message, on the CONGEST simulator; and
* the **vectorized engine** (:mod:`repro.congest.walk_engine_vec`) —
  the same execution as flat-array gather/scatter, seed-for-seed and
  round-for-round identical.

Both read every lazy-step decision off one shared
:class:`~repro.congest.walk_state.WalkTape`, which is what makes the
equivalence exact rather than merely distributional.  The dispatch
lives in :func:`run_walk_protocol` (``engine="auto"`` picks the
vectorized engine whenever the fault mode allows it); the test suite
checks both that every token returns exactly to its origin — the
property the overlay construction depends on — and that the two
engines' outcomes are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.graph import Graph
from .detector import MAX_WAIT_ROUNDS, CrashView, crash_view
from .faults import DeliveryTimeout, FaultPlan
from .network import CongestViolation, Network
from .walk_engine_vec import run_walk_protocol_vec
from .walk_state import ForwardWalkNode, ReverseWalkNode, WalkState, WalkTape

__all__ = ["WalkProtocolOutcome", "run_walk_protocol"]

_ENGINES = ("auto", "scalar", "vectorized")


@dataclass
class WalkProtocolOutcome:
    """Result of one forward + reverse walk execution.

    Attributes:
        starts: origin node per walk.
        endpoints: node where each walk's forward pass ended.
        returned_to: node where each walk's reverse pass ended (must equal
            ``starts``).
        forward_rounds: CONGEST rounds of the forward pass.
        reverse_rounds: CONGEST rounds of the reverse pass.
        messages: total messages across both passes.
        orphaned: walk ids abandoned under ``recovery="self-heal"``
            because their origin is permanently crashed (their
            ``endpoints``/``returned_to`` entries stay -1); always empty
            under fail-fast.
    """

    starts: np.ndarray
    endpoints: np.ndarray
    returned_to: np.ndarray
    forward_rounds: int
    reverse_rounds: int
    messages: int
    orphaned: tuple = ()


def _run_pass(
    network: Network,
    algorithms,
    length: int,
    validate: str,
    faults: Optional[FaultPlan],
    stage: str,
    extra_rounds: int = 0,
):
    """One protocol pass; round-budget exhaustion under faults becomes a
    diagnosable :class:`DeliveryTimeout` (a crash window can wedge an
    unfinished node forever, which must not surface as a bare
    ``RuntimeError``)."""
    max_rounds = 10000 * (length + 1) + extra_rounds
    try:
        return network.run(
            algorithms,
            max_rounds=max_rounds,
            validate=validate,
            faults=faults,
        )
    except CongestViolation:
        raise
    except RuntimeError as error:
        if faults is None:
            raise
        raise DeliveryTimeout(
            f"{stage}: round budget ({max_rounds}) exhausted under "
            f"faults — a crash window likely outlived the protocol",
            stage=stage,
        ) from error


def _check_lost(
    endpoints: np.ndarray,
    starts: np.ndarray,
    orphan_set: set,
    faults: Optional[FaultPlan],
) -> None:
    """Raise if the faulty wire swallowed any non-orphan forward token."""
    if faults is None:
        return
    lost = np.flatnonzero(endpoints < 0)
    lost = np.asarray(
        [w for w in lost.tolist() if w not in orphan_set],
        dtype=np.int64,
    )
    if lost.size:
        raise DeliveryTimeout(
            f"walk-forward: the faulty wire lost {lost.size}/"
            f"{starts.shape[0]} walk token(s): walks "
            f"{lost[:8].tolist()}{'...' if lost.size > 8 else ''}",
            undelivered=[(int(starts[w]), -1) for w in lost[:64]],
            stage="walk-forward",
        )


def _check_astray(
    returned: np.ndarray,
    starts: np.ndarray,
    orphan_set: set,
    faults: Optional[FaultPlan],
) -> None:
    """Raise if any non-orphan token failed to return to its origin."""
    if faults is None:
        return
    astray = np.flatnonzero(returned != starts)
    astray = np.asarray(
        [w for w in astray.tolist() if w not in orphan_set],
        dtype=np.int64,
    )
    if astray.size:
        raise DeliveryTimeout(
            f"walk-reverse: {astray.size}/{starts.shape[0]} walk "
            f"token(s) failed to return to their origin under "
            f"faults: walks {astray[:8].tolist()}"
            f"{'...' if astray.size > 8 else ''}",
            undelivered=[
                (int(returned[w]), int(starts[w])) for w in astray[:64]
            ],
            stage="walk-reverse",
        )


def _vec_handles(faults: Optional[FaultPlan], self_heal: bool) -> bool:
    """Whether the array engine covers this fault mode exactly.

    Fault-free runs always qualify.  Crash-only plans qualify under
    self-heal: they draw nothing from the sequential per-message link
    stream (``link_copies`` short-circuits at rate 0) and the blocking
    crash view makes every emission deliverable, so the array engine
    sees the identical execution.  Wire-level rates (drop/dup/delay)
    and fail-fast crash runs need the per-message RNG — scalar only.
    """
    if faults is None:
        return True
    spec = faults.spec
    if spec.drop or spec.duplicate or spec.delay:
        return False
    return self_heal


def run_walk_protocol(
    graph: Graph,
    starts: np.ndarray,
    length: int,
    seed: int = 0,
    validate: str = "full",
    faults: Optional[FaultPlan] = None,
    recovery: str = "fail-fast",
    view: Optional[CrashView] = None,
    context=None,
    max_wait: int = MAX_WAIT_ROUNDS,
    engine: str = "auto",
) -> WalkProtocolOutcome:
    """Execute the forward+reverse walk protocol on ``graph``.

    Args:
        graph: the network.
        starts: origin node per walk token.
        length: lazy steps per walk.
        seed: seed of the shared decision tape (one stream for the whole
            batch; both engines index it identically).
        validate: outbox-validation mode passed to
            :meth:`repro.congest.network.Network.run` (scalar engine
            only — the array engine sends along graph edges by
            construction).
        faults: optional :class:`~repro.congest.faults.FaultPlan`.  The
            walk tokens themselves are *not* retransmitted (the protocol
            is the paper's, verbatim); instead any walk the faulty wire
            loses or misdelivers is detected after each pass and raised
            as a :class:`~repro.congest.faults.DeliveryTimeout` — the
            outcome is never silently partial.
        recovery: ``"fail-fast"`` (crash windows that swallow a token
            raise) or ``"self-heal"`` — nodes read the failure
            detector's crash view, park departures whose delivery round
            falls inside a window of either endpoint, step walks around
            permanently crashed neighbours, and report walks from
            permanently crashed origins as ``orphaned`` instead of
            raising.
        view: pre-built :class:`~repro.congest.detector.CrashView`;
            under self-heal one is derived from ``context`` or the plan
            when absent.
        context: optional :class:`repro.runtime.RunContext`; under
            self-heal the parked-token rounds are charged to
            ``recovery/wait``.
        max_wait: crash windows ending after this round count as
            permanent (their nodes are avoided, not waited for).
        engine: ``"auto"`` (vectorized whenever the fault mode allows,
            else scalar), ``"scalar"`` (the per-node oracle), or
            ``"vectorized"`` (raises if the fault mode needs the scalar
            path).

    Returns:
        A :class:`WalkProtocolOutcome`; ``returned_to`` equals ``starts``
        by construction of the reversal (asserted by tests, not here).
    """
    starts = np.asarray(starts, dtype=np.int64)
    if faults is not None and faults.spec.is_null:
        faults = None
    if recovery not in ("fail-fast", "self-heal"):
        raise ValueError(
            f"recovery must be 'fail-fast' or 'self-heal', "
            f"got {recovery!r}"
        )
    if engine not in _ENGINES:
        raise ValueError(
            f"engine must be one of {_ENGINES}, got {engine!r}"
        )
    n = graph.num_nodes
    num_walks = int(starts.shape[0])
    self_heal = (
        recovery == "self-heal"
        and faults is not None
        and bool(faults.spec.crashes)
    )
    dead: frozenset = frozenset()
    orphaned: list[int] = []
    extra_rounds = 0
    if self_heal:
        if view is None:
            getter = getattr(context, "crash_view_for", None)
            if getter is not None:
                view = getter(n)
            else:
                view = crash_view(faults, n)
        dead = frozenset(view.permanently_down(max_wait))
        extra_rounds = view.waitable_end(max_wait)
        orphaned = [
            walk_id
            for walk_id, origin in enumerate(starts)
            if int(origin) in dead
        ]
    else:
        view = None
    vec_ok = _vec_handles(faults, self_heal)
    if engine == "vectorized" and not vec_ok:
        raise ValueError(
            "engine='vectorized' covers fault-free runs and crash-only "
            "plans under recovery='self-heal'; wire-level fault rates "
            "and fail-fast crash runs need engine='scalar' (or 'auto')"
        )
    use_vec = engine == "vectorized" or (engine == "auto" and vec_ok)
    tape = WalkTape.sample(seed, num_walks, length)
    orphan_set = set(orphaned)
    max_rounds = 10000 * (length + 1) + extra_rounds

    if use_vec:
        active = np.ones(num_walks, dtype=bool)
        if orphaned:
            active[np.asarray(orphaned, dtype=np.int64)] = False
        try:
            vec = run_walk_protocol_vec(
                graph, starts, tape,
                view=view, dead=dead, active=active,
                max_rounds=max_rounds,
            )
        except RuntimeError as error:
            if faults is None:
                raise
            raise DeliveryTimeout(
                f"walk-protocol: round budget ({max_rounds}) exhausted "
                f"under faults — a crash window likely outlived the "
                f"protocol",
                stage="walk-protocol",
            ) from error
        endpoints = vec.endpoints
        returned = vec.returned_to
        forward_rounds = vec.forward_rounds
        reverse_rounds = vec.reverse_rounds
        messages = vec.messages
        parked = vec.parked
    else:
        network = Network(graph)
        states = [WalkState() for _ in range(n)]
        per_node_tokens: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for walk_id, origin in enumerate(starts):
            if walk_id in orphan_set:
                continue
            per_node_tokens[int(origin)].append((walk_id, length))
        forward = [
            ForwardWalkNode(
                network.context(v), states[v], tape, per_node_tokens[v],
                view=view, avoid=dead,
            )
            for v in range(n)
        ]
        forward_stats = _run_pass(
            network, forward, length, validate, faults,
            stage="walk-forward", extra_rounds=extra_rounds,
        )
        endpoints = np.full(num_walks, -1, dtype=np.int64)
        for v, state in enumerate(states):
            for walk_id in state.finished_here:
                endpoints[walk_id] = v
        # A swallowed forward token surfaces before the reversal starts,
        # exactly as the scalar protocol always has.
        _check_lost(endpoints, starts, orphan_set, faults)
        reverse = [
            ReverseWalkNode(network.context(v), states[v], view=view)
            for v in range(n)
        ]
        reverse_stats = _run_pass(
            network, reverse, length, validate, faults,
            stage="walk-reverse", extra_rounds=extra_rounds,
        )
        returned = np.full(num_walks, -1, dtype=np.int64)
        for v, algorithm in enumerate(reverse):
            for walk_id in algorithm.home_tokens:
                returned[walk_id] = v
        forward_rounds = forward_stats.rounds
        reverse_rounds = reverse_stats.rounds
        messages = forward_stats.messages + reverse_stats.messages
        parked = sum(a.parked for a in forward) + sum(
            a.parked for a in reverse
        )

    if use_vec:
        _check_lost(endpoints, starts, orphan_set, faults)
    _check_astray(returned, starts, orphan_set, faults)
    if self_heal and context is not None:
        context.charge(
            "recovery/wait",
            float(parked),
            stage="walk-protocol",
            parked=parked,
            orphaned=len(orphaned),
            avoided=len(dead),
        )
    return WalkProtocolOutcome(
        starts=starts,
        endpoints=endpoints,
        returned_to=returned,
        forward_rounds=forward_rounds,
        reverse_rounds=reverse_rounds,
        messages=messages,
        orphaned=tuple(orphaned),
    )
