"""Array-native walk-protocol engine (the scalar simulation, vectorized).

The scalar walk protocol in :mod:`repro.congest.walk_protocol` executes
the paper's Section 3.1.1 mechanic one Python dict operation at a time:
per-node FIFO queues, one token per edge-direction per round, remembered
directions, reversal.  That is the semantic oracle — and the wall-clock
ceiling of the native pipeline.  This module produces the *identical*
execution from flat numpy arrays, in two stages:

1. **Trajectory presampling** (:func:`sample_trajectories`).  Because
   every walk reads its lazy-step decisions off the shared
   :class:`~repro.congest.walk_state.WalkTape` at index
   ``(length - ttl, walk_id)``, a walk's node sequence is independent of
   message timing.  All trajectories are therefore computed up front as
   one :func:`repro.walks.engine.keyed_step` per step — the step
   :func:`repro.walks.engine.run_lazy_walks` takes — and compressed into a
   per-walk *move list* (stays dropped).

2. **Timing simulation** (:func:`simulate_walk_timing`).  What remains
   of the protocol is pure queueing: each move is a token in the FIFO
   queue of its ``(sender, target)`` node pair, each round every
   nonempty unblocked queue emits its head, and deliveries re-enqueue
   the walk's next move.  Queues are array-backed linked lists (the
   :class:`~repro.baselines.routing_baselines._SchedulerState` idiom),
   so one CONGEST round costs a handful of numpy ops over the busy
   queues.  The round/message/parked accounting replicates
   :meth:`repro.congest.network.Network.run` — including its faulty
   twin for crash windows under a self-heal
   :class:`~repro.congest.detector.CrashView` — event for event, which
   the equivalence suite in ``tests/congest/test_walk_engine_vec.py``
   asserts against the scalar oracle.

Equivalence invariants the timing simulation encodes (each mirrors a
line of the scalar code):

* Queues are keyed by the ``(owner, target-node)`` pair — parallel
  edges of a multigraph share one queue and one wire slot, exactly like
  the scalar ``dict[target, deque]`` plus the sender-keyed inbox.
* Within a round, deliveries are processed in ascending sender order
  (the network builds inboxes by iterating senders ``0..n-1`` and dict
  order preserves insertion), so same-queue appends sort by
  ``(queue, delivering sender)``.
* Initial forward appends sort by walk id within a queue (nodes admit
  their tokens in walk order); initial reverse appends sort by the
  forward *finish order* ``(finish round, finish sender, walk id)``.
* A delivered token that re-enqueues may be emitted in the same round
  (the scalar ``receive`` admits before ``_outbox`` runs).
* With a crash view, the queue ``(u, t)`` emits at the end of round
  ``r`` iff ``u`` is up at ``r`` (its ``receive`` ran; the round-0
  ``initialize`` always runs) and both ``u`` and ``t`` are up at the
  delivery round ``r + 1``; a nonempty queue whose owner is up but
  which is blocked parks (``parked += 1``) — the self-heal charge.
* Rounds tick while any queue is nonempty even if every queue is
  parked, and the run ends when no delivery is in flight and all
  queues are empty.

The engine handles fault-free runs and crash-only fault plans under
self-heal (crash-only plans draw nothing from the sequential link-fault
stream, so both engines see the same :class:`CrashView` and nothing
else).  Wire-level fault rates (drop/duplicate/delay) and fail-fast
crash runs stay on the scalar path — their per-message RNG draws are
inherently sequential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.graph import Graph
from ..walks.engine import StepTable, keyed_step
from .detector import CrashView
from .walk_state import WalkTape

__all__ = [
    "TrajectoryBatch",
    "VecPassStats",
    "VecProtocolResult",
    "forward_pass_vec",
    "run_walk_protocol_vec",
    "sample_trajectories",
    "simulate_walk_timing",
]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class TrajectoryBatch:
    """Presampled trajectories of a walk batch, as per-walk move lists.

    Attributes:
        origins: start node per walk.
        active: per walk, False for orphans (dead origins) — they hold
            no moves and never finish.
        endpoints: final node per walk (-1 for inactive walks).
        mv_ptr: CSR pointers, walk ``w``'s moves are ``mv_ptr[w]`` to
            ``mv_ptr[w + 1]``.
        mv_sender: per move, the node the token departs from.
        mv_target: per move, the node the token crosses to.
    """

    origins: np.ndarray
    active: np.ndarray
    endpoints: np.ndarray
    mv_ptr: np.ndarray
    mv_sender: np.ndarray
    mv_target: np.ndarray

    def move_counts(self) -> np.ndarray:
        """Number of moves per walk."""
        return np.diff(self.mv_ptr)


def sample_trajectories(
    graph: Graph,
    starts: np.ndarray,
    tape: WalkTape,
    dead: frozenset = frozenset(),
    active: Optional[np.ndarray] = None,
) -> TrajectoryBatch:
    """Batch-sample every walk's node sequence off the decision tape.

    Args:
        graph: the base graph.
        starts: origin per walk.
        tape: the shared decision tape (its ``num_walks`` must cover
            ``starts``).
        dead: permanently crashed nodes — walks step around them on the
            live subgraph, matching the scalar ``avoid`` filter.
        active: optional per-walk mask; inactive walks (orphans) get no
            moves and endpoint -1.

    Returns:
        A :class:`TrajectoryBatch`.
    """
    starts = np.asarray(starts, dtype=np.int64)
    n = graph.num_nodes
    num_walks = int(starts.shape[0])
    if active is None:
        active = np.ones(num_walks, dtype=bool)
    if dead:
        dead_mask = np.zeros(n, dtype=bool)
        dead_mask[np.fromiter(dead, dtype=np.int64, count=len(dead))] = True
        keep = ~dead_mask[graph.indices]
        live_tails = graph.arc_tails[keep]
        live_deg = np.bincount(live_tails, minlength=n).astype(np.int64)
        live_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(live_deg, out=live_indptr[1:])
        table = StepTable.build(
            live_indptr, graph.indices[keep], live_deg, live_tails
        )
    else:
        table = StepTable.of(graph)
    live_deg = table.degrees
    positions = np.where(active, starts, 0).astype(np.int64)
    # targets[s, w]: node walk w crossed to at step s, or -1 for a stay.
    targets = np.full((tape.length, num_walks), -1, dtype=np.int64)
    for step in range(tape.length):
        move = active & (live_deg[positions] > 0)
        move &= tape.stay_u[step] >= 0.5
        positions, _ = keyed_step(
            table, positions, move, tape.choice_u[step]
        )
        targets[step] = np.where(move, positions, -1)
    endpoints = np.where(active, positions, -1)
    # Compress to walk-major move lists (the order tokens consume them).
    moved = targets >= 0
    counts = moved.sum(axis=0).astype(np.int64)
    mv_ptr = np.zeros(num_walks + 1, dtype=np.int64)
    np.cumsum(counts, out=mv_ptr[1:])
    mv_target = targets.T[moved.T]
    total = int(mv_target.shape[0])
    mv_sender = np.empty(total, dtype=np.int64)
    has_moves = counts > 0
    is_first = np.zeros(total, dtype=bool)
    is_first[mv_ptr[:-1][has_moves]] = True
    mv_sender[is_first] = starts[has_moves]
    rest = np.flatnonzero(~is_first)
    mv_sender[rest] = mv_target[rest - 1]
    return TrajectoryBatch(
        origins=starts,
        active=active,
        endpoints=endpoints,
        mv_ptr=mv_ptr,
        mv_sender=mv_sender,
        mv_target=mv_target,
    )


def _append_batch(
    qids: np.ndarray,
    walks: np.ndarray,
    keys: np.ndarray,
    q_first: np.ndarray,
    q_last: np.ndarray,
    next_in: np.ndarray,
) -> np.ndarray:
    """Enqueue one round's tokens, ordered by ``(queue, key)``.

    Links ``walks`` into the per-queue lists; returns the queues that
    were empty before (the caller adds them to its busy set).
    """
    order = np.lexsort((keys, qids))
    qs = qids[order]
    ws = walks[order]
    count = int(ws.shape[0])
    if count == 0:
        return _EMPTY
    next_in[ws[:-1]] = np.where(qs[:-1] == qs[1:], ws[1:], -1)
    next_in[ws[-1]] = -1
    run_start = np.ones(count, dtype=bool)
    run_start[1:] = qs[1:] != qs[:-1]
    start_idx = np.flatnonzero(run_start)
    run_q = qs[start_idx]
    heads = ws[start_idx]
    tails = ws[np.append(start_idx[1:] - 1, count - 1)]
    was_empty = q_first[run_q] == -1
    filled = run_q[~was_empty]
    next_in[q_last[filled]] = heads[~was_empty]
    q_first[run_q[was_empty]] = heads[was_empty]
    q_last[run_q] = tails
    return run_q[was_empty]


@dataclass
class VecPassStats:
    """Round accounting of one simulated protocol pass.

    ``finish_round``/``finish_sender`` are -1 for walks that never
    travelled (no moves) — the caller owns their bookkeeping.
    """

    rounds: int
    messages: int
    parked: int
    finish_round: np.ndarray
    finish_sender: np.ndarray


def simulate_walk_timing(
    num_nodes: int,
    mv_ptr: np.ndarray,
    mv_sender: np.ndarray,
    mv_target: np.ndarray,
    init_key: np.ndarray,
    view: Optional[CrashView] = None,
    max_rounds: int = 1_000_000,
) -> VecPassStats:
    """Execute one pass of the walk protocol's queueing, round by round.

    This is the round executor of the vectorized engine: it *is* the
    CONGEST execution (rounds, messages, parked waits), exported in the
    returned :class:`VecPassStats` for the caller to charge — the same
    contract :meth:`Network.run` has with its callers, and what keeps
    reprolint's R009 ledger-coverage rule satisfied.

    Args:
        num_nodes: ``n`` of the base graph.
        mv_ptr: per-walk CSR pointers into the move arrays.
        mv_sender: departure node per move.
        mv_target: arrival node per move.
        init_key: per walk, the within-queue ordering key of its first
            move's initial append (walk id on the forward pass, forward
            finish rank on the reverse pass).
        view: optional self-heal crash view; emissions into a crash
            window park instead of sending, byte-for-byte like the
            scalar ``_blocked`` check.
        max_rounds: hard budget, mirroring the network's.

    Returns:
        A :class:`VecPassStats`.

    Raises:
        RuntimeError: if the budget is exhausted (the caller converts
            this to a DeliveryTimeout under active faults, like the
            scalar ``_run_pass``).
    """
    num_walks = int(mv_ptr.shape[0]) - 1
    finish_round = np.full(num_walks, -1, dtype=np.int64)
    finish_sender = np.full(num_walks, -1, dtype=np.int64)
    total = int(mv_target.shape[0])
    if total == 0:
        return VecPassStats(0, 0, 0, finish_round, finish_sender)
    pair = mv_sender * num_nodes + mv_target
    uniq, mv_qid = np.unique(pair, return_inverse=True)
    q_sender = (uniq // num_nodes).astype(np.int64)
    q_target = (uniq % num_nodes).astype(np.int64)
    q_first = np.full(uniq.shape[0], -1, dtype=np.int64)
    q_last = np.full(uniq.shape[0], -1, dtype=np.int64)
    next_in = np.full(num_walks, -1, dtype=np.int64)
    # wptr[w]: global index of w's currently queued / in-flight move.
    wptr = np.zeros(num_walks, dtype=np.int64)
    counts = np.diff(mv_ptr)
    travellers = np.flatnonzero(counts > 0)
    wptr[travellers] = mv_ptr[travellers]
    init_key = np.asarray(init_key, dtype=np.int64)
    busy = _append_batch(
        mv_qid[mv_ptr[travellers]], travellers, init_key[travellers],
        q_first, q_last, next_in,
    )
    messages = 0
    parked = 0

    if view is not None:
        windows = [
            (int(s), int(e), np.fromiter(nodes, dtype=np.int64, count=len(nodes)))
            for s, e, nodes in view.windows
        ]

        def down_mask(round_number: int) -> np.ndarray:
            mask = np.zeros(num_nodes, dtype=bool)
            for start, end, nodes in windows:
                if start <= round_number <= end:
                    mask[nodes] = True
            return mask

    def emit(round_number: int) -> np.ndarray:
        nonlocal busy, parked
        if not busy.shape[0]:
            return _EMPTY
        if view is None:
            emit_q = busy
            held = _EMPTY
        else:
            down_next = down_mask(round_number + 1)
            blocked = down_next[q_sender[busy]] | down_next[q_target[busy]]
            if round_number > 0:
                awake = ~down_mask(round_number)[q_sender[busy]]
            else:
                # initialize() runs for every node, crashed or not.
                awake = np.ones(busy.shape[0], dtype=bool)
            eligible = awake & ~blocked
            parked += int(np.count_nonzero(awake & blocked))
            emit_q = busy[eligible]
            held = busy[~eligible]
        heads = q_first[emit_q]
        q_first[emit_q] = next_in[heads]
        still = q_first[emit_q] != -1
        busy = np.concatenate((held, emit_q[still]))
        return heads

    in_flight = emit(0)
    rounds = 0
    while in_flight.shape[0] or busy.shape[0]:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(
                f"walk timing simulation did not terminate within "
                f"{max_rounds} rounds"
            )
        messages += int(in_flight.shape[0])
        if in_flight.shape[0]:
            move = wptr[in_flight]
            last = (move + 1) == mv_ptr[in_flight + 1]
            done = in_flight[last]
            finish_round[done] = rounds
            finish_sender[done] = mv_sender[move[last]]
            advancing = in_flight[~last]
            if advancing.shape[0]:
                next_move = move[~last] + 1
                wptr[advancing] = next_move
                fresh = _append_batch(
                    mv_qid[next_move], advancing, mv_sender[move[~last]],
                    q_first, q_last, next_in,
                )
                if fresh.shape[0]:
                    busy = np.concatenate((busy, fresh))
        in_flight = emit(rounds)
    return VecPassStats(rounds, messages, parked, finish_round, finish_sender)


@dataclass
class VecProtocolResult:
    """Forward + reverse execution of the whole protocol.

    Field meanings match :class:`~repro.congest.walk_protocol.
    WalkProtocolOutcome`; ``parked`` is the self-heal wait total across
    both passes, ``batch`` keeps the trajectories (the native build
    reads embedded paths off it).
    """

    endpoints: np.ndarray
    returned_to: np.ndarray
    forward_rounds: int
    reverse_rounds: int
    messages: int
    parked: int
    batch: TrajectoryBatch


def run_walk_protocol_vec(
    graph: Graph,
    starts: np.ndarray,
    tape: WalkTape,
    view: Optional[CrashView] = None,
    dead: frozenset = frozenset(),
    active: Optional[np.ndarray] = None,
    max_rounds: int = 1_000_000,
) -> VecProtocolResult:
    """Run both protocol passes through the array engine.

    The caller (:func:`repro.congest.walk_protocol.run_walk_protocol`)
    owns fault normalization, orphan detection and ledger charges; this
    function owns the execution.
    """
    batch = sample_trajectories(graph, starts, tape, dead=dead, active=active)
    num_walks = int(batch.origins.shape[0])
    forward = simulate_walk_timing(
        graph.num_nodes, batch.mv_ptr, batch.mv_sender, batch.mv_target,
        init_key=np.arange(num_walks, dtype=np.int64),
        view=view, max_rounds=max_rounds,
    )
    counts = batch.move_counts()
    finish_round = forward.finish_round.copy()
    finish_sender = forward.finish_sender.copy()
    # Walks that never moved finish during __init__: round 0, no sender.
    home = batch.active & (counts == 0)
    finish_round[home] = 0
    # Reverse moves: each walk's forward moves, reversed and flipped.
    total = int(batch.mv_target.shape[0])
    if total:
        walk_of = np.repeat(np.arange(num_walks, dtype=np.int64), counts)
        flat = np.arange(total, dtype=np.int64)
        flipped = batch.mv_ptr[walk_of] + batch.mv_ptr[walk_of + 1] - 1 - flat
        rv_sender = batch.mv_target[flipped]
        rv_target = batch.mv_sender[flipped]
    else:
        rv_sender = batch.mv_sender
        rv_target = batch.mv_target
    # Reverse launch order per endpoint = forward finish order there.
    finish_order = np.lexsort(
        (np.arange(num_walks, dtype=np.int64), finish_sender, finish_round)
    )
    finish_rank = np.empty(num_walks, dtype=np.int64)
    finish_rank[finish_order] = np.arange(num_walks, dtype=np.int64)
    reverse = simulate_walk_timing(
        graph.num_nodes, batch.mv_ptr, rv_sender, rv_target,
        init_key=finish_rank, view=view, max_rounds=max_rounds,
    )
    # Reversal retraces the recorded path, so every surviving token ends
    # at its origin (the scalar astray check is re-run by the caller).
    returned = np.where(batch.active, batch.origins, -1)
    return VecProtocolResult(
        endpoints=batch.endpoints,
        returned_to=returned,
        forward_rounds=forward.rounds,
        reverse_rounds=reverse.rounds,
        messages=forward.messages + reverse.messages,
        parked=forward.parked + reverse.parked,
        batch=batch,
    )


def forward_pass_vec(
    graph: Graph,
    starts: np.ndarray,
    tape: WalkTape,
    max_rounds: int = 1_000_000,
) -> tuple[np.ndarray, TrajectoryBatch, int]:
    """Forward pass only, for the native G0 build (clean wire).

    Returns ``(endpoints, batch, rounds)``; the batch's move lists are
    the embedded paths (origin first, stays omitted).
    """
    batch = sample_trajectories(graph, np.asarray(starts, np.int64), tape)
    stats = simulate_walk_timing(
        graph.num_nodes, batch.mv_ptr, batch.mv_sender, batch.mv_target,
        init_key=np.arange(batch.origins.shape[0], dtype=np.int64),
        max_rounds=max_rounds,
    )
    return batch.endpoints, batch, stats.rounds
