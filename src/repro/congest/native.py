"""A CONGEST-native ``G0``: overlay edges as embedded paths.

The fastest paths in this library treat overlay graphs abstractly and
charge measured emulation costs.  This module builds the level-zero
overlay the way the distributed algorithm actually does, end to end:

1. the construction walks are sampled by the walk engine, whose step
   hook records their trajectories (the reverse pass and the embedded
   paths read the whole batch back), and :func:`replay_walk_run`
   executes them as messages twice: the forward pass, then the reverse
   pass that brings every endpoint back to its origin along the same
   arcs;
2. every overlay edge *keeps the walk path that created it* — the
   embedded route its messages will travel;
3. delivering one message per overlay edge (one native ``G0`` round) is
   executed by store-and-forward scheduling of those embedded paths
   under unit edge capacity.

The walk replay is the one the native backend runs for every walk
batch, so this module and :class:`repro.runtime.NativeBackend` share a
single message-passing walk executor, checked on a clean wire by the
per-node simulator on sampled steps.  The
backend runs it live: each step is executed inside the walk engine's
step loop (a :class:`WalkBatch`), so it never holds a trajectory.  The
native round cost is compared against the vectorized calibration of
:func:`repro.core.embedding.build_g0` (experiment E15).  The level-1
construction batches its sampling walks over the overlay CSR and
assembles the embedded chains with array ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain as _chain
from typing import Callable, Optional, Union

import numpy as np

from ..baselines.routing_baselines import schedule_paths, schedule_paths_csr
from ..core.embedding import VirtualNodes
from ..core.sampling import group_select
from ..graphs.graph import Graph
from ..rng import derive_rng
from ..walks.engine import WalkRun, run_lazy_walks
from .forwarding import _forward_demands_scalar, forward_demands
from .reliable import reliable_forward_demands

__all__ = [
    "NativeG0",
    "NativeLevel",
    "ReplayMismatch",
    "WalkBatch",
    "WalkReplay",
    "build_native_g0",
    "build_native_level1",
    "replay_walk_run",
]


@dataclass
class NativeG0:
    """A level-zero overlay with embedded paths.

    Attributes:
        graph: the base graph.
        overlay: the overlay graph over virtual-node ids.
        vnode_host: real node of each virtual node.
        edge_paths: per overlay edge, the real-node path embedding it
            (from the tail's host to the head's host).
        forward: the executed forward pass of the construction walks.
        reverse: the executed reverse pass (endpoints back to origins).
        round_rounds: measured rounds of one native overlay round
            (one message per overlay edge, both directions).
    """

    graph: Graph
    overlay: Graph
    vnode_host: np.ndarray
    edge_paths: list[list[int]]
    forward: WalkReplay
    reverse: WalkReplay
    round_rounds: int

    @property
    def build_rounds(self) -> int:
        """CONGEST rounds of the construction: forward plus reverse."""
        return self.forward.rounds + self.reverse.rounds


def _moving_paths(trajectories: np.ndarray) -> list[list[int]]:
    """Per column of a ``(steps + 1, walks)`` trajectory, the nodes the
    walk moved through, starting at its origin (stays omitted)."""
    rows = trajectories.T
    keep = np.ones(rows.shape, dtype=bool)
    np.not_equal(rows[:, 1:], rows[:, :-1], out=keep[:, 1:])
    bounds = np.concatenate(([0], np.cumsum(keep.sum(axis=1)))).tolist()
    flat = rows[keep].tolist()
    return [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def build_native_g0(
    graph: Graph,
    walks_per_vnode: int,
    degree: int,
    length: int,
    seed: int = 0,
) -> NativeG0:
    """Build a native ``G0`` with embedded paths and measure one round.

    The construction walks are sampled by
    :func:`repro.walks.run_lazy_walks` from ``derive_rng(seed)``, a
    step hook recording their trajectory.  :func:`replay_walk_run`
    executes the forward pass (whose rounds equal the batch's Lemma 2.5
    ``schedule_rounds()``) and then the reverse pass on the same
    trajectory backwards, which returns every endpoint to its origin.
    Each virtual node keeps up to ``degree`` distinct endpoints with
    :func:`repro.core.sampling.group_select`, the selection
    :func:`repro.core.embedding.build_g0` uses, and each kept edge
    embeds the moving steps of the walk that found it.

    Args:
        graph: connected base graph.
        walks_per_vnode: construction walks per virtual node.
        degree: out-neighbours kept per virtual node.
        length: walk length (use ``~2 tau_mix``).
        seed: randomness seed.
    """
    if not graph.is_connected():
        raise ValueError("native G0 requires a connected graph")
    virtual = VirtualNodes(graph=graph, host=graph.arc_tails)
    starts = np.repeat(virtual.host, walks_per_vnode)
    owners = np.repeat(np.arange(virtual.count), walks_per_vnode)
    rng = derive_rng(seed)
    rows = [starts]
    run = run_lazy_walks(
        graph, starts, length, rng,
        on_step=lambda _before, after: rows.append(after),
    )
    trajectory = np.stack(rows)
    forward = replay_walk_run(graph, trajectory)
    # The reverse pass: each token retraces its arcs, last step first,
    # carrying its endpoint home.
    reverse = replay_walk_run(graph, trajectory[::-1])

    # Endpoints land degree-proportionally on real nodes; a uniform
    # virtual node of the endpoint is then uniform over virtual nodes.
    targets = virtual.random_vnode_of(run.positions, rng)
    edges = group_select(owners, targets, virtual.count, degree, rng)
    # Each kept edge embeds the first of its owner's walks that found it.
    walk_keys = owners * virtual.count + targets
    order = np.argsort(walk_keys, kind="stable")
    edge_walks = order[
        np.searchsorted(
            walk_keys[order], edges[:, 0] * virtual.count + edges[:, 1]
        )
    ]
    edge_paths = _moving_paths(trajectory[:, edge_walks])
    # One native overlay round: a message along every edge, both ways.
    both_ways = edge_paths + [list(reversed(p)) for p in edge_paths]
    native_round = schedule_paths(
        [path for path in both_ways if len(path) > 1],
        rng=derive_rng(seed, 100),
    )
    return NativeG0(
        graph=graph,
        overlay=Graph(virtual.count, edges),
        vnode_host=virtual.host,
        edge_paths=edge_paths,
        forward=forward,
        reverse=reverse,
        round_rounds=native_round.rounds,
    )


def _oriented_arc_paths(g0: NativeG0) -> list[list[int]]:
    """Per overlay arc, the embedded path oriented tail-host → head-host.

    One pass over the arcs — each arc resolves its undirected edge via
    ``arc_edge`` directly, replacing the old per-edge
    ``np.flatnonzero(arc_edge == eid)`` scan that was
    O(num_arcs · num_edges).
    """
    overlay = g0.overlay
    num_edges = len(g0.edge_paths)
    # arc_tails is a rebuilt-per-access property: hoist it (indexing it
    # inside the loop re-materialized the whole array once per arc).
    arc_tails = overlay.arc_tails
    arc_edge = overlay.arc_edge
    arc_paths: list[list[int] | None] = [None] * overlay.num_arcs
    for arc in range(overlay.num_arcs):
        eid = int(arc_edge[arc])
        if eid >= num_edges:
            continue
        path = g0.edge_paths[eid]
        tail_host = int(g0.vnode_host[arc_tails[arc]])
        if tail_host == path[0]:
            arc_paths[arc] = path
        elif tail_host == path[-1]:
            arc_paths[arc] = path[::-1]
        else:
            raise ValueError(
                f"G0 edge path for overlay arc {arc} starts at "
                f"{path[0]} and ends at {path[-1]}, neither of which is "
                f"the arc's tail host {tail_host}; edge_paths is "
                "inconsistent with the overlay"
            )
    missing = [arc for arc, path in enumerate(arc_paths) if path is None]
    if missing:
        raise ValueError(
            f"overlay arcs {missing[:8]}{'...' if len(missing) > 8 else ''} "
            f"have no embedded G0 path ({num_edges} edge paths for "
            f"{overlay.num_arcs} arcs); the G0 overlay is inconsistent — "
            "e.g. built over a disconnected graph"
        )
    return [path for path in arc_paths if path is not None]


def _assemble_chains(
    g0: NativeG0,
    arc_paths: list[list[int]],
    owners: np.ndarray,
    arcs_taken: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-walk G0 segments, dropping consecutive duplicates.

    ``arcs_taken`` is ``(length, num_walks)``; entry ``-1`` means the
    walk stayed that step.  Returns CSR arrays ``(nodes, offsets)``: walk
    ``w``'s real-node chain is ``nodes[offsets[w]:offsets[w + 1]]``,
    starting at its owner's host.  (Host-local repeats cost no rounds,
    hence the duplicate drop.)
    """
    num_walks = int(owners.shape[0])
    # Flatten every arc segment (the path minus its first node, which is
    # the walk's current host whenever the arc is taken).  Node ids fit
    # int32 by a wide margin; the chain arrays are the largest objects
    # this builder touches, so the narrow dtype halves the memory
    # traffic of every gather below.
    seg_lists = [path[1:] for path in arc_paths]
    seg_len = np.fromiter(
        map(len, seg_lists), dtype=np.int64, count=len(seg_lists)
    )
    seg_offsets = np.zeros(seg_len.shape[0] + 1, dtype=np.int64)
    np.cumsum(seg_len, out=seg_offsets[1:])
    seg_flat = np.fromiter(
        _chain.from_iterable(seg_lists),
        dtype=np.int32,
        count=int(seg_offsets[-1]),
    )
    # Crossing events, ordered walk-major then step-major — the order the
    # scalar loop appended segments in.
    events = arcs_taken.T
    mask = events >= 0
    ev_counts = mask.sum(axis=1)
    ev_arcs = events[mask]
    ev_walks = np.repeat(np.arange(num_walks, dtype=np.int64), ev_counts)
    ev_len = seg_len[ev_arcs]
    ev_cum = np.zeros(ev_len.shape[0] + 1, dtype=np.int64)
    np.cumsum(ev_len, out=ev_cum[1:])
    total_content = int(ev_cum[-1])
    # Gather all segment nodes in event order (CSR expansion): element j
    # of event e sits at seg_offsets[arc_e] + (j - ev_cum[e]), so one
    # fused repeat of the per-event base plus a single iota covers the
    # whole gather.
    iota = np.arange(total_content, dtype=np.int64)
    content = seg_flat[
        np.repeat(seg_offsets[ev_arcs] - ev_cum[:-1], ev_len) + iota
    ]
    # Interleave with the per-walk start hosts: exactly one start node
    # precedes each walk's content, so content element j lands at global
    # position j + (its walk index) + 1.
    ev_ptr = np.zeros(num_walks + 1, dtype=np.int64)
    np.cumsum(ev_counts, out=ev_ptr[1:])
    walk_extra = ev_cum[ev_ptr[1:]] - ev_cum[ev_ptr[:-1]]
    offsets = np.zeros(num_walks + 1, dtype=np.int64)
    np.cumsum(walk_extra + 1, out=offsets[1:])
    nodes = np.empty(int(offsets[-1]), dtype=np.int32)
    starts_at = offsets[:-1]
    nodes[starts_at] = g0.vnode_host[owners]
    if total_content:
        rep_walks = np.repeat(ev_walks, ev_len)
        nodes[iota + rep_walks + 1] = content
    # Compress consecutive duplicates within each walk (walk boundaries
    # always survive).
    keep = np.ones(nodes.shape[0], dtype=bool)
    keep[1:] = nodes[1:] != nodes[:-1]
    keep[starts_at] = True
    walk_of = np.repeat(
        np.arange(num_walks, dtype=np.int64), walk_extra + 1
    )
    kept_counts = np.bincount(walk_of[keep], minlength=num_walks)
    out_offsets = np.zeros(num_walks + 1, dtype=np.int64)
    np.cumsum(kept_counts, out=out_offsets[1:])
    return nodes[keep], out_offsets


class ReplayMismatch(RuntimeError):
    """The array executor and the per-node simulator disagreed on a
    replayed walk step."""


#: On a clean wire, one walk step in this many (at least one per batch
#: with any movement) is re-run through the per-node simulator.
_ORACLE_SAMPLE_EVERY = 32


@dataclass
class WalkReplay:
    """Outcome of executing a walk batch as real message passing.

    Attributes:
        rounds: executed CONGEST rounds, summed over walk steps with the
            engine's per-step floor of one round (``sum_t max(1, r_t)``),
            so it is directly comparable to
            :meth:`repro.walks.engine.WalkRun.schedule_rounds`.
        per_step: executed rounds of each walk step (no floor).
        messages: total token messages delivered.
        step_booked: fault surplus the steps charged to the run context
            themselves (``faults/retry-rounds``, or ``recovery/wait``
            under self-heal); 0 on a clean wire or without a context.
        run: the :class:`~repro.walks.engine.WalkRun` a live
            :class:`WalkBatch` produced; ``None`` when a recorded run
            was replayed (its caller already holds it).
    """

    rounds: int
    per_step: list[int]
    messages: int
    step_booked: int = 0
    run: Optional[WalkRun] = field(default=None, repr=False)


@dataclass(frozen=True)
class WalkBatch:
    """A walk batch for :func:`replay_walk_run` to sample and execute live.

    ``engine`` is a walk engine such as
    :func:`repro.walks.engine.run_lazy_walks`, called as
    ``engine(graph, starts, steps, rng, on_step=hook)``.
    """

    engine: Callable[..., WalkRun]
    starts: np.ndarray
    steps: int
    rng: np.random.Generator


class _StepReplay:
    """Executes walk steps as messages, one ``(before, after)`` at a time.

    The step hook behind both forms of :func:`replay_walk_run`: the live
    form hands it to the walk engine, the recorded form feeds it the
    rows of a trajectory, so the two execute through one code path.  On
    a clean wire, the steps the per-node simulator re-runs are drawn up front from a generator seeded by the
    batch shape ``(steps, walks)`` alone — never from a run's named
    streams, so the cross-run leaves every built structure bit-identical
    — and each is checked as it is taken.  If no sampled step moved a
    token, the batch's last moving step is checked instead, so every
    batch with movement is cross-run at least once.
    """

    def __init__(self, graph, steps, walks, faults, context):
        self.graph = graph
        self.faults = None if faults is None or faults.spec.is_null else faults
        self.context = context
        self.per_step: list[int] = []
        self.messages = 0
        self.step_booked = 0
        self.sample: frozenset[int] = frozenset()
        if self.faults is None and steps:
            count = max(1, steps // _ORACLE_SAMPLE_EVERY)
            picks = derive_rng(steps, walks).choice(steps, count, replace=False)
            self.sample = frozenset(int(step) for step in picks)
        self.checked = False
        # The last moving step, kept until some step has been cross-run.
        self.unchecked: Optional[tuple] = None

    def __call__(self, before: np.ndarray, after: np.ndarray) -> int:
        """Execute one walk step; returns its executed rounds."""
        step = len(self.per_step)
        moved = before != after
        if not moved.any():
            self.per_step.append(0)
            return 0
        origins, targets = before[moved], after[moved]
        if self.faults is None:
            rounds, sent = forward_demands(self.graph, origins, targets)
        else:
            report = reliable_forward_demands(
                self.graph,
                origins,
                targets,
                faults=self.faults,
                context=self.context,
                recovery=getattr(self.context, "recovery", None)
                or "fail-fast",
            )
            rounds, sent = report.rounds, report.messages
            if self.context is not None:
                self.step_booked += report.retry_rounds + report.recovery_rounds
        self.per_step.append(rounds)
        self.messages += sent
        if step in self.sample:
            self._cross_check(step, origins, targets, rounds, sent)
        elif self.sample and not self.checked:
            self.unchecked = (step, origins, targets, rounds, sent)
        return rounds

    def _cross_check(self, step, origins, targets, rounds, sent) -> None:
        """Re-run one executed step on the per-node simulator.

        Raises:
            ReplayMismatch: if its ``(rounds, messages)`` differ from the
                array executor's.
        """
        self.checked = True
        self.unchecked = None
        # A re-execution of a step whose rounds the array executor
        # already returned (replay_walk_run exports them); charging it
        # too would count the step twice.
        oracle = _forward_demands_scalar(  # reprolint: disable=R009
            self.graph, origins, targets
        )
        if oracle != (rounds, sent):
            raise ReplayMismatch(
                f"walk step {step}: the array executor took {rounds} "
                f"rounds / {sent} messages but the per-node simulator "
                f"took {oracle[0]} rounds / {oracle[1]} messages for the "
                "same demands"
            )

    def result(self, run: Optional[WalkRun] = None) -> WalkReplay:
        """The batch's replay, after its fallback cross-run (if due)."""
        if self.unchecked is not None:
            # Re-runs an executed step; its rounds are in per_step.
            self._cross_check(*self.unchecked)  # reprolint: disable=R009
        return WalkReplay(
            rounds=int(sum(max(1, r) for r in self.per_step)),
            per_step=self.per_step,
            messages=self.messages,
            step_booked=self.step_booked,
            run=run,
        )


def replay_walk_run(
    graph: Graph,
    run: Union[np.ndarray, WalkBatch],
    faults=None,
    context=None,
) -> WalkReplay:
    """Execute a walk batch as CONGEST message passing.

    Replays each walk step's token movements as real messages — every
    node forwards at most one token per directed edge per round, with a
    barrier between steps.  This is how a backend *executes* the exact
    walks a vectorized engine samples: the structure built from the
    walks is bit-identical, while the rounds are measured on the wire
    (Lemma 2.5 guarantees they equal the engine's ``schedule_rounds()``
    charge; callers assert that).

    ``run`` is either a :class:`WalkBatch`, sampled by its engine and
    executed step by step as the engine takes each step (no trajectory
    is ever held), or a recorded ``(steps + 1, W)`` trajectory — the
    positions before the first step and after each step, as a
    recording step hook collects them — whose rows are fed through the
    same per-step executor.

    On a clean wire each step runs on the array executor of
    :func:`repro.congest.forwarding.forward_demands`, and a seeded
    sample of steps (at least one per batch with any movement) is re-run through the per-node simulator, and
    the two must agree on ``(rounds, messages)`` — a check independent
    of both the executor's and the engine's arithmetic.

    Args:
        graph: the base graph the walks run on.
        run: a :class:`WalkBatch` to run live, or a recorded
            ``(steps + 1, W)`` trajectory array.
        faults: optional :class:`~repro.congest.faults.FaultPlan`; with
            an active plan each step's tokens travel the reliable ARQ
            path instead — the structure stays identical (retries, not
            resampling) while the executed rounds grow past the engine's
            clean charge; the surplus is the measured fault overhead.
        context: optional :class:`repro.runtime.RunContext`; the
            reliable path runs under its recovery mode and charges it
            each step's surplus over the ARQ ideal as
            ``faults/retry-rounds`` (``recovery/wait`` under
            self-heal), summed in :attr:`WalkReplay.step_booked`.

    Returns:
        A :class:`WalkReplay` with the executed round/message counts;
        for a :class:`WalkBatch` its ``run`` is the sampled batch.

    Raises:
        ValueError: if a recorded trajectory is not two-dimensional.
        CongestViolation: if a step moves a token along a non-edge.
        ReplayMismatch: if a sampled step's simulator run disagrees with
            the array executor.
        DeliveryTimeout: if faults defeat the retry budget of any step.
    """
    if isinstance(run, WalkBatch):
        replay = _StepReplay(
            graph, run.steps, len(run.starts), faults, context
        )
        walked = run.engine(
            graph, run.starts, run.steps, run.rng, on_step=replay
        )
        return replay.result(walked)
    trajectory = np.asarray(run)
    if trajectory.ndim != 2:
        raise ValueError(
            "replay_walk_run needs a WalkBatch or a (steps + 1, W) "
            f"trajectory, got an array of shape {trajectory.shape}"
        )
    replay = _StepReplay(
        graph, trajectory.shape[0] - 1, trajectory.shape[1], faults, context
    )
    for before, after in zip(trajectory[:-1], trajectory[1:]):
        replay(before, after)
    return replay.result()


@dataclass
class NativeLevel:
    """A native level-1 overlay: edges embed *chains* of G0 paths.

    Attributes:
        parts: level-1 part id per virtual node.
        overlay: the level-1 overlay graph.
        edge_paths: per overlay edge, its real-node path (the
            concatenation of the G0-edge paths the sampling walk took).
        build_rounds: measured rounds of the construction walks.
        round_rounds: measured rounds of one native level-1 round.
    """

    parts: np.ndarray
    overlay: Graph
    edge_paths: list[list[int]]
    build_rounds: int
    round_rounds: int


def build_native_level1(
    g0: NativeG0,
    beta: int,
    degree: int,
    length: int,
    seed: int = 0,
) -> NativeLevel:
    """Build a native level-1 overlay on top of a native ``G0``.

    Sampling walks step across ``G0`` overlay edges; every step is
    *executed* as a traversal of the edge's embedded path, so the level-1
    edges end up embedded as chains of ``G0`` paths — exactly the nested
    embedding of Figure 1, with every message physically routed.

    Args:
        g0: a :class:`NativeG0`.
        beta: number of level-1 parts (hash-assigned).
        degree: same-part neighbours kept per virtual node.
        length: overlay walk length.
        seed: randomness seed.
    """
    rng = derive_rng(seed, 0)
    num_vnodes = g0.overlay.num_nodes
    parts = rng.integers(0, beta, size=num_vnodes)
    arc_paths = _oriented_arc_paths(g0)
    walks_per = max(degree * beta, 2 * degree)
    indptr = g0.overlay.indptr
    indices = g0.overlay.indices
    overlay_degrees = g0.overlay.degrees
    # --- Batched lazy walk over the overlay CSR: all walks step together.
    num_walks = num_vnodes * walks_per
    owners = np.repeat(np.arange(num_vnodes, dtype=np.int64), walks_per)
    positions = owners.copy()
    # arcs_taken[step, w] is the overlay arc walk w crossed at `step`, or
    # -1 if it stayed put (lazy step or isolated vnode).
    arcs_taken = np.full((length, num_walks), -1, dtype=np.int64)
    for step in range(length):
        move = rng.random(num_walks) >= 0.5
        move &= overlay_degrees[positions] > 0
        if not move.any():
            continue
        pos = positions[move]
        arcs = indptr[pos] + rng.integers(0, overlay_degrees[pos])
        arcs_taken[step, move] = arcs
        positions[move] = indices[arcs]
    chains, chain_offsets = _assemble_chains(g0, arc_paths, owners, arcs_taken)
    # --- Same-part endpoint selection, in vnode-major walk order.
    edges: list[tuple[int, int]] = []
    edge_path_walks: list[int] = []
    kept: dict[int, set[int]] = {}
    same_part = parts[positions] == parts[owners]
    for walk_id in np.flatnonzero(same_part & (positions != owners)):
        vnode = int(owners[walk_id])
        position = int(positions[walk_id])
        bucket = kept.setdefault(vnode, set())
        if len(bucket) < degree and position not in bucket:
            bucket.add(position)
            edges.append((vnode, position))
            edge_path_walks.append(int(walk_id))
    # Schedule every traversing chain straight from the CSR (row order
    # and the >1-node filter match the old list-of-lists construction,
    # so the permutation draw — and hence the rounds — are unchanged).
    lens = np.diff(chain_offsets)
    traversing = lens > 1
    trav_offsets = np.zeros(int(traversing.sum()) + 1, dtype=np.int64)
    np.cumsum(lens[traversing], out=trav_offsets[1:])
    build = schedule_paths_csr(
        chains[np.repeat(traversing, lens)],
        trav_offsets,
        rng=derive_rng(seed, 1),
    )
    flat = chains.tolist()
    edge_paths: list[list[int]] = [
        flat[int(chain_offsets[w]) : int(chain_offsets[w + 1])]
        for w in edge_path_walks
    ]
    both_ways = edge_paths + [list(reversed(p)) for p in edge_paths]
    native_round = schedule_paths(
        [path for path in both_ways if len(path) > 1],
        rng=derive_rng(seed, 2),
    )
    return NativeLevel(
        parts=parts,
        overlay=Graph(num_vnodes, edges),
        edge_paths=edge_paths,
        build_rounds=build.rounds,
        round_rounds=native_round.rounds,
    )
