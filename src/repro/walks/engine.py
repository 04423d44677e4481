"""Vectorized random-walk engines with congestion measurement.

Every walk phase in the paper is scheduled by Lemma 2.5: one synchronous
walk *step* of all tokens costs (in CONGEST rounds) the maximum number of
tokens that must cross a single edge in that step.  The engines here
advance all tokens one step at a time with numpy and record exactly that
per-step maximum, so round accounting uses the *measured* congestion of
the true random process rather than the lemma's upper bound.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from ..graphs.graph import Graph

__all__ = [
    "StepHook",
    "StepTable",
    "WalkRun",
    "keyed_step",
    "run_lazy_walks",
    "run_regular_walks",
]

# Size cap of the buffer the uniforms are drawn into, a block of steps
# at a time (two float64 per walk per step).  The buffer is reused
# across blocks: fresh multi-MiB draws per step fragmented the heap
# enough to show up in peak RSS.  Above _OVERLAP_WALKS walks a second
# buffer of the same size takes the next block's draws on a helper
# thread while this one steps, so a step hook must not draw from the
# walk's generator.
_BLOCK_BYTES = 1 << 20

# Walk count above which the next block is drawn on a helper thread.
# Measured with one helper per call on the walk_engine bench shape
# (random_regular(W / 16, 8), 100 steps, 2 cores): 1024-2048 walks ran
# 3-24% slower with the helper, 3072 ran 2% slower, and from 4096 walks
# up it ran 5-34% faster.  Below that a block's fill is too short to
# pay for the thread and its handoffs.
_OVERLAP_WALKS = 4096

# The helper pays only when it runs beside the stepping thread: pinned
# to one core, a cold random_regular(512, 6) open ran about 6% slower
# with it, so a process with one usable core never starts it.
_SPARE_CORE = (
    len(os.sched_getaffinity(0)) > 1
    if hasattr(os, "sched_getaffinity")
    else (os.cpu_count() or 1) > 1
)

#: A per-step callback ``hook(before, after)``: the positions of every
#: walk before and after one synchronous step.  Engines call it once per
#: step, in step order, and never modify either array afterwards.  A
#: hook must not draw from the walk's generator: the engine may be
#: drawing the next block of uniforms from it on another thread.
StepHook = Callable[[np.ndarray, np.ndarray], None]


class StepTable(NamedTuple):
    """A CSR adjacency laid out for :func:`keyed_step`.

    Attributes:
        indptr: CSR row pointers.
        degrees: out-degree per node.
        landing: arc tails followed by arc heads, shape ``(2 * num_arcs,)``:
            a token that picked arc ``a`` lands on ``landing[a]`` if it
            stays and on ``landing[num_arcs + a]`` if it moves.
        num_arcs: number of arcs (0 allowed: nothing moves).
        has_isolated: whether some node has degree 0.
        degree: the common out-degree ``d`` when every node has the same
            positive degree, else 0.  Node ``v``'s row then starts at
            ``v * d``, so :func:`keyed_step` needs no per-walk gather.
    """

    indptr: np.ndarray
    degrees: np.ndarray
    landing: np.ndarray
    num_arcs: int
    has_isolated: bool
    degree: int

    @classmethod
    def build(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
        tails: np.ndarray,
    ) -> "StepTable":
        """Table over a CSR whose arc ``a`` leaves node ``tails[a]``."""
        has_isolated = not degrees.all()
        regular = (
            degrees.size > 0
            and not has_isolated
            and bool((degrees == degrees[0]).all())
        )
        return cls(
            indptr=indptr,
            degrees=degrees,
            landing=np.concatenate((tails, indices)),
            num_arcs=int(indices.shape[0]),
            has_isolated=has_isolated,
            degree=int(degrees[0]) if regular else 0,
        )

    @classmethod
    def of(cls, graph: Graph) -> "StepTable":
        """Table over a graph's own CSR."""
        return cls.build(
            graph.indptr, graph.indices, graph.degrees, graph.arc_tails
        )


def keyed_step(
    table: StepTable,
    positions: np.ndarray,
    move: np.ndarray,
    choice_u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance all walks one step over a CSR adjacency.

    The shared inner step of :func:`run_lazy_walks` and
    :func:`run_regular_walks`, so the arc choice is the *same
    arithmetic* in both: ``floor(u * degree)`` with the uniform
    ``choice_u``.

    Every token gets a *key*: its chosen arc, plus ``num_arcs`` if it
    moves.  One gather from :attr:`StepTable.landing` then yields every
    new position — a stay's chosen arc leaves the token's own node, so
    its tail is where it already is (``u < 1`` keeps ``floor(u * d)``
    below ``d`` in float64) — and the upper half of a bincount over the
    keys is the step's per-arc load.

    On a regular table (:attr:`StepTable.degree` set) the key is
    ``pos * d + floor(u * d)`` with no per-walk gather: ``indptr[v]`` is
    ``v * d`` there, and ``u * d`` is the same float64 product as
    ``u * degrees[v]``, so the keys are bit-identical to the general
    branch's.

    Args:
        table: the adjacency.
        positions: current node per walk.
        move: per walk, whether it moves this step; must already fold in
            the degree-0 guard.
        choice_u: uniform draw in ``[0, 1)`` per walk (consumed even for
            stays — the caller's draw order is part of its contract).

    Returns:
        ``(new_positions, keys)``, keys in ``[0, 2 * num_arcs)`` (no
        token moves when ``num_arcs`` is 0).
    """
    degree = table.degree
    if degree:
        keys = (choice_u * degree).astype(np.int64)
        keys += positions * degree
        keys += move * table.num_arcs
        return table.landing.take(keys), keys
    degrees = table.degrees[positions]
    keys = table.indptr[positions] + (choice_u * degrees).astype(np.int64)
    if not table.num_arcs:
        return positions, keys
    if table.has_isolated:
        # A degree-0 node's row is empty: clamp its (meaningless) arc
        # into bounds and keep the token where it is below.
        np.minimum(keys, table.num_arcs - 1, out=keys)
    keys += move * table.num_arcs
    landed = table.landing.take(keys)
    if table.has_isolated:
        landed = np.where(degrees > 0, landed, positions)
    return landed, keys


@dataclass
class WalkRun:
    """Outcome of running a batch of independent walks.

    Attributes:
        starts: start node of each walk.
        positions: final node of each walk.
        steps: number of synchronous steps performed.
        edge_congestion: per step, the max number of tokens crossing any
            single edge (0 if no token moved that step).

    Anything else about the steps (positions, node loads) is observed
    through the engines' ``on_step`` hook (:data:`StepHook`).
    """

    starts: np.ndarray
    positions: np.ndarray
    steps: int
    edge_congestion: list[int] = field(default_factory=list)

    @property
    def num_walks(self) -> int:
        """Number of walks in the batch."""
        return int(self.starts.shape[0])

    def schedule_rounds(self) -> int:
        """CONGEST rounds of the Lemma 2.5 schedule for this batch.

        Each step runs as one phase whose length is the max edge load
        (at least 1, since the step itself takes a round even if short).
        """
        return int(sum(max(1, c) for c in self.edge_congestion))


class _Fill(threading.Thread):
    """One helper thread that draws a walk batch's blocks of uniforms.

    :meth:`submit` hands it a buffer and :meth:`result` waits for that
    buffer, filled by ``rng.random(out=buffer)``: one block at a time,
    in the caller's order.  The fill releases the GIL, so it runs beside
    the caller's steps.  The generator's state before each draw is kept
    until the caller takes the block, so a caller that abandons the
    block can put the generator back where a sequential engine would
    have left it (:meth:`close`).
    """

    def __init__(self, rng: np.random.Generator):
        super().__init__(name="walk-uniforms")
        self.rng = rng
        self.requests: queue.SimpleQueue = queue.SimpleQueue()
        self.replies: queue.SimpleQueue = queue.SimpleQueue()
        # The generator's state before the block not yet taken.
        self.state: Optional[dict] = None
        self.start()

    def run(self) -> None:
        while (out := self.requests.get()) is not None:
            try:
                self.rng.random(out=out)
            except BaseException as error:  # re-raised by result()
                self.replies.put(error)
            else:
                self.replies.put(out)

    def submit(self, out: np.ndarray) -> None:
        """Start drawing the next block into ``out``."""
        self.state = self.rng.bit_generator.state
        self.requests.put(out)

    def result(self) -> np.ndarray:
        """Wait for the submitted block and return its filled buffer."""
        out = self.replies.get()
        if isinstance(out, BaseException):
            raise out
        self.state = None
        return out

    def close(self) -> None:
        """Stop the helper; undo a draw the caller did not take.

        The helper takes requests in order, so once it is joined any
        draw in flight has ended.
        """
        self.requests.put(None)
        self.join()
        if self.state is not None:
            self.rng.bit_generator.state = self.state


def run_lazy_walks(
    graph: Graph,
    starts: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    *,
    on_step: Optional[StepHook] = None,
) -> WalkRun:
    """Run lazy random walks (stay w.p. 1/2, else uniform incident edge).

    Args:
        graph: the graph to walk on.
        starts: start node per walk, shape ``(W,)``.
        steps: number of synchronous steps.
        rng: randomness source.
        on_step: optional :data:`StepHook` called with each step's
            ``(before, after)`` positions as the step is taken — how the
            native backend executes a batch as messages, and how a
            caller records a trajectory (append each ``after`` to a
            list that starts with ``starts``) or per-step node loads.
            It must draw nothing from ``rng``, which a helper thread may
            be drawing the next block from.

    Returns:
        A :class:`WalkRun` with measured per-step congestion.
    """
    move_probability = np.where(graph.degrees > 0, 0.5, 0.0)
    return _run_walks(graph, starts, steps, rng, move_probability, on_step)


def run_regular_walks(
    graph: Graph,
    starts: np.ndarray,
    steps: int,
    rng: np.random.Generator,
) -> WalkRun:
    """Run ``2*Delta``-regular walks (Definition 2.2).

    Each token moves to each incident edge w.p. ``1/(2*Delta)`` and stays
    otherwise, giving a uniform stationary distribution.  Arguments as
    for :func:`run_lazy_walks` (no ``on_step``).
    """
    delta = max(1, graph.max_degree)
    move_probability = graph.degrees / (2.0 * delta)
    return _run_walks(graph, starts, steps, rng, move_probability, None)


def _run_walks(
    graph: Graph,
    starts: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    move_probability: np.ndarray,
    on_step: Optional[StepHook],
) -> WalkRun:
    """Walks that move w.p. ``move_probability[node]`` per step.

    Per step and walk, draws the move coin and then the arc choice — the
    stream of two ``rng.random(W)`` calls per step, filled a block of
    steps at a time into one reused buffer.  With more than
    ``_OVERLAP_WALKS`` walks and a spare core, one helper thread (started
    once per call) fills the next block into a second buffer while this
    block steps: the same draws in the same order, and if a step or a
    fill raises, the helper is joined and the untaken draw undone, so
    the generator ends where a sequential fill leaves it.  No helper
    thread outlives the call.  When every node has the same move
    probability the coin is compared against that scalar rather than a
    per-walk gather of it.

    Congestion is per *directed* arc: the CONGEST model allows one message
    per edge per direction per round, so opposite-direction tokens cross
    simultaneously.
    """
    starts = np.asarray(starts, dtype=np.int64)
    positions = starts.copy()
    run = WalkRun(starts=starts, positions=positions, steps=steps)
    table = StepTable.of(graph)
    num_arcs = table.num_arcs
    num_walks = positions.shape[0]
    block = max(1, min(steps, _BLOCK_BYTES // (16 * max(1, num_walks))))
    draws = np.empty((block, 2, num_walks))
    scalar_p = (
        move_probability[0]
        if move_probability.size
        and (move_probability == move_probability[0]).all()
        else None
    )
    # With the overlap, each block steps in one buffer while the helper
    # fills the next block into the other.
    spare = (
        np.empty_like(draws)
        if _SPARE_CORE and num_walks > _OVERLAP_WALKS and steps > block
        else None
    )
    fill = _Fill(rng) if spare is not None else None
    try:
        for first in range(0, steps, block):
            if first and fill is not None:
                chunk = fill.result()
                draws, spare = spare, draws
            else:
                chunk = draws[: min(block, steps - first)]
                rng.random(out=chunk)
            after = first + block
            if fill is not None and after < steps:
                fill.submit(spare[: min(block, steps - after)])
            for coin, choice_u in chunk:
                move = coin < (
                    move_probability[positions]
                    if scalar_p is None
                    else scalar_p
                )
                before = positions
                positions, keys = keyed_step(table, positions, move, choice_u)
                if num_arcs:
                    arc_loads = np.bincount(keys, minlength=2 * num_arcs)
                    run.edge_congestion.append(
                        int(arc_loads[num_arcs:].max())
                    )
                else:
                    run.edge_congestion.append(0)
                if on_step is not None:
                    on_step(before, positions)
    finally:
        if fill is not None:
            fill.close()
    run.positions = positions
    return run
