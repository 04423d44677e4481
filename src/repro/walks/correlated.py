"""Correlated parallel walks — the ``k = o(log n)`` refinement.

Lemma 2.5 schedules independent walks in ``O((k + log n) T)`` rounds; for
``k = o(log n)`` the additive ``log n`` (driven by Chernoff fluctuations
of independent edge choices) dominates and the bound is suboptimal
against the ``k T`` lower bound.  The paper notes (end of Section 2) that
this gap can be closed by running the walks *in a carefully correlated
fashion*, deferring details to the full version.

This module implements that idea with the standard token-balancing
correlation: per step, every node deals its resident tokens onto its
incident edges almost-evenly (a random rotation of a round-robin deal,
plus a lazy coin per token).  Properties:

* **Per-edge load is deterministic-ish**: a node holding ``t`` tokens
  sends at most ``ceil(t / (2 d(v)))``... more precisely at most
  ``ceil(moving / d(v))`` tokens per edge, so one step schedules in
  ``O(k + 1)`` rounds instead of ``O(k + log n)``.
* **Per-token marginal**: the random rotation makes each moving token's
  edge uniform among the ``d(v)`` incident edges, so each token's
  marginal law is exactly the lazy random walk (tokens are no longer
  independent, which is the point).

The stationary/mixing behaviour of the *marginals* is therefore
unchanged, and all the construction steps that only consume walk
endpoints (G0, level overlays, portals) can run on correlated batches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graphs.graph import Graph
from .engine import StepHook, WalkRun, _Recorder

__all__ = ["run_correlated_walks"]


def run_correlated_walks(
    graph: Graph,
    starts: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    record_trajectory: bool = False,
    *,
    on_step: Optional[StepHook] = None,
) -> WalkRun:
    """Run token-balanced (correlated) lazy walks.

    Per step, each token first flips the lazy coin (stay w.p. 1/2); each
    node then deals its moving tokens over its incident edges by a
    uniformly rotated round-robin, so no edge carries more than
    ``ceil(moving_tokens / degree)`` tokens.

    Args:
        graph: graph to walk on.
        starts: start node per token.
        steps: synchronous steps.
        rng: randomness source.
        record_trajectory: attach a ``(steps+1, W)`` trajectory array.
        on_step: optional per-step ``(before, after)`` hook, as for
            :func:`repro.walks.engine.run_lazy_walks`.

    Returns:
        A :class:`WalkRun` whose measured congestion is near-optimal
        (``~ceil(k)`` per step for degree-proportional batches).
    """
    starts = np.asarray(starts, dtype=np.int64)
    positions = starts.copy()
    run = WalkRun(starts=starts, positions=positions, steps=steps)
    recorder = _Recorder(starts, on_step) if record_trajectory else None
    hook = recorder if recorder is not None else on_step
    indptr = graph.indptr
    indices = graph.indices
    degrees = graph.degrees
    num_tokens = positions.shape[0]
    for _ in range(steps):
        before = positions
        move = rng.random(num_tokens) < 0.5
        move &= degrees[positions] > 0
        moving_idx = np.flatnonzero(move)
        if moving_idx.size:
            # Group moving tokens by node; deal each group round-robin
            # over the node's arcs, starting from a random rotation and in
            # a random token order (so each token's marginal is uniform).
            order = rng.permutation(moving_idx)
            nodes = positions[order]
            sort = np.argsort(nodes, kind="stable")
            order = order[sort]
            nodes = nodes[sort]
            boundaries = np.flatnonzero(
                np.diff(np.concatenate(([-1], nodes, [-1])))
            )
            chosen_arcs = np.empty(order.shape[0], dtype=np.int64)
            for lo, hi in zip(boundaries[:-1], boundaries[1:]):
                node = nodes[lo]
                degree = degrees[node]
                rotation = rng.integers(0, degree)
                offsets = (rotation + np.arange(hi - lo)) % degree
                chosen_arcs[lo:hi] = indptr[node] + offsets
            new_positions = positions.copy()
            new_positions[order] = indices[chosen_arcs]
            positions = new_positions
            arc_counts = np.bincount(chosen_arcs, minlength=graph.num_arcs)
            congestion = int(arc_counts.max())
        else:
            congestion = 0
        node_counts = np.bincount(positions, minlength=graph.num_nodes)
        run.edge_congestion.append(congestion)
        run.max_node_load.append(int(node_counts.max()))
        if hook is not None:
            hook(before, positions)
    run.positions = positions
    if recorder is not None:
        run.trajectory = recorder.stack()
    return run
