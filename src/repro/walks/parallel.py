"""The parallel-walk scheduler of Lemmas 2.4 and 2.5.

Given that each node ``v`` starts at most ``k * d(v)`` walks, Lemma 2.4
bounds the per-step load at any node by ``O(k d(v) + log n)`` w.h.p., and
Lemma 2.5 schedules ``T`` steps of all walks in ``O((k + log n) T)``
CONGEST rounds.  :func:`run_parallel_walks` runs such a batch and reports
both the measured quantities and the lemma bounds side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from .engine import WalkRun, run_lazy_walks, run_regular_walks

__all__ = ["ParallelWalkReport", "degree_proportional_starts", "run_parallel_walks"]


@dataclass
class ParallelWalkReport:
    """Measured vs. predicted behaviour of one parallel-walk batch.

    Attributes:
        run: the underlying :class:`WalkRun`.
        k: walks-per-degree multiplicity of the batch.
        measured_rounds: Lemma 2.5 schedule length on measured congestion.
        predicted_rounds: the ``(k + log2 n) * T`` bound (constant 1).
        measured_peak_load: Lemma 2.4's max per-node token count, measured.
        predicted_peak_load: ``k * Delta + log2 n`` (constant 1).
    """

    run: WalkRun
    k: float
    measured_rounds: int
    predicted_rounds: float
    measured_peak_load: int
    predicted_peak_load: float

    @property
    def rounds_ratio(self) -> float:
        """Measured rounds over the Lemma 2.5 bound (should be O(1))."""
        return self.measured_rounds / max(1.0, self.predicted_rounds)

    @property
    def load_ratio(self) -> float:
        """Measured peak load over the Lemma 2.4 bound (should be O(1))."""
        return self.measured_peak_load / max(1.0, self.predicted_peak_load)


def degree_proportional_starts(graph: Graph, k: int) -> np.ndarray:
    """Start array with exactly ``k * d(v)`` walks at every node ``v``.

    This is the canonical Lemma 2.4 workload: one walk per arc, repeated
    ``k`` times, so the token distribution is stationary from step 0.
    """
    per_node = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    return np.tile(per_node, k)


def run_parallel_walks(
    graph: Graph,
    starts: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    regular: bool = False,
) -> ParallelWalkReport:
    """Run a batch of parallel walks and report measured vs. bound.

    Args:
        graph: graph to walk on.
        starts: start node per walk.
        steps: synchronous steps ``T``.
        rng: randomness source.
        regular: use the ``2*Delta``-regular walk instead of the lazy walk.

    Returns:
        A :class:`ParallelWalkReport`; its ratios should stay ``O(1)`` for
        any workload satisfying the per-degree start condition.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.bincount(starts, minlength=graph.num_nodes)
    degrees = np.maximum(graph.degrees, 1)
    k = float(np.max(counts / degrees)) if starts.size else 0.0
    runner = run_regular_walks if regular else run_lazy_walks
    run = runner(graph, starts, steps, rng, node_loads=True)
    log_n = math.log2(max(2, graph.num_nodes))
    return ParallelWalkReport(
        run=run,
        k=k,
        measured_rounds=run.schedule_rounds(),
        predicted_rounds=(k + log_n) * steps,
        measured_peak_load=run.peak_node_load(),
        predicted_peak_load=k * graph.max_degree + log_n,
    )
