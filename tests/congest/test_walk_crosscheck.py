"""Cross-validate the ledger's walk-schedule accounting against a real
CONGEST execution.

The walk engine charges ``sum_t max_arc load_t(arc)`` rounds for a batch
of walks (Lemma 2.5's schedule).  Here we replay the *same* trajectories
through the message-passing simulator — each node forwards at most one
token per directed edge per round, with a barrier between walk steps —
and check that the real round count equals the engine's charge.
"""

import numpy as np
import pytest

from repro.congest import Network, NodeAlgorithm
from repro.graphs import hypercube, random_regular, ring_graph
from repro.walks import run_lazy_walks


class _TokenForwarder(NodeAlgorithm):
    """Forwards a queue of (token, neighbour) demands, one per arc per round."""

    def __init__(self, context, demands):
        super().__init__(context)
        # demands: list of target neighbour ids, one entry per token to send.
        self.queues = {}
        for target in demands:
            self.queues.setdefault(target, []).append(target)
        self.received = 0

    def _emit(self):
        outbox = {}
        for target, queue in list(self.queues.items()):
            if queue:
                queue.pop()
                outbox[target] = ("tok",)
            if not queue:
                del self.queues[target]
        if not self.queues:
            self.finished = True
        return outbox

    def initialize(self):
        return self._emit()

    def receive(self, round_number, inbox):
        self.received += len(inbox)
        return self._emit()


def _congest_rounds_for_step(graph, origins, targets):
    """Rounds to deliver all (origin -> neighbour target) tokens."""
    net = Network(graph)
    demands = [[] for _ in range(graph.num_nodes)]
    for origin, target in zip(origins, targets):
        demands[int(origin)].append(int(target))
    algorithms = [
        _TokenForwarder(net.context(v), demands[v])
        for v in range(graph.num_nodes)
    ]
    stats = net.run(algorithms)
    delivered = sum(algorithm.received for algorithm in algorithms)
    assert delivered == sum(len(d) for d in demands)
    return stats.rounds


@pytest.mark.parametrize(
    "factory,walks,steps",
    [
        (lambda: ring_graph(12), 40, 6),
        (lambda: hypercube(4), 64, 5),
        (lambda: random_regular(24, 4, np.random.default_rng(0)), 96, 5),
    ],
)
def test_schedule_matches_congest_execution(factory, walks, steps):
    graph = factory()
    rng = np.random.default_rng(42)
    starts = rng.integers(0, graph.num_nodes, size=walks)
    seen = []
    run = run_lazy_walks(
        graph, starts, steps, rng,
        on_step=lambda before, after: seen.append((before, after)),
    )
    total = 0
    for t, (before, after) in enumerate(seen):
        moved = before != after
        if moved.any():
            rounds = _congest_rounds_for_step(
                graph, before[moved], after[moved]
            )
        else:
            rounds = 0
        # The engine charges max(1, congestion) per step.
        assert rounds == run.edge_congestion[t]
        total += max(1, rounds)
    assert total == run.schedule_rounds()


def test_schedule_rounds_lower_bounds_real_execution():
    """Without the per-step barrier the real schedule can only be faster."""
    graph = hypercube(3)
    rng = np.random.default_rng(7)
    starts = rng.integers(0, 8, size=32)
    run = run_lazy_walks(graph, starts, 4, rng)
    assert run.schedule_rounds() >= run.steps
