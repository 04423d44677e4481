"""Tests for the vectorized walk engines."""

import numpy as np
import pytest

from repro.graphs import complete_graph, hypercube, ring_graph, star_graph
from repro.walks import run_lazy_walks, run_regular_walks


@pytest.fixture()
def rng():
    return np.random.default_rng(11)


def _recorded(runner, graph, starts, steps, rng):
    """Run ``runner`` with a step hook that records the trajectory."""
    rows = [np.asarray(starts)]
    run = runner(
        graph, starts, steps, rng,
        on_step=lambda _before, after: rows.append(after),
    )
    return run, np.stack(rows)


def _stepwise(graph, starts, steps, rng):
    """A regular walk batch's positions before and after each step.

    The regular engine takes no step hook; ``steps`` single-step runs,
    each from the last one's positions, draw the same stream as one
    ``steps``-step run.
    """
    rows = [np.asarray(starts)]
    for _ in range(steps):
        rows.append(run_regular_walks(graph, rows[-1], 1, rng).positions)
    return np.stack(rows)


class TestLazyWalks:
    def test_zero_steps(self, rng):
        g = ring_graph(8)
        starts = np.arange(8)
        run = run_lazy_walks(g, starts, 0, rng)
        assert np.array_equal(run.positions, starts)
        assert run.schedule_rounds() == 0

    def test_positions_valid(self, rng):
        g = hypercube(4)
        run = run_lazy_walks(g, np.zeros(100, dtype=np.int64), 10, rng)
        assert run.positions.min() >= 0
        assert run.positions.max() < 16

    def test_steps_recorded(self, rng):
        g = ring_graph(8)
        run, trajectory = _recorded(run_lazy_walks, g, np.arange(8), 7, rng)
        assert run.steps == 7
        assert len(run.edge_congestion) == 7
        assert len(trajectory) == 8

    def test_single_step_moves_to_neighbors(self, rng):
        g = star_graph(5)
        run = run_lazy_walks(g, np.full(1000, 1, dtype=np.int64), 1, rng)
        # From leaf 1, a lazy step stays (p=1/2) or goes to hub 0.
        assert set(np.unique(run.positions)) <= {0, 1}
        fraction_moved = np.mean(run.positions == 0)
        assert 0.4 < fraction_moved < 0.6

    def test_trajectory_shape(self, rng):
        g = ring_graph(6)
        _, trajectory = _recorded(run_lazy_walks, g, np.arange(6), 4, rng)
        assert trajectory.shape == (5, 6)
        assert np.array_equal(trajectory[0], np.arange(6))

    def test_trajectory_steps_are_edges_or_stays(self, rng):
        g = hypercube(3)
        _, trajectory = _recorded(run_lazy_walks, g, np.arange(8), 6, rng)
        for t in range(6):
            for w in range(8):
                a, b = int(trajectory[t, w]), int(trajectory[t + 1, w])
                assert a == b or g.has_edge(a, b)

    def test_stationary_degree_proportional(self, rng):
        g = star_graph(5)  # hub degree 4, leaves degree 1
        starts = np.repeat(np.arange(5), 4000)
        run = run_lazy_walks(g, starts, 60, rng)
        counts = np.bincount(run.positions, minlength=5) / starts.shape[0]
        stationary = g.degrees / (2 * g.num_edges)
        assert np.allclose(counts, stationary, atol=0.02)

    def test_congestion_positive_when_moving(self, rng):
        g = complete_graph(8)
        run = run_lazy_walks(g, np.arange(8), 5, rng)
        assert max(run.edge_congestion) >= 1

    def test_schedule_rounds_at_least_steps(self, rng):
        g = ring_graph(8)
        run = run_lazy_walks(g, np.arange(8), 9, rng)
        assert run.schedule_rounds() >= 9

    def test_num_walks(self, rng):
        g = ring_graph(8)
        run = run_lazy_walks(g, np.arange(8), 1, rng)
        assert run.num_walks == 8


class TestRegularWalks:
    def test_positions_valid(self, rng):
        g = star_graph(6)
        run = run_regular_walks(g, np.arange(6), 20, rng)
        assert run.positions.max() < 6

    def test_stationary_uniform(self, rng):
        g = star_graph(5)
        starts = np.repeat(np.arange(5), 4000)
        run = run_regular_walks(g, starts, 80, rng)
        counts = np.bincount(run.positions, minlength=5) / starts.shape[0]
        assert np.allclose(counts, 0.2, atol=0.02)

    def test_leaf_move_probability(self, rng):
        g = star_graph(5)  # Delta = 4; leaf moves w.p. 1/8
        run = run_regular_walks(g, np.full(8000, 1, dtype=np.int64), 1, rng)
        fraction_moved = np.mean(run.positions == 0)
        assert 0.09 < fraction_moved < 0.16

    def test_trajectory(self):
        g = hypercube(3)
        trajectory = _stepwise(g, np.arange(8), 3, np.random.default_rng(11))
        run = run_regular_walks(g, np.arange(8), 3, np.random.default_rng(11))
        assert trajectory.shape == (4, 8)
        assert np.array_equal(trajectory[-1], run.positions)

    def test_peak_node_load(self, rng):
        g = complete_graph(6)
        trajectory = _stepwise(g, np.zeros(30, dtype=np.int64), 5, rng)
        loads = [np.bincount(row, minlength=6).max() for row in trajectory[1:]]
        assert max(loads) >= 5  # 30 walks over 6 nodes

    def test_stays_within_component(self, rng):
        from repro.graphs import Graph

        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        run = run_regular_walks(g, np.array([0, 3]), 30, rng)
        assert run.positions[0] in (0, 1, 2)
        assert run.positions[1] in (3, 4, 5)
