"""Tests for the correlated (token-balanced) walk scheduler."""

import numpy as np
import pytest

from repro.graphs import hypercube, random_regular, ring_graph, star_graph
from repro.walks import degree_proportional_starts, run_lazy_walks
from repro.walks.correlated import run_correlated_walks


@pytest.fixture()
def rng():
    return np.random.default_rng(180)


class TestMechanics:
    def test_positions_valid(self, rng):
        g = hypercube(4)
        run = run_correlated_walks(
            g, np.zeros(50, dtype=np.int64), 10, rng
        )
        assert run.positions.min() >= 0
        assert run.positions.max() < 16

    def test_steps_are_edges_or_stays(self, rng):
        g = hypercube(3)
        steps = []
        run_correlated_walks(
            g, np.arange(8), 6, rng,
            on_step=lambda before, after: steps.append((before, after)),
        )
        assert len(steps) == 6
        for before, after in steps:
            for a, b in zip(before.tolist(), after.tolist()):
                assert a == b or g.has_edge(a, b)

    def test_zero_steps(self, rng):
        g = ring_graph(6)
        run = run_correlated_walks(g, np.arange(6), 0, rng)
        assert np.array_equal(run.positions, np.arange(6))


class TestMarginals:
    def test_single_step_marginal_uniform_neighbour(self, rng):
        """Each token's one-step law matches the lazy walk exactly."""
        g = star_graph(5)
        # One token alone at leaf 1: moves to hub w.p. 1/2.
        hits = 0
        trials = 4000
        for seed in range(trials):
            local = np.random.default_rng(seed)
            run = run_correlated_walks(
                g, np.array([1], dtype=np.int64), 1, local
            )
            hits += int(run.positions[0] == 0)
        assert 0.45 < hits / trials < 0.55

    def test_stationary_matches_lazy_walks(self, rng):
        """Endpoint distributions of correlated and independent batches
        agree after mixing."""
        g = star_graph(6)
        starts = np.repeat(np.arange(6), 500)
        corr = run_correlated_walks(g, starts, 60, rng)
        indep = run_lazy_walks(g, starts, 60, rng)
        dist_c = np.bincount(corr.positions, minlength=6) / starts.shape[0]
        dist_i = np.bincount(indep.positions, minlength=6) / starts.shape[0]
        assert np.abs(dist_c - dist_i).max() < 0.05

    def test_uniform_over_neighbours(self, rng):
        """With many tokens at one node, the deal is uniform per token."""
        g = star_graph(5)
        counts = np.zeros(5)
        for seed in range(300):
            local = np.random.default_rng(seed)
            run = run_correlated_walks(
                g, np.zeros(8, dtype=np.int64), 1, local
            )
            counts += np.bincount(run.positions, minlength=5)
        moved = counts[1:]
        assert moved.min() > 0.7 * moved.mean()


class TestSchedulingAdvantage:
    def test_congestion_near_k(self, rng):
        """The point of correlation: per-step load ~ ceil(k), no +log n."""
        g = random_regular(256, 6, rng)
        k = 2
        starts = degree_proportional_starts(g, k)
        corr = run_correlated_walks(g, starts, 15, rng)
        indep = run_lazy_walks(g, starts, 15, rng)
        # Correlated: each node deals ~k*d/2 moving tokens over d arcs.
        assert max(corr.edge_congestion) <= 3 * k
        # Independent walks fluctuate well above k.
        assert max(indep.edge_congestion) > max(corr.edge_congestion)

    def test_schedule_beats_independent(self, rng):
        g = random_regular(256, 6, rng)
        starts = degree_proportional_starts(g, 1)
        corr = run_correlated_walks(g, starts, 20, rng)
        indep = run_lazy_walks(g, starts, 20, rng)
        assert corr.schedule_rounds() < indep.schedule_rounds()

    def test_schedule_close_to_kT_lower_bound(self, rng):
        """Within a small factor of the kT lower bound."""
        g = random_regular(128, 6, rng)
        k, steps = 4, 20
        starts = degree_proportional_starts(g, k)
        corr = run_correlated_walks(g, starts, steps, rng)
        assert corr.schedule_rounds() <= 1.5 * k * steps
