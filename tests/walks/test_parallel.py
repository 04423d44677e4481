"""Tests for the Lemma 2.4 / 2.5 parallel-walk scheduler."""

import numpy as np
import pytest

from repro.graphs import hypercube, random_regular, star_graph
from repro.walks import (
    degree_proportional_starts,
    run_parallel_walks,
    run_regular_walks,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(23)


class TestDegreeProportionalStarts:
    def test_counts(self):
        g = star_graph(5)
        starts = degree_proportional_starts(g, 3)
        counts = np.bincount(starts, minlength=5)
        assert np.array_equal(counts, 3 * g.degrees)

    def test_total(self):
        g = hypercube(3)
        starts = degree_proportional_starts(g, 2)
        assert starts.shape[0] == 2 * g.num_arcs


class TestLemma24Load:
    """Per-step node load stays O(k d(v) + log n)."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_load_ratio_bounded(self, rng, k):
        g = random_regular(64, 6, rng)
        starts = degree_proportional_starts(g, k)
        report = run_parallel_walks(g, starts, 20, rng)
        assert report.k == pytest.approx(k)
        # Constant should be modest: measured load within 4x the bound.
        assert report.load_ratio < 4.0

    def test_load_bound_scales_with_k(self, rng):
        g = random_regular(64, 6, rng)
        loads = []
        for k in (1, 4):
            report = run_parallel_walks(
                g, degree_proportional_starts(g, k), 15, rng
            )
            loads.append(report.measured_peak_load)
        assert loads[1] > loads[0]


class TestLemma25Schedule:
    """T steps schedule in O((k + log n) T) rounds."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_rounds_ratio_bounded(self, rng, k):
        g = random_regular(64, 6, rng)
        report = run_parallel_walks(
            g, degree_proportional_starts(g, k), 20, rng
        )
        assert report.rounds_ratio < 2.0

    def test_rounds_at_least_kT(self, rng):
        # The kT lower bound from the paper's discussion before Lemma 2.5.
        g = random_regular(64, 6, rng)
        k, steps = 4, 20
        report = run_parallel_walks(
            g, degree_proportional_starts(g, k), steps, rng
        )
        # Lazy walks move half the time, so expect >= k*T/4 at the least.
        assert report.measured_rounds >= k * steps / 4

    def test_regular_variant(self, rng):
        g = star_graph(16)
        run = run_regular_walks(g, degree_proportional_starts(g, 2), 20, rng)
        assert run.schedule_rounds() >= 20

    def test_empty_batch(self, rng):
        g = hypercube(3)
        report = run_parallel_walks(
            g, np.empty(0, dtype=np.int64), 5, rng
        )
        assert report.measured_peak_load == 0
        assert report.k == 0.0
