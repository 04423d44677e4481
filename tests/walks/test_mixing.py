"""Tests for mixing-time estimation."""

import numpy as np
import pytest

from repro.graphs import hypercube, mixing_time, ring_graph
from repro.walks import (
    empirical_tv_distance,
    estimate_mixing_time,
    estimate_regular_mixing_time,
)
from repro.walks.mixing import EXACT_LIMIT, _spectral_estimate


class TestEstimates:
    def test_exact_path_used_for_small(self):
        g = hypercube(4)
        assert estimate_mixing_time(g) == mixing_time(g)

    def test_spectral_estimate_upper_bounds_exact(self):
        # The spectral estimate should not undershoot the true value much.
        for g in (hypercube(4), ring_graph(24)):
            spectral = _spectral_estimate(g, regular=False)
            assert spectral >= mixing_time(g) * 0.5

    def test_regular_estimate(self):
        g = hypercube(3)
        assert estimate_regular_mixing_time(g) >= 1

    def test_disconnected_raises(self):
        from repro.graphs import Graph

        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            estimate_mixing_time(g)

    def test_exact_limit_is_reasonable(self):
        assert EXACT_LIMIT >= 256


class TestEmpiricalTV:
    def test_decreases_with_steps(self):
        # Star graph: a uniform-per-node start is far from the
        # degree-proportional stationary distribution, so the TV distance
        # must visibly shrink as the walks mix.
        from repro.graphs import star_graph

        g = star_graph(16)
        rng = np.random.default_rng(0)
        early = empirical_tv_distance(g, 0, rng, walks_per_node=128)
        late = empirical_tv_distance(g, 60, rng, walks_per_node=128)
        assert late < early / 3

    def test_small_after_mixing(self):
        g = hypercube(4)
        rng = np.random.default_rng(1)
        tau = mixing_time(g)
        tv = empirical_tv_distance(g, tau, rng, walks_per_node=256)
        assert tv < 0.05
