"""Tests for mixing-time estimation."""

import pytest

from repro.graphs import hypercube, mixing_time, ring_graph
from repro.walks import estimate_mixing_time
from repro.walks.mixing import EXACT_LIMIT, _spectral_estimate


class TestEstimates:
    def test_exact_path_used_for_small(self):
        g = hypercube(4)
        assert estimate_mixing_time(g) == mixing_time(g)

    def test_spectral_estimate_upper_bounds_exact(self):
        # The spectral estimate should not undershoot the true value much.
        for g in (hypercube(4), ring_graph(24)):
            spectral = _spectral_estimate(g)
            assert spectral >= mixing_time(g) * 0.5

    def test_disconnected_raises(self):
        from repro.graphs import Graph

        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            estimate_mixing_time(g)

    def test_exact_limit_is_reasonable(self):
        assert EXACT_LIMIT >= 256
