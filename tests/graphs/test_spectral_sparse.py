"""Tests for the sparse (Lanczos) spectral-gap path."""

import numpy as np
import pytest

from repro.graphs import hypercube, random_regular, ring_graph, spectral_gap
from repro.graphs.properties import SPARSE_THRESHOLD, _spectral_gap_sparse


class TestSparseGap:
    @pytest.mark.parametrize("regular", [False, True])
    def test_matches_dense(self, regular):
        rng = np.random.default_rng(0)
        g = random_regular(96, 6, rng)
        assert g.num_nodes <= SPARSE_THRESHOLD
        dense = spectral_gap(g, regular=regular)  # the dense path
        sparse = _spectral_gap_sparse(g, regular=regular)
        assert sparse == pytest.approx(dense, rel=1e-6, abs=1e-9)

    def test_matches_on_irregular_graph(self):
        g = ring_graph(64)
        # Make it irregular by adding chords.
        from repro.graphs import Graph

        edges = list(g.edges()) + [(0, 32), (0, 16), (8, 40)]
        g2 = Graph(64, edges)
        dense = spectral_gap(g2)  # the dense path
        sparse = _spectral_gap_sparse(g2, regular=False)
        assert sparse == pytest.approx(dense, rel=1e-6, abs=1e-9)

    def test_auto_dispatch_large(self):
        rng = np.random.default_rng(1)
        g = random_regular(1024, 8, rng)
        assert g.num_nodes > SPARSE_THRESHOLD
        gap = spectral_gap(g)  # takes the sparse path
        assert 0.05 < gap < 0.5

    def test_hypercube_gap_value(self):
        # Lazy hypercube gap is exactly 1/d... for the d-cube the
        # normalized adjacency gap is 2/d, halved by laziness.
        d = 7
        g = hypercube(d)
        gap = _spectral_gap_sparse(g, regular=False)
        assert gap == pytest.approx(1.0 / d, rel=1e-6)
