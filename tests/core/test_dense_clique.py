"""Tests for the dense-regime clique emulation."""

import math

import numpy as np
import pytest

from repro.core.dense_clique import dense_clique_emulation
from repro.graphs import (
    complete_graph,
    erdos_renyi,
    random_regular,
    ring_graph,
)
from repro.theory import log_star


@pytest.fixture()
def rng():
    return np.random.default_rng(220)


class TestDenseEmulation:
    def test_complete_graph_two_rounds(self, rng):
        result = dense_clique_emulation(complete_graph(16), rng)
        assert result.delivered
        # Phase 1 deals n-1 messages over n-1 edges: 1 round; phase 2 is
        # all direct.
        assert result.spread_rounds == 1
        assert result.retries == 0

    def test_dense_er_delivers(self, rng):
        graph = erdos_renyi(64, 0.6, rng)
        result = dense_clique_emulation(graph, rng)
        assert result.delivered
        # Residuals decay geometrically (miss prob ~0.4 per pass), so the
        # last of ~2400 messages clears within ~log_{2.5}(2400) passes.
        assert result.retries <= 15

    def test_rounds_near_bound(self, rng):
        """In regime: rounds ~ n/h * log n * log* n with small constant."""
        n = 64
        graph = erdos_renyi(n, 0.5, rng)
        result = dense_clique_emulation(graph, rng)
        # h ~ Delta/2 ~ np/2 in this regime.
        h_estimate = n * 0.5 / 2
        bound = (n / h_estimate) * math.log2(n) * log_star(n)
        assert result.delivered
        assert result.rounds <= 5 * bound

    def test_sparser_is_slower(self, rng):
        dense = dense_clique_emulation(erdos_renyi(48, 0.7, rng), rng)
        sparse = dense_clique_emulation(erdos_renyi(48, 0.25, rng), rng)
        assert dense.delivered
        assert sparse.rounds > dense.rounds

    def test_off_regime_still_completes(self, rng):
        """A ring is far off-regime: retries pile up but delivery can
        still happen within the budget (or be honestly reported)."""
        result = dense_clique_emulation(ring_graph(12), rng)
        assert result.rounds > 0
        if result.delivered:
            assert result.retries > 0

    def test_regular_graph(self, rng):
        graph = random_regular(48, 24, rng)
        result = dense_clique_emulation(graph, rng)
        assert result.delivered

    def test_tiny_graph(self, rng):
        from repro.graphs import Graph

        assert dense_clique_emulation(Graph(1, []), rng).delivered

    def test_rounds_composition(self, rng):
        result = dense_clique_emulation(erdos_renyi(32, 0.5, rng), rng)
        assert result.rounds == result.spread_rounds + result.deliver_rounds
