"""Tests for MST via congested-clique emulation."""

import numpy as np
import pytest

from repro.baselines import kruskal
from repro.core.clique_mst import clique_boruvka_mst
from repro.graphs import (
    hypercube,
    random_regular,
    with_random_weights,
    with_weights,
)


class TestCliqueMst:
    def test_matches_kruskal(self, weighted64, hierarchy64, params):
        result = clique_boruvka_mst(
            weighted64,
            params=params,
            rng=np.random.default_rng(200),
            hierarchy=hierarchy64,
        )
        assert result.edge_ids == kruskal(weighted64)

    def test_duplicate_weights(self, expander64, hierarchy64, params):
        graph = with_weights(expander64, np.ones(expander64.num_edges))
        result = clique_boruvka_mst(
            graph,
            params=params,
            rng=np.random.default_rng(201),
            hierarchy=hierarchy64,
        )
        assert result.edge_ids == kruskal(graph)

    def test_clique_rounds_logarithmic(self, weighted64, hierarchy64, params):
        result = clique_boruvka_mst(
            weighted64,
            params=params,
            rng=np.random.default_rng(202),
            hierarchy=hierarchy64,
        )
        # 3 clique rounds per iteration, O(log n) iterations.
        assert result.clique_rounds == 3 * result.iterations
        assert result.iterations <= 12

    def test_rounds_composition(self, weighted64, hierarchy64, params):
        start = len(hierarchy64.ledger)
        result = clique_boruvka_mst(
            weighted64,
            params=params,
            rng=np.random.default_rng(203),
            hierarchy=hierarchy64,
        )
        assert result.rounds == pytest.approx(
            result.clique_rounds * result.clique_round_cost
        )
        assert result.clique_round_cost > 0
        # The calibration router charges its portals to the hierarchy.
        assert "portals" in hierarchy64.ledger.slice_from(start).by_prefix()

    def test_other_topology(self, params):
        rng = np.random.default_rng(204)
        graph = with_random_weights(hypercube(5), rng)
        result = clique_boruvka_mst(graph, params=params, rng=rng)
        assert result.edge_ids == kruskal(graph)

    def test_unweighted_rejected(self, params):
        rng = np.random.default_rng(205)
        with pytest.raises(TypeError):
            clique_boruvka_mst(
                random_regular(16, 4, rng), params=params, rng=rng
            )

    def test_fewer_iterations_than_coin_boruvka(
        self, weighted64, hierarchy64, params
    ):
        """Classic all-merge Boruvka needs no coins: <= log2 n iterations."""
        result = clique_boruvka_mst(
            weighted64,
            params=params,
            rng=np.random.default_rng(206),
            hierarchy=hierarchy64,
        )
        assert result.iterations <= 6  # log2(64)
