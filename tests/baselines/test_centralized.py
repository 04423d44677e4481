"""Tests for the centralized MST oracles."""

import numpy as np
import pytest

from repro.baselines import is_spanning_tree, kruskal, mst_weight, prim
from repro.graphs import (
    Graph,
    WeightedGraph,
    complete_graph,
    hypercube,
    random_regular,
    ring_graph,
    with_random_weights,
    with_weights,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(140)


class TestKruskal:
    def test_path_tree(self):
        g = WeightedGraph(3, [(0, 1), (1, 2), (0, 2)], [1.0, 2.0, 3.0])
        assert kruskal(g) == [0, 1]

    def test_tie_break_by_id(self):
        g = WeightedGraph(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 1.0])
        assert kruskal(g) == [0, 1]

    def test_disconnected_raises(self):
        g = WeightedGraph(4, [(0, 1), (2, 3)], [1.0, 1.0])
        with pytest.raises(ValueError, match="disconnected"):
            kruskal(g)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_prim(self, rng, seed):
        local = np.random.default_rng(seed)
        g = with_random_weights(random_regular(32, 4, local), local)
        assert kruskal(g) == prim(g)

    def test_weight_minimal_vs_random_trees(self, rng):
        """The MST weighs no more than random spanning trees."""
        g = with_random_weights(complete_graph(10), rng)
        best = g.total_weight(kruskal(g))
        for seed in range(10):
            local = np.random.default_rng(seed)
            perm = with_weights(
                Graph(10, list(g.edges())), local.random(g.num_edges)
            )
            random_tree = kruskal(perm)
            assert g.total_weight(random_tree) >= best - 1e-12


class TestPrim:
    def test_disconnected_raises(self):
        g = WeightedGraph(4, [(0, 1), (2, 3)], [1.0, 1.0])
        with pytest.raises(ValueError, match="disconnected"):
            prim(g)


class TestHelpers:
    def test_is_spanning_tree_accepts_mst(self, rng):
        g = with_random_weights(ring_graph(10), rng)
        assert is_spanning_tree(g, kruskal(g))

    def test_is_spanning_tree_rejects_wrong_count(self, rng):
        g = with_random_weights(ring_graph(10), rng)
        assert not is_spanning_tree(g, kruskal(g)[:-1])

    def test_is_spanning_tree_rejects_cycle(self):
        g = WeightedGraph(
            4, [(0, 1), (1, 2), (0, 2), (2, 3)], [1.0, 2.0, 3.0, 4.0]
        )
        assert not is_spanning_tree(g, [0, 1, 2])

    def test_mst_weight(self):
        g = WeightedGraph(3, [(0, 1), (1, 2), (0, 2)], [1.0, 2.0, 3.0])
        assert mst_weight(g) == pytest.approx(3.0)
