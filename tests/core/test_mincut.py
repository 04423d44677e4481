"""Tests for the tree-packing approximate min cut."""

import numpy as np
import pytest

from repro.core import approximate_min_cut, tree_respecting_min_cut
from repro.core.mincut import _subtree_masks
from repro.graphs import (
    barbell_graph,
    complete_graph,
    cut_size,
    hypercube,
    random_regular,
    ring_graph,
)
from repro.runtime import RunContext


class TestSubtreeMasks:
    def test_path_masks(self):
        masks = _subtree_masks(4, [(0, 1), (1, 2), (2, 3)])
        assert masks[0].sum() == 4  # root subtree is everything
        assert masks[3].tolist() == [False, False, False, True]
        assert masks[1].tolist() == [False, True, True, True]

    def test_star_masks(self):
        masks = _subtree_masks(4, [(0, 1), (0, 2), (0, 3)])
        for leaf in (1, 2, 3):
            assert masks[leaf].sum() == 1


class TestTreeRespecting:
    def test_ring_with_path_tree(self):
        g = ring_graph(8)
        tree = [i for i in range(7)]  # edges 0-1, 1-2, ... form a path
        value, side = tree_respecting_min_cut(g, tree)
        assert value == 2  # any contiguous arc cut of the ring
        assert cut_size(g, side) == value

    def test_one_respecting_only(self):
        g = ring_graph(8)
        tree = [i for i in range(7)]
        value, __ = tree_respecting_min_cut(g, tree, two_respecting=False)
        assert value == 2

    def test_two_respecting_beats_one_sometimes(self):
        """On a barbell the bridge cut 1-respects, but check both agree."""
        g = barbell_graph(4)
        from repro.baselines import kruskal
        from repro.graphs import with_weights

        tree = kruskal(with_weights(g, np.ones(g.num_edges)))
        value, side = tree_respecting_min_cut(g, tree)
        assert value == 1
        assert cut_size(g, side) == 1

    def test_side_returned_matches_value(self):
        g = hypercube(3)
        from repro.baselines import kruskal
        from repro.graphs import with_weights

        tree = kruskal(with_weights(g, np.arange(g.num_edges, dtype=float)))
        value, side = tree_respecting_min_cut(g, tree)
        assert cut_size(g, side) == value


class TestApproximateMinCut:
    def test_barbell_bridge_found(self, params):
        g = barbell_graph(6)
        result = approximate_min_cut(
            g, params=params, rng=np.random.default_rng(120), num_trees=3,
            two_respecting=False,
        )
        assert result.cut_value == 1
        assert cut_size(g, result.cut_side) == 1

    def test_ring_cut_is_two(self, params):
        g = ring_graph(16)
        result = approximate_min_cut(
            g, params=params, rng=np.random.default_rng(121), num_trees=3,
        )
        assert result.cut_value == 2

    def test_complete_graph_cut(self, params):
        g = complete_graph(8)
        result = approximate_min_cut(
            g, params=params, rng=np.random.default_rng(122), num_trees=3,
        )
        assert result.cut_value == 7  # isolate one vertex

    def test_regular_graph_at_most_degree(self, params):
        g = random_regular(24, 4, np.random.default_rng(123))
        result = approximate_min_cut(
            g, params=params, rng=np.random.default_rng(124), num_trees=4,
        )
        assert result.cut_value <= 4
        assert result.cut_value >= 1
        assert cut_size(g, result.cut_side) == result.cut_value

    def test_rounds_and_ledger(self, params):
        g = ring_graph(12)
        context = RunContext(seed=125, params=params)
        result = approximate_min_cut(
            g, rng=np.random.default_rng(125), num_trees=2, context=context,
        )
        assert result.rounds > 0
        assert result.num_trees == 2
        trees = {
            label: rounds
            for label, rounds in context.ledger.by_label().items()
            if label.startswith("mincut/")
        }
        assert list(trees) == ["mincut/tree-0", "mincut/tree-1"]
        assert sum(trees.values()) == pytest.approx(result.rounds)

    def test_default_tree_count_scales(self, params):
        g = ring_graph(12)
        result = approximate_min_cut(
            g, eps=1.0, params=params, rng=np.random.default_rng(126),
            num_trees=None, two_respecting=False,
        )
        assert result.num_trees >= 2


class TestWeightedMinCut:
    def test_weighted_bridge_cut(self, params):
        """A heavy-degree cut can be beaten by a few light edges."""
        from repro.graphs import WeightedGraph

        # Two triangles joined by two parallel-ish light paths... build:
        # clique edges weight 10, two bridges weight 0.5 each.
        edges = [
            (0, 1), (1, 2), (0, 2),       # triangle A
            (3, 4), (4, 5), (3, 5),       # triangle B
            (2, 3), (0, 5),               # light bridges
        ]
        weights = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 0.5, 0.5]
        graph = WeightedGraph(6, edges, weights)
        result = approximate_min_cut(
            graph, params=params, rng=np.random.default_rng(230),
            num_trees=5, use_weights=True,
        )
        assert result.cut_value == pytest.approx(1.0)
        # The side must be one of the triangles.
        assert set(np.flatnonzero(result.cut_side)) in (
            {0, 1, 2}, {3, 4, 5},
        )

    def test_unit_weights_match_unweighted(self, params):
        from repro.graphs import with_weights

        g = ring_graph(12)
        weighted = with_weights(g, np.ones(12))
        a = approximate_min_cut(
            weighted, params=params, rng=np.random.default_rng(231),
            num_trees=3, use_weights=True,
        )
        b = approximate_min_cut(
            g, params=params, rng=np.random.default_rng(231), num_trees=3,
        )
        assert a.cut_value == pytest.approx(b.cut_value)

    def test_use_weights_requires_weighted(self, params):
        with pytest.raises(TypeError, match="WeightedGraph"):
            approximate_min_cut(
                ring_graph(8), params=params,
                rng=np.random.default_rng(232), use_weights=True,
            )

    def test_tree_respecting_with_capacities(self):
        g = ring_graph(8)
        tree = list(range(7))
        capacities = np.ones(8)
        capacities[0] = 0.25  # edge (0,1) is cheap
        capacities[4] = 0.25  # edge (4,5) is cheap
        value, side = tree_respecting_min_cut(
            g, tree, capacities=capacities
        )
        assert value == pytest.approx(0.5)
        assert cut_size(g, side) == 2
