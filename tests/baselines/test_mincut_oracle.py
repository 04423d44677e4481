"""Tests for the centralized min-cut oracle, and the distributed
min-cut cross-check against it."""

import numpy as np
import pytest

from repro.baselines.mincut_oracle import exact_min_cut
from repro.core import approximate_min_cut
from repro.graphs import (
    barbell_graph,
    complete_graph,
    cut_size,
    random_regular,
    ring_graph,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(210)


class TestExactOracle:
    def test_ring(self):
        value, side = exact_min_cut(ring_graph(10))
        assert value == 2
        assert cut_size(ring_graph(10), side) == 2

    def test_complete(self):
        value, __ = exact_min_cut(complete_graph(6))
        assert value == 5

    def test_barbell(self):
        value, side = exact_min_cut(barbell_graph(5))
        assert value == 1
        assert side.sum() in (5, 6)  # one clique (+ maybe bridge mid)

    def test_too_large(self):
        with pytest.raises(ValueError, match="exponential"):
            exact_min_cut(ring_graph(30))

    def test_too_small(self):
        from repro.graphs import Graph

        with pytest.raises(ValueError):
            exact_min_cut(Graph(1, []))


class TestDistributedAgainstExact:
    def test_tree_packing_matches_exact(self, rng, params):
        """The distributed (1+eps) min cut stays within its factor of
        the exact value."""
        g = random_regular(16, 4, np.random.default_rng(211))
        exact_value, __ = exact_min_cut(g)
        distributed = approximate_min_cut(
            g, params=params, rng=rng, num_trees=6
        )
        assert distributed.cut_value <= 4
        assert distributed.cut_value >= exact_value
        assert distributed.cut_value <= 2 * exact_value
