"""Tests for leader election by min-ID flooding."""

import numpy as np
import pytest

from repro.congest import Network
from repro.congest.leader import elect_leader
from repro.graphs import hypercube, path_graph, random_regular, ring_graph


class TestElection:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ring_graph(12),
            lambda: hypercube(4),
            lambda: path_graph(10),
            lambda: random_regular(32, 4, np.random.default_rng(0)),
        ],
    )
    def test_minimum_wins(self, factory):
        g = factory()
        leader, rounds = elect_leader(Network(g))
        assert leader == 0
        assert rounds >= 1

    def test_rounds_scale_with_diameter(self):
        short, __ = 0, 0
        __, rounds_short = elect_leader(Network(path_graph(5)))
        __, rounds_long = elect_leader(Network(path_graph(40)))
        assert rounds_long > rounds_short

    def test_single_node(self):
        from repro.graphs import Graph

        leader, rounds = elect_leader(Network(Graph(1, [])))
        assert leader == 0

