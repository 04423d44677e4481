"""Unit tests for the graph family generators."""

import numpy as np
import pytest

from repro.graphs import (
    FAMILIES,
    barbell_graph,
    binary_tree,
    complete_graph,
    erdos_renyi,
    grid_torus,
    hypercube,
    path_graph,
    random_regular,
    ring_graph,
    star_graph,
    watts_strogatz,
    with_random_weights,
    with_weights,
)


class TestDeterministicFamilies:
    def test_complete_counts(self):
        g = complete_graph(6)
        assert g.num_edges == 15
        assert g.diameter() == 1

    def test_complete_regular(self):
        g = complete_graph(5)
        assert np.all(g.degrees == 4)

    def test_ring(self):
        g = ring_graph(8)
        assert g.num_edges == 8
        assert np.all(g.degrees == 2)
        assert g.diameter() == 4

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            ring_graph(2)

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.diameter() == 4

    def test_star(self):
        g = star_graph(7)
        assert g.degree(0) == 6
        assert g.diameter() == 2

    def test_binary_tree(self):
        g = binary_tree(7)
        assert g.num_edges == 6
        assert g.is_connected()
        assert g.degree(0) == 2

    def test_torus(self):
        g = grid_torus(4, 5)
        assert g.num_nodes == 20
        assert np.all(g.degrees == 4)
        assert g.is_connected()

    def test_torus_too_small(self):
        with pytest.raises(ValueError):
            grid_torus(2, 5)

    def test_hypercube(self):
        g = hypercube(4)
        assert g.num_nodes == 16
        assert np.all(g.degrees == 4)
        assert g.diameter() == 4

    def test_barbell(self):
        g = barbell_graph(5)
        assert g.num_nodes == 10
        assert g.is_connected()
        # Exactly one bridge edge.
        bridges = [
            (u, v) for u, v in g.edges() if (u < 5) != (v < 5)
        ]
        assert len(bridges) == 1


class TestRandomFamilies:
    def test_erdos_renyi_connected(self):
        g = erdos_renyi(50, 0.2, np.random.default_rng(0))
        assert g.is_connected()
        assert g.num_nodes == 50

    def test_erdos_renyi_density(self):
        g = erdos_renyi(80, 0.25, np.random.default_rng(1))
        expected = 0.25 * 80 * 79 / 2
        assert abs(g.num_edges - expected) < 0.35 * expected

    def test_erdos_renyi_bad_p(self):
        with pytest.raises(ValueError):
            erdos_renyi(10, 0.0, np.random.default_rng(0))

    def test_erdos_renyi_subcritical_fails(self):
        with pytest.raises(RuntimeError, match="never connected"):
            erdos_renyi(200, 0.001, np.random.default_rng(0))

    def test_random_regular_degrees(self):
        g = random_regular(30, 4, np.random.default_rng(2))
        assert np.all(g.degrees == 4)
        assert g.is_connected()

    def test_random_regular_simple(self):
        g = random_regular(24, 6, np.random.default_rng(3))
        seen = set()
        for u, v in g.edges():
            assert u != v
            assert (u, v) not in seen
            seen.add((u, v))

    def test_random_regular_odd_total_rejected(self):
        with pytest.raises(ValueError, match="even"):
            random_regular(5, 3, np.random.default_rng(0))

    def test_random_regular_degree_too_big(self):
        with pytest.raises(ValueError, match="below n"):
            random_regular(4, 4, np.random.default_rng(0))

    def test_random_regular_various_degrees(self):
        for d in (3, 4, 8, 10):
            n = 40 if (40 * d) % 2 == 0 else 41
            g = random_regular(n, d, np.random.default_rng(d))
            assert np.all(g.degrees == d)

    def test_watts_strogatz(self):
        g = watts_strogatz(40, 4, 0.2, np.random.default_rng(4))
        assert g.is_connected()
        assert g.num_nodes == 40

    def test_watts_strogatz_zero_rewire_is_lattice(self):
        g = watts_strogatz(20, 4, 0.0, np.random.default_rng(5))
        assert np.all(g.degrees == 4)

    def test_watts_strogatz_bad_k(self):
        with pytest.raises(ValueError, match="even"):
            watts_strogatz(20, 3, 0.1, np.random.default_rng(0))


class TestWeights:
    def test_with_random_weights_distinct(self):
        g = with_random_weights(
            ring_graph(16), np.random.default_rng(6)
        )
        assert len(set(g.weights.tolist())) == g.num_edges

    def test_with_random_weights_range(self):
        g = with_random_weights(ring_graph(16), np.random.default_rng(7))
        assert g.weights.min() >= 0.0
        assert g.weights.max() < 1.0

    def test_with_weights(self):
        base = path_graph(3)
        g = with_weights(base, [2.0, 3.0])
        assert g.weights[1] == 3.0

    def test_topology_preserved(self):
        base = hypercube(3)
        g = with_random_weights(base, np.random.default_rng(8))
        assert sorted(g.edges()) == sorted(base.edges())


class TestFamilyRegistry:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_produces_connected_graph(self, name):
        g = FAMILIES[name](64, np.random.default_rng(9))
        assert g.is_connected()
        assert g.num_nodes >= 32


class TestStressFamilies:
    def test_lollipop_structure(self):
        from repro.graphs import lollipop_graph

        g = lollipop_graph(8, 5)
        assert g.num_nodes == 13
        assert g.is_connected()
        # The tail end has degree 1; clique interior degree 7.
        assert g.degree(12) == 1
        assert g.degree(0) == 7

    def test_lollipop_validation(self):
        from repro.graphs import lollipop_graph

        with pytest.raises(ValueError):
            lollipop_graph(2, 5)
        with pytest.raises(ValueError):
            lollipop_graph(5, 0)
