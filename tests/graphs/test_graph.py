"""Unit tests for the CSR graph core."""

import pickle

import numpy as np
import pytest

from repro.graphs import Graph, WeightedGraph


@pytest.fixture()
def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture()
def path4():
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


class TestConstruction:
    def test_counts(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3
        assert triangle.num_arcs == 6

    def test_empty_graph(self):
        g = Graph(4, [])
        assert g.num_edges == 0
        assert g.degree(0) == 0

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(1)) == [0]

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(-1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_multi_edges_allowed(self):
        g = Graph(2, [(0, 1), (0, 1)])
        assert g.num_edges == 2
        assert g.degree(0) == 2

    def test_repr(self, triangle):
        assert "n=3" in repr(triangle)
        assert "m=3" in repr(triangle)


class TestDegreesAndArcs:
    def test_degrees(self, path4):
        assert path4.degrees.tolist() == [1, 2, 2, 1]
        assert path4.max_degree == 2

    def test_degree_accessor(self, path4):
        assert path4.degree(1) == 2

    def test_indptr_consistent(self, triangle):
        assert triangle.indptr[-1] == triangle.num_arcs
        assert np.all(np.diff(triangle.indptr) == triangle.degrees)

    def test_arc_twin_involution(self, triangle):
        twins = triangle.arc_twin
        assert np.all(twins[twins] == np.arange(triangle.num_arcs))

    def test_arc_twin_reverses(self, triangle):
        tails = triangle.arc_tails
        for arc in range(triangle.num_arcs):
            twin = triangle.arc_twin[arc]
            assert tails[arc] == triangle.indices[twin]
            assert triangle.indices[arc] == tails[twin]

    def test_arc_edge_shared_with_twin(self, triangle):
        for arc in range(triangle.num_arcs):
            assert triangle.arc_edge[arc] == triangle.arc_edge[
                triangle.arc_twin[arc]
            ]

    def test_per_arc_maps_built_on_first_use(self, triangle):
        assert "arc_twin" not in vars(triangle)
        assert "arc_edge" not in vars(triangle)
        restored = pickle.loads(pickle.dumps(triangle))
        assert triangle.arc_twin.tolist() == restored.arc_twin.tolist()
        assert triangle.arc_edge.tolist() == restored.arc_edge.tolist()

    def test_arc_tail(self, path4):
        for arc in range(path4.num_arcs):
            assert path4.arc_tail(arc) == path4.arc_tails[arc]

    def test_arcs_of(self, path4):
        arcs = list(path4.arcs_of(1))
        assert len(arcs) == 2
        assert sorted(int(path4.indices[a]) for a in arcs) == [0, 2]

    def test_edges_iteration(self, triangle):
        assert sorted(triangle.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_edge_array_shape(self, triangle):
        assert triangle.edge_array.shape == (3, 2)

    def test_has_edge(self, path4):
        assert path4.has_edge(0, 1)
        assert not path4.has_edge(0, 3)


class TestTraversal:
    def test_bfs_order_covers_component(self, path4):
        assert sorted(path4.bfs_order(0)) == [0, 1, 2, 3]

    def test_bfs_order_starts_at_source(self, path4):
        assert path4.bfs_order(2)[0] == 2

    def test_bfs_distances(self, path4):
        assert path4.bfs_distances(0).tolist() == [0, 1, 2, 3]

    def test_bfs_distance_unreachable(self):
        g = Graph(3, [(0, 1)])
        assert g.bfs_distances(0)[2] == -1

    def test_connected(self, triangle, path4):
        assert triangle.is_connected()
        assert path4.is_connected()

    def test_disconnected(self):
        assert not Graph(3, [(0, 1)]).is_connected()

    def test_empty_connected(self):
        assert Graph(1, []).is_connected()

    def test_diameter(self, path4, triangle):
        assert path4.diameter() == 3
        assert triangle.diameter() == 1

    def test_diameter_disconnected_raises(self):
        with pytest.raises(ValueError, match="disconnected"):
            Graph(3, [(0, 1)]).diameter()

    def test_connected_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = {frozenset(g.bfs_order(v)) for v in range(g.num_nodes)}
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3], [4]]


class TestWeightedGraph:
    def test_weights_stored(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], [0.5, 1.5])
        assert g.weights.tolist() == [0.5, 1.5]

    def test_wrong_weight_count(self):
        with pytest.raises(ValueError, match="expected 2 weights"):
            WeightedGraph(3, [(0, 1), (1, 2)], [0.5])

    def test_total_weight(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], [0.5, 1.5])
        assert g.total_weight([0, 1]) == pytest.approx(2.0)
        assert g.total_weight([]) == 0.0

    def test_inherits_graph_api(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], [0.5, 1.5])
        assert g.is_connected()
        assert g.diameter() == 2

    def test_repr(self):
        g = WeightedGraph(3, [(0, 1)], [1.0])
        assert "WeightedGraph" in repr(g)
