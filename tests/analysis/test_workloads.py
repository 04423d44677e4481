"""Tests for the demand and path generators and CSV export."""

import numpy as np
import pytest

from repro.analysis.export import rows_to_csv, write_csv
from repro.analysis.workloads import (
    all_to_one_demand,
    bipartite_demand,
    circulation_paths,
    hotspot_demand,
    neighbor_demand,
    permutation_demand,
    random_demand,
)
from repro.core import Router, build_hierarchy
from repro.graphs import Graph, hypercube, random_regular
from repro.params import Params


@pytest.fixture()
def rng():
    return np.random.default_rng(240)


@pytest.fixture(scope="module")
def small_router():
    params = Params.default()
    rng = np.random.default_rng(241)
    graph = random_regular(48, 4, rng)
    hierarchy = build_hierarchy(graph, params, rng)
    return graph, Router(hierarchy, params=params, rng=rng)


class TestGenerators:
    def test_permutation_is_permutation(self, rng):
        g = hypercube(4)
        sources, destinations = permutation_demand(g, rng)
        assert sorted(destinations.tolist()) == list(range(16))
        assert np.array_equal(sources, np.arange(16))

    def test_random_demand_shape(self, rng):
        g = hypercube(4)
        sources, destinations = random_demand(g, 37, rng)
        assert sources.shape == destinations.shape == (37,)
        assert destinations.max() < 16

    def test_hotspot_skew(self, rng):
        g = hypercube(5)
        __, destinations = hotspot_demand(g, 400, rng, hotspots=2, skew=0.9)
        counts = np.bincount(destinations, minlength=32)
        top_two = np.sort(counts)[-2:].sum()
        assert top_two > 0.7 * 400

    def test_neighbor_demand_adjacent(self, rng):
        g = hypercube(4)
        sources, destinations = neighbor_demand(g, rng)
        for s, d in zip(sources, destinations):
            assert g.has_edge(int(s), int(d))

    def test_bipartite_crosses_halves(self, rng):
        g = hypercube(4)
        sources, destinations = bipartite_demand(g, rng)
        half = 8
        low_sources = sources < half
        assert np.all(destinations[low_sources] >= half)
        assert np.all(destinations[~low_sources] < half)

    def test_all_to_one(self):
        g = hypercube(3)
        sources, destinations = all_to_one_demand(g, target=5)
        assert np.all(destinations == 5)
        assert sources.shape == (8,)


class TestCirculationPaths:
    def test_paths_follow_edges(self):
        graph = random_regular(32, 4, np.random.default_rng(420))
        paths = circulation_paths(graph, 20, 9)
        assert len(paths) == 20
        for path in paths:
            assert len(path) == 10
            for a, b in zip(path, path[1:]):
                assert graph.has_edge(a, b)

    def test_contention_free(self):
        """Packets occupy pairwise-distinct directed edges every round."""
        graph = random_regular(32, 4, np.random.default_rng(421))
        paths = circulation_paths(graph, 30, 7)
        for step in range(7):
            hops = [(path[step], path[step + 1]) for path in paths]
            assert len(set(hops)) == len(hops)

    def test_too_many_packets_rejected(self):
        graph = random_regular(16, 4, np.random.default_rng(422))
        with pytest.raises(ValueError, match="num_packets"):
            circulation_paths(graph, 33, 4)  # 64 arcs < 2 * 33

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            circulation_paths(Graph(4, [(0, 1), (2, 3)]), 1, 2)


class TestWorkloadsThroughRouter:
    @pytest.mark.parametrize(
        "generator",
        [
            lambda g, rng: permutation_demand(g, rng),
            lambda g, rng: random_demand(g, 60, rng),
            lambda g, rng: hotspot_demand(g, 60, rng),
            lambda g, rng: neighbor_demand(g, rng),
            lambda g, rng: bipartite_demand(g, rng),
            lambda g, rng: all_to_one_demand(g),
        ],
    )
    def test_every_workload_delivers(self, small_router, rng, generator):
        graph, router = small_router
        sources, destinations = generator(graph, rng)
        result = router.route(sources, destinations)
        assert result.delivered

    def test_hotspot_needs_more_phases_than_permutation(
        self, small_router, rng
    ):
        graph, router = small_router
        perm = router.route(*permutation_demand(graph, rng))
        hot = router.route(*all_to_one_demand(graph))
        assert hot.num_phases >= perm.num_phases


class TestCsvExport:
    def test_rows_to_csv(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,x"

    def test_empty_rows(self):
        assert rows_to_csv([]) == ""

    def test_write_csv(self, tmp_path):
        rows = [{"n": 64, "rounds": 1.5}]
        path = str(tmp_path / "out.csv")
        write_csv(rows, path)
        with open(path) as handle:
            content = handle.read()
        assert "n,rounds" in content
        assert "64,1.5" in content
