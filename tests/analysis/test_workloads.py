"""Tests for the path generator, routed demand shapes and CSV export."""

import numpy as np
import pytest

from repro.analysis.export import rows_to_csv, write_csv
from repro.analysis.workloads import circulation_paths
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


def _hotspot(graph, rng):
    """60 packets, 80% of them aimed at two hot nodes."""
    n = graph.num_nodes
    destinations = rng.integers(0, n, size=60)
    hot = rng.random(60) < 0.8
    destinations[hot] = rng.choice(n, size=2, replace=False)[
        rng.integers(0, 2, size=int(hot.sum()))
    ]
    return rng.integers(0, n, size=60), destinations


def _neighbors(graph, rng):
    """Each node sends to a uniform neighbour."""
    offsets = (rng.random(graph.num_nodes) * graph.degrees).astype(np.int64)
    return (
        np.arange(graph.num_nodes),
        graph.indices[graph.indptr[:-1] + offsets],
    )


def _halves(graph, rng):
    """The two halves of the node ids exchange packets."""
    half = graph.num_nodes // 2
    high = half + rng.permutation(graph.num_nodes - half)[:half]
    low = np.arange(half)
    return np.concatenate([low, high]), np.concatenate([high, low])


class TestWorkloadsThroughRouter:
    # Every entry is a lambda, so the test ids stay <lambda>0..5.
    @pytest.mark.parametrize(
        "generator",
        [
            lambda g, rng: (np.arange(g.num_nodes),
                            rng.permutation(g.num_nodes)),
            lambda g, rng: (rng.integers(0, g.num_nodes, size=60),
                            rng.integers(0, g.num_nodes, size=60)),
            lambda g, rng: _hotspot(g, rng),
            lambda g, rng: _neighbors(g, rng),
            lambda g, rng: _halves(g, rng),
            lambda g, rng: (np.arange(g.num_nodes),
                            np.zeros(g.num_nodes, dtype=np.int64)),
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
        n = graph.num_nodes
        perm = router.route(np.arange(n), rng.permutation(n))
        hot = router.route(np.arange(n), np.zeros(n, dtype=np.int64))
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
