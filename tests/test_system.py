"""End-to-end tests of the front door: every application through
``repro.run`` and a :class:`~repro.runtime.Session`."""

import numpy as np
import pytest

from repro import RunConfig, Session, run
from repro.baselines import kruskal
from repro.graphs import (
    Graph,
    WeightedGraph,
    random_regular,
    with_random_weights,
)
from repro.runtime.ops import summarize_result


@pytest.fixture(scope="module")
def network():
    graph = random_regular(64, 6, np.random.default_rng(270))
    with Session.open(graph, RunConfig(seed=7)) as session:
        yield session


class TestFacade:
    def test_disconnected_rejected(self):
        disconnected = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            run("build", disconnected)
        with pytest.raises(ValueError, match="connected"):
            Session.open(disconnected)

    def test_hierarchy_cached(self, network):
        assert network.backend.hierarchy is network.backend.hierarchy
        assert network.backend.router is network.backend.router

    def test_tau_mix_exposed(self, network):
        hierarchy = network.backend.hierarchy
        assert hierarchy.g0.tau_mix >= 1
        assert hierarchy.construction_rounds() > 0

    def test_route(self, network):
        result = network.request(
            "route",
            sources=np.arange(64),
            destinations=np.roll(np.arange(64), 9),
        ).result
        assert result.delivered

    def test_route_with_trace(self, network):
        result = network.request(
            "route",
            sources=np.arange(64),
            destinations=np.roll(np.arange(64), 3),
            trace_hops=True,
        ).result
        assert result.packet_hops is not None

    def test_mst_default_weights(self, network):
        result = network.request("mst").result
        assert len(result.edge_ids) == 63

    def test_mst_explicit_weights(self, network):
        weights = np.arange(network.graph.num_edges, dtype=float)
        result = network.request("mst", weights=weights).result
        reference = WeightedGraph(
            64, list(network.graph.edges()), weights
        )
        assert result.edge_ids == kruskal(reference)

    def test_mst_uses_graph_weights_when_weighted(self):
        rng = np.random.default_rng(271)
        weighted = with_random_weights(random_regular(32, 4, rng), rng)
        result = run("mst", weighted, config=RunConfig(seed=3)).result
        assert result.edge_ids == kruskal(weighted)

    def test_clique_emulation(self, network):
        result = network.request("clique", sample_fraction=0.15).result
        assert result.delivered

    def test_min_cut(self):
        rng = np.random.default_rng(272)
        result = run(
            "mincut",
            random_regular(24, 4, rng),
            config=RunConfig(seed=5),
            num_trees=3,
            eps=1.0,
        ).result
        assert 1 <= result.cut_value <= 4

    def test_describe(self, network):
        summary = summarize_result("build", network.request("build").result)
        assert summary["tau_mix"] >= 1
        assert summary["depth"] >= 1
        assert summary["construction_rounds"] > 0

    def test_reproducible_across_instances(self):
        graph = random_regular(32, 4, np.random.default_rng(273))
        demand = {
            "sources": np.arange(32),
            "destinations": np.roll(np.arange(32), 5),
        }
        rounds = []
        for _ in range(2):
            with Session.open(graph, RunConfig(seed=11)) as session:
                rounds.append(
                    session.request("route", **demand).result.cost_rounds
                )
        assert rounds[0] == rounds[1]

    def test_doctest_example(self):
        import doctest

        import repro.runtime.config

        results = doctest.testmod(repro.runtime.config)
        assert results.failed == 0
        assert results.attempted >= 1


class TestFacadeWeightedCut:
    def test_min_cut_with_weights(self):
        edges = [
            (0, 1), (1, 2), (0, 2),
            (3, 4), (4, 5), (3, 5),
            (2, 3), (0, 5),
        ]
        weights = [10.0] * 6 + [0.5, 0.5]
        result = run(
            "mincut",
            WeightedGraph(6, edges, weights),
            config=RunConfig(seed=9),
            num_trees=5,
            use_weights=True,
        ).result
        assert result.cut_value == pytest.approx(1.0)
