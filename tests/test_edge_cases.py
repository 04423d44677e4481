"""Edge-case sweep across modules: small inputs, odd shapes, accessors."""

import numpy as np
import pytest

from repro.analysis import format_number, format_table
from repro.core import RoundLedger, all_pairs_demand
from repro.graphs import Graph, hypercube, path_graph, ring_graph
from repro.params import Params
from repro.walks.engine import run_lazy_walks


class TestGraphEdgeCases:
    def test_bfs_order_from_middle(self):
        g = path_graph(5)
        order = g.bfs_order(2)
        assert order[0] == 2
        assert sorted(order) == [0, 1, 2, 3, 4]

    def test_edges_of_empty_graph(self):
        g = Graph(3, [])
        assert list(g.edges()) == []
        assert g.edge_array.shape == (0, 2)

    def test_isolated_node_degree(self):
        g = Graph(3, [(0, 1)])
        assert g.degree(2) == 0
        assert len(g.neighbors(2)) == 0

    def test_arc_tails_match_arc_tail(self):
        g = hypercube(3)
        tails = g.arc_tails
        for arc in range(0, g.num_arcs, 5):
            assert tails[arc] == g.arc_tail(arc)

    def test_components_singletons_last(self):
        g = Graph(4, [(0, 1)])
        comps = g.connected_components()
        assert sorted(len(c) for c in comps) == [1, 1, 2]


class TestWalkEdgeCases:
    def test_walk_from_isolated_node_stays(self):
        g = Graph(3, [(0, 1)])
        rng = np.random.default_rng(0)
        seen = []
        run = run_lazy_walks(
            g, np.array([2]), 5, rng,
            on_step=lambda _before, after: seen.append(int(after[0])),
        )
        assert run.positions[0] == 2
        assert seen == [2] * 5

    def test_empty_walk_batch(self):
        g = ring_graph(4)
        rng = np.random.default_rng(1)
        run = run_lazy_walks(g, np.empty(0, dtype=np.int64), 3, rng)
        assert run.num_walks == 0
        assert run.schedule_rounds() == 3  # three (empty) phases


class TestLedgerEdgeCases:
    def test_by_prefix_without_separator(self):
        ledger = RoundLedger()
        ledger.charge("plain", 2)
        assert ledger.by_prefix() == {"plain": 2.0}

    def test_detail_kwargs_multiple(self):
        ledger = RoundLedger()
        ledger.charge("x", 1, a=1, b="two")
        assert ledger.charges[0].detail == {"a": 1, "b": "two"}


class TestFormattingEdgeCases:
    def test_format_number_tiny_float(self):
        assert format_number(1e-7) == "1e-07"

    def test_format_number_negative(self):
        assert format_number(-123456.0) == "-123,456"

    def test_format_table_missing_column_blank(self):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        text = format_table(rows, columns=["a", "b"])
        assert "3" in text  # second row has it; first is blank


class TestWorkloadEdgeCases:
    def test_all_pairs_n2(self):
        sources, destinations = all_pairs_demand(2)
        assert sorted(zip(sources.tolist(), destinations.tolist())) == [
            (0, 1), (1, 0),
        ]


class TestParamsEdgeCases:
    def test_paper_preset_derived_values(self):
        p = Params.paper()
        assert p.g0_walks_per_vnode(1024) == 2000
        assert p.g0_degree(1024) == 1000

    def test_fast_preset_end_to_end(self):
        from repro.core import Router, build_hierarchy
        from repro.graphs import random_regular

        params = Params.fast()
        rng = np.random.default_rng(3)
        graph = random_regular(48, 4, rng)
        hierarchy = build_hierarchy(graph, params, rng)
        router = Router(hierarchy, params=params, rng=rng)
        assert router.route(np.arange(48), rng.permutation(48)).delivered


class TestDescribe:
    def test_hierarchy_describe(self, hierarchy64):
        text = hierarchy64.describe()
        assert "beta=4" in text
        assert "virtual nodes" in text
        assert "level 1" in text
