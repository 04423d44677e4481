"""Tests for virtual nodes and the G0 embedding."""

import math

import numpy as np
import pytest

from repro.core import RoundLedger, build_g0
from repro.core.embedding import VirtualNodes
from repro.graphs import Graph, hypercube, star_graph
from repro.params import Params


@pytest.fixture(scope="module")
def g0_64(expander64=None):
    from repro.graphs import random_regular

    graph = random_regular(64, 6, np.random.default_rng(1))
    return build_g0(graph, Params.default(), np.random.default_rng(2))


class TestVirtualNodes:
    def test_count_is_2m(self):
        g = hypercube(3)
        virtual = VirtualNodes(graph=g, host=g.arc_tails)
        assert virtual.count == 2 * g.num_edges

    def test_host_degrees(self):
        g = star_graph(5)
        virtual = VirtualNodes(graph=g, host=g.arc_tails)
        counts = np.bincount(virtual.host, minlength=5)
        assert np.array_equal(counts, g.degrees)

    def test_canonical_is_first_arc(self):
        g = star_graph(5)
        virtual = VirtualNodes(graph=g, host=g.arc_tails)
        canon = virtual.canonical(np.arange(5))
        assert np.array_equal(canon, g.indptr[:5])
        assert np.array_equal(virtual.host[canon], np.arange(5))

    def test_uid_globally_computable(self):
        g = hypercube(3)
        virtual = VirtualNodes(graph=g, host=g.arc_tails)
        # The canonical vnode's UID must equal v * n, computable by any
        # node that knows only the ID v (property P2).
        canon = virtual.canonical(np.arange(8))
        assert np.array_equal(virtual.uid(canon), np.arange(8) * 8)

    def test_uid_unique(self):
        g = hypercube(3)
        virtual = VirtualNodes(graph=g, host=g.arc_tails)
        uids = virtual.uid(np.arange(virtual.count))
        assert len(np.unique(uids)) == virtual.count

    def test_random_vnode_of_lands_on_host(self):
        g = star_graph(6)
        virtual = VirtualNodes(graph=g, host=g.arc_tails)
        rng = np.random.default_rng(0)
        nodes = rng.integers(0, 6, size=200)
        vnodes = virtual.random_vnode_of(nodes, rng)
        assert np.array_equal(virtual.host[vnodes], nodes)

    def test_random_vnode_uniform_over_arcs(self):
        g = star_graph(5)
        virtual = VirtualNodes(graph=g, host=g.arc_tails)
        rng = np.random.default_rng(1)
        vnodes = virtual.random_vnode_of(np.zeros(8000, dtype=np.int64), rng)
        counts = np.bincount(vnodes - g.indptr[0], minlength=4)
        assert counts.min() > 0.7 * 2000


class TestG0Construction:
    def test_overlay_size(self, g0_64):
        assert g0_64.overlay.num_nodes == g0_64.virtual.count

    def test_overlay_connected(self, g0_64):
        assert g0_64.overlay.is_connected()

    def test_degrees_theta_log_n(self, g0_64):
        n = g0_64.base_graph.num_nodes
        log_n = math.log2(n)
        degrees = g0_64.overlay.degrees
        # Each vnode picked Theta(log n) out-neighbours and receives about
        # as many in-edges; allow generous constants.
        assert degrees.min() >= 2
        assert degrees.max() <= 20 * log_n

    def test_walk_length_uses_slack(self, g0_64):
        assert g0_64.walk_length == pytest.approx(
            Params.default().mixing_slack * g0_64.tau_mix, abs=1
        )

    def test_costs_positive(self, g0_64):
        assert g0_64.round_cost > 0
        assert g0_64.build_rounds > 0

    def test_build_cost_scales_with_tau(self, g0_64):
        # Building uses walks of length ~2*tau: at least that many rounds.
        assert g0_64.build_rounds >= g0_64.walk_length

    def test_ledger_charged(self):
        g = hypercube(4)
        ledger = RoundLedger()
        build_g0(g, Params.default(), np.random.default_rng(3), ledger=ledger)
        assert "g0/build" in ledger.by_label()

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            build_g0(g, Params.default(), np.random.default_rng(0))

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            build_g0(Graph(1, []), Params.default(), np.random.default_rng(0))

    def test_tau_override(self):
        g = hypercube(3)
        emb = build_g0(
            g, Params.default(), np.random.default_rng(4), tau_mix=5
        )
        assert emb.tau_mix == 5
        assert emb.walk_length == 10

    def test_no_self_edges(self, g0_64):
        for u, v in g0_64.overlay.edges():
            assert u != v
