"""Tests for the hierarchical router (Theorem 1.2 behaviour)."""

import copy

import numpy as np
import pytest

from repro.core import Router, build_hierarchy
from repro.core.router import RoutingError
from repro.graphs import Graph, grid_torus, hypercube, random_regular


class TestDelivery:
    def test_permutation_delivered(self, router64):
        n = 64
        rng = np.random.default_rng(70)
        perm = rng.permutation(n)
        result = router64.route(np.arange(n), perm)
        assert result.delivered
        assert result.num_packets == n

    def test_final_vnodes_at_destinations(self, router64, hierarchy64):
        n = 64
        rng = np.random.default_rng(71)
        perm = rng.permutation(n)
        result = router64.route(np.arange(n), perm)
        hosts = hierarchy64.g0.virtual.host[result.final_vnodes]
        assert np.array_equal(hosts, perm)

    def test_self_destinations(self, router64):
        result = router64.route(np.arange(10), np.arange(10))
        assert result.delivered

    def test_single_packet(self, router64):
        result = router64.route(np.array([3]), np.array([40]))
        assert result.delivered
        assert result.num_packets == 1

    def test_empty_instance(self, router64):
        result = router64.route(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert result.delivered
        assert result.cost_rounds >= 0

    def test_all_to_one_heavy_load(self, router64):
        """Concentrated destination load triggers phasing but delivers."""
        sources = np.arange(64)
        destinations = np.zeros(64, dtype=np.int64)
        result = router64.route(sources, destinations)
        assert result.delivered
        assert result.num_phases >= 1

    def test_repeated_pairs(self, router64):
        sources = np.full(20, 5, dtype=np.int64)
        destinations = np.full(20, 50, dtype=np.int64)
        result = router64.route(sources, destinations)
        assert result.delivered

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_demand_seeds(self, router64, seed):
        rng = np.random.default_rng(seed)
        sources = rng.integers(0, 64, size=100)
        destinations = rng.integers(0, 64, size=100)
        assert router64.route(sources, destinations).delivered


class TestValidation:
    def test_shape_mismatch(self, router64):
        with pytest.raises(ValueError, match="align"):
            router64.route(np.arange(4), np.arange(5))

    def test_out_of_range(self, router64):
        with pytest.raises(ValueError, match="out of range"):
            router64.route(np.array([0]), np.array([64]))
        with pytest.raises(ValueError, match="out of range"):
            router64.route(np.array([-1]), np.array([0]))


class TestCostAccounting:
    def test_costs_positive(self, router64):
        rng = np.random.default_rng(72)
        result = router64.route(np.arange(64), rng.permutation(64))
        assert result.prep_rounds > 0
        assert result.cost_g0_rounds > 0
        assert result.cost_rounds > result.prep_rounds

    def test_cost_composition(self, router64, hierarchy64):
        rng = np.random.default_rng(73)
        result = router64.route(np.arange(64), rng.permutation(64))
        assert result.cost_rounds == pytest.approx(
            result.prep_rounds
            + result.cost_g0_rounds * hierarchy64.g0.round_cost
        )

    def test_level_costs_recorded(self, router64, hierarchy64):
        rng = np.random.default_rng(74)
        result = router64.route(np.arange(64), rng.permutation(64))
        assert 0 in result.level_costs
        bottom = hierarchy64.depth
        assert result.level_costs[bottom].bottom_rounds > 0

    def test_invocation_counts_doubling(self, router64, hierarchy64):
        """Level i is invoked at most 2^i times (Lemma 3.4's recursion)."""
        rng = np.random.default_rng(75)
        result = router64.route(np.arange(64), rng.permutation(64))
        for level, cost in result.level_costs.items():
            assert cost.invocations <= 2**level

    def test_ledger_charge(self, hierarchy64, params):
        from repro.runtime import RunContext

        context = RunContext(seed=76, params=params)
        router = Router(
            hierarchy64,
            rng=np.random.default_rng(76),
            context=context,
        )
        rng = np.random.default_rng(76)
        result = router.route(np.arange(64), rng.permutation(64))
        assert context.ledger.by_label()["route/instance"] == (
            result.cost_rounds
        )

    def test_more_packets_cost_no_less(self, router64):
        rng = np.random.default_rng(77)
        small = router64.route(
            rng.integers(0, 64, 8), rng.integers(0, 64, 8)
        )
        big = router64.route(np.arange(64), rng.permutation(64))
        assert big.cost_g0_rounds >= small.cost_g0_rounds * 0.3


class TestPhasing:
    def test_phase_count_respects_promise(self, router64):
        """Load K times above the promise needs ~K phases."""
        sources = np.repeat(np.arange(64), 12)
        rng = np.random.default_rng(78)
        destinations = rng.integers(0, 64, size=sources.shape[0])
        result = router64.route(sources, destinations)
        assert result.delivered
        # At 12 packets/node with a promise of d*log2(n) = 36 the load fits
        # one phase for sources, but the random destinations may spike.
        assert 1 <= result.num_phases <= 4


class TestOtherTopologies:
    @pytest.mark.parametrize(
        "factory,n",
        [
            (lambda: hypercube(6), 64),
            (lambda: grid_torus(8, 8), 64),
            (lambda: random_regular(96, 8, np.random.default_rng(79)), 96),
        ],
    )
    def test_permutation_on_family(self, factory, n, params):
        graph = factory()
        rng = np.random.default_rng(80)
        hierarchy = build_hierarchy(graph, params, rng)
        router = Router(hierarchy, params=params, rng=rng)
        perm = rng.permutation(n)
        assert router.route(np.arange(n), perm).delivered


class TestMissingPortalPath:
    def test_missing_portal_raises(self, hierarchy64, params):
        router = Router(
            hierarchy64, params=params, rng=np.random.default_rng(81)
        )
        # Sabotage the portal table.
        router.portals.tables[0][:, :] = -1
        rng = np.random.default_rng(82)
        with pytest.raises(RoutingError, match="missing portal"):
            router.route(np.arange(64), rng.permutation(64))

    def test_lost_boundary_edge_raises(self, hierarchy64, params):
        """Portals whose G0 boundary arcs to other level-1 parts are
        deleted strand the hop itself, not the portal lookup."""
        router = Router(
            hierarchy64, params=params, rng=np.random.default_rng(81)
        )
        table = router.portals.tables[0]
        portal_set = np.unique(table[table >= 0])
        parts = hierarchy64.parts_at(1)
        edges = hierarchy64.g0.overlay.edge_array
        u, v = edges[:, 0], edges[:, 1]
        boundary = (parts[u] != parts[v]) & (
            np.isin(u, portal_set) | np.isin(v, portal_set)
        )
        assert boundary.any()
        pruned = copy.copy(hierarchy64)
        pruned.g0 = copy.copy(hierarchy64.g0)
        pruned.g0.overlay = Graph(
            hierarchy64.g0.overlay.num_nodes, edges[~boundary]
        )
        # Keep the portals elected on the intact overlay, so the hop
        # (not the lookup) is what finds the boundary edge gone.
        router.hierarchy = pruned
        router.rng = np.random.default_rng(81)
        rng = np.random.default_rng(82)
        with pytest.raises(
            RoutingError, match="lost its boundary edge to part"
        ):
            router.route(np.arange(64), rng.permutation(64))


class TestTracing:
    def test_trace_disabled_by_default(self, router64):
        rng = np.random.default_rng(83)
        result = router64.route(np.arange(64), rng.permutation(64))
        assert result.packet_hops is None

    def test_trace_records_hops(self, router64, hierarchy64):
        rng = np.random.default_rng(84)
        result = router64.route(
            np.arange(64), rng.permutation(64), trace=True
        )
        assert result.packet_hops is not None
        assert result.packet_hops.shape == (64,)
        bound = 2 ** (hierarchy64.depth + 1) - 1
        assert result.packet_hops.max() <= bound

    def test_self_destination_zero_hops_possible(self, router64):
        result = router64.route(
            np.array([5]), np.array([5]), trace=True
        )
        # The packet may land on its destination's canonical vnode during
        # preparation; its hop count is small either way.
        assert result.packet_hops[0] >= 0

    def test_trace_consistent_across_phases(self, router64):
        sources = np.arange(64)
        destinations = np.zeros(64, dtype=np.int64)  # phased demand
        result = router64.route(sources, destinations, trace=True)
        assert result.delivered
        assert result.packet_hops.shape == (64,)
