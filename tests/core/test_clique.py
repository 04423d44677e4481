"""Tests for the clique emulation (Theorem 1.3 behaviour)."""

import numpy as np
import pytest

from repro.core import all_pairs_demand, emulate_clique
from repro.graphs import erdos_renyi


class TestDemandGenerator:
    def test_counts(self):
        sources, destinations = all_pairs_demand(5)
        assert sources.shape == destinations.shape == (20,)

    def test_no_self_pairs(self):
        sources, destinations = all_pairs_demand(6)
        assert np.all(sources != destinations)

    def test_all_pairs_present(self):
        sources, destinations = all_pairs_demand(4)
        pairs = set(zip(sources.tolist(), destinations.tolist()))
        assert len(pairs) == 12
        assert (0, 3) in pairs and (3, 0) in pairs


class TestEmulation:
    def test_full_emulation_delivers(self, hierarchy64, params):
        result = emulate_clique(
            hierarchy64, params, np.random.default_rng(110)
        )
        assert result.delivered
        assert result.num_messages == 64 * 63
        assert result.num_phases >= 1
        assert result.rounds > 0

    def test_phases_scale_with_demand(self, hierarchy64, params):
        """All-to-all load is n-1 per node: phases ~ (n-1)/(d log n)."""
        result = emulate_clique(
            hierarchy64, params, np.random.default_rng(111)
        )
        n, d = 64, 6
        promise = params.packets_per_node(n, d)
        expected = int(np.ceil(2 * (n - 1) / promise))
        assert result.num_phases <= 3 * expected

    def test_sampled_emulation(self, hierarchy64, params):
        result = emulate_clique(
            hierarchy64, params, np.random.default_rng(112),
            sample_fraction=0.2,
        )
        assert result.delivered
        assert result.num_messages < 64 * 63

    def test_sample_fraction_validation(self, hierarchy64, params):
        with pytest.raises(ValueError):
            emulate_clique(
                hierarchy64, params, np.random.default_rng(113),
                sample_fraction=0.0,
            )

    def test_on_erdos_renyi(self, params):
        from repro.core import build_hierarchy

        rng = np.random.default_rng(114)
        graph = erdos_renyi(48, 0.25, rng)
        hierarchy = build_hierarchy(graph, params, rng)
        result = emulate_clique(hierarchy, params, rng)
        assert result.delivered
        assert result.num_messages == 48 * 47
