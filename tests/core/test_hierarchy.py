"""Tests for the hierarchical embedding (Lemmas 3.1 / 3.2 structure)."""

import numpy as np
import pytest

from repro.core import build_hierarchy
from repro.graphs import Graph, random_regular
from repro.params import Params


class TestStructure:
    def test_depth_positive(self, hierarchy64):
        assert hierarchy64.depth >= 1

    def test_levels_indexed(self, hierarchy64):
        for i, level in enumerate(hierarchy64.levels, start=1):
            assert level.index == i

    def test_part_sizes_shrink_by_beta(self, hierarchy64):
        previous = hierarchy64.g0.virtual.count
        for level in hierarchy64.levels:
            sizes = np.bincount(level.parts)
            assert sizes.max() < previous
            previous = sizes.max()

    def test_last_level_is_clique(self, hierarchy64):
        assert hierarchy64.levels[-1].is_clique
        for level in hierarchy64.levels[:-1]:
            assert not level.is_clique

    def test_clique_level_complete_per_part(self, hierarchy64):
        level = hierarchy64.levels[-1]
        parts = level.parts
        overlay = level.overlay
        # Pick one part and verify it is a clique.
        part_id = parts[0]
        members = np.flatnonzero(parts == part_id)
        for i, u in enumerate(members):
            neighbors = set(int(w) for w in overlay.neighbors(int(u)))
            expected = set(int(w) for w in members) - {int(u)}
            assert neighbors == expected

    def test_overlay_edges_stay_within_parts(self, hierarchy64):
        for level in hierarchy64.levels:
            for u, v in level.overlay.edges():
                assert level.parts[u] == level.parts[v]

    def test_parts_match_partition(self, hierarchy64):
        for level in hierarchy64.levels:
            assert np.array_equal(
                level.parts,
                hierarchy64.partition.all_parts_at_level(level.index),
            )

    def test_nonclique_parts_internally_connected(self, hierarchy64):
        """Each part's random graph must be connected for routing."""
        for level in hierarchy64.levels:
            overlay = level.overlay
            parts = level.parts
            for part_id in np.unique(parts):
                members = np.flatnonzero(parts == part_id)
                seen = {int(members[0])}
                frontier = [int(members[0])]
                while frontier:
                    node = frontier.pop()
                    for w in overlay.neighbors(node):
                        w = int(w)
                        if w not in seen:
                            seen.add(w)
                            frontier.append(w)
                assert seen == set(int(x) for x in members)


class TestCosts:
    def test_emulation_costs_positive(self, hierarchy64):
        for level in hierarchy64.levels:
            assert level.emulation_cost >= 1.0
            assert level.build_cost > 0

    def test_emulation_chain_multiplies(self, hierarchy64):
        factor = 1.0
        for i, level in enumerate(hierarchy64.levels, start=1):
            factor *= level.emulation_cost
            assert hierarchy64.emulation_to_g0(i) == pytest.approx(factor)

    def test_emulation_to_g_includes_g0(self, hierarchy64):
        assert hierarchy64.emulation_to_g(0) == pytest.approx(
            hierarchy64.g0.round_cost
        )

    def test_emulation_cost_polylog(self, hierarchy64):
        """Lemma 3.1: one G_i round embeds in O(log^2 n) G_{i-1} rounds."""
        n = hierarchy64.g0.base_graph.num_nodes
        log_n = np.log2(n)
        for level in hierarchy64.levels:
            assert level.emulation_cost <= 12 * log_n**2

    def test_construction_rounds_recorded(self, hierarchy64):
        labels = hierarchy64.ledger.by_label()
        assert "g0/build" in labels
        assert any(label.startswith("hierarchy/build") for label in labels)
        assert hierarchy64.construction_rounds() > 0

    def test_seed_broadcast_charged(self, hierarchy64):
        assert "partition/seed-broadcast" in hierarchy64.ledger.by_label()


class TestAccessors:
    def test_overlay_at_zero(self, hierarchy64):
        assert hierarchy64.overlay_at(0) is hierarchy64.g0.overlay

    def test_parts_at_zero_all_root(self, hierarchy64):
        assert np.all(hierarchy64.parts_at(0) == 0)

    def test_beta_property(self, hierarchy64):
        assert hierarchy64.beta == hierarchy64.partition.beta == 4


class TestVariants:
    def test_walk_overlay_variant_matches_structure(self, expander64):
        params = Params.default().with_overrides(use_walk_overlays=True)
        h = build_hierarchy(
            expander64, params, np.random.default_rng(50), beta=4
        )
        assert h.depth >= 2
        for level in h.levels[:-1]:
            degrees = level.overlay.degrees
            assert degrees.min() >= 1

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            build_hierarchy(g, Params.default(), np.random.default_rng(0))

    def test_default_arguments(self):
        g = random_regular(32, 4, np.random.default_rng(52))
        h = build_hierarchy(g)
        assert h.depth >= 1
