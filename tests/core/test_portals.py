"""Tests for portal discovery (Lemma 3.3) and portal redundancy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_portals
from repro.core.portals import _boundary_nodes
from repro.graphs import Graph
from repro.params import Params
from repro.rng import derive_rng


@pytest.fixture(scope="module")
def portals64(hierarchy64, params):
    return build_portals(hierarchy64, params, np.random.default_rng(60))


class TestBoundaryNodes:
    def test_simple_boundary(self):
        # Two parts {0,1} and {2,3} with edges 1-2 crossing.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        parts = np.array([0, 0, 1, 1])
        boundary = _boundary_nodes(g, parts, beta=2)
        assert set(boundary[(0, 1)].tolist()) == {1}
        assert set(boundary[(1, 0)].tolist()) == {2}

    def test_cross_parent_edges_ignored(self):
        # Parts 0 and 2 have different parents when beta=2 (0//2 != 2//2).
        g = Graph(2, [(0, 1)])
        parts = np.array([0, 2])
        boundary = _boundary_nodes(g, parts, beta=2)
        assert boundary == {}

    def test_empty_graph(self):
        g = Graph(3, [])
        assert _boundary_nodes(g, np.zeros(3, dtype=np.int64), 2) == {}


class TestPortalTables:
    def test_full_coverage(self, portals64, hierarchy64):
        beta = hierarchy64.beta
        for level in range(1, hierarchy64.depth + 1):
            table = portals64.tables[level - 1]
            parts = hierarchy64.parts_at(level)
            own = parts % beta
            for j in range(beta):
                needed = own != j
                assert np.all(table[needed, j] >= 0), (level, j)

    def test_own_sibling_unset(self, portals64, hierarchy64):
        beta = hierarchy64.beta
        for level in range(1, hierarchy64.depth + 1):
            table = portals64.tables[level - 1]
            parts = hierarchy64.parts_at(level)
            own = parts % beta
            for j in range(beta):
                mine = own == j
                assert np.all(table[mine, j] == -1)

    def test_portal_in_same_part(self, portals64, hierarchy64):
        beta = hierarchy64.beta
        for level in range(1, hierarchy64.depth + 1):
            table = portals64.tables[level - 1]
            parts = hierarchy64.parts_at(level)
            for j in range(beta):
                holders = np.flatnonzero(table[:, j] >= 0)
                assert np.array_equal(
                    parts[table[holders, j]], parts[holders]
                )

    def test_portal_has_boundary_edge(self, portals64, hierarchy64):
        """Every portal really has a prev-overlay edge into the target."""
        beta = hierarchy64.beta
        for level in range(1, hierarchy64.depth + 1):
            table = portals64.tables[level - 1]
            parts = hierarchy64.parts_at(level)
            overlay_prev = hierarchy64.overlay_at(level - 1)
            for j in range(beta):
                holders = np.flatnonzero(table[:, j] >= 0)
                sample = holders[:: max(1, holders.shape[0] // 20)]
                for x in sample:
                    portal = int(table[x, j])
                    target_part = (parts[x] // beta) * beta + j
                    heads = overlay_prev.neighbors(portal)
                    assert np.any(parts[heads] == target_part)

    def test_vectorized_lookup(self, portals64):
        vnodes = np.array([0, 1, 2])
        siblings = np.array([1, 2, 3])
        looked = portals64.portals_for(1, vnodes, siblings)
        for i in range(3):
            assert looked[i] == portals64.portal(
                1, int(vnodes[i]), int(siblings[i])
            )

    def test_cost_charged(self, hierarchy64, params):
        start = len(hierarchy64.ledger)
        build_portals(hierarchy64, params, np.random.default_rng(61))
        labels = hierarchy64.ledger.slice_from(start).by_label()
        assert any(label.startswith("portals/level") for label in labels)

    def test_boundary_counts_recorded(self, portals64, hierarchy64):
        assert len(portals64.boundary_counts) == hierarchy64.depth
        assert all(
            count > 0
            for level in portals64.boundary_counts
            for count in level.values()
        )


def _redundant(hierarchy, params, seed):
    """Primary plus redundant portals; ``k`` comes from ``params``."""
    return build_portals(
        hierarchy,
        params,
        derive_rng(seed, 1),
        redundancy_rng=derive_rng(seed, 2),
    )


#: 0.45 * log2(384 vnodes of hierarchy64) rounds to 4 portals.
_K4_FACTOR = 0.45


class TestRedundantPortals:
    def test_primary_bit_identical(self, hierarchy64, params):
        """Turning redundancy on must not shift the primary draws."""
        plain = build_portals(hierarchy64, params, derive_rng(9, 1))
        extra = _redundant(hierarchy64, params, seed=9)
        for level in range(1, hierarchy64.depth + 1):
            assert np.array_equal(
                plain.tables[level - 1], extra.tables[level - 1]
            )
            # Slot 0 of the redundant array IS the primary table.
            assert np.array_equal(
                extra.redundant[level - 1][:, :, 0],
                extra.tables[level - 1],
            )

    def test_redundancy_k(self, hierarchy64, params):
        extra = _redundant(hierarchy64, params, seed=9)
        num_vnodes = hierarchy64.g0.virtual.count
        assert extra.redundancy == params.portal_redundancy(num_vnodes)
        # 0.6 * log2(384 vnodes) rounds to 5 portals per (node, sibling).
        tuned = params.with_overrides(portal_redundancy_factor=0.6)
        assert _redundant(hierarchy64, tuned, seed=9).redundancy == 5

    def test_candidates_lie_on_the_boundary(self, hierarchy64, params):
        """Every failover candidate is a legal portal: a boundary node
        of the right (part, sibling) pair."""
        extra = _redundant(hierarchy64, params, seed=11)
        beta = hierarchy64.beta
        for level in range(1, hierarchy64.depth + 1):
            parts = hierarchy64.parts_at(level)
            cube = extra.redundant[level - 1]
            boundary = extra.boundary_sets[level - 1]
            for (part, j), nodes in boundary.items():
                members = np.flatnonzero(parts == part)
                legal = set(nodes.tolist())
                for slot in range(cube.shape[2]):
                    chosen = cube[members, j, slot]
                    assert set(chosen[chosen >= 0].tolist()) <= legal

    def test_recovery_cost_charged_separately(self, hierarchy64, params):
        start = len(hierarchy64.ledger)
        build_portals(
            hierarchy64,
            params,
            derive_rng(12, 1),
            redundancy_rng=derive_rng(12, 2),
        )
        labels = hierarchy64.ledger.slice_from(start).by_label()
        assert any(
            label.startswith("recovery/portal-redundancy") for label in labels
        )
        assert any(label.startswith("portals/level") for label in labels)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_build_is_deterministic(self, hierarchy64, params, seed):
        """Crash-then-recover twice: two builds from the same seed are
        bit-identical, so re-running a healed run reproduces it."""
        four = params.with_overrides(portal_redundancy_factor=_K4_FACTOR)
        a = _redundant(hierarchy64, four, seed=seed)
        b = _redundant(hierarchy64, four, seed=seed)
        assert a.redundancy == 4
        for level in range(1, hierarchy64.depth + 1):
            assert np.array_equal(
                a.redundant[level - 1], b.redundant[level - 1]
            )

    def test_slots_independent_uniform(self, hierarchy64, params):
        """The k candidates are independent uniform draws over the
        boundary set: aggregated over seeds, every boundary node shows
        up, frequencies are roughly flat, and slots differ."""
        beta = hierarchy64.beta
        parts = hierarchy64.parts_at(1)
        counts: dict[int, int] = {}
        slot_pairs_equal = 0
        total_pairs = 0
        four = params.with_overrides(portal_redundancy_factor=_K4_FACTOR)
        boundary = None
        target = None
        members = None
        for seed in range(5):
            extra = _redundant(hierarchy64, four, seed=20 + seed)
            if boundary is None:
                sets = extra.boundary_sets[0]
                # Pick the densest electorate for stable statistics.
                (part, target), nodes = max(
                    sets.items(), key=lambda item: item[1].shape[0]
                )
                boundary = set(nodes.tolist())
                members = np.flatnonzero(parts == part)
            cube = extra.redundant[0]
            for slot in range(1, 4):
                chosen = cube[members, target, slot]
                for node in chosen[chosen >= 0].tolist():
                    counts[node] = counts.get(node, 0) + 1
            a = cube[members, target, 1]
            b = cube[members, target, 2]
            ok = (a >= 0) & (b >= 0)
            slot_pairs_equal += int(np.sum(a[ok] == b[ok]))
            total_pairs += int(np.sum(ok))
        # Support: with >> |boundary| samples, every node is drawn.
        assert set(counts) == boundary
        # Flatness: no node dominates a uniform draw by 6x.
        frequencies = np.array(sorted(counts.values()), dtype=float)
        assert frequencies[-1] <= 6 * max(1.0, frequencies[0])
        # Independence: identical slots would agree everywhere; uniform
        # independent slots agree with probability 1/|boundary|.
        assert total_pairs > 0
        assert slot_pairs_equal / total_pairs < 0.5

    def test_reelection_deterministic_and_live(self, hierarchy64, params):
        extra = _redundant(hierarchy64, params, seed=13)
        sets = extra.boundary_sets[0]
        (part, j), nodes = max(
            sets.items(), key=lambda item: item[1].shape[0]
        )
        dead = {int(nodes[0])}
        first = extra.reelect(
            1, part, j, lambda v: v in dead, derive_rng(14, 0)
        )
        second = extra.reelect(
            1, part, j, lambda v: v in dead, derive_rng(14, 0)
        )
        assert first == second
        assert first in set(nodes.tolist()) - dead

    def test_reelection_exhausted_electorate(self, hierarchy64, params):
        extra = _redundant(hierarchy64, params, seed=13)
        sets = extra.boundary_sets[0]
        (part, j), _nodes = next(iter(sorted(sets.items())))
        assert extra.reelect(
            1, part, j, lambda v: True, derive_rng(15, 0)
        ) == -1


class TestWalkVariant:
    def test_walk_portals_cover(self, hierarchy64):
        params = Params.default().with_overrides(use_walk_portals=True)
        portals = build_portals(
            hierarchy64, params, np.random.default_rng(62)
        )
        beta = hierarchy64.beta
        table = portals.tables[0]
        parts = hierarchy64.parts_at(1)
        own = parts % beta
        for j in range(beta):
            needed = own != j
            coverage = np.mean(table[needed, j] >= 0)
            assert coverage > 0.95, (j, coverage)

    def test_walk_and_sampled_distributions_agree(self, hierarchy64):
        """Both variants pick uniform boundary nodes: compare histograms."""
        rng = np.random.default_rng(63)
        sampled = build_portals(
            hierarchy64,
            Params.default(),
            rng,
        )
        walked = build_portals(
            hierarchy64,
            Params.default().with_overrides(
                use_walk_portals=True, portal_walks_factor=6.0
            ),
            rng,
        )
        parts = hierarchy64.parts_at(1)
        beta = hierarchy64.beta
        part0 = np.flatnonzero(parts == parts[0])
        target = (int(parts[0]) + 1) % beta
        a = sampled.tables[0][part0, target]
        b = walked.tables[0][part0, target]
        a, b = a[a >= 0], b[b >= 0]
        # Portal supports should largely coincide.
        support_a, support_b = set(a.tolist()), set(b.tolist())
        overlap = len(support_a & support_b) / max(1, len(support_a | support_b))
        assert overlap > 0.3
