"""Tests for the pseudo-random hierarchical partition (P1 and P2)."""

import numpy as np
import pytest

from repro.core import build_g0, build_partition
from repro.graphs import random_regular
from repro.params import Params


@pytest.fixture(scope="module")
def setup():
    graph = random_regular(128, 6, np.random.default_rng(10))
    g0 = build_g0(graph, Params.default(), np.random.default_rng(11))
    partition = build_partition(
        g0.virtual, Params.default(), np.random.default_rng(12),
        beta=3,
    )
    return g0, partition


class TestStructure:
    def test_depth_and_beta(self, setup):
        __, partition = setup
        # 768 virtual nodes at beta=3 reach the bottom size at level 3.
        assert partition.beta == 3
        assert partition.depth == 3

    def test_leaf_range(self, setup):
        __, partition = setup
        assert partition.leaf.min() >= 0
        assert partition.leaf.max() < 27

    def test_parts_at_level_counts(self, setup):
        __, partition = setup
        assert partition.parts_at_level(0) == 1
        assert partition.parts_at_level(2) == 9

    def test_level_out_of_range(self, setup):
        __, partition = setup
        with pytest.raises(ValueError):
            partition.part_of(np.array([0]), 4)
        with pytest.raises(ValueError):
            partition.parts_at_level(-1)

    def test_prefix_nesting(self, setup):
        """Level-(i+1) parts refine level-i parts."""
        __, partition = setup
        vnodes = np.arange(partition.virtual.count)
        for level in range(partition.depth):
            coarse = partition.part_of(vnodes, level)
            fine = partition.part_of(vnodes, level + 1)
            assert np.array_equal(fine // partition.beta, coarse)

    def test_level_zero_is_root(self, setup):
        __, partition = setup
        assert np.all(partition.part_of(np.arange(10), 0) == 0)

    def test_all_parts_matches_part_of(self, setup):
        __, partition = setup
        vnodes = np.arange(partition.virtual.count)
        for level in (1, 2, 3):
            assert np.array_equal(
                partition.all_parts_at_level(level),
                partition.part_of(vnodes, level),
            )


class TestP1Balance:
    def test_all_leaves_populated(self, setup):
        __, partition = setup
        sizes = partition.part_sizes(partition.depth)
        assert sizes.min() > 0

    def test_balance_ratio_bounded(self, setup):
        """(P1): every prefix class within a constant factor of N/beta^p."""
        __, partition = setup
        for level in (1, 2, 3):
            assert partition.balance_ratio(level) < 6.0

    def test_sizes_sum_to_total(self, setup):
        g0, partition = setup
        for level in (1, 2, 3):
            assert partition.part_sizes(level).sum() == g0.virtual.count


class TestP2Computability:
    def test_destination_leaf_from_id_alone(self, setup):
        """(P2): hash(v * n) equals the canonical vnode's actual leaf."""
        g0, partition = setup
        n = g0.base_graph.num_nodes
        reals = np.arange(n)
        predicted = partition.hash_fn(reals * n)
        actual = partition.leaf[g0.virtual.canonical(reals)]
        assert np.array_equal(predicted, actual)

    def test_shared_seed_reproducible(self, setup):
        """Two nodes with the same seed bits compute identical labels."""
        g0, partition = setup
        # Simulate a second node evaluating the shared hash function.
        uids = g0.virtual.uid(np.arange(50))
        again = partition.hash_fn(uids)
        assert np.array_equal(again, partition.leaf[:50])


class TestDefaults:
    def test_default_beta_and_depth(self):
        graph = random_regular(64, 4, np.random.default_rng(13))
        g0 = build_g0(graph, Params.default(), np.random.default_rng(14))
        partition = build_partition(
            g0.virtual, Params.default(), np.random.default_rng(15)
        )
        assert partition.beta >= 2
        assert partition.depth >= 1

    def test_beta_too_small_rejected(self):
        graph = random_regular(32, 4, np.random.default_rng(16))
        g0 = build_g0(graph, Params.default(), np.random.default_rng(17))
        with pytest.raises(ValueError):
            build_partition(
                g0.virtual, Params.default(), np.random.default_rng(18),
                beta=1,
            )
