"""Tests for the walk-endpoint selection helpers."""

import numpy as np
import pytest

from repro.core.sampling import group_select, sample_within_parts


@pytest.fixture()
def rng():
    return np.random.default_rng(130)


class TestGroupSelect:
    def test_basic_selection(self, rng):
        owners = np.array([0, 0, 1, 1])
        targets = np.array([1, 2, 0, 3])
        edges = group_select(owners, targets, 4, cap=5, rng=rng)
        assert sorted(map(tuple, edges.tolist())) == [
            (0, 1), (0, 2), (1, 0), (1, 3)
        ]

    def test_self_targets_dropped(self, rng):
        owners = np.array([0, 0])
        targets = np.array([0, 1])
        edges = group_select(owners, targets, 2, cap=5, rng=rng)
        assert list(map(tuple, edges.tolist())) == [(0, 1)]

    def test_duplicates_collapsed(self, rng):
        owners = np.array([0, 0, 0])
        targets = np.array([1, 1, 1])
        edges = group_select(owners, targets, 2, cap=5, rng=rng)
        assert list(map(tuple, edges.tolist())) == [(0, 1)]

    def test_cap_enforced(self, rng):
        owners = np.zeros(10, dtype=np.int64)
        targets = np.arange(1, 11)
        edges = group_select(owners, targets, 11, cap=3, rng=rng)
        assert len(edges) == 3

    def test_empty(self, rng):
        edges = group_select(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            3, cap=2, rng=rng,
        )
        assert list(map(tuple, edges.tolist())) == []

    def test_owner_without_samples(self, rng):
        owners = np.array([2, 2])
        targets = np.array([0, 1])
        edges = group_select(owners, targets, 3, cap=5, rng=rng)
        assert all(owner == 2 for owner, __ in map(tuple, edges.tolist()))


class TestSampleWithinParts:
    def test_edges_respect_parts(self, rng):
        parts = np.array([0, 0, 0, 1, 1, 1, 1])
        edges = sample_within_parts(parts, degree=3, rng=rng)
        for u, v in edges:
            assert parts[u] == parts[v]
            assert u != v

    def test_every_node_in_big_part_covered(self, rng):
        parts = np.zeros(20, dtype=np.int64)
        edges = sample_within_parts(parts, degree=4, rng=rng)
        sources = {u for u, __ in edges}
        assert sources == set(range(20))

    def test_singleton_part_produces_nothing(self, rng):
        parts = np.array([0, 1, 1])
        edges = sample_within_parts(parts, degree=2, rng=rng)
        assert all(u != 0 and v != 0 for u, v in edges)

    def test_degree_cap(self, rng):
        parts = np.zeros(30, dtype=np.int64)
        edges = sample_within_parts(parts, degree=5, rng=rng)
        from collections import Counter

        out_degrees = Counter(u for u, __ in edges)
        assert max(out_degrees.values()) <= 5
