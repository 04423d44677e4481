"""Tests for virtual trees and the Lemma 4.1 balancing pass."""

import numpy as np
import pytest

from repro.core import VirtualTree


def chain_tree(nodes):
    """A path tree rooted at nodes[0]."""
    tree = VirtualTree.singleton(nodes[0])
    for parent, child in zip(nodes, nodes[1:]):
        tree.parent[child] = parent
        tree.children.setdefault(parent, set()).add(child)
        tree.children[child] = set()
        tree.depth[child] = tree.depth[parent] + 1
    return tree


class TestBasics:
    def test_singleton(self):
        tree = VirtualTree.singleton(7)
        assert tree.root == 7
        assert tree.size == 1
        assert tree.max_depth() == 0
        tree.check_invariants()

    def test_chain(self):
        tree = chain_tree([0, 1, 2, 3])
        assert tree.max_depth() == 3
        assert tree.in_degree(0) == 1
        tree.check_invariants()

    def test_pairs_to_parent(self):
        tree = chain_tree([0, 1, 2])
        assert sorted(tree.pairs_to_parent()) == [(1, 0), (2, 1)]


class TestAbsorb:
    def test_absorb_under_attach_node(self):
        head = chain_tree([0, 1, 2])
        tail = chain_tree([10, 11])
        head.absorb(tail, attach_node=1)
        assert head.parent[10] == 1
        assert head.depth[10] == 2
        assert head.depth[11] == 3
        assert head.size == 5
        head.check_invariants()

    def test_absorb_bad_attach(self):
        head = chain_tree([0, 1])
        tail = chain_tree([10])
        with pytest.raises(ValueError, match="not in head"):
            head.absorb(tail, attach_node=99)

    def test_absorb_overlapping(self):
        head = chain_tree([0, 1])
        tail = chain_tree([1, 2])
        with pytest.raises(ValueError, match="overlap"):
            head.absorb(tail, attach_node=0)


class TestRebalance:
    def test_no_attach_points_noop(self):
        tree = chain_tree([0, 1, 2])
        report = tree.rebalance([])
        assert report.reparented == 0
        tree.check_invariants()

    def test_root_attach_point_ignored(self):
        tree = chain_tree([0, 1, 2])
        report = tree.rebalance([0])
        assert report.reparented == 0
        tree.check_invariants()

    def test_single_deep_point_hoisted(self):
        """A singleton token travelling to the root re-parents its origin
        near the root."""
        tree = chain_tree(list(range(10)))
        report = tree.rebalance([8])
        tree.check_invariants()
        assert report.upcast_steps > 0
        assert tree.depth[8] <= 2

    def test_many_points_merge_tree_is_shallow(self):
        # A star of chains: attach points at the end of each chain.
        tree = VirtualTree.singleton(0)
        attach = []
        node = 1
        for arm in range(8):
            prev = 0
            for step in range(6):
                tree.parent[node] = prev
                tree.children.setdefault(prev, set()).add(node)
                tree.children[node] = set()
                tree.depth[node] = tree.depth[prev] + 1
                prev = node
                node += 1
            attach.append(prev)
        report = tree.rebalance(attach)
        tree.check_invariants()
        # All arms' endpoints should now sit near the root.
        assert max(tree.depth[a] for a in attach) <= 4
        assert report.merges >= 1

    def test_invariants_after_random_merges(self):
        """Stress: random star merges + rebalance keep the tree valid."""
        rng = np.random.default_rng(90)
        trees = [VirtualTree.singleton(v) for v in range(40)]
        while len(trees) > 1:
            rng.shuffle(trees)
            head = trees[0]
            num_tails = min(len(trees) - 1, int(rng.integers(1, 4)))
            attach_points = []
            for tail in trees[1: 1 + num_tails]:
                target = list(head.nodes)[
                    rng.integers(0, head.size)
                ]
                head.absorb(tail, target)
                attach_points.append(target)
            head.rebalance(attach_points)
            head.check_invariants()
            trees = [head] + trees[1 + num_tails:]
        assert trees[0].size == 40

    def test_depth_stays_polylog_under_adversarial_chain(self):
        """Absorbing one deep chain per round must not blow up depth."""
        head = VirtualTree.singleton(0)
        next_node = 1
        rng = np.random.default_rng(91)
        for round_number in range(12):
            tail = chain_tree(list(range(next_node, next_node + 5)))
            next_node += 5
            nodes = list(head.nodes)
            target = nodes[rng.integers(0, len(nodes))]
            head.absorb(tail, target)
            head.rebalance([target])
            head.check_invariants()
        # 12 merges of depth-4 chains: depth must stay well below the
        # naive worst case of 12 * 5 = 60.
        assert head.max_depth() <= 30
