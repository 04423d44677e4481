"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import kruskal, prim
from repro.core import VirtualTree
from repro.core.sampling import group_select
from repro.graphs import Graph, WeightedGraph
from repro.hashing import KWiseHash

common_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def connected_graphs(draw, max_nodes=16, max_extra_edges=20):
    """A random connected graph: a random spanning tree plus extras."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    extra = draw(st.integers(min_value=0, max_value=max_extra_edges))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


@st.composite
def weighted_graphs(draw, max_nodes=14):
    graph = draw(connected_graphs(max_nodes=max_nodes))
    weights = [
        draw(
            st.floats(
                min_value=0.0, max_value=100.0,
                allow_nan=False, allow_infinity=False,
            )
        )
        for _ in range(graph.num_edges)
    ]
    return WeightedGraph(graph.num_nodes, list(graph.edges()), weights)


class TestGraphProperties:
    @common_settings
    @given(connected_graphs())
    def test_csr_roundtrip(self, graph):
        rebuilt = Graph(graph.num_nodes, list(graph.edges()))
        assert sorted(rebuilt.edges()) == sorted(graph.edges())
        assert np.array_equal(rebuilt.degrees, graph.degrees)

    @common_settings
    @given(connected_graphs())
    def test_handshake_lemma(self, graph):
        assert graph.degrees.sum() == 2 * graph.num_edges

    @common_settings
    @given(connected_graphs())
    def test_arc_twins_cover_all_arcs(self, graph):
        twins = graph.arc_twin
        assert sorted(twins.tolist()) == list(range(graph.num_arcs))

    @common_settings
    @given(connected_graphs())
    def test_bfs_distances_triangle_inequality(self, graph):
        dist = graph.bfs_distances(0)
        for u, v in graph.edges():
            assert abs(dist[u] - dist[v]) <= 1

    @common_settings
    @given(connected_graphs())
    def test_connected_by_construction(self, graph):
        assert graph.is_connected()


class TestMstProperties:
    @common_settings
    @given(weighted_graphs())
    def test_kruskal_prim_agree(self, graph):
        assert kruskal(graph) == prim(graph)

    @common_settings
    @given(weighted_graphs())
    def test_mst_has_n_minus_one_edges(self, graph):
        assert len(kruskal(graph)) == graph.num_nodes - 1

    @common_settings
    @given(weighted_graphs())
    def test_cut_property(self, graph):
        """The lightest edge of the graph is always in the MST."""
        lightest = min(
            range(graph.num_edges), key=lambda e: (graph.weights[e], e)
        )
        assert lightest in kruskal(graph)


class TestHashProperties:
    @common_settings
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_range_always_respected(self, wise, range_size, seed):
        h = KWiseHash(wise, range_size, np.random.default_rng(seed))
        values = h(np.arange(64))
        assert values.min() >= 0
        assert values.max() < range_size

    @common_settings
    @given(st.integers(min_value=0, max_value=2**31))
    def test_determinism(self, seed):
        h = KWiseHash(4, 97, np.random.default_rng(seed))
        keys = np.arange(32)
        assert np.array_equal(h(keys), h(keys))


class TestGroupSelectProperties:
    @common_settings
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=80,
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_cap_and_distinctness(self, pairs, cap):
        owners = np.array([p[0] for p in pairs], dtype=np.int64)
        targets = np.array([p[1] for p in pairs], dtype=np.int64)
        edges = list(map(tuple, group_select(
            owners, targets, 10, cap, np.random.default_rng(0)
        ).tolist()))
        from collections import Counter

        per_owner = Counter(u for u, __ in edges)
        assert all(count <= cap for count in per_owner.values())
        assert all(u != v for u, v in edges)
        assert len(set(edges)) == len(edges)

    @common_settings
    @given(st.integers(min_value=1, max_value=50))
    def test_targets_come_from_input(self, size):
        rng = np.random.default_rng(size)
        owners = rng.integers(0, 5, size=size)
        targets = rng.integers(0, 20, size=size)
        edges = list(map(tuple, group_select(
            owners, targets, 5, 10, rng
        ).tolist()))
        allowed = set(zip(owners.tolist(), targets.tolist()))
        assert all((u, v) in allowed for u, v in edges)


class TestVirtualTreeProperties:
    @common_settings
    @given(st.lists(st.integers(min_value=0, max_value=2), max_size=15))
    def test_random_merge_sequences_keep_invariants(self, choices):
        rng = np.random.default_rng(42)
        trees = [VirtualTree.singleton(v) for v in range(12)]
        for choice in choices:
            if len(trees) < 2:
                break
            head = trees[0]
            tails = trees[1: 2 + choice]
            attach_points = []
            for tail in tails:
                nodes = list(head.nodes)
                target = nodes[int(rng.integers(0, len(nodes)))]
                head.absorb(tail, target)
                attach_points.append(target)
            head.rebalance(attach_points)
            head.check_invariants()
            trees = [head] + trees[2 + choice:]


class TestPartitionBalanceProperty:
    @common_settings
    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_balance_over_random_betas(self, beta, seed):
        """P1 holds for any beta: no leaf part is empty and balance
        stays bounded, for a fixed moderately sized virtual-node set."""
        from repro.core import build_partition
        from repro.core.embedding import VirtualNodes
        from repro.graphs import random_regular
        from repro.params import Params

        rng = np.random.default_rng(seed)
        graph = random_regular(64, 6, np.random.default_rng(7))
        virtual = VirtualNodes(graph=graph, host=graph.arc_tails)
        partition = build_partition(virtual, Params.default(), rng, beta=beta)
        sizes = partition.part_sizes(1)
        assert sizes.sum() == virtual.count
        assert sizes.min() > 0
        expected = virtual.count / beta
        assert sizes.max() < 4 * expected + 10
