"""Tests for the CONGEST simulator.

Flooding BFS and broadcast serve as sample protocols: their round counts
are the graph distances, which pins the simulator's round semantics.
"""

import dataclasses
import gc
import weakref
from typing import Mapping, Optional

import numpy as np
import pytest

from repro.congest import (
    CongestViolation,
    FaultPlan,
    FaultSpec,
    Network,
    NodeAlgorithm,
    NodeContext,
    reliable_forward_demands,
)
from repro.graphs import (
    grid_torus,
    hypercube,
    path_graph,
    random_regular,
    ring_graph,
    with_random_weights,
)
from repro.congest import network as network_module
from repro.rng import derive_rng

#: A crash window far past any run here: the plan is not null, so runs
#: take the faulty delivery path, but it never injects anything.
_IDLE_CRASH = "crash=3@rounds:100000-100001"


class _Silent(NodeAlgorithm):
    def initialize(self):
        self.finished = True
        return {}

    def receive(self, round_number, inbox):
        return {}


class _SendOnce(NodeAlgorithm):
    """Node 0 sends one message to each neighbour in round 1."""

    def __init__(self, context):
        super().__init__(context)
        self.received = {}

    def initialize(self):
        self.finished = True
        if self.context.node_id == 0:
            return {w: ("hi", self.context.node_id) for w in self.context.neighbors}
        return {}

    def receive(self, round_number, inbox):
        self.received.update(inbox)
        return {}


class BfsNode(NodeAlgorithm):
    """Flooding BFS from a root; each node learns its parent and depth."""

    def __init__(self, context: NodeContext, root: int):
        super().__init__(context)
        self.root = root
        self.parent: Optional[int] = None
        self.depth: Optional[int] = None

    def initialize(self) -> Mapping[int, tuple]:
        if self.context.node_id == self.root:
            self.parent = self.context.node_id
            self.depth = 0
            self.finished = True
            return {w: ("bfs", 0) for w in self.context.neighbors}
        return {}

    def receive(
        self, round_number: int, inbox: Mapping[int, tuple]
    ) -> Mapping[int, tuple]:
        if self.depth is not None:
            return {}
        offers = [
            (payload[1], sender)
            for sender, payload in inbox.items()
            if payload[0] == "bfs"
        ]
        if not offers:
            return {}
        depth, parent = min(offers)
        self.parent = parent
        self.depth = depth + 1
        self.finished = True
        return {
            w: ("bfs", self.depth)
            for w in self.context.neighbors
            if w != parent
        }


def build_bfs_tree(
    network: Network, root: int
) -> tuple[list[Optional[int]], list[Optional[int]], int]:
    """Build a BFS tree from ``root``.

    Returns:
        ``(parents, depths, rounds)`` — parent and depth per node (the
        root is its own parent), and the round count of the run.
    """
    algorithms = [
        BfsNode(network.context(v), root)
        for v in range(network.graph.num_nodes)
    ]
    stats = network.run(algorithms)
    parents = [algorithm.parent for algorithm in algorithms]
    depths = [algorithm.depth for algorithm in algorithms]
    return parents, depths, stats.rounds


class _BroadcastNode(NodeAlgorithm):
    """Flood a single value from a source to every node."""

    def __init__(self, context: NodeContext, source: int, value):
        super().__init__(context)
        self.source = source
        self.value = value if context.node_id == source else None

    def initialize(self) -> Mapping[int, tuple]:
        if self.context.node_id == self.source:
            self.finished = True
            return {w: ("val", self.value) for w in self.context.neighbors}
        return {}

    def receive(
        self, round_number: int, inbox: Mapping[int, tuple]
    ) -> Mapping[int, tuple]:
        if self.value is not None or not inbox:
            return {}
        sender, payload = next(iter(inbox.items()))
        self.value = payload[1]
        self.finished = True
        return {
            w: ("val", self.value)
            for w in self.context.neighbors
            if w != sender
        }


def broadcast_value(network: Network, source: int, value) -> tuple[list, int]:
    """Flood ``value`` from ``source``; returns (values per node, rounds).

    This is how the ``Theta(log^2 n)`` shared hash-seed bits reach every
    node in ``O(D log n)`` rounds (a constant number of words per round
    here, since the seed fits a few words at simulable sizes).
    """
    algorithms = [
        _BroadcastNode(network.context(v), source, value)
        for v in range(network.graph.num_nodes)
    ]
    stats = network.run(algorithms)
    return [algorithm.value for algorithm in algorithms], stats.rounds


class TestNetworkMechanics:
    def test_silent_network_zero_rounds(self):
        net = Network(ring_graph(6))
        stats = net.run([_Silent(net.context(v)) for v in range(6)])
        assert stats.rounds == 0
        assert stats.messages == 0

    def test_messages_delivered_next_round(self):
        g = ring_graph(6)
        net = Network(g)
        algorithms = [_SendOnce(net.context(v)) for v in range(6)]
        stats = net.run(algorithms)
        assert stats.rounds == 1
        assert stats.messages == 2
        assert 0 in algorithms[1].received
        assert 0 in algorithms[5].received

    def test_wiring_is_built_once_per_graph(self):
        graph = with_random_weights(ring_graph(5), np.random.default_rng(0))
        first, second = Network(graph), Network(graph)
        assert first._neighbor_sets is second._neighbor_sets
        assert first.context(2) == second.context(2)
        assert first.context(2).edge_weights is not None

    def test_wiring_cache_entry_dies_with_its_graph(self):
        graph = ring_graph(7)
        held = Network(graph).context(2)
        dropped = weakref.ref(Network(graph).context(3))
        assert graph in network_module._WIRING
        entries = len(network_module._WIRING)
        alive = weakref.ref(graph)
        del graph
        gc.collect()
        # A cached value that referenced its graph would keep it alive;
        # a context held past the graph does not.
        assert alive() is None
        assert len(network_module._WIRING) == entries - 1
        assert dropped() is None
        assert held.neighbors == (1, 3)

    def test_context_is_shared_across_networks(self):
        graph = random_regular(16, 4, np.random.default_rng(3))
        for v in (0, 7, 15):
            assert Network(graph).context(v) is Network(graph).context(v)

    def test_context_is_frozen(self):
        context = Network(ring_graph(5)).context(0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            context.node_id = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            context.neighbors = ()

    def test_wrong_algorithm_count(self):
        net = Network(ring_graph(6))
        with pytest.raises(ValueError):
            net.run([_Silent(net.context(0))])

    def test_non_neighbor_send_rejected(self):
        class Bad(_Silent):
            def initialize(self):
                self.finished = True
                return {3: ("x",)}

        net = Network(path_graph(5))
        with pytest.raises(CongestViolation, match="non-neighbor"):
            net.run([Bad(net.context(v)) for v in range(5)])

    def test_oversized_payload_rejected(self):
        class Chatty(_Silent):
            def initialize(self):
                self.finished = True
                if self.context.node_id == 0:
                    return {1: tuple(range(10))}  # reprolint: disable=R002
                return {}

        net = Network(path_graph(3))
        with pytest.raises(CongestViolation, match="word"):
            net.run([Chatty(net.context(v)) for v in range(3)])

    def test_non_tuple_payload_rejected(self):
        class Wrong(_Silent):
            def initialize(self):
                self.finished = True
                if self.context.node_id == 0:
                    return {1: "not a tuple"}
                return {}

        net = Network(path_graph(3))
        with pytest.raises(CongestViolation, match="non-tuple"):
            net.run([Wrong(net.context(v)) for v in range(3)])

    def test_nontermination_detected(self):
        class Forever(NodeAlgorithm):
            def initialize(self):
                return {self.context.neighbors[0]: ("ping",)}

            def receive(self, round_number, inbox):
                return {self.context.neighbors[0]: ("ping",)}

        net = Network(ring_graph(4))
        with pytest.raises(RuntimeError, match="did not terminate"):
            net.run(
                [Forever(net.context(v)) for v in range(4)], max_rounds=50
            )

    def test_context_weights(self):
        g = with_random_weights(ring_graph(5), np.random.default_rng(0))
        net = Network(g)
        ctx = net.context(0)
        assert ctx.edge_weights is not None
        assert len(ctx.edge_weights) == ctx.degree == 2

    def test_context_unweighted(self):
        net = Network(ring_graph(5))
        assert net.context(0).edge_weights is None


class TestViolationDiagnostics:
    """CongestViolation messages carry the payload and round number."""

    def test_over_width_message_names_payload_and_round(self):
        class Chatty(_Silent):
            def initialize(self):
                self.finished = True
                if self.context.node_id == 0:
                    return {1: (1, 2, 3, 4, 5)}  # reprolint: disable=R002
                return {}

        net = Network(path_graph(3))
        with pytest.raises(CongestViolation) as info:
            net.run([Chatty(net.context(v)) for v in range(3)])
        text = str(info.value)
        assert "round 1" in text
        assert "(1, 2, 3, 4, 5)" in text
        assert "5 words" in text
        assert "node 0" in text

    def test_bad_addressing_names_payload_and_round(self):
        class Lost(_Silent):
            def initialize(self):
                self.finished = True
                if self.context.node_id == 0:
                    return {4: ("stray",)}
                return {}

        net = Network(path_graph(5))
        with pytest.raises(CongestViolation) as info:
            net.run([Lost(net.context(v)) for v in range(5)])
        text = str(info.value)
        assert "round 1" in text
        assert "non-neighbor 4" in text
        assert "('stray',)" in text

    def test_mid_run_violation_reports_later_round(self):
        class LateOffender(NodeAlgorithm):
            """Behaves in round 1, over-sends in round 2."""

            def initialize(self):
                if self.context.node_id == 0:
                    return {1: ("ping",)}
                return {}

            def receive(self, round_number, inbox):
                self.finished = True
                if inbox and self.context.node_id == 1:
                    return {0: (9, 9, 9, 9, 9)}  # reprolint: disable=R002
                return {}

        net = Network(path_graph(3))
        with pytest.raises(CongestViolation) as info:
            net.run([LateOffender(net.context(v)) for v in range(3)])
        text = str(info.value)
        assert "round 2" in text
        assert "node 1" in text
        assert "(9, 9, 9, 9, 9)" in text

    def test_non_tuple_payload_names_round_and_target(self):
        class Wrong(_Silent):
            def initialize(self):
                self.finished = True
                if self.context.node_id == 0:
                    return {1: [1, 2]}
                return {}

        net = Network(path_graph(3))
        with pytest.raises(CongestViolation) as info:
            net.run([Wrong(net.context(v)) for v in range(3)])
        text = str(info.value)
        assert "round 1" in text
        assert "[1, 2]" in text


class TestBfs:
    @pytest.mark.parametrize(
        "factory", [lambda: ring_graph(12), lambda: hypercube(4),
                    lambda: grid_torus(4, 4)]
    )
    def test_depths_match_bfs_distances(self, factory):
        g = factory()
        net = Network(g)
        parents, depths, rounds = build_bfs_tree(net, 0)
        expected = g.bfs_distances(0)
        assert depths == expected.tolist()
        assert rounds <= int(expected.max()) + 2

    def test_parents_consistent(self):
        g = random_regular(32, 4, np.random.default_rng(1))
        net = Network(g)
        parents, depths, __ = build_bfs_tree(net, 5)
        for v in range(32):
            if v == 5:
                assert parents[v] == 5
            else:
                assert depths[v] == depths[parents[v]] + 1
                assert g.has_edge(v, parents[v])


class TestBroadcast:
    def test_everyone_learns_value(self):
        g = hypercube(4)
        net = Network(g)
        values, rounds = broadcast_value(net, 3, ("seed", 42))
        assert all(v == ("seed", 42) for v in values)
        assert rounds <= g.diameter() + 2

    def test_broadcast_rounds_scale_with_diameter(self):
        g = path_graph(20)
        net = Network(g)
        __, rounds = broadcast_value(net, 0, 7)
        assert rounds >= 19


class _TickThenViolate(NodeAlgorithm):
    """Node 0 keeps one message flowing, then over-sends in `bad_round`."""

    bad_round = 5

    def initialize(self):
        self.finished = self.context.node_id != 0
        if self.context.node_id == 0:
            return {self.context.neighbors[0]: ("tick",)}
        return {}

    def receive(self, round_number, inbox):
        if self.context.node_id != 0 or self.finished:
            return {}
        target = self.context.neighbors[0]
        if round_number + 1 == self.bad_round:
            self.finished = True
            return {target: tuple(range(10))}  # reprolint: disable=R002
        return {target: ("tick",)}


class TestEveryRoundChecked:
    """Every outbox is checked every round, on a clean or a faulty wire."""

    def test_full_catches_late_violation(self):
        g = ring_graph(6)
        net = Network(g)
        with pytest.raises(CongestViolation, match="word"):
            net.run([_TickThenViolate(net.context(v)) for v in range(6)])

    @pytest.mark.parametrize("spec", ["drop=0.3", _IDLE_CRASH])
    def test_late_violation_caught_under_a_plan(self, spec):
        net = Network(ring_graph(6))
        plan = FaultPlan(FaultSpec.parse(spec), derive_rng(1))
        with pytest.raises(CongestViolation, match="round 5"):
            net.run(
                [_TickThenViolate(net.context(v)) for v in range(6)],
                faults=plan,
            )

    def test_idle_plan_matches_the_clean_wire(self):
        """A plan whose crash window never opens still takes the faulty
        delivery path, and must deliver exactly what the clean wire does."""
        g = random_regular(64, 6, derive_rng(0, 64))

        def bfs(faults):
            net = Network(g)
            algorithms = [BfsNode(net.context(v), 0) for v in range(64)]
            stats = net.run(algorithms, faults=faults)
            return stats, [(a.parent, a.depth) for a in algorithms]

        plan = FaultPlan(FaultSpec.parse(_IDLE_CRASH), derive_rng(1))
        assert not plan.spec.is_null
        clean_stats, clean_tree = bfs(None)
        faulty_stats, faulty_tree = bfs(plan)
        assert (clean_stats.rounds, clean_stats.messages) == (5, 321)
        assert faulty_stats == clean_stats
        assert faulty_tree == clean_tree


class _Logged(NodeAlgorithm):
    """Logs the rounds it is called in; unfinished for ``busy`` rounds,
    sending ``mail`` (round -> outbox) from its ``receive``."""

    def __init__(self, context, busy=0, mail=None):
        super().__init__(context)
        self.busy = busy
        self.mail = mail or {}
        self.calls = []

    def initialize(self):
        self.finished = not self.busy
        return {}

    def receive(self, round_number, inbox):
        self.calls.append(round_number)
        self.finished = round_number >= self.busy
        return self.mail.get(round_number, {})


class _Daemon(_Logged):
    daemon = True


class TestCallingRule:
    """A node is called in a round only if it is unfinished, got mail,
    or is a daemon; in ascending id."""

    def test_finished_node_without_mail_is_not_called(self):
        net = Network(ring_graph(6))
        algorithms = [_Logged(net.context(0), busy=3)] + [
            _Logged(net.context(v)) for v in range(1, 6)
        ]
        stats = net.run(algorithms)
        assert stats.rounds == 3
        assert algorithms[0].calls == [1, 2, 3]
        assert all(a.calls == [] for a in algorithms[1:])

    def test_mail_wakes_a_finished_node(self):
        net = Network(ring_graph(6))
        algorithms = [
            _Logged(net.context(0), busy=3, mail={1: {1: ("hi",)}})
        ] + [_Logged(net.context(v)) for v in range(1, 6)]
        stats = net.run(algorithms)
        assert (stats.rounds, stats.messages) == (3, 1)
        assert algorithms[1].calls == [2]
        assert all(a.calls == [] for a in algorithms[2:])

    def test_daemon_is_called_every_round_until_the_run_ends(self):
        net = Network(ring_graph(6))
        algorithms = [_Logged(net.context(0), busy=4)] + [
            _Daemon(net.context(v)) if v == 3 else _Logged(net.context(v))
            for v in range(1, 6)
        ]
        assert net.run(algorithms).rounds == 4
        assert algorithms[3].calls == [1, 2, 3, 4]
        assert algorithms[3].finished

    def test_finished_daemons_alone_end_the_run(self):
        net = Network(ring_graph(4))
        algorithms = [_Daemon(net.context(v)) for v in range(4)]
        assert net.run(algorithms).rounds == 0
        assert all(a.calls == [] for a in algorithms)

    @pytest.mark.parametrize("bad_round", [0, 1])
    def test_violation_names_the_lower_id(self, bad_round):
        """Nodes 4 and 2 both over-send in one round; the lower id is
        reported, whichever is called later."""

        class Offender(NodeAlgorithm):
            def _outbox(self, round_number):
                self.finished = round_number >= 1
                v = self.context.node_id
                if round_number == bad_round and v in (2, 4):
                    return {v - 1: tuple(range(5))}  # reprolint: disable=R002
                return {}

            def initialize(self):
                return self._outbox(0)

            def receive(self, round_number, inbox):
                return self._outbox(round_number)

        net = Network(ring_graph(6))
        algorithms = [Offender(net.context(v)) for v in range(6)]
        with pytest.raises(CongestViolation) as info:
            net.run(algorithms)
        text = str(info.value)
        assert f"round {bad_round + 1}: node 2 " in text

    def test_faulty_wire_delivers_in_ascending_sender_order(self):
        """A lossy ARQ run on a ring draws its fault stream sender by
        sender; its stats and fault records are pinned to the values of
        a run that called every node every round."""
        origins = [v for v in range(6) for _ in range(2)]
        targets = [(v + side) % 6 for v in range(6) for side in (1, -1)]
        plan = FaultPlan(FaultSpec.parse("drop=0.3"), derive_rng(1))
        report = reliable_forward_demands(
            ring_graph(6), origins, targets, faults=plan
        )
        per_round = (
            [12, 11, 0, 5, 3, 0, 0, 0, 2, 1] + [0] * 7 + [1, 1]
            + [0] * 15 + [1] + [0] * 32 + [1, 1]
        )
        assert report.stats == network_module.RunStats(
            rounds=69,
            messages=39,
            max_messages_per_round=12,
            per_round_messages=per_round,
            dropped=10,
        )
        assert [
            (r.kind, r.round, r.sender, r.target, r.detail)
            for r in plan.records
        ] == [
            ("drop", 1, 0, 5, {}),
            ("drop", 2, 0, 1, {}),
            ("drop", 2, 1, 2, {}),
            ("drop", 2, 3, 4, {}),
            ("drop", 2, 5, 4, {}),
            ("drop", 4, 0, 5, {}),
            ("drop", 4, 1, 0, {}),
            ("drop", 9, 0, 5, {}),
            ("drop", 19, 5, 0, {}),
            ("drop", 35, 0, 5, {}),
        ]
