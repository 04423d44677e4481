"""Cross-validate the router's hop accounting against real forwarding.

The router charges a hop phase the measured max number of packets on a
single boundary edge.  Here we re-execute the same single-hop demands
through the message-passing forwarder on the overlay graph and check the
real round count equals the charge (up to the one-per-direction nuance,
which the forwarder also honours).

The clean-wire forwarder runs on arrays; the per-node simulator it
replaced (``_forward_demands_scalar``) is the oracle both are checked
against here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import CongestViolation
from repro.congest.forwarding import (
    _forward_demands_scalar,
    _forward_steps_array,
    forward_demands,
)
from repro.graphs import Graph, path_graph, random_regular, star_graph
from repro.rng import derive_rng

#: The array executor and the per-node oracle, for tests both must pass.
EXECUTORS = [
    pytest.param(forward_demands, id="array"),
    pytest.param(_forward_demands_scalar, id="scalar"),
]


class TestForwardDemands:
    def test_single_demand(self):
        g = Graph(2, [(0, 1)])
        rounds, messages = forward_demands(g, [0], [1])
        assert rounds == 1
        assert messages == 1

    def test_contention_serializes(self):
        g = Graph(2, [(0, 1)])
        rounds, __ = forward_demands(g, [0] * 7, [1] * 7)
        assert rounds == 7

    def test_opposite_directions_parallel(self):
        g = Graph(2, [(0, 1)])
        rounds, __ = forward_demands(g, [0, 1], [1, 0])
        assert rounds == 1  # per-direction capacity

    def test_star_spreads(self):
        g = star_graph(9)
        origins = [0] * 8
        targets = list(range(1, 9))
        rounds, __ = forward_demands(g, origins, targets)
        assert rounds == 1  # distinct edges carry in parallel

    def test_rounds_equal_max_arc_load(self):
        rng = np.random.default_rng(320)
        g = star_graph(6)
        # Random demands from the hub and back.
        origins, targets = [], []
        for _ in range(40):
            if rng.random() < 0.5:
                origins.append(0)
                targets.append(int(rng.integers(1, 6)))
            else:
                leaf = int(rng.integers(1, 6))
                origins.append(leaf)
                targets.append(0)
        rounds, __ = forward_demands(g, origins, targets)
        loads: dict[tuple[int, int], int] = {}
        for o, t in zip(origins, targets):
            loads[(o, t)] = loads.get((o, t), 0) + 1
        assert rounds == max(loads.values())


class TestRouterHopCrosscheck:
    def test_hop_charge_matches_execution(self, hierarchy64, router64):
        """Re-run one routing instance's level-0 hop as real messages."""
        rng = np.random.default_rng(321)
        # Reproduce a hop: pick boundary-crossing packets at level 1.
        parts = hierarchy64.parts_at(1)
        overlay = hierarchy64.overlay_at(0)
        # Build demands: for a sample of portal nodes, send packets over
        # boundary arcs exactly as Router._hop would.
        origins, targets = [], []
        edges = overlay.edge_array
        crossing_edges = np.flatnonzero(
            (parts[edges[:, 0]] != parts[edges[:, 1]])
        )
        chosen = rng.choice(crossing_edges, size=60, replace=True)
        for eid in chosen:
            u, v = (int(x) for x in edges[eid])
            origins.append(u)
            targets.append(v)
        rounds, __ = forward_demands(overlay, origins, targets)
        loads: dict[tuple[int, int], int] = {}
        for o, t in zip(origins, targets):
            loads[(o, t)] = loads.get((o, t), 0) + 1
        # The real execution takes exactly the max per-arc load — the
        # same quantity Router._hop charges.
        assert rounds == max(loads.values())


def _random_demands(graph, count, seed):
    """``count`` demands along uniformly drawn arcs of ``graph``."""
    rng = derive_rng(seed, count)
    arcs = rng.integers(0, graph.num_arcs, size=count)
    return graph.arc_tails[arcs], graph.indices[arcs]


class TestArrayMatchesScalarOracle:
    @pytest.mark.parametrize(
        "factory",
        [
            pytest.param(
                lambda: random_regular(32, 4, derive_rng(5)), id="regular"
            ),
            pytest.param(lambda: star_graph(9), id="star"),
            pytest.param(lambda: path_graph(7), id="path"),
            pytest.param(
                lambda: Graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (0, 3)]),
                id="multigraph",
            ),
        ],
    )
    @pytest.mark.parametrize("count", [1, 17, 200])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rounds_and_messages_agree(self, factory, count, seed):
        graph = factory()
        origins, targets = _random_demands(graph, count, seed)
        assert forward_demands(
            graph, origins, targets
        ) == _forward_demands_scalar(graph, origins, targets)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_parallel_edges_share_one_queue(self, executor):
        graph = Graph(3, [(0, 1), (0, 1), (1, 2)])
        assert executor(graph, [0] * 4 + [1], [1] * 4 + [2]) == (4, 5)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_empty_demands(self, executor):
        assert executor(Graph(2, [(0, 1)]), [], []) == (0, 0)

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize(
        "origin, target",
        [
            (0, 3),
            # Target 4 is out of range; its key 0 * 4 + 4 aliases the
            # edge (1, 0).
            (0, 4),
            # Origin -1 would index node 3, a neighbour of node 2.
            (-1, 2),
            (4, 3),
        ],
    )
    def test_non_edge_names_the_pair(self, executor, origin, target):
        graph = path_graph(4)
        with pytest.raises(
            CongestViolation,
            match=f"node {origin} sent to non-neighbor {target}",
        ):
            executor(graph, [1, origin], [2, target])

    def test_the_oracle_builds_forwarders_only_where_demands_are(
        self, monkeypatch
    ):
        """The per-node oracle's set-up follows its demands, not ``n``:
        only nodes that send or receive get a forwarder, and the shared
        idle node in every other slot is never called."""
        from repro.congest import forwarding

        graph = random_regular(1024, 6, derive_rng(12))
        hub = 17
        first, second = graph.neighbors(hub)[:2].tolist()
        origins, targets = [hub, hub, first], [first, second, hub]
        built = []
        make = forwarding.TokenForwarder.__init__

        def spy(self, context, queue):
            built.append(context.node_id)
            make(self, context, queue)

        idle_calls = []
        monkeypatch.setattr(forwarding.TokenForwarder, "__init__", spy)
        monkeypatch.setattr(
            forwarding._Idle,
            "receive",
            lambda self, *args: idle_calls.append(args) or {},
        )
        assert _forward_demands_scalar(
            graph, origins, targets
        ) == forward_demands(graph, origins, targets)
        assert sorted(built) == sorted({hub, first, second})
        assert idle_calls == []


#: Graphs for the multi-step executor's property tests: an expander, a
#: hub every demand contends for, and a multigraph (shared queue).
STEP_GRAPHS = [
    random_regular(16, 4, derive_rng(11)),
    star_graph(7),
    Graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (0, 3)]),
]


@st.composite
def step_runs(draw, min_steps=1):
    """A graph and a run of steps, each a (possibly empty) list of
    demands along drawn arcs of that graph."""
    graph = draw(st.sampled_from(STEP_GRAPHS))
    arcs = st.lists(st.integers(0, graph.num_arcs - 1), max_size=40)
    steps = draw(st.lists(arcs, min_size=min_steps, max_size=6))
    tails = graph.arc_tails
    return graph, [
        (tails[np.array(step, dtype=np.int64)],
         graph.indices[np.array(step, dtype=np.int64)])
        for step in steps
    ]


def _steps_array(graph, steps):
    """Run ``steps`` through the multi-step executor in one pass."""
    sizes = [origins.shape[0] for origins, _ in steps]
    bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    origins = np.concatenate([origins for origins, _ in steps])
    targets = np.concatenate([targets for _, targets in steps])
    return _forward_steps_array(graph, bounds, origins, targets)


def _insert(steps, at, position, demand):
    """``steps`` with ``demand`` inserted in step ``at``."""
    origins, targets = steps[at]
    position = min(position, origins.shape[0])
    steps = list(steps)
    steps[at] = (
        np.insert(origins, position, demand[0]),
        np.insert(targets, position, demand[1]),
    )
    return steps


class TestStepsExecutor:
    """One array pass over many steps equals the per-node simulator run
    on each step alone."""

    @settings(max_examples=60, deadline=None)
    @given(run=step_runs())
    def test_each_step_matches_the_oracle(self, run):
        graph, steps = run
        rounds, messages = _steps_array(graph, steps)
        assert list(zip(rounds.tolist(), messages.tolist())) == [
            _forward_demands_scalar(graph, origins, targets)
            for origins, targets in steps
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        run=step_runs(min_steps=3),
        position=st.integers(0, 40),
        data=st.data(),
    )
    def test_non_edge_names_its_steps_first_bad_demand(
        self, run, position, data
    ):
        graph, steps = run
        at = data.draw(st.integers(1, len(steps) - 2), label="bad step")
        n = graph.num_nodes
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and not graph.has_edge(u, v)
        ]
        first = data.draw(st.sampled_from(non_edges), label="non-edge")
        later = data.draw(st.sampled_from(non_edges), label="later one")
        steps = _insert(steps, at, position, first)
        steps = _insert(steps, at + 1, 0, later)
        with pytest.raises(CongestViolation) as alone:
            forward_demands(graph, *steps[at])
        assert f"node {first[0]} sent to non-neighbor {first[1]};" in str(
            alone.value
        )
        with pytest.raises(CongestViolation) as batched:
            _steps_array(graph, steps)
        assert str(batched.value) == str(alone.value)

    @settings(max_examples=40, deadline=None)
    @given(
        run=step_runs(min_steps=2),
        position=st.integers(0, 40),
        data=st.data(),
    )
    def test_out_of_range_ids_are_rejected(self, run, position, data):
        graph, steps = run
        n = graph.num_nodes
        # Ids just past either end, and one whose key would alias a
        # pair of the next step.
        bad = data.draw(st.sampled_from([-1, n, n * n]), label="bad id")
        demand = data.draw(
            st.sampled_from([(0, bad), (bad, 0)]), label="demand"
        )
        at = data.draw(st.integers(0, len(steps) - 1), label="bad step")
        steps = _insert(steps, at, position, demand)
        with pytest.raises(
            CongestViolation,
            match=f"node {demand[0]} sent to non-neighbor {demand[1]};",
        ):
            _steps_array(graph, steps)

    def test_empty_steps_take_no_rounds(self):
        graph = path_graph(3)
        bounds = np.array([0, 0, 2, 2, 3, 3], dtype=np.int64)
        rounds, messages = _forward_steps_array(
            graph, bounds, np.array([0, 0, 1]), np.array([1, 1, 2])
        )
        assert rounds.tolist() == [0, 2, 0, 1, 0]
        assert messages.tolist() == [0, 2, 0, 1, 0]


class TestDemandInputs:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_mismatched_lengths_rejected(self, executor):
        with pytest.raises(ValueError, match="same length"):
            executor(Graph(2, [(0, 1)]), [0, 0, 0], [1])

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_iterators_are_read_once(self, executor):
        graph = Graph(2, [(0, 1)])
        rounds, messages = executor(
            graph, iter([0] * 150), (1 for _ in range(150))
        )
        assert (rounds, messages) == (150, 150)


class TestReplayCrossRun:
    """On a clean wire the walk replay re-runs sampled steps on the
    per-node simulator, independent of the executor's arithmetic."""

    @staticmethod
    def _config(backend):
        from repro.runtime import RunConfig

        return RunConfig(seed=1, backend=backend, cache="off")

    def test_oracle_disagreement_fails_a_native_open(self, monkeypatch):
        from repro.congest import native
        from repro.runtime import BackendMismatch, Session

        calls = []

        def wrong(graph, origins, targets):
            calls.append(len(origins))
            return 0, 0

        monkeypatch.setattr(native, "_forward_demands_scalar", wrong)
        graph = random_regular(16, 4, derive_rng(270))
        with pytest.raises(BackendMismatch, match="per-node simulator"):
            Session.open(graph, self._config("native"))
        assert len(calls) == 1

    def test_every_moving_batch_is_sampled(self, monkeypatch):
        from repro.congest import native, replay_walk_run
        from repro.walks import run_lazy_walks

        oracle = native._forward_demands_scalar
        checked = []

        def spy(graph, origins, targets):
            checked.append(len(origins))
            return oracle(graph, origins, targets)

        monkeypatch.setattr(native, "_forward_demands_scalar", spy)
        graph = random_regular(24, 4, derive_rng(6))
        rng = derive_rng(7)
        starts = rng.integers(0, graph.num_nodes, size=300)
        rows = [starts]
        run = run_lazy_walks(
            graph, starts, 40, rng,
            on_step=lambda _before, after: rows.append(after),
        )
        replay = replay_walk_run(graph, np.stack(rows))
        assert 1 <= len(checked) <= 40 and all(checked)
        assert replay.rounds == run.schedule_rounds()

    @staticmethod
    def _trajectory(walks, steps, seed):
        """A recorded lazy-walk trajectory on a 24-node expander."""
        from repro.walks import run_lazy_walks

        graph = random_regular(24, 4, derive_rng(6))
        rng = derive_rng(seed)
        starts = rng.integers(0, graph.num_nodes, size=walks)
        rows = [starts]
        run_lazy_walks(
            graph, starts, steps, rng,
            on_step=lambda _before, after: rows.append(after),
        )
        return graph, np.stack(rows)

    @staticmethod
    def _replay(graph, trajectory, live):
        """Replay a recorded trajectory, or (``live``) run it as a
        :class:`WalkBatch` whose engine hands the recorded rows to the
        step hook."""
        from repro.congest import WalkBatch, replay_walk_run
        from repro.walks.engine import WalkRun

        if not live:
            return replay_walk_run(graph, trajectory)

        def engine(graph, starts, steps, rng, on_step):
            for before, after in zip(trajectory[:-1], trajectory[1:]):
                on_step(before, after)
            return WalkRun(starts, trajectory[-1], steps)

        batch = WalkBatch(
            engine, trajectory[0], trajectory.shape[0] - 1, derive_rng(0)
        )
        return replay_walk_run(graph, batch)

    @pytest.mark.parametrize("live", [False, True])
    @pytest.mark.parametrize(
        "walks, steps, seed, expected",
        [
            # Six sampled steps, spread over several held groups.
            (300, 200, 7, [38, 52, 148, 157, 194, 195]),
            # The one sampled step moved a token.
            (1, 40, 5, [9]),
            # It did not: the last moving step is cross-run instead.
            (1, 40, 1, [37]),
        ],
    )
    def test_the_simulator_reruns_the_same_steps(
        self, monkeypatch, walks, steps, seed, expected, live
    ):
        """Holding steps for one array pass changes neither which steps
        the per-node simulator re-runs (the lists are those the
        step-at-a-time replay checked) nor any step's rounds, in either
        form of the replay."""
        from repro.congest import native

        graph, trajectory = self._trajectory(walks, steps, seed)
        moves = []
        for before, after in zip(trajectory[:-1], trajectory[1:]):
            moved = before != after
            moves.append((before[moved], after[moved]))
        oracle = native._forward_demands_scalar
        checked = []

        def spy(graph, origins, targets):
            checked.append(
                next(
                    step
                    for step, (o, t) in enumerate(moves)
                    if np.array_equal(o, origins)
                    and np.array_equal(t, targets)
                )
            )
            return oracle(graph, origins, targets)

        monkeypatch.setattr(native, "_forward_demands_scalar", spy)
        replay = self._replay(graph, trajectory, live)
        assert checked == expected
        assert replay.per_step == [
            forward_demands(graph, o, t)[0] for o, t in moves
        ]
        assert replay.messages == sum(o.shape[0] for o, _ in moves)

    @pytest.mark.parametrize("live", [False, True])
    def test_groups_stay_under_the_positions_cap(self, monkeypatch, live):
        """Held steps run in groups of at most ``_HELD_POSITIONS``
        positions (held steps times walks); a row wider than the cap
        runs alone."""
        from repro.congest import native

        run = native._forward_steps_array
        groups = []

        def spy(graph, bounds, origins, targets):
            groups.append(bounds.shape[0] - 1)
            return run(graph, bounds, origins, targets)

        monkeypatch.setattr(native, "_forward_steps_array", spy)
        cap = native._HELD_POSITIONS
        graph, narrow = self._trajectory(1_500, 12, 7)
        replay = self._replay(graph, narrow, live)
        assert sum(groups) == len(replay.per_step) == 12
        assert any(steps > 1 for steps in groups)
        assert all(steps * 1_500 <= cap for steps in groups)
        groups.clear()
        graph, wide = self._trajectory(cap + 1, 3, 7)
        replay = self._replay(graph, wide, live)
        assert groups == [1, 1, 1]
        assert replay.per_step == [
            forward_demands(graph, before[before != after],
                            after[before != after])[0]
            for before, after in zip(wide[:-1], wide[1:])
        ]

    @pytest.mark.parametrize("live", [False, True])
    def test_a_held_non_edge_raises_before_the_replay_returns(self, live):
        """A non-edge in a step that is held (the whole batch fits one
        group) still raises, naming that step's bad demand."""
        graph, trajectory = self._trajectory(300, 10, 7)
        trajectory = trajectory.copy()
        walk = 0
        origin = int(trajectory[3, walk])
        bad = next(
            v for v in range(graph.num_nodes)
            if v != origin and not graph.has_edge(origin, v)
        )
        trajectory[4, walk] = bad
        with pytest.raises(
            CongestViolation,
            match=f"node {origin} sent to non-neighbor {bad};",
        ):
            self._replay(graph, trajectory, live)

    def test_sampling_leaves_built_structures_identical(self):
        """The cross-run draws from no named stream, so a native build
        matches the oracle's, which runs no simulator at all."""
        from repro.runtime import Session

        graph = random_regular(16, 4, derive_rng(270))
        with Session.open(graph, self._config("native")) as native:
            with Session.open(graph, self._config("oracle")) as oracle:
                assert (
                    native.backend.g0_edge_multiset()
                    == oracle.backend.g0_edge_multiset()
                )
                assert (
                    native.context.stream_states()
                    == oracle.context.stream_states()
                )
                assert (
                    native.request("route").rounds
                    == oracle.request("route").rounds
                    == 104_202
                )
