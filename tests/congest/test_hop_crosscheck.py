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

from repro.congest import CongestViolation
from repro.congest.forwarding import _forward_demands_scalar, forward_demands
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
    # Target 4 is out of range; its key 0 * 4 + 4 aliases the edge (1, 0).
    @pytest.mark.parametrize("target", [3, 4])
    def test_non_edge_names_the_pair(self, executor, target):
        graph = path_graph(4)
        with pytest.raises(
            CongestViolation, match=f"node 0 sent to non-neighbor {target}"
        ):
            executor(graph, [1, 0], [2, target])


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
        run = run_lazy_walks(graph, starts, 40, rng, record_trajectory=True)
        replay = replay_walk_run(graph, run)
        assert 1 <= len(checked) <= 40 and all(checked)
        assert replay.rounds == run.schedule_rounds()

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
