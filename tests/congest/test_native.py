"""Tests for the CONGEST-native G0 with embedded paths."""

import numpy as np
import pytest

from repro.congest.native import build_native_g0
from repro.core import build_g0
from repro.graphs import hypercube, mixing_time, random_regular
from repro.params import Params


@pytest.fixture(scope="module")
def native():
    graph = random_regular(20, 4, np.random.default_rng(330))
    tau = mixing_time(graph)
    return graph, tau, build_native_g0(
        graph, walks_per_vnode=12, degree=6, length=2 * tau, seed=331
    )


class TestNativeConstruction:
    def test_overlay_size_and_connectivity(self, native):
        graph, __, g0 = native
        assert g0.overlay.num_nodes == 2 * graph.num_edges
        assert g0.overlay.is_connected()

    def test_paths_embed_edges(self, native):
        """Every overlay edge's path runs host-to-host along real edges."""
        graph, __, g0 = native
        assert len(g0.edge_paths) == g0.overlay.num_edges
        for (tail, head), path in zip(g0.overlay.edges(), g0.edge_paths):
            assert path[0] == g0.vnode_host[tail]
            assert path[-1] == g0.vnode_host[head]
            for a, b in zip(path, path[1:]):
                assert graph.has_edge(a, b), (a, b)

    def test_walk_passes_execute_the_charged_schedule(self, monkeypatch):
        """The forward pass executes the batch's Lemma 2.5 schedule, the
        reverse pass retraces it, and both are counted in the build."""
        import repro.congest.native as native_module

        replayed, walked = [], []
        replay = native_module.replay_walk_run
        walk = native_module.run_lazy_walks

        def spy(graph, run, **kwargs):
            replayed.append(run)
            return replay(graph, run, **kwargs)

        def walk_spy(*args, **kwargs):
            walked.append(walk(*args, **kwargs))
            return walked[-1]

        monkeypatch.setattr(native_module, "replay_walk_run", spy)
        monkeypatch.setattr(native_module, "run_lazy_walks", walk_spy)
        graph = random_regular(16, 4, np.random.default_rng(334))
        g0 = build_native_g0(graph, 8, 4, 2 * mixing_time(graph), seed=335)
        assert len(replayed) == 2, "forward and reverse pass each replay"
        trajectory, back = replayed
        (batch,) = walked
        assert g0.forward.rounds == batch.schedule_rounds()
        assert np.array_equal(trajectory[-1], batch.positions)
        assert np.array_equal(back, trajectory[::-1])
        assert g0.reverse.per_step == g0.forward.per_step[::-1]
        assert g0.reverse.messages == g0.forward.messages
        assert g0.build_rounds == g0.forward.rounds + g0.reverse.rounds
        for (tail, head), path in zip(g0.overlay.edges(), g0.edge_paths):
            assert path[0] == g0.vnode_host[tail]
            assert path[-1] == g0.vnode_host[head]
            for a, b in zip(path, path[1:]):
                assert graph.has_edge(a, b), (a, b)

    def test_build_rounds_positive(self, native):
        __, tau, g0 = native
        assert g0.build_rounds >= 2 * tau

    def test_native_round_scales_with_congestion(self, native):
        __, __, g0 = native
        # One message per overlay edge (both directions) must cost at
        # least the longest embedded path.
        longest = max(len(path) - 1 for path in g0.edge_paths)
        assert g0.round_rounds >= longest

    def test_disconnected_rejected(self):
        from repro.graphs import Graph

        with pytest.raises(ValueError):
            build_native_g0(
                Graph(4, [(0, 1), (2, 3)]), 4, 2, 4, seed=0
            )


class TestNativeVsVectorized:
    def test_round_cost_same_order(self, native):
        """The native execution and the vectorized calibration agree on
        the order of magnitude of one G0 round."""
        graph, tau, g0 = native
        params = Params.default().with_overrides(
            g0_walks_per_vnode_factor=12 / np.log2(20),
            g0_degree_factor=6 / np.log2(20),
        )
        reference = build_g0(
            graph, params, np.random.default_rng(332), tau_mix=tau
        )
        ratio = g0.round_rounds / reference.round_cost
        assert 0.05 < ratio < 20.0, (g0.round_rounds, reference.round_cost)

    def test_structure_matches_vectorized(self):
        """At the default constants the native overlay is connected and
        has build_g0's degree scale."""
        graph = random_regular(24, 4, np.random.default_rng(250))
        tau = mixing_time(graph)
        params = Params.default()
        n = graph.num_nodes
        g0 = build_native_g0(
            graph,
            params.g0_walks_per_vnode(n),
            params.g0_degree(n),
            2 * tau,
            seed=251,
        )
        reference = build_g0(
            graph, params, np.random.default_rng(252), tau_mix=tau
        )
        assert g0.overlay.num_nodes == reference.overlay.num_nodes
        assert g0.overlay.is_connected()
        assert reference.overlay.is_connected()
        assert g0.overlay.degrees.mean() == pytest.approx(
            reference.overlay.degrees.mean(), rel=0.25
        )

    def test_endpoint_distribution_uniform_over_vnodes(self):
        """Kept targets spread uniformly over the virtual nodes."""
        graph = random_regular(24, 4, np.random.default_rng(250))
        g0 = build_native_g0(
            graph, 20, 20, 2 * mixing_time(graph), seed=254
        )
        heads = g0.overlay.edge_array[:, 1]
        counts = np.bincount(heads, minlength=g0.overlay.num_nodes)
        # 20 walks per virtual node, all distinct targets kept: about
        # 20 heads per virtual node, within Poisson-ish fluctuation.
        expected = 20.0
        assert counts.max() < expected + 6 * np.sqrt(expected) + 5

    def test_degree_scale_matches(self, native):
        graph, tau, g0 = native
        mean_degree = g0.overlay.degrees.mean()
        assert 4.0 < mean_degree < 13.0  # ~2 * kept out-degree


class TestOtherTopology:
    def test_hypercube_native(self):
        graph = hypercube(4)
        tau = mixing_time(graph)
        g0 = build_native_g0(
            graph, walks_per_vnode=10, degree=5, length=2 * tau, seed=333
        )
        assert g0.overlay.is_connected()
        for path in g0.edge_paths:
            for a, b in zip(path, path[1:]):
                assert graph.has_edge(a, b)


class TestNativeLevel1:
    """Level-1 overlay with edges embedded as chains of G0 paths."""

    @pytest.fixture(scope="class")
    def level1(self, native):
        from repro.congest.native import build_native_level1

        __, __, g0 = native
        return g0, build_native_level1(
            g0, beta=3, degree=4, length=8, seed=340
        )

    def test_edges_stay_within_parts(self, level1):
        __, lvl = level1
        for tail, head in lvl.overlay.edges():
            assert lvl.parts[tail] == lvl.parts[head]

    def test_paths_chain_real_edges(self, level1, native):
        graph, __, g0 = native
        __, lvl = level1
        for (tail, head), path in zip(lvl.overlay.edges(), lvl.edge_paths):
            assert path[0] == g0.vnode_host[tail]
            assert path[-1] == g0.vnode_host[head]
            for a, b in zip(path, path[1:]):
                assert graph.has_edge(a, b)

    def test_degrees_bounded(self, level1):
        __, lvl = level1
        out_degrees = {}
        for tail, __h in lvl.overlay.edges():
            out_degrees[tail] = out_degrees.get(tail, 0) + 1
        assert max(out_degrees.values()) <= 4

    def test_round_costs_positive_and_nested(self, level1, native):
        __, __, g0 = native
        __, lvl = level1
        assert lvl.build_rounds > 0
        # One level-1 round embeds chains of G0 paths: it costs at least
        # the longest chain.
        longest = max(len(path) - 1 for path in lvl.edge_paths)
        assert lvl.round_rounds >= longest

    def test_most_nodes_got_neighbours(self, level1):
        __, lvl = level1
        have = {tail for tail, __h in lvl.overlay.edges()}
        coverage = len(have) / lvl.overlay.num_nodes
        assert coverage > 0.9


class TestArcPathConsistency:
    """The arc-path fill detects inconsistent G0s instead of crashing."""

    def test_truncated_edge_paths_rejected(self, native):
        import dataclasses

        from repro.congest.native import build_native_level1

        __, __, g0 = native
        broken = dataclasses.replace(g0, edge_paths=g0.edge_paths[:-3])
        with pytest.raises(ValueError, match="no embedded G0 path"):
            build_native_level1(broken, beta=2, degree=3, length=4, seed=0)

    def test_mismatched_path_endpoints_rejected(self, native):
        import dataclasses

        from repro.congest.native import build_native_level1

        __, __, g0 = native
        bad_paths = [list(p) for p in g0.edge_paths]
        # Endpoints that are no node's host id cannot match either arc
        # orientation.
        bad_paths[0] = [10**6, 10**6 + 1]
        broken = dataclasses.replace(g0, edge_paths=bad_paths)
        with pytest.raises(ValueError, match="inconsistent with the overlay"):
            build_native_level1(broken, beta=2, degree=3, length=4, seed=0)


class TestLiveReplay:
    """A batch executed live, step by step inside the engine, replays
    exactly like the same seeded batch recorded first."""

    @staticmethod
    def _both(graph, faults=None):
        from repro.congest import WalkBatch, replay_walk_run
        from repro.rng import derive_rng
        from repro.runtime import RunContext
        from repro.walks import run_lazy_walks

        starts = derive_rng(8).integers(0, graph.num_nodes, size=60)
        replays, runs = [], []
        for live in (True, False):
            context = RunContext(seed=9, faults=faults)
            rng = derive_rng(10)
            if live:
                batch = WalkBatch(run_lazy_walks, starts, 12, rng)
            else:
                rows = [starts]
                run = run_lazy_walks(
                    graph, starts, 12, rng,
                    on_step=lambda _before, after: rows.append(after),
                )
                batch = np.stack(rows)
            replay = replay_walk_run(
                graph, batch, faults=context.fault_plan, context=context
            )
            replays.append(replay)
            runs.append(replay.run if live else run)
        return replays, runs

    @pytest.mark.parametrize("faults", [None, "drop=0.2"])
    def test_live_equals_recorded(self, faults):
        graph = random_regular(16, 4, np.random.default_rng(336))
        (live, recorded), (walked, batch) = self._both(graph, faults)
        assert live.run is walked
        assert recorded.run is None
        assert np.array_equal(walked.positions, batch.positions)
        assert walked.edge_congestion == batch.edge_congestion
        for name in ("rounds", "per_step", "messages", "step_booked"):
            assert getattr(live, name) == getattr(recorded, name), name
        if faults is None:
            assert live.rounds == walked.schedule_rounds()
            assert live.step_booked == 0
        else:
            assert live.rounds > walked.schedule_rounds()
            assert live.step_booked > 0
