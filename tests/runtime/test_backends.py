"""Cross-backend equivalence and backend-protocol tests.

The oracle and native backends consume the shared RNG streams
identically, so a same-seed run must produce the same embedded
hierarchy (identical G0 edge multisets) and the same routing outcome.
The native backend additionally replays every walk batch through the
CONGEST ``Network``, so these tests also exercise real message passing.
"""

import numpy as np
import pytest

from repro.graphs import random_regular
from repro.runtime import (
    BACKENDS,
    NativeBackend,
    OracleBackend,
    RunContext,
    UnsupportedOnBackend,
    make_backend,
)


def _small_graph(n=16, degree=4, graph_seed=270):
    return random_regular(n, degree, np.random.default_rng(graph_seed))


@pytest.fixture(scope="module")
def backend_pair():
    graph = _small_graph()
    oracle = make_backend("oracle", graph, RunContext(seed=11))
    native = make_backend("native", graph, RunContext(seed=11))
    oracle.build()
    native.build()
    return oracle, native


class TestMakeBackend:
    def test_registry(self):
        assert BACKENDS == {"oracle": OracleBackend, "native": NativeBackend}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("quantum", _small_graph(), RunContext(seed=0))


class TestCrossBackendEquivalence:
    def test_same_seed_same_g0(self, backend_pair):
        oracle, native = backend_pair
        assert oracle.g0_edge_multiset() == native.g0_edge_multiset()

    def test_same_seed_same_routing(self, backend_pair):
        oracle, native = backend_pair
        n = oracle.graph.num_nodes
        sources = np.arange(n)
        destinations = np.roll(sources, 5)
        a = oracle.route(sources, destinations)
        b = native.route(sources, destinations)
        assert a.delivered and b.delivered
        assert a.cost_rounds == b.cost_rounds

    def test_native_executed_real_rounds(self, backend_pair):
        _, native = backend_pair
        assert native.executed_rounds > 0
        assert native.executed_messages > 0


class TestNativeExecutedLabels:
    """What a native run executes, as the table in docs/architecture.md
    ("Executed vs charged") states it."""

    def test_walk_batches_cover_g0_build_and_route_prep(self):
        from repro.runtime import MemorySink, RunConfig, Session

        graph = _small_graph(n=32)
        sink = MemorySink()
        config = RunConfig(
            seed=0, backend="native", cache="off", trace=sink
        )
        with Session.open(graph, config) as session:
            session.request(
                "route", sources=np.arange(32),
                destinations=np.roll(np.arange(32), 7),
            )
        batches = [e.payload for e in sink.events
                   if e.name == "native/walk-batch"]
        charges = [e for e in sink.events if e.kind == "ledger_charge"]
        g0_build = [e.payload for e in charges if e.name == "g0/build"]
        # The G0 construction batch, the G0-round calibration batch,
        # then the route's preparation batch.
        assert len(batches) == 3
        construction, __, prep = batches
        assert construction["walks"] == g0_build[0]["walks"]
        # Forward pass executed; the reverse pass is charged only.
        assert 2 * construction["executed_rounds"] == g0_build[0]["rounds"]
        assert prep["walks"] == 32


class TestNativeBackendLifetime:
    def test_dropped_backend_is_freed_without_the_cycle_collector(self):
        """The router keeps the native walk runner; the runner must not
        hold the backend strongly, or a dropped session's hierarchy
        lives on until the next garbage collection."""
        import gc
        import weakref

        native = make_backend("native", _small_graph(), RunContext(seed=11))
        assert native.router.route(np.arange(4), np.arange(4)).delivered
        alive = weakref.ref(native)
        gc.disable()
        try:
            del native
            assert alive() is None
        finally:
            gc.enable()


class TestUnsupportedOnNative:
    def test_mst_min_cut_clique_raise(self):
        from repro.graphs import with_random_weights

        native = make_backend("native", _small_graph(), RunContext(seed=3))
        weighted = with_random_weights(
            native.graph, native.context.stream("weights")
        )
        with pytest.raises(UnsupportedOnBackend, match="oracle"):
            native.mst(weighted)
        with pytest.raises(UnsupportedOnBackend, match="oracle"):
            native.min_cut()
        with pytest.raises(UnsupportedOnBackend, match="oracle"):
            native.clique()


class TestNativeRejectsMultigraphs:
    def test_parallel_edges_refused_before_build(self):
        from repro.graphs import Graph
        from repro.rng import derive_rng
        from repro.runtime import RunConfig, Session

        base = random_regular(32, 4, derive_rng(3))
        edges = base.edge_array
        graph = Graph(base.num_nodes, np.concatenate([edges, edges[:8]]))
        doubled = {tuple(sorted(map(int, edge))) for edge in edges[:8]}
        with pytest.raises(ValueError, match="parallel edges") as caught:
            Session.open(graph, RunConfig(seed=1, backend="native"))
        assert any(
            f"nodes {u} and {v} " in str(caught.value) for u, v in doubled
        )
        with Session.open(graph, RunConfig(seed=1)) as session:
            assert session.request("route").result.delivered


class TestOracleFullSurface:
    def test_mst_and_min_cut_and_clique_run(self):
        from repro.graphs import with_random_weights

        graph = _small_graph()
        context = RunContext(seed=5)
        oracle = make_backend("oracle", graph, context)
        weighted = with_random_weights(graph, context.stream("weights"))
        mst = oracle.mst(weighted)
        assert len(mst.edge_ids) == graph.num_nodes - 1
        cut = oracle.min_cut(num_trees=2)
        assert cut.cut_value >= 1
        clique = oracle.clique(sample_fraction=0.25)
        assert clique.delivered
        # every pipeline stage charged the shared context ledger
        prefixes = {label.split("/")[0] for label in context.ledger.by_label()}
        assert {"mst", "mincut", "clique"} <= prefixes


def _spy_native_runs(monkeypatch):
    """Wrap every native walk runner; returns the list its runs land in."""
    runs = []
    make_runner = NativeBackend._walk_runner

    def spying(self):
        runner = make_runner(self)

        def spy(*args):
            run = runner(*args)
            runs.append(run)
            return run

        return spy

    monkeypatch.setattr(NativeBackend, "_walk_runner", spying)
    return runs


class TestNativeMemory:
    def test_native_open_peaks_near_the_oracle(self, monkeypatch):
        """Each walk step is executed as the engine takes it, so a native
        open holds no batch trajectory: its tracemalloc peak stays within
        2x the oracle's (it was ~14x while batches were recorded first)."""
        import tracemalloc

        from repro.rng import derive_rng
        from repro.runtime import RunConfig, Session

        runs = _spy_native_runs(monkeypatch)
        graph = random_regular(128, 6, derive_rng(0, 128))
        peaks = {}
        for backend in ("oracle", "native"):
            config = RunConfig(seed=0, backend=backend, cache="off")
            tracemalloc.start()
            try:
                with Session.open(graph, config):
                    peaks[backend] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["native"] <= 2 * peaks["oracle"], peaks
        assert runs and all(run.trajectory is None for run in runs)


class TestNativeCorrelatedWalks:
    def test_correlated_batches_run_through_the_step_hook(self, monkeypatch):
        from repro.params import Params
        from repro.runtime import RunConfig, Session
        from repro.runtime import backends
        from repro.walks import run_correlated_walks

        hooked = []

        def spy(graph, starts, steps, rng, record_trajectory=False, **kw):
            hooked.append((record_trajectory, kw.get("on_step") is not None))
            return run_correlated_walks(
                graph, starts, steps, rng, record_trajectory, **kw
            )

        monkeypatch.setattr(backends, "run_correlated_walks", spy)
        runs = _spy_native_runs(monkeypatch)
        params = Params.default().with_overrides(use_correlated_walks=True)
        config = RunConfig(
            seed=2, backend="native", cache="off", params=params
        )
        with Session.open(_small_graph(n=32), config) as session:
            assert session.request("route").result.delivered
            executed = session.backend.executed_rounds
        assert hooked and set(hooked) == {(False, True)}
        assert len(runs) == len(hooked)
        assert executed == sum(run.schedule_rounds() for run in runs)
