"""The content-addressed hierarchy store: keys, hits, eviction, damage."""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.graphs import random_regular
from repro.params import Params
from repro.runtime import (
    HierarchyStore,
    MemorySink,
    ResiliencePolicy,
    RunConfig,
    Session,
    open_store,
    run,
    store_key,
)
from repro.runtime.store import resolve_cache_root


#: A changed value for every RunConfig field the build depends on; each
#: must change the store key.
_BUILD_INPUT_CHANGES = {
    "seed": 4,
    "backend": "native",
    "beta": 4,
    "faults": "drop=0.1",
    "recovery": "self-heal",
    "params": dataclasses.replace(Params.default(), level_walks_factor=9.0),
}

#: A changed value for every RunConfig field that changes how a build is
#: observed, kept or served, never what is built; none may change the key.
_EXECUTION_KNOB_CHANGES = {
    "trace": MemorySink(),
    "cache": "auto",
    "resilience": ResiliencePolicy(deadline_rounds=10.0),
}


@pytest.fixture(scope="module")
def graph():
    return random_regular(48, 6, np.random.default_rng(0))


@pytest.fixture(scope="module")
def other_graph():
    return random_regular(48, 6, np.random.default_rng(1))


class TestStoreKey:
    def test_stable(self, graph):
        config = RunConfig(seed=3)
        assert store_key(graph, config) == store_key(graph, config)

    @pytest.mark.parametrize(
        "change",
        [{name: value} for name, value in _BUILD_INPUT_CHANGES.items()],
    )
    def test_build_inputs_change_the_key(self, graph, change):
        base = store_key(graph, RunConfig(seed=3))
        changed = RunConfig(**{"seed": 3, **change})
        assert base != store_key(graph, changed)

    def test_params_change_the_key(self, graph):
        base = store_key(graph, RunConfig(seed=3))
        tweaked = dataclasses.replace(
            Params.default(), level_walks_factor=9.0
        )
        assert base != store_key(
            graph, RunConfig(seed=3, params=tweaked)
        )

    def test_graph_changes_the_key(self, graph, other_graph):
        config = RunConfig(seed=3)
        assert store_key(graph, config) != store_key(other_graph, config)

    def test_lineage_changes_the_key(self, graph):
        config = RunConfig(seed=3)
        assert store_key(graph, config) != store_key(
            graph, config, lineage="abc123"
        )

    @pytest.mark.parametrize(
        "change",
        [{name: value} for name, value in _EXECUTION_KNOB_CHANGES.items()],
    )
    def test_execution_knobs_do_not_change_the_key(self, graph, change):
        base = store_key(graph, RunConfig(seed=3, backend="native"))
        assert base == store_key(
            graph, RunConfig(seed=3, backend="native", **change)
        )

    def test_every_field_is_a_build_input_or_a_knob(self):
        """Sweep RunConfig: every field sits in one of the two tables
        the tests above check, so a new field fails here until it is
        sorted into one (and a build input the key forgets fails
        there)."""
        names = {field.name for field in dataclasses.fields(RunConfig)}
        assert names == set(_BUILD_INPUT_CHANGES) | set(
            _EXECUTION_KNOB_CHANGES
        )


class TestResolveCacheRoot:
    def test_off_and_none_disable(self):
        assert resolve_cache_root("off") is None
        assert resolve_cache_root(None) is None

    def test_explicit_path_passes_through(self, tmp_path):
        assert resolve_cache_root(str(tmp_path)) == str(tmp_path)

    def test_auto_honours_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_cache_root("auto") == str(tmp_path)

    def test_auto_falls_back_to_xdg(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        root = resolve_cache_root("auto")
        assert root == os.path.join(str(tmp_path), "repro", "hierarchies")

    def test_open_store_off_is_none(self):
        assert open_store("off") is None

    def test_cache_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="cache"):
            RunConfig(cache=7)

    def test_cache_none_normalized_to_off(self):
        assert RunConfig(cache=None).cache == "off"


class TestStoreLifecycle:
    def test_miss_then_hit(self, graph, tmp_path):
        store = HierarchyStore(str(tmp_path))
        config = RunConfig(seed=5, cache=str(tmp_path))
        key = store_key(graph, config)
        assert store.load(key, graph) is None
        assert store.stats.misses == 1

        with Session.open(graph, config, store=store) as session:
            assert not session.from_cache
        assert store.stats.stores == 1
        assert store.load(key, graph) is not None
        assert store.stats.hits == 1

    def test_hit_session_skips_build(self, graph, tmp_path):
        config = RunConfig(seed=5, cache=str(tmp_path))
        with Session.open(graph, config) as session:
            assert not session.from_cache

        sink = MemorySink()
        hit_config = RunConfig(seed=5, cache=str(tmp_path), trace=sink)
        with Session.open(graph, hit_config) as session:
            assert session.from_cache
            names = [event.name for event in sink.events]
            assert "serve/cache-hit" in names
            assert "build/hierarchy" not in names

    def test_restart_serves_bit_identical_requests(self, graph, tmp_path):
        """A miss builds (and says so); a restart that hits serves the
        cold run's route, with the same per-request ledger."""
        n = graph.num_nodes
        demand = {
            "sources": np.arange(n),
            "destinations": np.roll(np.arange(n), 7),
        }
        cold = run("route", graph, config=RunConfig(seed=5), **demand)
        assert cold.result.delivered
        totals = []
        for hit in (False, True):
            sink = MemorySink()
            config = RunConfig(seed=5, cache=str(tmp_path), trace=sink)
            with Session.open(graph, config) as session:
                names = [event.name for event in sink.events]
                assert session.from_cache == hit
                assert ("serve/cache-hit" in names) == hit
                assert ("serve/cache-miss" in names) != hit
                assert ("build/hierarchy" in names) != hit
                response = session.request("route", **demand)
            assert response.result.cost_rounds == cold.result.cost_rounds
            totals.append(response.ledger.total())
        assert totals[0] == totals[1]

    def test_corrupt_entry_is_a_miss_and_deleted(self, graph, tmp_path):
        store = HierarchyStore(str(tmp_path))
        config = RunConfig(seed=5, cache=str(tmp_path))
        with Session.open(graph, config, store=store):
            pass
        key = store_key(graph, config)
        path = store.path_for(key)
        with open(path, "wb") as handle:
            handle.write(b"not a checkpoint")

        assert store.load(key, graph) is None
        assert store.stats.corrupt == 1
        assert not os.path.exists(path)

        # The session layer transparently rebuilds over the damage.
        with open(store.path_for(key), "w") as handle:
            handle.write("garbage")
        with Session.open(graph, config, store=store) as session:
            assert not session.from_cache

    def test_lru_eviction_keeps_newest(self, tmp_path, graph):
        store = HierarchyStore(str(tmp_path), max_entries=2)
        config = RunConfig(seed=5, cache=str(tmp_path))
        keys = []
        for seed in (5, 6, 7):
            seeded = RunConfig(seed=seed, cache=str(tmp_path))
            with Session.open(graph, seeded, store=store) as session:
                keys.append(session.cache_key)
            # mtime is the LRU clock; keep the writes strictly ordered.
            time.sleep(0.01)
        assert len(store) == 2
        assert store.stats.evictions == 1
        surviving = set(store.keys())
        assert keys[0] not in surviving
        assert {keys[1], keys[2]} == surviving
        assert store.load(keys[0], graph) is None

    def test_clear_empties_the_store(self, graph, tmp_path):
        store = HierarchyStore(str(tmp_path))
        config = RunConfig(seed=5, cache=str(tmp_path))
        with Session.open(graph, config, store=store):
            pass
        assert len(store) == 1
        store.clear()
        assert len(store) == 0
