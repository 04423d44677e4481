"""Store entries (``.ckpt`` snapshots): a cache hit is how a built run
resumes, and it is the uninterrupted run, bit for bit."""

import os
import pickle

import numpy as np
import pytest

from repro.runtime import (
    HierarchyStore,
    MemorySink,
    RunConfig,
    read_jsonl_trace,
    run,
    store_key,
)
from repro.runtime.events import NullSink
from repro.runtime.store import (
    ENTRY_VERSION,
    StoreEntryError,
    _read_entry,
)


def _charges(outcome):
    return [(c.label, c.rounds) for c in outcome.ledger.charges]


def _route(graph64, backend, *, cache="off", trace=None, seed=7):
    return run(
        "route",
        graph64,
        config=RunConfig(
            seed=seed, backend=backend, trace=trace, cache=cache
        ),
    )


def _entry_path(graph64, cache, backend="oracle", seed=7):
    """Write the store entry a ``seed``/``backend`` route leaves behind
    and return its path."""
    config = RunConfig(seed=seed, backend=backend, cache=cache)
    _route(graph64, backend, cache=cache, seed=seed)
    return HierarchyStore(cache).path_for(store_key(graph64, config))


def _assert_rejected_as_miss(graph64, path, match=None):
    """The loader raises a clear error, and the store turns the same
    damage into a counted miss that deletes the entry."""
    with pytest.raises(StoreEntryError, match=match):
        _read_entry(str(path), expect_graph=graph64)
    store = HierarchyStore(os.path.dirname(str(path)))
    key = os.path.basename(str(path))[: -len(".ckpt")]
    assert store.load(key, graph64) is None
    assert store.stats.corrupt == 1
    assert store.stats.misses == 1
    assert not os.path.exists(path)


@pytest.fixture(scope="module")
def graph64(expander64):
    return expander64


@pytest.mark.parametrize("backend", ["oracle", "native"])
class TestResumeEquivalence:
    def test_resumed_run_is_bit_identical(self, graph64, backend, tmp_path):
        """A cold run, a cache-miss run (which writes the entry) and a
        cache-hit run (which resumes from it) agree exactly."""
        cache = str(tmp_path / "store")
        cold = _route(graph64, backend)
        for hit in (False, True):
            sink = MemorySink()
            outcome = _route(graph64, backend, cache=cache, trace=sink)
            names = [event.name for event in sink.events]
            assert ("serve/cache-hit" in names) == hit
            assert ("serve/cache-miss" in names) != hit
            assert outcome.op == "route"
            assert outcome.result.delivered
            assert outcome.result.cost_rounds == cold.result.cost_rounds
            assert np.array_equal(
                outcome.result.final_vnodes, cold.result.final_vnodes
            )
            assert _charges(outcome) == _charges(cold)

    def test_resume_twice_from_one_snapshot(
        self, graph64, backend, tmp_path
    ):
        """An entry is a value: hitting it twice gives identical
        outcomes (nothing in the file is consumed)."""
        cache = str(tmp_path / "store")
        _route(graph64, backend, cache=cache)
        first = _route(graph64, backend, cache=cache)
        second = _route(graph64, backend, cache=cache)
        assert first.result.cost_rounds == second.result.cost_rounds
        assert _charges(first) == _charges(second)


class TestCheckpointFile:
    def test_snapshot_taken_at_phase_boundary(self, graph64, tmp_path):
        """The entry holds the *built* backend but none of the
        operation's charges."""
        path = _entry_path(graph64, str(tmp_path))
        payload = _read_entry(path)
        assert payload["version"] == ENTRY_VERSION
        assert payload["backend"].hierarchy is not None
        labels = [c.label for c in payload["context"].ledger.charges]
        assert any(label.startswith("g0/") for label in labels)
        assert not any(label.startswith("route/") for label in labels)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreEntryError, match="cannot read"):
            _read_entry(str(tmp_path / "nope.ckpt"))
        store = HierarchyStore(str(tmp_path))
        assert store.load("nope") is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0

    def test_corrupt_file(self, graph64, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a pickle")
        _assert_rejected_as_miss(graph64, path, match="cannot read")

    def test_version_mismatch(self, graph64, tmp_path):
        path = _entry_path(graph64, str(tmp_path))
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["version"] = ENTRY_VERSION + 1
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        _assert_rejected_as_miss(graph64, path, match="format version")

    def test_missing_field(self, graph64, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(
            pickle.dumps({"version": ENTRY_VERSION, "graph": graph64})
        )
        _assert_rejected_as_miss(graph64, path, match="missing fields")

    def test_truncated_pickle_rejected(self, graph64, tmp_path):
        """A torn write (partial flush before a crash) must surface as
        StoreEntryError at load time, never as a downstream shape
        error — the write path fsyncs before the atomic rename
        precisely so a renamed file can only be torn by later damage."""
        path = _entry_path(graph64, str(tmp_path))
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        _assert_rejected_as_miss(graph64, path, match="cannot read")

    def test_no_tmp_litter(self, graph64, tmp_path):
        path = _entry_path(graph64, str(tmp_path))
        leftovers = [
            p.name
            for p in tmp_path.iterdir()
            if p.name != os.path.basename(path)
        ]
        assert leftovers == []


class TestResumeTrace:
    def test_jsonl_hit_trace_is_whole(self, graph64, tmp_path):
        """A hit run's trace file is a whole run, run_start to run_end;
        in place of the build's events it shows ``serve/cache-hit``."""
        cache = str(tmp_path / "store")
        trace = str(tmp_path / "resumed.jsonl")
        _route(graph64, "oracle", cache=cache)
        _route(graph64, "oracle", cache=cache, trace=trace)
        events = list(read_jsonl_trace(trace))
        assert events[0].kind == "run_start"
        assert events[-1].kind == "run_end"
        assert [e.seq for e in events] == sorted(e.seq for e in events)
        names = [e.name for e in events]
        assert "serve/cache-hit" in names
        assert "build/hierarchy" not in names

    def test_checkpointed_ops_round_trip(self, graph64, tmp_path):
        """A hit resumes every oracle op, not just route."""
        for op, kwargs in (("mincut", {"eps": 0.5}), ("clique", {})):
            cache = str(tmp_path / op)
            direct = run(op, graph64, config=RunConfig(seed=3), **kwargs)
            for hit in (False, True):
                sink = MemorySink()
                outcome = run(
                    op,
                    graph64,
                    config=RunConfig(seed=3, cache=cache, trace=sink),
                    **kwargs,
                )
                names = [event.name for event in sink.events]
                assert ("serve/cache-hit" in names) == hit
                assert _charges(outcome) == _charges(direct)


class TestFingerprintGuard:
    """The graph fingerprint inside every entry (since format version 2)."""

    def test_wrong_graph_rejected(self, graph64, tmp_path):
        path = _entry_path(graph64, str(tmp_path))
        from repro.graphs import random_regular

        other = random_regular(64, 6, np.random.default_rng(99))
        with pytest.raises(StoreEntryError, match="different graph"):
            _read_entry(path, expect_graph=other)
        store = HierarchyStore(str(tmp_path))
        key = os.path.basename(path)[: -len(".ckpt")]
        assert store.load(key, other) is None
        assert store.stats.corrupt == 1
        assert not os.path.exists(path)

    def test_matching_graph_accepted(self, graph64, tmp_path):
        path = _entry_path(graph64, str(tmp_path))
        payload = _read_entry(path, expect_graph=graph64)
        # The entry holds what a hit adopts, and no opening config.
        assert set(payload) == {
            "version", "graph", "graph_fingerprint", "context", "backend",
        }
        assert payload["version"] == ENTRY_VERSION == 3
        assert payload["context"].seed == 7
        assert isinstance(payload["context"].sink, NullSink)

    def test_tampered_payload_fails_integrity(self, graph64, tmp_path):
        path = _entry_path(graph64, str(tmp_path))
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["graph_fingerprint"] = "0" * 64
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        _assert_rejected_as_miss(graph64, path, match="integrity")
