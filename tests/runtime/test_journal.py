"""Crash recovery must be invisible: journal replay is bit-identical.

The property the journal exists for, stated as hypothesis finds it: for
*any* interleaving of route requests and churn updates, crashed at *any*
record boundary — with the journal's tail possibly torn and every store
snapshot possibly corrupted — ``Session.recover`` plus the remaining
records must produce exactly the response stream of the uninterrupted
session.  Both backends.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import random_regular
from repro.runtime import Journal, RunConfig, Session, serve_jsonl
from repro.runtime.journal import _scan_lines

SEED = 17
N = 32

#: Wall-clock response fields, never compared.
TRANSIENT = ("wall_s", "service_s", "sojourn_s", "retry_backoff_s")


def read_journal(path):
    """The journal state a reopen would replay, read without writing.

    Returns ``(header, updates, update_records, served, record_mark)``.
    """
    with open(path, encoding="utf-8") as handle:
        return _scan_lines(handle.read().split("\n"))[0]


def scrub(response):
    return {k: v for k, v in response.items() if k not in TRANSIENT}


@pytest.fixture(scope="module")
def graph():
    return random_regular(N, 4, np.random.default_rng(2))


def _route_record(index: int) -> dict:
    rng = np.random.default_rng(100 + index)
    return {
        "op": "route",
        "args": {
            "sources": list(range(N)),
            "destinations": [int(x) for x in rng.permutation(N)],
        },
        "id": f"req-{index}",
    }


def _update_records(graph) -> list[dict]:
    """Three independent churn updates, valid in any subset and order.

    Each removes a distinct edge of the *original* graph and adds a
    distinct edge the graph never had, so no update invalidates
    another.
    """
    edges = {(int(u), int(v)) for u, v in graph.edge_array}
    missing = [
        (u, v)
        for u in range(3)
        for v in range(u + 1, N)
        if (u, v) not in edges and (v, u) not in edges
    ]
    removable = [tuple(map(int, graph.edge_array[i])) for i in (0, 7, 13)]
    return [
        {
            "update": {
                "edges_removed": [list(removable[i])],
                "edges_added": [list(missing[i])],
            }
        }
        for i in range(3)
    ]


def _serve(session, records):
    return [scrub(r) for r in serve_jsonl(session, records)]


@st.composite
def crash_scripts(draw):
    """A record stream, a crash point, and what the crash damages."""
    kinds = draw(
        st.lists(
            st.sampled_from(["route", "update"]),
            min_size=2,
            max_size=5,
        ).filter(lambda kinds: kinds.count("update") <= 3)
    )
    crash_at = draw(st.integers(min_value=0, max_value=len(kinds)))
    tear_tail = draw(st.booleans())
    corrupt_snapshots = draw(st.booleans())
    return kinds, crash_at, tear_tail, corrupt_snapshots


class TestCrashRecoveryProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=crash_scripts())
    @pytest.mark.parametrize("backend", ["oracle", "native"])
    def test_recover_is_bit_identical(
        self, graph, tmp_path_factory, backend, script
    ):
        kinds, crash_at, tear_tail, corrupt_snapshots = script
        updates = iter(_update_records(graph))
        routes = iter(_route_record(i) for i in range(len(kinds)))
        records = [
            next(updates) if kind == "update" else next(routes)
            for kind in kinds
        ]

        tmp = tmp_path_factory.mktemp("journal-prop")
        config = RunConfig(seed=SEED, backend=backend)

        # The uninterrupted reference stream.
        with Session.open(graph, config) as session:
            reference = _serve(session, records)

        # The crashed incarnation: journal + store, then damage.
        store_root = os.fspath(tmp / "store")
        journal_path = os.fspath(tmp / "journal.jsonl")
        config = RunConfig(
            seed=SEED, backend=backend, cache=store_root
        )
        session = Session.open(graph, config, journal=journal_path)
        partial = _serve(session, records[:crash_at])
        # No graceful close: sever the journal handle like a SIGKILL.
        session.journal._handle.close()

        if tear_tail:
            with open(journal_path, "rb") as handle:
                lines = handle.read().splitlines(keepends=True)
            if len(lines) > 1:
                with open(journal_path, "r+b") as handle:
                    handle.truncate(
                        sum(len(line) for line in lines[:-1])
                    )
        if corrupt_snapshots:
            for name in os.listdir(store_root):
                if name.endswith(".ckpt"):
                    path = os.path.join(store_root, name)
                    with open(path, "r+b") as handle:
                        handle.truncate(os.path.getsize(path) // 2)

        # A torn tail may lose marks: resume from what the journal
        # still proves, re-serving the gap (at-least-once, but updates
        # are exactly-once via their record stamps).
        _, _, _, _, mark = read_journal(journal_path)
        assert mark <= crash_at

        with Session.recover(
            graph, config, journal=journal_path
        ) as session:
            rest = _serve(session, records[mark:])

        assert partial[:mark] + rest == reference


class TestJournalMechanics:
    def test_roundtrip_and_torn_tail(self, tmp_path):
        path = os.fspath(tmp_path / "j.jsonl")
        with Journal(path, identity={"seed": 1}) as journal:
            journal.append_update({"edges_added": [[0, 9]]}, record=3)
            journal.mark_served(2, record=3)
        header, updates, stamps, served, mark = read_journal(path)
        assert header == {"journal": 1, "seed": 1}
        assert updates == [{"edges_added": [[0, 9]]}]
        assert stamps == [3]
        assert (served, mark) == (2, 3)

        # A torn final line is discarded, never fatal.
        with open(path, "ab") as handle:
            handle.write(b'{"served": 9, "rec')
        _, _, _, served, mark = read_journal(path)
        assert (served, mark) == (2, 3)

        # Reopening truncates the torn tail in place (stamps preserved).
        Journal(path, identity={"seed": 1}).close()
        header, updates, stamps, served, mark = read_journal(path)
        assert stamps == [3]
        assert (served, mark) == (2, 3)

    def test_reopen_never_rewrites_intact_prefix(self, tmp_path):
        """Reopen is append-only: the intact bytes are untouched on
        disk, so a crash mid-reopen can never lose acked appends."""
        path = os.fspath(tmp_path / "j.jsonl")
        with Journal(path, identity={"seed": 1}) as journal:
            journal.append_update({"edges_added": [[0, 5]]}, record=1)
            journal.mark_served(1, record=1)
        with open(path, "rb") as handle:
            before = handle.read()

        # A clean reopen leaves the file bit-identical.
        Journal(path, identity={"seed": 1}).close()
        with open(path, "rb") as handle:
            assert handle.read() == before

        # A torn reopen only removes the tail — same intact bytes.
        with open(path, "ab") as handle:
            handle.write(b'{"served": 9')
        Journal(path, identity={"seed": 1}).close()
        with open(path, "rb") as handle:
            assert handle.read() == before

    def test_newline_less_tail_is_kept_and_reterminated(self, tmp_path):
        """A tear that loses only the final newline keeps the entry."""
        path = os.fspath(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            journal.append_update({"nodes_down": [2]}, record=2)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 1)
        journal = Journal(path)
        assert journal.updates == [{"nodes_down": [2]}]
        journal.mark_served(1, record=2)
        journal.close()
        _, updates, stamps, served, mark = read_journal(path)
        assert updates == [{"nodes_down": [2]}]
        assert (stamps, served, mark) == ([2], 1, 2)

    def test_update_stamp_outlives_lost_mark(self, tmp_path):
        """Exactly-once: the stamp alone must advance the resume mark."""
        path = os.fspath(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            journal.mark_served(4, record=4)
            journal.append_update({"nodes_down": [5]}, record=5)
            journal.mark_served(4, record=5)
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        with open(path, "r+b") as handle:
            handle.truncate(sum(len(line) for line in lines[:-1]))
        _, updates, stamps, served, mark = read_journal(path)
        assert updates == [{"nodes_down": [5]}]
        assert stamps == [5]
        assert mark == 5, "lost mark line must not regress past the update"
        assert served == 4

    def test_identity_mismatch_refused(self, tmp_path):
        path = os.fspath(tmp_path / "j.jsonl")
        Journal(path, identity={"seed": 1, "backend": "oracle"}).close()
        with pytest.raises(ValueError, match="different session"):
            Journal(path, identity={"seed": 2, "backend": "oracle"})

    def test_appends_survive_severed_handle(self, tmp_path):
        """Everything acknowledged before a kill is on disk (fsync)."""
        path = os.fspath(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append_update({"edges_removed": [[1, 2]]}, record=1)
        journal.mark_served(0, record=1)
        journal._handle.close()  # SIGKILL, not close()
        _, updates, stamps, served, mark = read_journal(path)
        assert updates == [{"edges_removed": [[1, 2]]}]
        assert (stamps, served, mark) == ([1], 0, 1)

    def test_api_updates_are_unstamped(self, tmp_path):
        path = os.fspath(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            journal.append_update({"nodes_down": [3]})
        with open(path) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert "record" not in lines[-1]
        _, updates, stamps, _, mark = read_journal(path)
        assert updates == [{"nodes_down": [3]}]
        assert stamps == [0]
        assert mark == 0
