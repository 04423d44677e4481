"""Crash-safe write-ahead journal for live sessions.

A :class:`~repro.runtime.Session` is warm state: applied churn updates
and the served-request high-water mark live only in process memory (the
content-addressed store persists *snapshots*, not the request stream).
A crashed ``repro serve`` therefore used to lose everything since the
last snapshot.  The :class:`Journal` closes that gap with the classic
database recipe, sized for this codebase:

* **append-only JSONL** — one JSON object per line, human-inspectable;
* **write-ahead** — an update is journaled *before* it is applied, so
  the journal is always a superset of the applied state;
* **fsync'd appends** — every append is flushed and fsync'd before the
  caller proceeds, so an acknowledged write survives the process;
* **torn-tail tolerance** — a crash mid-append leaves a truncated last
  line; the reader stops at the first malformed line and discards the
  tail, never refusing the journal.

The line vocabulary::

    {"journal": 1, "fingerprint": ..., "seed": ..., "backend": ...}
    {"update": {"edges_added": [...], "edges_removed": [...],
                "nodes_down": [...]}, "record": <input record index>}
    {"served": <session.served>, "record": <records consumed>}

An update's ``record`` stamp (0 when the update came through the Python
API rather than a record stream) makes replay *exactly-once*: if a torn
tail loses the high-water mark that followed an update but keeps the
update line itself, recovery still advances the resume point past the
update's input record — replaying the update **and** re-consuming its
record would double-apply it.

Recovery (:meth:`repro.runtime.Session.recover`) = warm snapshot (store
hit or rebuild) + deterministic replay of the journaled updates.  Replay
is bit-identical because update ``k`` repairs from the
``serve-update-k`` fresh stream — a pure function of (seed, k), not of
when or in which process the update ran.  A torn tail can only lose the
*latest* entries, so recovery converges to a prefix of the dead
session's state and the serve loop simply re-serves from the journaled
high-water mark (at-least-once, with deterministic responses).
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional, TextIO

__all__ = ["JOURNAL_VERSION", "Journal"]

#: Format version stamped into every journal header line.
JOURNAL_VERSION = 1


JournalState = tuple[
    Optional[dict[str, Any]], list[dict[str, Any]], list[int], int, int
]


def _fsync_directory(directory: str) -> None:
    """Make a directory entry durable (POSIX: fsync the directory fd).

    Creating or renaming a file only becomes crash-durable once its
    *directory* is synced; platforms that refuse directory fds (e.g.
    Windows) make the rename durable on their own.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on dirs
        pass
    finally:
        os.close(fd)


def _scan_lines(lines: list[str]) -> tuple[JournalState, int]:
    """Parse decoded journal lines up to the first malformed one.

    Returns ``(state, intact)`` where ``state`` is the
    :data:`JournalState` tuple and ``intact`` counts the leading lines
    that parsed cleanly (blank lines included) — everything past that
    is a torn tail.
    """
    header: Optional[dict[str, Any]] = None
    updates: list[dict[str, Any]] = []
    update_records: list[int] = []
    served = 0
    record_mark = 0
    intact = 0
    first = True
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            intact = index + 1
            continue
        try:
            entry = json.loads(stripped)
        except json.JSONDecodeError:
            break  # torn tail: keep the intact prefix
        if not isinstance(entry, dict):
            break
        if first and "journal" in entry:
            header = entry
        elif "update" in entry:
            updates.append(dict(entry["update"]))
            update_records.append(int(entry.get("record", 0)))
            record_mark = max(record_mark, update_records[-1])
        elif "served" in entry:
            served = int(entry["served"])
            record_mark = max(
                record_mark, int(entry.get("record", record_mark))
            )
        else:
            break  # unknown vocabulary: treat like corruption
        first = False
        intact = index + 1
    state = (header, updates, update_records, served, record_mark)
    return state, intact


class Journal:
    """One session's write-ahead journal, open for appending.

    Opening an existing file replays its intact prefix into
    :attr:`updates` / :attr:`served` / :attr:`record_mark` and
    truncates only the torn tail in place, so the file ends on a line
    boundary — the intact prefix itself is **never rewritten**: a crash
    at any point during reopen can lose at most the already-torn tail,
    never an acknowledged append.  Opening a fresh file writes the
    identity header (and fsyncs the directory so the new file's entry
    is durable).  The ``identity`` mapping (graph fingerprint, seed,
    backend) guards against replaying a journal onto the wrong
    session — a mismatch raises ``ValueError`` instead of
    deterministically corrupting it.
    """

    def __init__(
        self,
        path: str,
        *,
        identity: Optional[dict[str, Any]] = None,
    ) -> None:
        self.path = path
        raw = b""
        existed = os.path.exists(path)
        if existed:
            with open(path, "rb") as handle:
                raw = handle.read()
        # Scan for the intact prefix in *bytes*, so the torn tail can
        # be truncated at an exact byte boundary.  The final chunk (no
        # trailing newline) may still be a complete entry — a torn
        # write that lost only the newline — in which case it is kept
        # and re-terminated below.
        chunks = raw.split(b"\n")
        tail = chunks.pop()
        lines = [chunk.decode("utf-8", errors="replace") for chunk in chunks]
        if tail:
            lines.append(tail.decode("utf-8", errors="replace"))
        state, intact = _scan_lines(lines)
        header, updates, update_records, served, record_mark = state
        self.updates = updates
        self.update_records = update_records
        self.served = served
        self.record_mark = record_mark
        if header is None and (updates or served or record_mark):
            raise ValueError(
                f"journal {path!r} has entries but no identity header; "
                "refusing to append to a file this session cannot claim"
            )
        if header is not None and identity is not None:
            for key, value in identity.items():
                if key in header and header[key] != value:
                    raise ValueError(
                        f"journal {path!r} was written for a different "
                        f"session ({key}={header[key]!r}, expected "
                        f"{value!r})"
                    )
        if intact <= len(chunks):
            intact_bytes = sum(
                len(chunks[i]) + 1 for i in range(intact)
            )
            unterminated = False
        else:  # the newline-less tail itself parsed as an intact entry
            intact_bytes = len(raw)
            unterminated = True
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        if existed and intact_bytes < len(raw):
            # Drop the torn tail in place; the intact prefix is
            # untouched on disk, so no window exists in which acked
            # appends could be lost.
            with open(path, "r+b") as handle:
                handle.truncate(intact_bytes)
                os.fsync(handle.fileno())
        self._handle: TextIO = open(path, "a", encoding="utf-8")
        if unterminated:
            self._handle.write("\n")
        if header is None:
            fresh = {"journal": JOURNAL_VERSION}
            fresh.update(identity or {})
            self._handle.write(
                json.dumps(fresh, separators=(",", ":")) + "\n"
            )
        self._sync()
        if not existed:
            _fsync_directory(directory)

    # -- appends -------------------------------------------------------------

    def append_update(
        self, update: dict[str, Any], *, record: int = 0
    ) -> None:
        """Journal one churn update (write-ahead: call *before* apply).

        ``record`` stamps the input record the update came from so
        replaying it also advances the resume point past that record
        (0 = not part of a record stream).
        """
        self.updates.append(dict(update))
        self.update_records.append(int(record))
        entry: dict[str, Any] = {"update": update}
        if record:
            entry["record"] = int(record)
            self.record_mark = max(self.record_mark, int(record))
        self._append(entry)

    def mark_served(self, served: int, *, record: int) -> None:
        """Advance the high-water mark: ``served`` requests submitted,
        ``record`` input records fully consumed."""
        self.served = int(served)
        self.record_mark = int(record)
        self._append({"served": self.served, "record": self.record_mark})

    def _append(self, entry: dict[str, Any]) -> None:
        self._handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
        self._sync()

    def _sync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._handle.closed:
            self._sync()
            self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Journal({self.path!r}, updates={len(self.updates)}, "
            f"served={self.served}, record={self.record_mark})"
        )
