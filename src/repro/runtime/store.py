"""Content-addressed cache of built hierarchies (the serve-layer store).

The paper's economics are build-once/serve-many: the expander embedding
costs ``2^O(sqrt(log n))`` rounds and every routed instance afterwards
is nearly free.  This module persists that expensive build so even
*process* restarts amortize it.  A :class:`HierarchyStore` maps a
content key — SHA-256 over everything that determines the built
structure bit for bit — to one snapshot file (the *entry*):

    key = H(code salt, graph fingerprint, seed, params, backend, beta,
            faults, recovery, lineage)

Because the key covers *all* build inputs, a hit can simply adopt the
stored context + backend: same seed and graph means the stored stream
positions, ledger, and hierarchy are exactly what a fresh build would
have produced.  Anything that could change the build without changing
the key must instead bump :data:`CODE_EPOCH` (reviewed in PRs that
touch construction code), which salts every digest.

``lineage`` distinguishes *repaired* sessions: after
``Session.apply_update`` the in-memory structure is no longer a pure
function of (graph, config) — it is a fresh build plus a chain of
incremental repairs — so each update extends the lineage hash and the
session re-persists under the new key.  A fresh build always has the
empty lineage, so repaired state can never shadow a clean build.

A hit is also how a built run restarts: a process that dies after the
build re-opens with the same ``cache`` and adopts the entry instead of
rebuilding.

An entry is one pickled dict — format version, graph, the graph's
fingerprint, context (RNG stream positions, ledger, fault plan) and
backend (with its built hierarchy) — pickled as *one* object graph so
shared identities survive: the context's ``"router"`` stream and the
router's ``rng`` stay the same generator after a round trip.  The two
deliberately unpicklable members, the trace sink and the native
backend's walk-runner closure, are dropped at save time and
re-attached by the session on a hit.

Entries are written atomically (temp file + fsync + rename into place
+ directory fsync) and evicted LRU by file mtime, which doubles as the
access clock: loads touch the file.  A corrupt, stale-format or
wrong-graph entry is treated as a miss and deleted, never an error —
the cache must only ever make runs faster, not break them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..graphs.graph import Graph
from ..hashing import FINGERPRINT_VERSION, graph_fingerprint
from .journal import _fsync_directory

__all__ = [
    "CODE_EPOCH",
    "HierarchyStore",
    "StoreStats",
    "open_store",
    "resolve_cache_root",
    "store_key",
]

#: Manually bumped whenever hierarchy/router construction changes in a
#: way that alters built state for the same inputs.  Part of every
#: cache key, so a new build epoch silently invalidates old entries
#: (they age out via LRU) instead of serving stale structures.
CODE_EPOCH = 1

#: Format version embedded in every entry (and salted into every key).
#: Version 2 added the mandatory ``graph_fingerprint`` integrity field;
#: version 3 dropped the opening config, which nothing read back.
ENTRY_VERSION = 3

_ENTRY_FIELDS = frozenset({"graph", "graph_fingerprint", "context", "backend"})

#: Default maximum number of cached hierarchies per store directory.
DEFAULT_MAX_ENTRIES = 64

_ENV_ROOT = "REPRO_CACHE_DIR"


def resolve_cache_root(cache: Optional[str]) -> Optional[str]:
    """Map a ``RunConfig.cache`` value to a store directory (or None).

    ``"off"`` / ``None`` disable caching; ``"auto"`` uses
    ``$REPRO_CACHE_DIR`` or ``$XDG_CACHE_HOME/repro/hierarchies``
    (falling back to ``~/.cache``); anything else is taken as an
    explicit directory path.
    """
    if cache is None or cache == "off":
        return None
    if cache == "auto":
        root = os.environ.get(_ENV_ROOT)
        if root:
            return root
        xdg = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser(
            "~/.cache"
        )
        return os.path.join(xdg, "repro", "hierarchies")
    return cache


def store_key(graph: Graph, config, lineage: str = "") -> str:
    """The content address of a built hierarchy (64-char hex digest).

    Covers every input the build is a deterministic function of; knobs
    that only change *how* the same state is observed or kept
    (``trace``, ``cache`` itself, ``resilience``) are deliberately
    excluded, so e.g. a traced and an untraced build share one entry —
    they produce identical state.
    """
    params = config.params
    if params is None:
        from ..params import Params

        params = Params.default()
    fault_spec = config.faults
    digest = hashlib.sha256()
    for part in (
        f"store-v{ENTRY_VERSION}.{FINGERPRINT_VERSION}.{CODE_EPOCH}",
        graph_fingerprint(graph),
        f"seed={config.seed}",
        f"backend={config.backend}",
        f"beta={config.beta}",
        "params=" + json.dumps(asdict(params), sort_keys=True),
        "faults=" + (fault_spec.describe() if fault_spec else ""),
        f"recovery={config.recovery}",
        f"lineage={lineage}",
    ):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


class StoreEntryError(RuntimeError):
    """A store entry is unreadable, corrupt, or incompatible."""


def _write_entry(path: str, *, graph, context, backend) -> None:
    """Snapshot a built run into ``path`` (atomic: temp file + fsync +
    rename + parent-directory fsync), pickled as one object graph."""
    payload = {
        "version": ENTRY_VERSION,
        "graph": graph,
        "graph_fingerprint": graph_fingerprint(graph),
        "context": context,
        "backend": backend,
    }
    directory = os.path.dirname(os.path.abspath(path))
    handle, temp_path = tempfile.mkstemp(
        dir=directory, prefix=".ckpt-", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            pickle.dump(payload, stream, protocol=pickle.HIGHEST_PROTOCOL)
            # fsync before the rename: os.replace is atomic in the
            # namespace but says nothing about the *data* reaching the
            # disk — a crash after the rename could otherwise leave a
            # torn pickle behind the final name.
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, path)
        # ... and the rename itself is only durable once the parent
        # directory's entry is synced.
        _fsync_directory(directory)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def _read_entry(path: str, expect_graph: Optional[Graph] = None) -> dict:
    """Load and validate an entry written by :func:`_write_entry`.

    Validation covers the format version, the required fields, and the
    payload's content integrity: the recorded ``graph_fingerprint``
    must match the pickled graph (a corrupted or hand-edited file fails
    here, not as a downstream shape error), and — when ``expect_graph``
    is given — must also match the graph the caller is opening, so an
    entry can never be adopted for a different topology.

    Raises:
        StoreEntryError: on any of the above.
    """
    try:
        with open(path, "rb") as stream:
            payload = pickle.load(stream)
    except (OSError, pickle.UnpicklingError, EOFError) as error:
        raise StoreEntryError(
            f"cannot read store entry {path!r}: {error}"
        ) from error
    if not isinstance(payload, dict) or "version" not in payload:
        raise StoreEntryError(
            f"{path!r} is not a repro store entry (no version field)"
        )
    if payload["version"] != ENTRY_VERSION:
        raise StoreEntryError(
            f"store entry {path!r} has format version "
            f"{payload['version']}, this build reads {ENTRY_VERSION}"
        )
    missing = _ENTRY_FIELDS - set(payload)
    if missing:
        raise StoreEntryError(
            f"store entry {path!r} is missing fields {sorted(missing)}"
        )
    recorded = payload["graph_fingerprint"]
    actual = graph_fingerprint(payload["graph"])
    if recorded != actual:
        raise StoreEntryError(
            f"store entry {path!r} failed integrity check: recorded "
            f"graph fingerprint {recorded[:12]}... does not match the "
            f"payload graph ({actual[:12]}...); the file is corrupt or "
            "was tampered with"
        )
    if expect_graph is not None:
        expected = graph_fingerprint(expect_graph)
        if recorded != expected:
            raise StoreEntryError(
                f"store entry {path!r} was written for a different "
                f"graph (fingerprint {recorded[:12]}..., expected "
                f"{expected[:12]}...)"
            )
    return payload


@dataclass
class StoreStats:
    """Counters for one store's lifetime (observability, not policy)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0


@dataclass
class HierarchyStore:
    """A directory of content-addressed hierarchy snapshots.

    Attributes:
        root: the store directory (created on first write).
        max_entries: LRU eviction threshold (oldest-mtime first).
        stats: hit/miss/eviction counters for this handle.
    """

    root: str
    max_entries: int = DEFAULT_MAX_ENTRIES
    stats: StoreStats = field(default_factory=StoreStats)

    def path_for(self, key: str) -> str:
        """The entry file for ``key`` (may not exist)."""
        return os.path.join(self.root, f"{key}.ckpt")

    def load(self, key: str, graph: Optional[Graph] = None):
        """The stored payload for ``key``, or ``None`` on a miss.

        A corrupt, stale-format, or wrong-graph entry counts as a miss:
        the file is deleted and ``None`` returned, so cache damage can
        slow a run down but never fail it.  A hit touches the file's
        mtime (the LRU clock).
        """
        path = self.path_for(key)
        if not os.path.exists(path):
            self.stats.misses += 1
            return None
        try:
            payload = _read_entry(path, expect_graph=graph)
        except StoreEntryError:
            self.stats.corrupt += 1
            self.stats.misses += 1
            self._remove(path)
            return None
        os.utime(path)
        self.stats.hits += 1
        return payload

    def save(self, key: str, *, graph, context, backend) -> str:
        """Persist a warm session snapshot under ``key``; returns the
        entry path.  Atomic (see :func:`_write_entry`), then
        LRU-evicts."""
        os.makedirs(self.root, exist_ok=True)
        path = self.path_for(key)
        _write_entry(
            path,
            graph=graph,
            context=context,
            backend=backend,
        )
        self.stats.stores += 1
        self._evict(keep=path)
        return path

    def keys(self) -> list[str]:
        """Keys currently stored, newest access first."""
        return [
            os.path.basename(path)[: -len(".ckpt")]
            for path in self._entries()
        ]

    def clear(self) -> None:
        """Delete every entry (the directory itself stays)."""
        for path in self._entries():
            self._remove(path)

    def __len__(self) -> int:
        return len(self._entries())

    def _entries(self) -> list[str]:
        if not os.path.isdir(self.root):
            return []
        paths = [
            os.path.join(self.root, name)
            for name in os.listdir(self.root)
            if name.endswith(".ckpt")
        ]
        return sorted(paths, key=self._mtime, reverse=True)

    def _evict(self, keep: Optional[str] = None) -> None:
        entries = self._entries()
        while len(entries) > max(1, int(self.max_entries)):
            victim = entries.pop()
            if victim == keep:
                continue
            self._remove(victim)
            self.stats.evictions += 1

    @staticmethod
    def _mtime(path: str) -> float:
        try:
            return os.stat(path).st_mtime
        except OSError:
            return 0.0

    @staticmethod
    def _remove(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass


def open_store(cache: Optional[str]) -> Optional[HierarchyStore]:
    """A :class:`HierarchyStore` for a ``RunConfig.cache`` value, or
    ``None`` when caching is off."""
    root = resolve_cache_root(cache)
    if root is None:
        return None
    return HierarchyStore(root)
