"""Per-layer spans recorded from outside the program.

The traced run calls :func:`install`, which rebinds each public entry
point listed in :data:`ENTRIES` to a wrapper that opens a span around
the call.  A module-level function is rebound in *every* loaded
``repro`` module that imported it by name (``repro.core.router``
imports ``run_lazy_walks`` that way), methods are patched on their
class.  Spans are kept in memory and written out once, at the end.

A span records its name, start, end, parent span, the request id the
workload set when the span opened, and the workload phase (``setup`` or
``timed``).  A layer's self time is its span's duration minus the part
of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    phase: str


class Tracer:
    """Span stack plus per-entry counters, all in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request: Optional[str] = None
        self.phase = "setup"
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(
            len(self.spans), name, self.clock(), 0.0, parent,
            self.request, self.phase,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        # Pop through anything an exception left open below this span.
        while self._stack:
            if self._stack.pop() is span:
                break

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its
    children's intervals (clipped to the span)."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start) - covered
    return result


# -- the entry points --------------------------------------------------------


def _walk_steps(tracer, name, args, kwargs, result, state):
    tracer.count(f"{name}.walk_steps", int(result.steps) * len(result.starts))


def _route_counts(tracer, name, args, kwargs, result, state):
    tracer.count(f"{name}.packets", len(args[1]))
    tracer.count(f"{name}.phases", int(result.num_phases))


def _mst_counts(tracer, name, args, kwargs, result, state):
    tracer.count(f"{name}.iterations", int(result.num_iterations))


def _network_counts(tracer, name, args, kwargs, result, state):
    tracer.count(f"{name}.rounds", int(result.rounds))
    tracer.count(f"{name}.messages", int(result.messages))


def _portal_ledger(args, kwargs):
    ledger = kwargs.get("ledger", args[3] if len(args) > 3 else None)
    return ledger if ledger is not None else args[0].ledger


def _portal_before(args, kwargs):
    return len(_portal_ledger(args, kwargs))


def _portal_rounds(tracer, name, args, kwargs, result, state):
    charges = _portal_ledger(args, kwargs).charges[state:]
    tracer.count(
        "core.portals.rounds.portals",
        sum(c.rounds for c in charges if c.label.startswith("portals")),
    )


def _store_load(tracer, name, args, kwargs, result, state):
    store, key = args[0], args[1]
    tracer.count("runtime.store.lookups")
    if result is not None:
        tracer.count("runtime.store.hits")
        tracer.count("runtime.store.entry_bytes",
                     os.path.getsize(store.path_for(key)))


def _store_save(tracer, name, args, kwargs, result, state):
    tracer.count("runtime.store.entry_bytes", os.path.getsize(result))


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point: ``layer`` names the module (without the
    ``repro.`` prefix), ``attr`` the function or ``Class.method``, and
    ``module`` where it is defined."""

    layer: str
    attr: str
    module: str
    after: Optional[Callable] = None
    before: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


def _entry(layer: str, attr: str, module: str = "", **hooks: Any) -> Entry:
    return Entry(layer, attr, "repro." + (module or layer), **hooks)


ENTRIES: tuple[Entry, ...] = (
    _entry("graphs", "Graph.__init__", "graphs.graph"),
    _entry("walks", "estimate_mixing_time", "walks.mixing"),
    _entry("walks", "run_lazy_walks", "walks.engine", after=_walk_steps),
    _entry("core.embedding", "build_g0"),
    _entry("core.partition", "build_partition"),
    _entry("core.hierarchy", "build_hierarchy"),
    _entry("core.hierarchy", "repair_overlay"),
    _entry("core.portals", "build_portals",
           after=_portal_rounds, before=_portal_before),
    _entry("core.portals", "PortalTable.reelect"),
    _entry("core.router", "Router.route", after=_route_counts),
    _entry("core.mst", "MstRunner.run", after=_mst_counts),
    _entry("congest", "Network.run", "congest.network",
           after=_network_counts),
    _entry("congest", "replay_walk_run", "congest.native"),
    _entry("congest", "build_native_g0", "congest.native"),
    _entry("congest", "build_native_level1", "congest.native"),
    _entry("baselines.routing_baselines", "schedule_paths_csr"),
    _entry("runtime.backends", "Backend.build"),
    _entry("runtime.session", "Session.open"),
    _entry("runtime.session", "Session.request"),
    _entry("runtime.session", "Session.submit"),
    _entry("runtime.session", "Session.apply_update"),
    _entry("runtime.session", "Session.recover"),
    _entry("runtime.session", "serve_jsonl"),
    _entry("runtime.store", "HierarchyStore.load", after=_store_load),
    _entry("runtime.store", "HierarchyStore.save", after=_store_save),
    _entry("runtime.journal", "Journal.append_update"),
    _entry("runtime.journal", "Journal.mark_served"),
    _entry("hashing", "graph_fingerprint", "hashing.fingerprint"),
)


def _wrap(tracer: Tracer, entry: Entry, fn: Callable) -> Callable:
    name = entry.name
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_generator(*args: Any, **kwargs: Any):
            generator = fn(*args, **kwargs)
            while True:
                span = tracer.open(name)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                yield item

        return traced_generator

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any):
        state = entry.before(args, kwargs) if entry.before else None
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if entry.after is not None:
            entry.after(tracer, name, args, kwargs, result, state)
        return result

    return traced


class Installed:
    """The rebindings :func:`install` made; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self.patches: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer: Tracer, entries: Iterable[Entry] = ENTRIES) -> Installed:
    """Wrap every entry point; returns the handle that restores them."""
    import repro  # noqa: F401  (loads the modules that import entries)

    installed = Installed()
    for entry in entries:
        module = importlib.import_module(entry.module)
        if "." in entry.attr:
            cls_name, method = entry.attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, entry, raw.__func__))
            else:
                wrapped = _wrap(tracer, entry, raw)
            installed.set(cls, method, wrapped)
            continue
        original = getattr(module, entry.attr)
        wrapped = _wrap(tracer, entry, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    installed.set(loaded, attr, wrapped)
    return installed


# -- the per-layer summary ---------------------------------------------------


def layer_stats(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Self time and calls per entry (every entry listed, zeros
    included)."""
    selfs = self_times(tracer.spans)
    stats = {
        entry.name: {"self_s": 0.0, "calls": 0.0} for entry in ENTRIES
    }
    for span in tracer.spans:
        row = stats.setdefault(span.name, {"self_s": 0.0, "calls": 0.0})
        row["self_s"] += selfs[span.id]
        row["calls"] += 1
    return stats


def calls(tracer: Tracer, prefix: str, phase: Optional[str] = None) -> int:
    """Spans whose name starts with ``prefix`` (optionally in one
    workload phase)."""
    return sum(
        1
        for span in tracer.spans
        if span.name.startswith(prefix)
        and (phase is None or span.phase == phase)
    )


def format_table(
    stats: dict[str, dict[str, float]],
    wall_s: float,
    rounds: dict[str, float],
) -> str:
    """The per-layer table: self time, calls, share of wall, rounds."""
    lines = [
        f"{'entry':<52} {'self_s':>10} {'calls':>8} {'share':>7}",
    ]
    for name, row in sorted(
        stats.items(), key=lambda item: -item[1]["self_s"]
    ):
        share = row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"{name:<52} {row['self_s']:>10.4f} {int(row['calls']):>8d} "
            f"{share:>7.1%}"
        )
    lines.append(f"{'workload wall time':<52} {wall_s:>10.4f}")
    for label, value in sorted(rounds.items()):
        lines.append(f"{label:<52} {value:>18.0f} rounds")
    return "\n".join(lines)
