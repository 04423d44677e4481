"""Build-once / serve-many: the warm-hierarchy session layer.

The paper's headline claim is economic: pay ``2^O(sqrt(log n))`` rounds
*once* for the expander-decomposition hierarchy, then answer routing
(and MST / min-cut / clique) instances in ``~tau_mix`` each.  The
one-shot :func:`repro.run` obscured that — every call rebuilt the
structure.  A :class:`Session` makes the amortization real: it owns a
built hierarchy + router + :class:`~repro.runtime.RunContext` and
serves a stream of requests against the warm structure.

**The equivalence oracle.**  Every served request is bit-identical to a
cold ``repro.run()`` with the same (graph, seed, config): same result
object, same ledger charges.  The mechanism is the named-stream
discipline plus a warm snapshot:

1. ``Session.open`` builds the hierarchy and router exactly as a cold
   run would, then snapshots the position of every RNG stream, the
   router's cross-call state, and the fault plan's RNG positions.
2. Before each request the snapshot is restored, and streams created
   *since* the snapshot are forgotten (so they re-derive at their
   origin — where a cold run would first meet them).
3. The request runs through the same :data:`~repro.runtime.ops.OP_TABLE`
   runner the one-shot path uses, and its charges are sliced off the
   session ledger as a per-request ledger.

Streams are independent by name, so the restore is exact, not
approximate: a request cannot observe how many requests ran before it.
(One documented exception: under ``recovery="self-heal"`` with crash
windows, the warm-up pays the one-time ``recovery/detection`` charge
that a cold non-route run would never incur, because the session
eagerly builds failover structures.)

``Session.open`` also fronts the content-addressed
:class:`~repro.runtime.store.HierarchyStore`: a hit adopts the stored
context + backend and skips the build phase entirely;
``Session.apply_update`` patches the warm structure around churn
(overlay repair + portal re-election, charged under ``serve/``) and
re-persists under the updated content hash.

Two optional robustness layers ride on top (see ``docs/robustness.md``):
a :class:`~repro.runtime.resilience.ResiliencePolicy` from
``RunConfig(resilience=...)`` (deadlines, retry budget, admission
control, circuit breaker — enforced by the session's
:class:`~repro.runtime.resilience.Governor`), and a
:class:`~repro.runtime.journal.Journal`
(crash-safe write-ahead log of applied updates + the served high-water
mark) that :meth:`Session.recover` replays deterministically.  Both
layers are additive for *request serving*: with neither attached,
served responses are bit-identical to a session without this
machinery.  :meth:`Session.apply_update`, however, now restores the
warm snapshot before every update for *all* sessions — journaled or
not — so that replay is a pure function of (seed, update index); this
intentionally changes update repair results relative to pre-journal
sessions (the serve-soak baselines were regenerated accordingly).
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from ..congest.faults import FaultSpec
from ..core.hierarchy import repair_overlay
from ..core.ledger import RoundLedger
from ..graphs.graph import Graph, WeightedGraph
from ..hashing import graph_fingerprint
from .backends import Backend
from .context import RunContext
from .events import EventSink, JsonlSink, NullSink
from .journal import Journal
from .ops import (
    check_backend_support,
    summarize_result,
    validate_request,
)
from .resilience import Governor
from .store import HierarchyStore, open_store, store_key

__all__ = [
    "DEFAULT_STALENESS_BOUND",
    "Request",
    "Session",
    "SessionResponse",
    "UpdateReport",
    "serve_jsonl",
]

#: Fraction of virtual nodes that may be touched by incremental updates
#: before :meth:`Session.apply_update` falls back to a full rebuild;
#: every session's :attr:`Session.staleness_bound` starts here.
DEFAULT_STALENESS_BOUND = 0.25


@dataclass(frozen=True)
class Request:
    """One operation request against a warm session.

    Validation happens at *construction* — an unknown op raises
    ``ValueError`` and an unknown argument keyword raises ``TypeError``
    naming the offending key — so malformed requests never reach the
    warm structure.
    """

    op: str
    args: Mapping[str, Any] = field(default_factory=dict)
    id: Optional[str] = None

    def __post_init__(self) -> None:
        validate_request(self.op, self.args)


@dataclass(frozen=True)
class SessionResponse:
    """What one served request hands back.

    Attributes:
        op: the operation that ran.
        result: the op's native result object (same type a cold
            ``run()`` returns).
        ledger: this request's own charges — the slice of the session
            ledger between request start and end.
        rounds: ``ledger.total()``.
        wall_s: request wall-clock latency in seconds.
        index: 0-based position in the session's request sequence.
        request_id: the :attr:`Request.id`, echoed back.
        batch_size: >1 when served as part of a batched admission
            group (``rounds`` then covers the whole batch).
    """

    op: str
    result: Any
    ledger: RoundLedger
    rounds: float
    wall_s: float
    index: int
    request_id: Optional[str] = None
    batch_size: int = 1

    def summary(self) -> dict[str, Any]:
        """JSON-safe response payload (the serve wire format)."""
        payload: dict[str, Any] = {
            "index": self.index,
            "op": self.op,
            "result": summarize_result(self.op, self.result),
            "rounds": float(self.rounds),
            "wall_s": round(self.wall_s, 6),
        }
        if self.request_id is not None:
            payload["id"] = self.request_id
        if self.batch_size > 1:
            payload["batch_size"] = self.batch_size
            payload["rounds_amortized"] = float(
                self.rounds / self.batch_size
            )
        return payload


@dataclass(frozen=True)
class UpdateReport:
    """Outcome of one :meth:`Session.apply_update`.

    Attributes:
        edges_added / edges_removed / nodes_down: the applied churn.
        rebuilt: ``True`` when the staleness bound forced a full
            rebuild instead of an incremental repair.
        staleness: stale-vnode fraction *after* this update.
        repaired / dropped: overlay edges re-embedded / removed per
            level (empty when ``rebuilt``).
        reelected: portal slots re-elected (0 when ``rebuilt``).
        cost_rounds: rounds charged under ``serve/`` (repair path) or
            the fresh build's total (rebuild path).
        cache_key: content hash the updated session persisted under
            (``None`` when the session has no store).
    """

    edges_added: tuple
    edges_removed: tuple
    nodes_down: tuple
    rebuilt: bool
    staleness: float
    repaired: dict[int, int]
    dropped: dict[int, int]
    reelected: int
    cost_rounds: float
    cache_key: Optional[str] = None

    def summary(self) -> dict[str, Any]:
        """JSON-safe report payload (the serve wire format)."""
        return {
            "update": {
                "edges_added": len(self.edges_added),
                "edges_removed": len(self.edges_removed),
                "nodes_down": len(self.nodes_down),
                "rebuilt": self.rebuilt,
                "staleness": round(self.staleness, 6),
                "repaired": int(sum(self.repaired.values())),
                "dropped": int(sum(self.dropped.values())),
                "reelected": self.reelected,
                "rounds": float(self.cost_rounds),
            }
        }


class Session:
    """A warm hierarchy + router serving many requests (use
    :meth:`open`)."""

    def __init__(
        self,
        graph: Graph,
        config: Any,
        context: RunContext,
        backend: Backend,
        *,
        store: Optional[HierarchyStore] = None,
        cache_key: Optional[str] = None,
        from_cache: bool = False,
        journal: Optional[Journal] = None,
    ) -> None:
        self.graph = graph
        self.config = config
        self.context = context
        self.backend = backend
        self.store = store
        self.cache_key = cache_key
        self.from_cache = from_cache
        self.staleness_bound = DEFAULT_STALENESS_BOUND
        policy = config.resilience
        self.governor = Governor(policy) if policy is not None else None
        self.journal = journal
        self.lineage = ""
        self.served = 0
        self.updates_applied = 0
        # Input-record stamp for the next journaled update (set by
        # serve_jsonl so replay advances the resume point past the
        # update's record; 0 = update applied outside a record stream).
        self._journal_record = 0
        self._closed = False
        self._stale_vnodes = 0
        self._warm_streams: dict[str, dict] = {}
        self._warm_router: Optional[dict] = None
        self._warm_plan: Optional[dict] = None
        self._warm_ledger_len = 0
        self._warm_hierarchy_ledger_len = 0

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(
        cls,
        graph: Graph,
        config: Any = None,
        *,
        store: Optional[HierarchyStore] = None,
        announce: Optional[str] = None,
        journal: "Union[None, str, Journal]" = None,
    ) -> "Session":
        """Open a warm session: cache hit, or build + persist.

        Args:
            graph: the topology to serve.
            config: a :class:`~repro.runtime.RunConfig` (default:
                ``RunConfig()``).  Its ``cache`` field selects the store
                unless ``store`` is passed explicitly, and its
                ``resilience`` policy, when set, governs serving through
                :attr:`governor`.
            store: explicit :class:`HierarchyStore` (overrides
                ``config.cache``).
            announce: operation name for the ``run_start`` trace event
                (the one-shot path passes its op; servers leave the
                default ``"session"``).  When given, backend support is
                checked *before* any build work.
            journal: crash-safe write-ahead journal — a
                :class:`~repro.runtime.journal.Journal` or a path to
                open one at.  Applied updates and the served high-water
                mark are journaled so :meth:`recover` can rebuild this
                session after a crash.
        """
        from .config import RunConfig

        if config is None:
            config = RunConfig()
        # A journal opened here from a path is ours to close if the
        # open fails; a caller's Journal object stays open.
        owned_journal = None
        if isinstance(journal, str):
            journal = owned_journal = Journal(
                journal, identity=cls._journal_identity(graph, config)
            )
        if store is None:
            store = open_store(config.cache)
        key: Optional[str] = None
        payload = None
        if store is not None:
            key = store_key(graph, config)
            payload = store.load(key, graph)

        if payload is not None:
            context = payload["context"]
            sink: EventSink
            if isinstance(config.trace, str):
                sink = JsonlSink(config.trace)
            else:
                sink = config.trace or NullSink()
            context.sink = sink
        else:
            context = config.make_context()
        try:
            cls._emit_run_start(context, config, announce or "session")
            if payload is not None:
                backend = payload["backend"]
                context.emit(
                    "cache",
                    "serve/cache-hit",
                    key=key,
                    path=store.path_for(key),
                )
                if announce is not None:
                    check_backend_support(backend, announce)
                # Re-bind the walk-runner closure the pickle dropped.
                runner = backend._walk_runner()
                if backend._router is not None:
                    backend._router._walk_runner = runner
            else:
                if key is not None:
                    context.emit("cache", "serve/cache-miss", key=key)
                backend = cls._construct(graph, config, context, announce)
        except BaseException:
            if isinstance(config.trace, str):
                context.close()
            if owned_journal is not None:
                owned_journal.close()
            raise
        session = cls(
            graph,
            config,
            context,
            backend,
            store=store,
            cache_key=key,
            from_cache=payload is not None,
            journal=journal,
        )
        session._take_warm_snapshot()
        if payload is None and key is not None:
            session._persist(key)
        return session

    @staticmethod
    def _construct(
        graph: Graph,
        config: Any,
        context: RunContext,
        announce: Optional[str] = None,
    ) -> Backend:
        """Make the configured backend over ``graph``, build it, and
        warm its router: the one construction every warm snapshot is
        taken after."""
        backend = config.make_backend(graph, context)
        if announce is not None:
            # Reject an impossible (op, backend) pair before paying
            # for a build it could never use.
            check_backend_support(backend, announce)
        backend.build()
        if "route" in backend.supported_ops:
            # Portal election draws from the "router" stream, and the
            # warm snapshot must sit after every construction-time draw.
            backend.router
        return backend

    @staticmethod
    def _journal_identity(graph: Graph, config: Any) -> dict[str, Any]:
        """The identity fields a journal is checked against on reopen."""
        return {
            "fingerprint": graph_fingerprint(graph),
            "seed": int(config.seed),
            "backend": str(config.backend),
        }

    @classmethod
    def recover(
        cls,
        graph: Graph,
        config: Any = None,
        *,
        journal: "Union[str, Journal]",
        store: Optional[HierarchyStore] = None,
    ) -> "Session":
        """Rebuild a crashed session from its write-ahead journal.

        Opens a fresh session (store hit on the clean-build key when one
        survives, full rebuild otherwise), then replays the journaled
        updates in order with the journal detached.  Replay is
        deterministic — update ``k`` repairs from the ``serve-update-k``
        fresh stream, a pure function of (seed, k) — so the recovered
        session is bit-identical to the uninterrupted one: same warm
        structure, same store keys, same responses to the remaining
        requests.  The served high-water mark is restored so response
        indices continue where the dead process stopped.  The new
        session gets a fresh :attr:`governor` from
        ``config.resilience``; a caller that carries the SLO timeline
        across processes assigns its old governor back.
        """
        from .config import RunConfig

        if config is None:
            config = RunConfig()
        owned_journal: Optional[Journal] = None
        if isinstance(journal, str):
            journal = owned_journal = Journal(
                journal, identity=cls._journal_identity(graph, config)
            )
        try:
            session = cls.open(graph, config, store=store)
        except BaseException:
            if owned_journal is not None:
                owned_journal.close()
            raise
        from ..congest.faults import DeliveryTimeout

        replayed = failed = 0
        try:
            for update in list(journal.updates):
                try:
                    session.apply_update(
                        edges_added=update.get("edges_added", ()),
                        edges_removed=update.get("edges_removed", ()),
                        nodes_down=update.get("nodes_down", ()),
                    )
                    replayed += 1
                except (ValueError, TypeError, DeliveryTimeout):
                    # The original session saw the same deterministic
                    # failure; the update changed nothing then either.
                    failed += 1
        except BaseException:
            # Any other failure (a BackendMismatch, say) ends the
            # recovery: release the session and a journal opened here.
            session.close()
            if owned_journal is not None:
                owned_journal.close()
            raise
        session.served = journal.served
        session.journal = journal
        session.context.emit(
            "journal",
            "serve/recovered",
            updates=replayed,
            failed_updates=failed,
            served=journal.served,
            record=journal.record_mark,
        )
        return session

    @staticmethod
    def _emit_run_start(
        context: RunContext, config: Any, op_name: str
    ) -> None:
        spec = context.fault_spec
        context.emit(
            "run_start",
            op_name,
            seed=context.seed,
            backend=config.backend,
            faults=spec.describe() if spec is not None else None,
            recovery=config.recovery,
        )

    def _take_warm_snapshot(self) -> None:
        """Freeze the post-build state every request restarts from."""
        self._warm_streams = self.context.stream_states()
        router = self.backend._router
        self._warm_router = (
            router.warm_state() if router is not None else None
        )
        plan = self.context._fault_plan
        self._warm_plan = plan.warm_state() if plan is not None else None
        self._warm_ledger_len = len(self.context.ledger)
        # Per-request routers (e.g. the clique op's dedicated one)
        # charge their portal build to the hierarchy's own ledger;
        # remember its post-build length so requests can rewind it.
        hierarchy = self.backend._hierarchy
        self._warm_hierarchy_ledger_len = (
            len(hierarchy.ledger) if hierarchy is not None else 0
        )

    def _persist(self, key: str) -> None:
        """Write the warm snapshot to the store."""
        assert self.store is not None
        path = self.store.save(
            key,
            graph=self.graph,
            context=self.context,
            backend=self.backend,
        )
        self.cache_key = key
        self.context.emit("cache", "serve/cache-store", key=key, path=path)

    @property
    def build_ledger(self) -> RoundLedger:
        """The warm-up's charges (everything before the first request;
        on a cache hit these are the *stored* build charges)."""
        ledger = RoundLedger()
        charges = self.context.ledger.charges[: self._warm_ledger_len]
        for charge in charges:
            ledger.charge(charge.label, charge.rounds, **charge.detail)
        return ledger

    def close(self) -> None:
        """Emit the session-close event; close the sink if we own it."""
        if self._closed:
            return
        self._closed = True
        self.context.emit(
            "session",
            "serve/close",
            served=self.served,
            updates=self.updates_applied,
        )
        if self.journal is not None:
            self.journal.close()
        if isinstance(self.config.trace, str):
            self.context.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- request serving -----------------------------------------------------

    def request(self, op: str, **args: Any) -> SessionResponse:
        """Serve one operation (convenience wrapper over
        :meth:`submit`)."""
        return self.submit(Request(op=op, args=args))

    def submit(self, request: Request) -> SessionResponse:
        """Serve one :class:`Request` against the warm structure.

        Restores the warm RNG/router/fault-plan snapshot first, so the
        outcome is bit-identical to a cold ``repro.run()`` of the same
        request — regardless of what was served before it.  The request
        takes the next response index and is bracketed in the trace by
        ``serve/request`` and ``serve/response`` events.  This is the
        one request path: :meth:`route_batch`, the governor
        (:meth:`Governor.serve
        <repro.runtime.resilience.Governor.serve>`) and the one-shot
        :func:`~repro.runtime.run` all serve through it.
        """
        self._ensure_serving()
        spec = validate_request(request.op, request.args)
        check_backend_support(self.backend, request.op)
        start = self._begin_request()
        index = self.served
        self.served += 1
        self.context.emit(
            "session",
            "serve/request",
            op=request.op,
            index=index,
            id=request.id,
        )
        began = time.perf_counter()  # reprolint: disable=R003 (latency)
        result = spec.runner(
            self.backend, self.context, self.graph, dict(request.args)
        )
        wall_s = time.perf_counter() - began  # reprolint: disable=R003
        ledger = self.context.ledger.slice_from(start)
        rounds = float(ledger.total())
        self.context.emit(
            "session",
            "serve/response",
            op=request.op,
            index=index,
            rounds=rounds,
            wall_s=round(wall_s, 6),
        )
        return SessionResponse(
            op=request.op,
            result=result,
            ledger=ledger,
            rounds=rounds,
            wall_s=wall_s,
            index=index,
            request_id=request.id,
        )

    def route_batch(
        self, requests: Sequence[Request]
    ) -> list[SessionResponse]:
        """Serve several explicit-demand route requests as one instance.

        Batched admission: the demands are concatenated and served as
        one route request through :meth:`submit`, so the batch pays one
        preparation-walk phase instead of ``len(requests)``.  Every
        request must be ``op="route"`` with aligned explicit
        ``sources``/``destinations`` and no other argument (random
        demands need their own stream draws and are served
        individually); anything else is refused with ``ValueError``
        before any work.  A batch is one routing instance: it takes
        one response index per request, its responses share the batch
        result, and :meth:`SessionResponse.summary` reports amortized
        rounds.  The trace shows a ``serve/batch`` event (size, packets,
        ids) before the merged request's ``serve/request`` /
        ``serve/response`` bookends.
        """
        for request in requests:
            if not _batchable(request):
                raise ValueError(
                    "route_batch only serves route requests with "
                    "aligned explicit sources and destinations and no "
                    f"other arguments, got op={request.op!r} with "
                    f"{sorted(request.args)}"
                )
        if len(requests) <= 1:
            return [self.submit(request) for request in requests]
        self._ensure_serving()
        sources = np.concatenate(
            [np.asarray(r.args["sources"], dtype=np.int64) for r in requests]
        )
        destinations = np.concatenate(
            [
                np.asarray(r.args["destinations"], dtype=np.int64)
                for r in requests
            ]
        )
        self.context.emit(
            "session",
            "serve/batch",
            size=len(requests),
            packets=int(sources.size),
            ids=[request.id for request in requests],
        )
        merged = Request(
            op="route",
            args={"sources": sources, "destinations": destinations},
        )
        try:
            response = self.submit(merged)
        finally:
            # The batch takes one index per request, served or not.
            self.served += len(requests) - 1
        return [
            replace(
                response,
                index=response.index + position,
                request_id=request.id,
                batch_size=len(requests),
            )
            for position, request in enumerate(requests)
        ]

    def _begin_request(self) -> int:
        """Restore the warm snapshot; return the ledger slice start."""
        self.context.restore_streams(self._warm_streams)
        router = self.backend._router
        if router is not None and self._warm_router is not None:
            router.restore_warm_state(self._warm_router)
        plan = self.context._fault_plan
        if plan is not None and self._warm_plan is not None:
            plan.restore_warm_state(self._warm_plan)
        hierarchy = self.backend._hierarchy
        if hierarchy is not None:
            hierarchy.ledger.truncate(self._warm_hierarchy_ledger_len)
        return len(self.context.ledger)

    def _ensure_serving(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # -- incremental updates -------------------------------------------------

    @property
    def staleness(self) -> float:
        """Stale-vnode fraction accumulated by updates since the last
        (re)build — what :meth:`apply_update` compares against
        :attr:`staleness_bound` and the circuit breaker's
        ``staleness_trip`` watches."""
        virtual = self.backend.hierarchy.g0.virtual
        return self._stale_vnodes / max(1, virtual.count)

    def refresh(self) -> float:
        """Proactively rebuild the warm structure on the current graph.

        The explicit repair the circuit breaker triggers when staleness
        approaches the bound: bit-identical to a fresh
        ``Session.open`` of the current graph (same contract as the
        staleness-forced rebuild inside :meth:`apply_update`).  Returns
        the rebuild's total rounds.
        """
        self._ensure_serving()
        return self._rebuild(self.graph)

    @contextmanager
    def fault_window(
        self, spec: "FaultSpec", *, entropy: int
    ) -> Iterator[None]:
        """Serve requests inside the block under an extra fault spec.

        Pushes a fresh :class:`~repro.congest.faults.FaultPlan` seeded
        from ``entropy`` (chaos windows mint it from their own named
        stream) onto the context and swaps the warm-plan snapshot to
        the new plan's origin, so every request in the window restores
        *its* RNG positions — requests outside the window are untouched
        and stay bit-identical.
        """
        self._ensure_serving()
        token = self.context.push_faults(spec, entropy=entropy)
        saved_warm = self._warm_plan
        plan = self.context._fault_plan
        self._warm_plan = plan.warm_state() if plan is not None else None
        try:
            yield
        finally:
            self._warm_plan = saved_warm
            self.context.pop_faults(token)

    def apply_update(
        self,
        edges_added: Iterable = (),
        edges_removed: Iterable = (),
        nodes_down: Iterable = (),
    ) -> UpdateReport:
        """Patch the warm structure around graph churn.

        Removed edges and downed nodes kill their virtual nodes; the
        overlay is repaired around them
        (:func:`~repro.core.hierarchy.repair_overlay`) and portal slots
        pointing at dead virtual nodes are re-elected from live
        boundary candidates — all charged under ``serve/``.  Added
        edges only accrue staleness (the embedding does not carry
        traffic over them until a rebuild).  When the cumulative stale
        fraction exceeds :attr:`staleness_bound`, the session falls
        back to a full rebuild on the updated graph — bit-identical to
        a fresh ``Session.open`` of that graph.  Either way the session
        re-persists under the updated content hash.
        """
        self._ensure_serving()
        # Start from the canonical warm snapshot, exactly like a
        # request: the repair must be a pure function of (seed, update
        # index), not of whatever stream state the previous request
        # left behind — otherwise a journal replay (which serves no
        # requests first) diverges from the live session it rebuilds.
        self._begin_request()
        added = tuple(tuple(edge) for edge in edges_added)
        removed = tuple(
            (int(edge[0]), int(edge[1])) for edge in edges_removed
        )
        down = tuple(int(node) for node in nodes_down)
        if self.journal is not None:
            # Write-ahead: the journal always holds a superset of the
            # applied churn, so a crash mid-apply replays this update.
            self.journal.append_update(
                {
                    "edges_added": [list(edge) for edge in added],
                    "edges_removed": [list(edge) for edge in removed],
                    "nodes_down": list(down),
                },
                record=self._journal_record,
            )
        removed_eids = self._edge_ids(removed)
        new_graph = self._updated_graph(added, removed_eids)
        virtual = self.backend.hierarchy.g0.virtual
        dead_mask = np.isin(virtual.graph.arc_edge, removed_eids)
        if down:
            dead_mask |= np.isin(
                virtual.host, np.asarray(down, dtype=np.int64)
            )
        dead_vnodes = np.flatnonzero(dead_mask)
        self._stale_vnodes += int(dead_vnodes.size) + 2 * len(added)
        staleness = self._stale_vnodes / max(1, virtual.count)
        self.updates_applied += 1
        self.context.emit(
            "session",
            "serve/update",
            edges_added=len(added),
            edges_removed=len(removed),
            nodes_down=len(down),
            staleness=round(staleness, 6),
        )

        if staleness > self.staleness_bound:
            cost = self._rebuild(new_graph)
            return UpdateReport(
                edges_added=added,
                edges_removed=removed,
                nodes_down=down,
                rebuilt=True,
                staleness=0.0,
                repaired={},
                dropped={},
                reelected=0,
                cost_rounds=cost,
                cache_key=self.cache_key,
            )

        start = len(self.context.ledger)
        repair_rng = self.context.fresh_stream(
            f"serve-update-{self.updates_applied}"
        )
        report = repair_overlay(
            self.backend.hierarchy, dead_vnodes, repair_rng,
            self.context.params,
        )
        # A planned update is maintenance, not failure recovery: its
        # repair books under serve/.
        for level, rounds in report.costs.items():
            self.context.charge(
                f"serve/repair-level-{level}",
                rounds,
                replaced=report.replaced[level],
                dropped=report.dropped.get(level, 0),
            )
        reelected = self._reelect_dead_portals(dead_vnodes, repair_rng)
        cost = float(
            self.context.ledger.slice_from(start).total()
        )
        self.graph = new_graph
        self._advance_lineage(added, removed, down)
        if self.store is not None:
            key = store_key(new_graph, self.config, lineage=self.lineage)
            self._persist(key)
        # The warm state moved: future requests restart from the
        # repaired structure, not the pre-update snapshot.
        self._take_warm_snapshot()
        return UpdateReport(
            edges_added=added,
            edges_removed=removed,
            nodes_down=down,
            rebuilt=False,
            staleness=staleness,
            repaired=dict(report.replaced),
            dropped=dict(report.dropped),
            reelected=reelected,
            cost_rounds=cost,
            cache_key=self.cache_key,
        )

    def _updated_graph(
        self, added: tuple, removed_eids: np.ndarray
    ) -> Graph:
        """The post-churn topology: the current graph without the edges
        ``removed_eids``, plus ``added`` (same node count)."""
        graph = self.graph
        weighted = isinstance(graph, WeightedGraph)
        for edge in added:
            if weighted and len(edge) != 3:
                raise ValueError(
                    "weighted sessions need (u, v, weight) additions, "
                    f"got {edge!r}"
                )
        edges = np.concatenate(
            [
                np.delete(graph.edge_array, removed_eids, axis=0),
                np.asarray(
                    [(int(e[0]), int(e[1])) for e in added], dtype=np.int64
                ).reshape(-1, 2),
            ]
        )
        if isinstance(graph, WeightedGraph):
            weights = np.concatenate(
                [
                    np.delete(graph.weights, removed_eids),
                    np.asarray([float(e[2]) for e in added]),
                ]
            )
            return WeightedGraph(graph.num_nodes, edges, weights)
        return Graph(graph.num_nodes, edges)

    def _edge_ids(self, removed: tuple) -> np.ndarray:
        """Edge ids (in the *current* graph) of removed edges: each
        removal takes the lowest unused id of an edge joining its two
        endpoints, in either orientation."""
        if not removed:
            return np.empty(0, dtype=np.int64)
        wanted = {(min(u, v), max(u, v)) for u, v in removed}
        candidates: dict[tuple[int, int], list[int]] = {}
        for eid, (u, v) in enumerate(self.graph.edge_array.tolist()):
            pair = (u, v) if u < v else (v, u)
            if pair in wanted:
                candidates.setdefault(pair, []).append(eid)
        for ids in candidates.values():
            ids.reverse()  # pop() then yields the lowest id first
        picked = []
        for u, v in removed:
            ids = candidates.get((min(u, v), max(u, v)))
            if not ids:
                raise ValueError(
                    f"cannot remove edge ({u}, {v}): not present"
                )
            picked.append(ids.pop())
        return np.asarray(picked, dtype=np.int64)

    def _reelect_dead_portals(
        self, dead_vnodes: np.ndarray, rng: np.random.Generator
    ) -> int:
        """Replace portal-table entries that point at dead vnodes."""
        router = self.backend._router
        if router is None or dead_vnodes.size == 0:
            return 0
        portals = router.portals
        hierarchy = self.backend.hierarchy
        dead = set(int(v) for v in dead_vnodes.tolist())

        def is_dead(vnode: int) -> bool:
            return int(vnode) in dead

        reelected = 0
        num_vnodes = hierarchy.g0.virtual.count
        election_rounds = float(np.log2(max(2, num_vnodes)))
        for level_index, table in enumerate(portals.tables, start=1):
            stale = np.isin(table, np.asarray(sorted(dead)))
            if not stale.any():
                continue
            parts = hierarchy.levels[level_index - 1].parts
            rows, siblings = np.nonzero(stale)
            picks: dict[tuple[int, int], int] = {}
            for row, sibling in zip(rows.tolist(), siblings.tolist()):
                part = int(parts[row])
                slot = (part, int(sibling))
                if slot not in picks:
                    picks[slot] = portals.reelect(
                        level_index,
                        part,
                        int(sibling),
                        is_dead,
                        rng=rng,
                    )
                    reelected += 1
                    self.context.charge(
                        "serve/reelect",
                        election_rounds
                        * hierarchy.emulation_to_g(level_index),
                        level=level_index,
                        part=part,
                        sibling=int(sibling),
                    )
                table[row, sibling] = picks[slot]
        return reelected

    def _advance_lineage(
        self, added: tuple, removed: tuple, down: tuple
    ) -> None:
        """Extend the content-hash lineage with this update's identity.

        A repaired structure is a fresh build *plus* an update chain —
        not a pure function of (graph, config) — so its store key must
        never collide with a clean build of the updated graph."""
        digest = hashlib.sha256()
        digest.update(self.lineage.encode())
        digest.update(graph_fingerprint(self.graph).encode())
        digest.update(repr((added, removed, down)).encode())
        self.lineage = digest.hexdigest()

    def _rebuild(self, new_graph: Graph) -> float:
        """Full rebuild on the updated graph (same seed, shared sink).

        The new epoch is bit-identical to a fresh ``Session.open`` of
        ``new_graph`` under the session's config — which is exactly
        what the equivalence tests assert.
        """
        self.context.emit("session", "serve/rebuild", n=new_graph.num_nodes)
        context = replace(self.config, trace=self.context.sink).make_context()
        backend = self._construct(new_graph, self.config, context)
        self.graph = new_graph
        self.context = context
        self.backend = backend
        self.lineage = ""
        self._stale_vnodes = 0
        self._take_warm_snapshot()
        if self.store is not None:
            self._persist(store_key(new_graph, self.config))
        return float(context.ledger.total())


def _batchable(request: Request) -> bool:
    """Whether ``request`` may share a routing instance with others: a
    route whose only arguments are aligned 1-D integer ``sources`` and
    ``destinations``.  Anything else would fail, or be paired with a
    neighbour's demands, once concatenated."""
    args = request.args
    if request.op != "route" or set(args) != {"sources", "destinations"}:
        return False
    try:
        sources = np.asarray(args["sources"], dtype=np.int64)
        destinations = np.asarray(args["destinations"], dtype=np.int64)
    except (ValueError, TypeError):
        return False
    return sources.ndim == 1 and sources.shape == destinations.shape


def serve_jsonl(
    session: Session,
    records: Iterable[Mapping[str, Any]],
    *,
    batch: int = 0,
) -> Iterator[dict[str, Any]]:
    """Drive a session from decoded JSONL records; yield responses.

    Request records are ``{"op": ..., "args": {...}, "id": ...}``
    (optionally carrying ``"arrival_s"``, the open-loop arrival second
    the admission controller keys on); update records are ``{"update":
    {"edges_added": [...], "edges_removed": [...], "nodes_down":
    [...]}}``.  One response comes back per record, in record order.  A
    malformed record — and a request a live fault plan defeats
    (:class:`~repro.congest.faults.DeliveryTimeout`) — yields an
    ``{"error": ...}`` response carrying the request ``id`` (and, for
    delivery timeouts, the ``culprits`` triples) and serving continues:
    the loop outlives any single record.  With ``batch > 0``,
    consecutive route requests with aligned explicit ``sources`` /
    ``destinations`` and no other argument are grouped (up to
    ``batch``) into one routing instance (:meth:`Session.route_batch`);
    any other record is served on its own, after the pending group.  A
    session governed by a
    :class:`~repro.runtime.resilience.ResiliencePolicy` serves every
    request on its own through its governor (admission is
    per-request).  When the session carries a journal, the served
    high-water mark is advanced after every fully consumed record.
    """
    from ..congest.faults import DeliveryTimeout

    recoverable = (ValueError, TypeError, DeliveryTimeout)
    pending: list[Request] = []

    def error_record(
        error: Exception, **identity: Any
    ) -> dict[str, Any]:
        payload: dict[str, Any] = {"error": str(error)}
        payload.update(identity)
        if isinstance(error, DeliveryTimeout):
            payload["kind"] = "delivery_timeout"
            payload["culprits"] = [
                list(culprit) for culprit in error.culprits
            ]
        return payload

    def flush() -> Iterator[dict[str, Any]]:
        if pending:
            group = list(pending)
            pending.clear()
            try:
                responses = session.route_batch(group)
            except recoverable as error:
                yield error_record(
                    error, ids=[request.id for request in group]
                )
                return
            for response in responses:
                yield response.summary()

    # After a recovery the caller skips the already-consumed records,
    # so this generator's local count continues from the journal's
    # existing high-water mark instead of regressing to zero.
    base_record = (
        session.journal.record_mark if session.journal is not None else 0
    )

    def mark(consumed: int) -> None:
        if session.journal is not None and not pending:
            session.journal.mark_served(
                session.served, record=base_record + consumed
            )

    consumed = 0
    for record in records:
        consumed += 1
        if "update" not in record:
            try:
                request = Request(
                    op=record.get("op", ""),
                    args=dict(record.get("args", {})),
                    id=record.get("id"),
                )
            except (ValueError, TypeError) as error:
                yield from flush()
                yield error_record(
                    error, id=record.get("id"), record=dict(record)
                )
                mark(consumed)
                continue
            if (
                batch > 0
                and session.governor is None
                and _batchable(request)
            ):
                pending.append(request)
                if len(pending) >= batch:
                    yield from flush()
                    mark(consumed)
                continue
        yield from flush()
        outcome: dict[str, Any]
        if "update" in record:
            update = dict(record["update"])
            # Stamp the journaled update with this record's index so a
            # torn tail can never double-apply it (replay + re-consume).
            session._journal_record = base_record + consumed
            try:
                outcome = session.apply_update(
                    edges_added=update.get("edges_added", ()),
                    edges_removed=update.get("edges_removed", ()),
                    nodes_down=update.get("nodes_down", ()),
                ).summary()
            except recoverable as error:
                outcome = error_record(error, record=dict(record))
            finally:
                session._journal_record = 0
        else:
            # The governor absorbs DeliveryTimeout itself; a bad request
            # (unsupported op/backend pair, malformed args) still raises
            # and must not kill the loop, governed or not.
            try:
                if session.governor is not None:
                    arrival = record.get("arrival_s")
                    outcome = session.governor.serve(
                        session,
                        request,
                        arrival_s=(
                            float(arrival) if arrival is not None else None
                        ),
                    )
                else:
                    outcome = session.submit(request).summary()
            except recoverable as error:
                outcome = error_record(
                    error, id=request.id, record=dict(record)
                )
        yield outcome
        mark(consumed)
    yield from flush()
    mark(consumed)
