"""One front door for the pipeline: ``repro.run(op, graph, config=...)``.

The building blocks in :mod:`repro.core` each take their own
``params=``, ``rng=`` and friends.  :class:`RunConfig` freezes those
decisions (seed, params, backend, faults, ...) into one immutable
value, and :func:`run` executes any of the paper's operations under it:

    >>> from repro import run, RunConfig
    >>> from repro.graphs import random_regular
    >>> from repro.rng import derive_rng
    >>> graph = random_regular(64, 6, derive_rng(0, 64))
    >>> outcome = run("route", graph, config=RunConfig(seed=7))
    >>> outcome.result.delivered
    True

One config = one reproducible run: the seed feeds the context's named
RNG streams, ``faults`` (a spec string or
:class:`~repro.congest.faults.FaultSpec`) binds a fault plan to the
dedicated ``"faults"`` stream, ``trace`` captures the structured event
stream, and ``backend`` chooses how walk batches execute.
Together with :class:`~repro.runtime.session.Session` (the same
config, held open to serve many requests) this is the only way in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

from ..congest.faults import FaultSpec
from ..graphs.graph import Graph
from ..params import Params
from .backends import BACKENDS, Backend, make_backend
from .context import RECOVERY_MODES, RunContext
from .events import EventSink, JsonlSink, MemorySink, TraceEvent
from .ops import OPS, validate_request
from .resilience import ResiliencePolicy

__all__ = ["OPS", "RunConfig", "RunOutcome", "run"]

@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs, decided once and immutable.

    Attributes:
        seed: base seed; every named RNG stream derives from it.
        params: construction constants (``None`` =
            :meth:`Params.default`).
        backend: ``"oracle"`` (vectorized) or ``"native"`` (real message
            passing; on a clean wire it also re-runs a seeded sample of
            each walk batch's steps on the per-node simulator as an
            oracle).
        trace: where structured events go — ``None`` (discard), a path
            string (JSONL file), or any
            :class:`~repro.runtime.EventSink`.
        faults: fault injection — ``None`` (clean), a spec string in the
            ``--faults`` grammar (``"drop=0.01,crash=3@rounds:10-20"``),
            or a :class:`FaultSpec`.  Normalized to a ``FaultSpec``.
        beta: partition branching-factor override.
        recovery: ``"fail-fast"`` (crash windows that defeat reliable
            delivery raise :class:`DeliveryTimeout` — the historical
            contract, bit-identical to runs before recovery existed) or
            ``"self-heal"`` (the failure detector publishes a crash
            view; delivery waits out transient windows, re-homes or
            orphans traffic of permanently dead nodes, and routing
            fails over to redundant portals — all charged under the
            ``recovery/*`` ledger namespace).
        cache: content-addressed hierarchy cache — ``"off"`` (default),
            ``"auto"`` (``$REPRO_CACHE_DIR`` or the XDG cache dir), or
            an explicit directory path.  With caching on, :func:`run`
            opens a warm session from the store when the (graph, seed,
            params, backend) content hash matches, skipping the build
            phase entirely; misses build once and persist.  Re-running
            with the same ``cache`` is also how a run restarts after a
            crash: the hit resumes from the stored build.
        resilience: optional
            :class:`~repro.runtime.resilience.ResiliencePolicy`, the
            one place a session's serve policy is set: a session
            opened under it serves records through a
            :class:`~repro.runtime.resilience.Governor` (deadlines,
            retry budget, admission control, circuit breaker).
            ``None`` (default) serves ungoverned — bit-identical to
            configs from before the policy existed.  It is not part
            of the store key.
    """

    seed: int = 0
    params: Optional[Params] = None
    backend: str = "oracle"
    trace: Union[None, str, EventSink] = None
    faults: Union[None, str, FaultSpec] = None
    beta: Optional[int] = None
    recovery: str = "fail-fast"
    cache: Optional[str] = "off"
    resilience: Optional[ResiliencePolicy] = None

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed))
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {sorted(BACKENDS)}, "
                f"got {self.backend!r}"
            )
        if self.recovery not in RECOVERY_MODES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_MODES}, "
                f"got {self.recovery!r}"
            )
        if self.cache is None:
            object.__setattr__(self, "cache", "off")
        elif not isinstance(self.cache, str):
            raise TypeError(
                "cache must be 'off', 'auto', or a directory path, "
                f"got {type(self.cache).__name__}"
            )
        if isinstance(self.faults, str):
            object.__setattr__(self, "faults", FaultSpec.parse(self.faults))
        elif self.faults is not None and not isinstance(
            self.faults, FaultSpec
        ):
            raise TypeError(
                "faults must be None, a spec string, or a FaultSpec, "
                f"got {type(self.faults).__name__}"
            )
        if self.resilience is not None and not isinstance(
            self.resilience, ResiliencePolicy
        ):
            raise TypeError(
                "resilience must be None or a ResiliencePolicy, "
                f"got {type(self.resilience).__name__}"
            )

    def make_context(self) -> RunContext:
        """A fresh :class:`RunContext` configured by this value.

        A path-string ``trace`` opens a new :class:`JsonlSink` per call;
        a sink *instance* is shared (the caller owns its lifetime).
        """
        sink: Optional[EventSink]
        if isinstance(self.trace, str):
            sink = JsonlSink(self.trace)
        else:
            sink = self.trace
        return RunContext(
            seed=self.seed,
            params=self.params,
            sink=sink,
            faults=self.faults,
            recovery=self.recovery,
        )

    def make_backend(
        self, graph: Graph, context: Optional[RunContext] = None
    ) -> Backend:
        """The configured backend over ``graph`` (fresh context unless
        one is supplied)."""
        return make_backend(
            self.backend,
            graph,
            context if context is not None else self.make_context(),
            beta=self.beta,
        )


@dataclass(frozen=True)
class RunOutcome:
    """What :func:`run` hands back: the result plus the run's machinery.

    Attributes:
        op: the operation that ran (one of :data:`OPS`).
        config: the :class:`RunConfig` it ran under.
        result: the operation's native result object
            (:class:`~repro.core.hierarchy.Hierarchy`,
            :class:`~repro.core.router.RoutingResult`, ...).
        context: the run's :class:`RunContext` — ledger, streams, sink.
        backend: the backend the run executed on (its cached hierarchy
            is reusable).
    """

    op: str
    config: RunConfig
    result: Any
    context: RunContext
    backend: Backend

    @property
    def ledger(self):
        """The run-wide :class:`~repro.core.ledger.RoundLedger`."""
        return self.context.ledger

    @property
    def events(self) -> list[TraceEvent]:
        """Captured trace events (empty unless ``trace`` was a
        :class:`MemorySink`)."""
        sink = self.context.sink
        if isinstance(sink, MemorySink):
            return sink.events
        return []

    def fault_rounds(self) -> float:
        """Total rounds charged under the ``faults/`` ledger category."""
        return float(
            sum(
                charge.rounds
                for charge in self.ledger.charges
                if charge.label.startswith("faults/")
            )
        )

    def recovery_rounds(self) -> float:
        """Total rounds charged under the ``recovery/`` ledger category
        (detection, waits, failover, re-election, repair, redundancy)."""
        return float(
            sum(
                charge.rounds
                for charge in self.ledger.charges
                if charge.label.startswith("recovery/")
            )
        )


def run(
    op: str,
    graph: Graph,
    *,
    config: Optional[RunConfig] = None,
    **op_args,
) -> RunOutcome:
    """Execute one of the paper's operations under a :class:`RunConfig`.

    A run is a one-request session: :meth:`Session.open
    <repro.runtime.Session.open>` (announcing ``op``), then one
    :meth:`~repro.runtime.Session.submit`, never governed.  Its trace is
    ``run_start``, the build's events (or ``serve/cache-hit``), the
    ``serve/request`` / ``serve/response`` bookends around the op's own
    events, then ``run_end``.

    Args:
        op: ``"build"``, ``"route"``, ``"mst"``, ``"mincut"``, or
            ``"clique"``.
        graph: the topology (a :class:`WeightedGraph` for ``mst`` unless
            ``weights=`` is passed; unweighted graphs get i.i.d. uniform
            weights from the ``"weights"`` stream).
        config: the run configuration (default: ``RunConfig()``).
        **op_args: operation-specific inputs — ``route``:
            ``sources``/``destinations`` arrays, or ``packets=k`` for a
            random demand, or nothing for a full permutation;
            ``trace_hops=True`` records per-packet hop counts.  ``mst``:
            optional ``weights``.  ``mincut``: ``eps``, ``num_trees``,
            ``two_respecting``, ``use_weights``.  ``clique``:
            ``sample_fraction``.

    Returns:
        A :class:`RunOutcome`; ``outcome.result`` is the operation's
        native result object, ``outcome.ledger`` the round accounting,
        ``outcome.backend.hierarchy`` the (cached) structure.

    Raises:
        ValueError: unknown ``op`` or malformed demand arguments.
        DeliveryTimeout: if an active fault plan defeats reliable
            delivery (never a silent partial result).
    """
    from .session import Request, Session

    if config is None:
        config = RunConfig()
    # Fail on an unknown op or argument keyword before any work —
    # session construction, context creation, or builds.
    validate_request(op, op_args)
    # One-shot = open a (possibly cached) session, serve one request.
    # The session restores its warm RNG/router snapshot before the
    # request, so the outcome is bit-identical to the historical
    # build-inline path.
    session = Session.open(graph, config, announce=op)
    context = session.context
    backend = session.backend
    try:
        result = session.submit(Request(op=op, args=op_args)).result
    finally:
        context.emit(
            "run_end",
            op,
            total_rounds=float(context.ledger.total()),
        )
        if isinstance(config.trace, str):
            # We opened the JSONL sink; we close it.  Caller-supplied
            # sink instances stay open (their owner decides).
            context.close()
    return RunOutcome(
        op=op,
        config=config,
        result=result,
        context=context,
        backend=backend,
    )
