"""Execution backends: one protocol, two ways to run the pipeline.

A :class:`Backend` binds a graph to a :class:`~repro.runtime.RunContext`
and exposes the paper's operations (hierarchy build, routing, MST, min
cut, clique emulation) behind one interface:

* :class:`OracleBackend` — the fast path: vectorized walk engines and
  measured-schedule accounting (the existing ``core/`` pipeline).
* :class:`NativeBackend` — the same *random process*, executed as real
  message passing: every construction / preparation walk batch is
  executed token-by-token through :func:`repro.congest.replay_walk_run`
  as the engine takes its steps (one message per directed edge per
  round, on the array executor, with a sample of clean-wire steps
  re-run on :meth:`repro.congest.network.Network.run`), and the executed
  round count is asserted equal to the engine's Lemma 2.5 charge.

Because both backends draw from the context's named streams and consume
them identically, a fixed seed yields the *same* G0 edge multiset,
hierarchy, and routing decisions on either backend — the cross-backend
equivalence contract (``tests/runtime/test_backends.py``).  Operations
the native path does not cover raise :class:`UnsupportedOnBackend` with
a pointer to the oracle.
"""

from __future__ import annotations

import weakref
from typing import Optional

import numpy as np

from ..congest.native import ReplayMismatch, WalkBatch, replay_walk_run
from ..core.clique import CliqueEmulationResult, emulate_clique
from ..core.hierarchy import Hierarchy, build_hierarchy
from ..core.mincut import MinCutResult, approximate_min_cut
from ..core.mst import MstResult, MstRunner
from ..core.router import Router, RoutingResult
from ..graphs.graph import Graph, WeightedGraph
from ..walks.correlated import run_correlated_walks
from ..walks.engine import run_lazy_walks
from .context import RunContext

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendMismatch",
    "NativeBackend",
    "OracleBackend",
    "UnsupportedOnBackend",
    "make_backend",
]


class UnsupportedOnBackend(NotImplementedError):
    """The operation is not implemented on this backend."""

    def __init__(self, backend: "Backend", operation: str):
        super().__init__(
            f"{operation} is not supported on the {backend.name!r} backend; "
            "use --backend oracle (OracleBackend) for this operation"
        )
        self.backend = backend.name
        self.operation = operation


class BackendMismatch(RuntimeError):
    """The native execution disagreed with the accounted schedule."""


class Backend:
    """Base class: a graph bound to a context, with a cached hierarchy.

    Subclasses set :attr:`name` and implement :meth:`_walk_runner` (how
    walk batches execute); everything else is shared.  The hierarchy is
    built lazily on first use and cached, so ``route`` / ``mst`` / ...
    calls on one backend share a structure.
    """

    name = "abstract"

    #: Backend methods this backend can actually execute; the op table
    #: (:func:`repro.runtime.ops.check_backend_support`) consults this
    #: *before* the build phase, so an unsupported (op, backend) pair
    #: fails in milliseconds instead of after an expensive construction.
    supported_ops: frozenset[str] = frozenset({"build", "route"})

    def __init__(
        self,
        graph: Graph,
        context: RunContext,
        beta: Optional[int],
    ) -> None:
        self.graph = graph
        self.context = context
        self._beta = beta
        self._hierarchy: Optional[Hierarchy] = None
        self._router: Optional[Router] = None

    # -- walk execution strategy (the backend difference) --------------------

    def _walk_runner(self):
        """Walk-execution override for build/prep batches (None = engine)."""
        return None

    # -- operations ----------------------------------------------------------

    @property
    def hierarchy(self) -> Hierarchy:
        """The routing structure, built on first access."""
        if self._hierarchy is None:
            self._hierarchy = self.build()
        return self._hierarchy

    @property
    def router(self) -> Router:
        """The backend's router over :attr:`hierarchy` (cached)."""
        if self._router is None:
            self._router = Router(
                self.hierarchy,
                context=self.context,
                walk_runner=self._walk_runner(),
            )
        return self._router

    def build(self) -> Hierarchy:
        """Build (and cache) the hierarchical routing structure."""
        if self._hierarchy is None:
            ctx = self.context
            with ctx.phase("build/hierarchy", backend=self.name):
                self._hierarchy = build_hierarchy(
                    self.graph,
                    beta=self._beta,
                    context=ctx,
                    walk_runner=self._walk_runner(),
                )
        return self._hierarchy

    def route(
        self,
        sources: np.ndarray,
        destinations: np.ndarray,
        trace: bool = False,
    ) -> RoutingResult:
        """Route one packet per (source, destination) pair."""
        with self.context.phase("route", backend=self.name):
            return self.router.route(sources, destinations, trace=trace)

    def mst(self, weighted: WeightedGraph) -> MstResult:
        """Distributed MST of ``weighted`` over this backend's structure."""
        raise UnsupportedOnBackend(self, "mst")

    def min_cut(self, **kwargs) -> MinCutResult:
        """Approximate min cut of the backend's graph."""
        raise UnsupportedOnBackend(self, "min_cut")

    def clique(self, sample_fraction: float = 1.0) -> CliqueEmulationResult:
        """Emulate one congested-clique round on the backend's graph."""
        raise UnsupportedOnBackend(self, "clique")

    def g0_edge_multiset(self) -> list[tuple[int, int]]:
        """Sorted G0 overlay edges — the cross-backend equivalence probe."""
        overlay = self.hierarchy.g0.overlay
        return sorted(
            (int(u), int(v)) for u, v in map(tuple, overlay.edge_array)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(graph={self.graph!r})"


class OracleBackend(Backend):
    """The vectorized `core/` pipeline with measured-schedule accounting."""

    name = "oracle"
    supported_ops = frozenset(
        {"build", "route", "mst", "min_cut", "clique"}
    )

    def mst(self, weighted: WeightedGraph) -> MstResult:
        ctx = self.context
        with ctx.phase("mst", backend=self.name):
            runner = MstRunner(
                weighted, hierarchy=self.hierarchy, context=ctx
            )
            return runner.run()

    def min_cut(self, **kwargs) -> MinCutResult:
        ctx = self.context
        with ctx.phase("mincut", backend=self.name):
            return approximate_min_cut(
                self.graph, hierarchy=self.hierarchy, context=ctx, **kwargs
            )

    def clique(self, sample_fraction: float = 1.0) -> CliqueEmulationResult:
        ctx = self.context
        with ctx.phase("clique", backend=self.name):
            # A dedicated context-free router: the emulation charges one
            # aggregate "clique/emulation" entry, not per-route charges.
            router = Router(
                self.hierarchy,
                params=ctx.params,
                rng=ctx.stream("clique"),
                faults=ctx.fault_plan,
            )
            return emulate_clique(
                self.hierarchy,
                router=router,
                sample_fraction=sample_fraction,
                context=ctx,
            )


class NativeBackend(Backend):
    """Executes walk batches as real CONGEST message passing.

    Covers hierarchy/G0 build and routing.  Each walk batch is sampled
    by the same engine as the oracle (hence bit-identical structures)
    and executed by :func:`repro.congest.replay_walk_run`, which takes
    each step from the engine's step loop (no trajectory is recorded).
    On a clean wire the steps' position rows are held in small groups
    (a few thousand positions), one array pass of the
    :func:`repro.congest.forward_demands` executor per group, and a
    seeded sample of steps is re-run on the per-node simulator, which
    builds nodes only where the step's demands are.  :class:`BackendMismatch` is raised if the executed
    rounds differ from the engine's ``schedule_rounds()`` charge, or if
    a sampled step's simulator run disagrees with the executor.  MST /
    min-cut / clique raise :class:`UnsupportedOnBackend`.

    The simulator keys each outbox by neighbour, so two parallel edges
    would share one wire while the engine charges congestion per arc:
    multigraphs are refused up front (the oracle builds them).
    """

    name = "native"

    def __init__(
        self,
        graph: Graph,
        context: RunContext,
        beta: Optional[int],
    ) -> None:
        pair = _parallel_pair(graph)
        if pair is not None:
            raise ValueError(
                f"the native backend needs a simple graph, but nodes "
                f"{pair[0]} and {pair[1]} are joined by parallel edges "
                "(the simulator carries one message per neighbour per "
                "round); use backend='oracle' for multigraphs"
            )
        super().__init__(graph, context, beta=beta)
        self.executed_rounds = 0
        self.executed_messages = 0

    def _walk_runner(self):
        engine = (
            run_correlated_walks
            if self.context.params.use_correlated_walks
            else run_lazy_walks
        )
        # The router keeps this runner.  A weak reference back to the
        # backend stops backend -> router -> runner from forming a
        # cycle, which would keep a closed session's hierarchy alive
        # until the next garbage collection.
        backend = weakref.proxy(self)

        def native_runner(graph, starts, steps, rng):
            # With faults on, the replay runs each step over the
            # reliable ARQ path under the run's recovery mode: same
            # trajectories (retries resend, they never resample), more
            # rounds.  The surplus over the engine's clean Lemma 2.5
            # charge *is* the fault overhead — so the clean equality
            # assertion is replaced by surplus accounting, not silently
            # skipped.  Each step books its surplus over the ARQ ideal
            # itself (faults/retry-rounds, or recovery/wait under
            # self-heal); the batch charges only the rest, so every
            # surplus round is billed once.
            plan = backend.context.fault_plan
            try:
                replay = replay_walk_run(
                    graph,
                    WalkBatch(engine, starts, steps, rng),
                    faults=plan,
                    context=backend.context,
                )
            except ReplayMismatch as exc:
                raise BackendMismatch(str(exc)) from exc
            run = replay.run
            charged = run.schedule_rounds()
            if plan is None:
                if replay.rounds != charged:
                    raise BackendMismatch(
                        f"native execution took {replay.rounds} rounds but "
                        f"the engine charged {charged} for the same walk "
                        "batch"
                    )
            else:
                backend.context.charge(
                    "faults/retry-rounds",
                    float(
                        max(0, replay.rounds - charged - replay.step_booked)
                    ),
                    stage="native/walk-batch",
                    rounds_total=int(replay.rounds),
                    ideal_rounds=int(charged),
                    step_booked=int(replay.step_booked),
                )
            backend.executed_rounds += replay.rounds
            backend.executed_messages += replay.messages
            backend.context.emit(
                "backend",
                "native/walk-batch",
                walks=run.num_walks,
                steps=int(steps),
                executed_rounds=int(replay.rounds),
                messages=int(replay.messages),
            )
            return run

        return native_runner


def _parallel_pair(graph: Graph) -> Optional[tuple[int, int]]:
    """One pair of nodes joined by two or more edges, else ``None``."""
    edges = np.sort(graph.edge_array, axis=1)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    repeats = np.flatnonzero((edges[1:] == edges[:-1]).all(axis=1))
    if repeats.size == 0:
        return None
    u, v = edges[repeats[0]]
    return int(u), int(v)


BACKENDS = {"oracle": OracleBackend, "native": NativeBackend}


def make_backend(
    name: str,
    graph: Graph,
    context: RunContext,
    beta: Optional[int] = None,
) -> Backend:
    """Instantiate a backend by name (``"oracle"`` or ``"native"``)."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return cls(graph, context, beta=beta)
