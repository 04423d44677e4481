"""Reproduction of *Distributed MST and Routing in Almost Mixing Time*.

Ghaffari, Kuhn, Su — PODC 2017.

Public API tour:

* :func:`repro.run` with a :class:`repro.RunConfig` — the front door:
  one frozen config (seed, params, backend, trace, faults, ...)
  executes any operation (``build`` / ``route`` / ``mst`` / ``mincut`` /
  ``clique``) and returns a :class:`~repro.runtime.RunOutcome` carrying
  the result, the ledger, and the trace.
* :mod:`repro.runtime` — the execution layer behind it:
  :class:`repro.RunContext` (named RNG streams, run ledger, structured
  trace events) and the oracle/native :class:`~repro.runtime.Backend`
  protocol.
* :class:`repro.Session` — the same machinery held open: build once
  (or restore from the store), then serve many requests, apply churn
  updates, and recover from a write-ahead journal.
* :mod:`repro.graphs`, :mod:`repro.walks`, :mod:`repro.congest` — the
  substrates: graph families and spectra, random-walk engines with
  congestion-measured scheduling (Lemmas 2.3–2.5), and a faithful
  CONGEST simulator with seeded fault injection
  (:class:`~repro.congest.FaultPlan`) and reliable delivery
  (:mod:`repro.congest.reliable`).

``repro.run(op, graph, config=RunConfig(...))`` and
``Session.open(graph, RunConfig(...))`` are the only entry points.
:mod:`repro.core` keeps the rng-based building blocks
(``build_hierarchy``, ``minimum_spanning_tree``, ``Router``, ...) for
callers that compose the layers by hand.
"""

from . import baselines, congest, graphs, hashing, runtime, theory, walks
from .core import (
    Hierarchy,
    MstResult,
    MstRunner,
    RoundLedger,
    RoutingError,
    RoutingResult,
    build_g0,
    build_partition,
    build_portals,
)
from .params import Params
from .runtime import (
    RunConfig,
    RunContext,
    RunOutcome,
    Session,
    make_backend,
    run,
)

__version__ = "1.0.0"

__all__ = [
    "baselines",
    "congest",
    "graphs",
    "hashing",
    "runtime",
    "theory",
    "walks",
    "RunConfig",
    "RunContext",
    "RunOutcome",
    "Session",
    "run",
    "make_backend",
    "Hierarchy",
    "MstResult",
    "MstRunner",
    "RoundLedger",
    "RoutingError",
    "RoutingResult",
    "build_g0",
    "build_partition",
    "build_portals",
    "Params",
    "__version__",
]
