"""The execution context: one object that owns a run's shared state.

Before this layer existed, every entry point hand-rolled the same
wiring: an ad-hoc ``np.random.default_rng((seed, k))`` per component
(with magic offsets ``k``), a :class:`~repro.params.Params`, and a
:class:`~repro.core.ledger.RoundLedger` threaded positionally through
the pipeline.  :class:`RunContext` replaces all three:

* **Named RNG streams** — ``ctx.stream("hierarchy")`` derives a
  deterministic generator from ``(seed, sha256(name))``.  Streams are
  independent by name, so adding a consumer (or drawing more from one
  stream) never perturbs another — the bug class where ``--packets``
  changed the routing *structure* because workload sampling shared the
  construction stream.
* **One ledger** — every operation's round charges accumulate in
  ``ctx.ledger``; each charge is also emitted as a ``ledger_charge``
  trace event.
* **Structured tracing** — ``ctx.phase("route")`` brackets a pipeline
  stage with ``phase_start``/``phase_end`` events carrying wall time;
  ``ctx.emit(...)`` records walk-batch/scheduler/backend stats.
"""

from __future__ import annotations

import copy
import time
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from ..congest.detector import CrashView, crash_view
from ..congest.faults import FaultPlan, FaultRecord, FaultSpec
from ..core.ledger import Charge, RoundLedger
from ..params import Params
from ..rng import derive_rng, stream_entropy
from .events import EventSink, NullSink, TraceEvent

__all__ = ["RunContext"]

RECOVERY_MODES = ("fail-fast", "self-heal")


class RunContext:
    """Owns a run's seed, params, ledger, and trace sink.

    Attributes:
        seed: the base seed; every named stream derives from it.
        params: construction constants shared by all operations.
        ledger: the run-wide round ledger (charges from every operation
            executed through this context).
        sink: where trace events go (default: :class:`NullSink`).
        fault_spec: the run's :class:`~repro.congest.faults.FaultSpec`,
            or ``None``; :attr:`fault_plan` binds it to the context's
            dedicated ``"faults"`` RNG stream.
        recovery: ``"fail-fast"`` (crash windows that outlive retries
            raise, the PR-4 contract) or ``"self-heal"`` (the failure
            detector publishes a crash view and recovery code routes
            around / waits out the windows, charging ``recovery/*``).
    """

    def __init__(
        self,
        seed: int = 0,
        params: Optional[Params] = None,
        sink: Optional[EventSink] = None,
        faults: "Optional[FaultSpec | str]" = None,
        recovery: str = "fail-fast",
    ) -> None:
        self.seed = int(seed)
        self.params = params or Params.default()
        self.ledger = RoundLedger()
        self.sink = sink or NullSink()
        if isinstance(faults, str):
            faults = FaultSpec.parse(faults)
        self.fault_spec = faults
        if recovery not in RECOVERY_MODES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_MODES}, "
                f"got {recovery!r}"
            )
        self.recovery = recovery
        self._fault_plan: Optional[FaultPlan] = None
        self._crash_views: dict[int, Optional[CrashView]] = {}
        self._seq = 0
        self._streams: dict[str, np.random.Generator] = {}

    # -- named RNG streams ---------------------------------------------------

    def stream(self, name: str) -> np.random.Generator:
        """The named RNG stream, created on first use and then cached.

        The same name always returns the *same generator object* within
        one context, so a stream advances monotonically no matter how
        many call sites share it; two contexts with the same seed
        produce identical streams.  Distinct names are statistically
        independent (the name is hashed into the seed material).
        """
        generator = self._streams.get(name)
        if generator is None:
            generator = derive_rng(self.seed, stream_entropy(name))
            self._streams[name] = generator
        return generator

    def fresh_stream(self, name: str) -> np.random.Generator:
        """A new generator for ``name``, independent of :meth:`stream`.

        Unlike :meth:`stream` this is *not* cached: every call restarts
        the stream at its origin.  Use it when two runs must consume
        identical randomness regardless of what else the context did
        (e.g. the cross-backend equivalence contract).
        """
        return derive_rng(self.seed, stream_entropy(name))

    def stream_states(self) -> dict[str, dict]:
        """Snapshot the position of every cached stream (deep copies).

        The session layer captures this right after the warm-up build;
        restoring it before each request puts every generator back at
        the position a cold run would see after its own build, which is
        what makes warm-served results bit-identical to cold runs.
        """
        return {
            name: copy.deepcopy(generator.bit_generator.state)
            for name, generator in self._streams.items()
        }

    def restore_streams(self, states: dict[str, dict]) -> None:
        """Rewind cached streams to a :meth:`stream_states` snapshot.

        Streams present in the snapshot are repositioned; streams
        created *after* the snapshot are forgotten, so the next
        :meth:`stream` call re-derives them at their origin — exactly
        where a cold run would first meet them.
        """
        for name in list(self._streams):
            if name in states:
                self._streams[name].bit_generator.state = copy.deepcopy(
                    states[name]
                )
            else:
                del self._streams[name]

    # -- faults --------------------------------------------------------------

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        """The run's :class:`FaultPlan`, or ``None`` without faults.

        Built lazily — and only once, so all consumers (network runs,
        the router's modeled retries) share one plan and its fault log.
        The plan draws exclusively from the context's ``"faults"``
        stream, so enabling faults cannot perturb any other stream, and
        every injected fault is mirrored as a ``"fault"`` trace event.
        """
        if self.fault_spec is None or self.fault_spec.is_null:
            return None
        if self._fault_plan is None:
            self._fault_plan = FaultPlan(
                self.fault_spec,
                rng=self.stream("faults"),
                on_fault=self._emit_fault,
            )
        return self._fault_plan

    def push_faults(
        self, spec: FaultSpec, *, entropy: int
    ) -> "tuple[Optional[FaultPlan], Optional[FaultSpec]]":
        """Temporarily replace the run's fault plan with a fresh one.

        Builds a :class:`FaultPlan` for ``spec`` seeded from
        ``derive_rng(entropy)`` — chaos windows pass entropy minted
        from their own named stream, so a window cannot perturb the
        ``"faults"`` stream — installs it as the active plan, and
        returns a token (the displaced plan and spec) that
        :meth:`pop_faults` takes.  Crash views are invalidated both
        ways because they cache per-plan state.
        """
        token = (self._fault_plan, self.fault_spec)
        self.fault_spec = spec
        self._fault_plan = FaultPlan(
            spec,
            rng=derive_rng(entropy),
            on_fault=self._emit_fault,
        )
        self._crash_views.clear()
        return token

    def pop_faults(
        self,
        token: "tuple[Optional[FaultPlan], Optional[FaultSpec]]",
    ) -> None:
        """Restore the plan/spec that :meth:`push_faults` displaced."""
        self._fault_plan, self.fault_spec = token
        self._crash_views.clear()

    def crash_view_for(self, num_nodes: int) -> Optional[CrashView]:
        """The failure detector's crash view for an ``num_nodes`` wire.

        Built (and its detection rounds charged under
        ``recovery/detection``, when self-healing) once per distinct
        ``num_nodes``; recovery code must read crash state through this
        view, never from the plan (reprolint R008).  Returns ``None``
        when the run has no crash windows.
        """
        plan = self.fault_plan
        if plan is None or not plan.spec.crashes:
            return None
        view = self._crash_views.get(num_nodes)
        if view is None:
            view = crash_view(plan, num_nodes)
            self._crash_views[num_nodes] = view
            if self.recovery == "self-heal":
                self.charge(
                    "recovery/detection",
                    view.detection_rounds,
                    windows=len(view.windows),
                    num_nodes=num_nodes,
                )
                self.emit(
                    "recovery",
                    "recovery/detection",
                    windows=len(view.windows),
                    num_nodes=num_nodes,
                    rounds=view.detection_rounds,
                )
        return view

    def _emit_fault(self, record: FaultRecord) -> None:
        self.emit(
            "fault",
            f"faults/{record.kind}",
            round=record.round,
            sender=record.sender,
            target=record.target,
            **record.detail,
        )

    # -- tracing -------------------------------------------------------------

    def emit(self, kind: str, name: str, **payload) -> TraceEvent:
        """Emit one trace event to the sink; returns it."""
        event = TraceEvent(
            seq=self._seq, kind=kind, name=name, payload=payload
        )
        self._seq += 1
        self.sink.emit(event)
        return event

    @contextmanager
    def phase(self, name: str, **payload) -> Iterator[None]:
        """Bracket a pipeline stage with start/end events + wall time."""
        self.emit("phase_start", name, **payload)
        began = time.perf_counter()  # reprolint: disable=R003 (trace metadata)
        try:
            yield
        finally:
            wall_s = time.perf_counter() - began  # reprolint: disable=R003
            self.emit("phase_end", name, wall_s=round(wall_s, 6), **payload)

    # -- round accounting ----------------------------------------------------

    def charge(self, label: str, rounds: float, **detail) -> None:
        """Charge the run ledger and emit a ``ledger_charge`` event."""
        self.ledger.charge(label, rounds, **detail)
        self.emit("ledger_charge", label, rounds=float(rounds), **detail)

    def absorb_ledger(self, ledger: RoundLedger) -> None:
        """Merge another ledger's charges, emitting one event per charge.

        Used to fold a component-local ledger (e.g. a hierarchy's
        construction ledger) into the run-wide accounting exactly once.
        """
        for charge in ledger.charges:
            self._absorb_charge(charge)

    def _absorb_charge(self, charge: Charge) -> None:
        self.ledger.charge(charge.label, charge.rounds, **charge.detail)
        self.emit(
            "ledger_charge",
            charge.label,
            rounds=float(charge.rounds),
            **charge.detail,
        )

    def close(self) -> None:
        """Close the sink (flushes a JSONL trace file)."""
        self.sink.close()

    def __enter__(self) -> "RunContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- store snapshots -----------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle everything except the sink (file handles don't
        survive a store entry; a cache hit attaches the opening
        config's sink)."""
        state = self.__dict__.copy()
        state["sink"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.sink is None:
            self.sink = NullSink()

    def __repr__(self) -> str:
        return (
            f"RunContext(seed={self.seed}, streams={sorted(self._streams)}, "
            f"ledger={self.ledger!r})"
        )
