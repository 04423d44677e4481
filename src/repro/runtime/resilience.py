"""SLO governance for the serve path: deadlines, retries, admission,
and a circuit breaker.

The session layer (PR 8) made serving cheap; the workload engine (PR 9)
made overload observable.  This module makes it *governable*: a
:class:`ResiliencePolicy` attached to a :class:`~repro.runtime.Session`
through ``RunConfig(resilience=...)`` turns unbounded
serving into SLO-bounded serving —

* **deadlines** — a per-request round budget (and optional wall-clock
  budget).  A request whose served cost exceeds the budget yields a
  structured ``deadline_exceeded`` error record instead of an unbounded
  response; under the deterministic virtual clock the request occupies
  the server for at most the budget (the model of cancellation).
* **retry budget** — :class:`~repro.congest.faults.DeliveryTimeout` is
  the one *recoverable* serve failure (a transient fault plan defeated
  delivery); the governor retries it up to ``retry_budget`` times with
  exponential backoff.  Retries re-sample the fault plan from its
  post-failure positions, so a retry is a genuinely fresh attempt —
  deterministically: the same seed retries the same way.
* **admission control** — under an open-loop arrival schedule the
  governor tracks the completion times of admitted requests; a request
  arriving while ``max_inflight`` are still in flight is shed with a
  structured ``shed`` record instead of growing the queue without
  bound.
* **circuit breaker** — ``breaker_failures`` consecutive failures, or
  update staleness approaching the session's ``staleness_bound``, trip
  the breaker: requests fast-fail with ``circuit_open`` records while a
  rebuild/repair completes (modeled as ``breaker_cooldown`` fast-failed
  requests), then one half-open probe decides between closing and
  re-opening.

Everything the governor decides is deterministic given the seed and the
arrival schedule when ``round_time_s`` is set: service time is then
``rounds * round_time_s`` virtual seconds, so shed counts, deadline
misses, and breaker trips are gateable benchmark columns, not wall-clock
noise.  With the policy unset nothing here runs at all — the ungoverned
serve path is bit-identical to PR 9.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..congest.faults import DeliveryTimeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import Request, Session

__all__ = [
    "BREAKER_STATES",
    "CircuitOpen",
    "DeadlineExceeded",
    "Governor",
    "LoadShed",
    "ResiliencePolicy",
    "ServeRejection",
]

#: Circuit-breaker states, in trip order.
BREAKER_STATES = ("closed", "open", "half-open")


class ServeRejection(RuntimeError):
    """A governed serve produced no response (shed / deadline / open
    circuit).  Carries the structured error record the wire path emits.

    Attributes:
        kind: the error-record taxonomy key (``"shed"``,
            ``"deadline_exceeded"``, ``"circuit_open"``).
        detail: kind-specific fields merged into the error record.
    """

    kind = "rejected"

    def __init__(self, message: str, **detail: Any) -> None:
        super().__init__(message)
        self.detail = detail

    def record(self, request_id: Optional[str]) -> dict[str, Any]:
        """The structured JSONL error record for this rejection."""
        payload: dict[str, Any] = {
            "error": str(self),
            "kind": self.kind,
            "id": request_id,
        }
        payload.update(self.detail)
        return payload


class DeadlineExceeded(ServeRejection):
    """The served request exceeded its round or wall budget."""

    kind = "deadline_exceeded"


class LoadShed(ServeRejection):
    """Admission control refused the request (in-flight bound hit)."""

    kind = "shed"


class CircuitOpen(ServeRejection):
    """The breaker is open: fast-fail while repair completes."""

    kind = "circuit_open"


@dataclass(frozen=True)
class ResiliencePolicy:
    """The serve-path SLO knobs, decided once and immutable.

    Attributes:
        deadline_rounds: per-request delivery-round budget (``None`` =
            unbounded).  Exceeding it yields a ``deadline_exceeded``
            error record; under the virtual clock the request occupies
            the server for at most this budget.
        deadline_wall_s: per-request wall-clock budget in seconds
            (``None`` = unbounded; machine-dependent, never gated).
        retry_budget: extra attempts for ``DeliveryTimeout``-recoverable
            requests (0 = fail on first timeout).
        backoff_base_s / backoff_cap_s: exponential-backoff schedule for
            retries; attempt ``k`` waits ``base * 2**(k-1)`` seconds,
            capped.  The wait is *modeled* (charged to the open-loop
            clock), never slept.
        max_inflight: admission bound — requests arriving while this
            many admitted requests are still in flight are shed
            (0 = unlimited).
        breaker_failures: consecutive serve failures that trip the
            circuit breaker (0 = breaker disabled).
        breaker_cooldown: requests fast-failed with ``circuit_open``
            while the breaker is open, before the half-open probe.
        staleness_trip: fraction of the session's ``staleness_bound`` at
            which the breaker trips preemptively and the session repairs
            (rebuilds) in the background (0 = disabled).
        round_time_s: virtual seconds per delivery round.  When > 0 the
            governor's clock is deterministic — service time is
            ``rounds * round_time_s`` — which makes shed/deadline/
            breaker counts exact, gateable columns.  When 0, measured
            wall time drives the clock (reported, never gated).
    """

    deadline_rounds: Optional[float] = None
    deadline_wall_s: Optional[float] = None
    retry_budget: int = 0
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 1.0
    max_inflight: int = 0
    breaker_failures: int = 0
    breaker_cooldown: int = 4
    staleness_trip: float = 0.0
    round_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.deadline_rounds is not None and self.deadline_rounds <= 0:
            raise ValueError(
                f"deadline_rounds must be > 0, got {self.deadline_rounds}"
            )
        if self.deadline_wall_s is not None and self.deadline_wall_s <= 0:
            raise ValueError(
                f"deadline_wall_s must be > 0, got {self.deadline_wall_s}"
            )
        for name in ("retry_budget", "max_inflight", "breaker_failures"):
            if int(getattr(self, name)) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if self.breaker_cooldown < 1:
            raise ValueError(
                f"breaker_cooldown must be >= 1, got "
                f"{self.breaker_cooldown}"
            )
        if not 0.0 <= self.staleness_trip <= 1.0:
            raise ValueError(
                f"staleness_trip must be in [0, 1], got "
                f"{self.staleness_trip}"
            )
        for name in ("backoff_base_s", "backoff_cap_s", "round_time_s"):
            if float(getattr(self, name)) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )

    @property
    def is_null(self) -> bool:
        """True when every governing knob is off (the policy is inert)."""
        return (
            self.deadline_rounds is None
            and self.deadline_wall_s is None
            and self.retry_budget == 0
            and self.max_inflight == 0
            and self.breaker_failures == 0
            and self.staleness_trip == 0.0
        )

    def backoff_s(self, attempt: int) -> float:
        """Modeled backoff before retry ``attempt`` (1-based)."""
        return min(
            self.backoff_cap_s,
            self.backoff_base_s * (2.0 ** max(0, attempt - 1)),
        )


class Governor:
    """Enforces a :class:`ResiliencePolicy` over one session's serving.

    One governor per session; :meth:`serve` wraps
    :meth:`~repro.runtime.Session.submit` with the full policy pipeline
    (breaker check → staleness check → admission → retry loop →
    deadline check) and returns a JSON-safe summary dict either way —
    a response summary on success, a structured error record on
    rejection.  Counters accumulate in :attr:`counters` and feed the
    workload report's goodput / shed / deadline-miss columns.
    """

    def __init__(self, policy: ResiliencePolicy) -> None:
        self.policy = policy
        self.state = "closed"
        self.clock = 0.0
        self.counters: dict[str, int] = {
            "served": 0,
            "goodput": 0,
            "shed": 0,
            "deadline_miss": 0,
            "circuit_open": 0,
            "retries": 0,
            "timeouts": 0,
            "breaker_trips": 0,
            "repairs": 0,
        }
        self._consecutive_failures = 0
        self._cooldown_left = 0
        # Completion seconds of admitted requests, oldest first; the
        # in-flight depth at an arrival is the count still > arrival.
        self._completions: deque[float] = deque()

    # -- the governed serve path ---------------------------------------------

    def serve(
        self,
        session: "Session",
        request: "Request",
        *,
        arrival_s: Optional[float] = None,
    ) -> dict[str, Any]:
        """Serve one request under the policy; return a summary dict.

        The governed counterpart of ``session.submit(request).summary()``
        and the way :func:`~repro.runtime.serve_jsonl` serves every
        request of a governed session: breaker fast-fail, admission
        control, the retry loop around
        :meth:`~repro.runtime.Session.submit`, then the deadline check.
        The return value is a response summary (plus ``service_s`` and,
        when known, ``sojourn_s`` / ``retry_backoff_s``) or a structured
        error record (``kind`` in ``{"shed", "deadline_exceeded",
        "circuit_open", "delivery_timeout"}``).  ``arrival_s`` is the
        request's open-loop arrival second (the admission controller
        and the virtual clock need it; without it admission is skipped
        and the clock free-runs).
        """
        policy = self.policy
        try:
            self._check_breaker(session)
            self._check_admission(arrival_s, session)
        except ServeRejection as rejection:
            self._observe_rejection(session, rejection, request.id)
            return rejection.record(request.id)

        backoff_s, outcome = self._attempt(session, request)
        if isinstance(outcome, DeliveryTimeout):
            self._record_failure(session)
            self.counters["served"] += 1
            self.counters["timeouts"] += 1
            # A timed-out request held the server for its full budget.
            self._complete(arrival_s, self._budget_s(), backoff_s)
            return {
                "error": str(outcome),
                "kind": "delivery_timeout",
                "id": request.id,
                "culprits": [list(c) for c in outcome.culprits],
            }

        response = outcome
        self.counters["served"] += 1
        service_s = self._service_s(response.rounds, response.wall_s)
        miss: Optional[DeadlineExceeded] = None
        if (
            policy.deadline_rounds is not None
            and response.rounds > policy.deadline_rounds
        ):
            miss = DeadlineExceeded(
                f"deadline exceeded: {response.rounds:g} rounds > "
                f"{policy.deadline_rounds:g} budget",
                rounds=float(response.rounds),
                deadline_rounds=float(policy.deadline_rounds),
            )
        elif (
            policy.deadline_wall_s is not None
            and response.wall_s > policy.deadline_wall_s
        ):
            miss = DeadlineExceeded(
                f"deadline exceeded: {response.wall_s:.6f}s wall > "
                f"{policy.deadline_wall_s:g}s budget",
                wall_s=round(response.wall_s, 6),
                deadline_wall_s=float(policy.deadline_wall_s),
            )
        if miss is not None:
            # Cancellation model: the request occupied the server for
            # at most its budget, then was cut off.
            self._complete(
                arrival_s, min(service_s, self._budget_s()), backoff_s
            )
            self._record_failure(session)
            self.counters["deadline_miss"] += 1
            self._observe_rejection(session, miss, request.id)
            return miss.record(request.id)

        sojourn_s = self._complete(arrival_s, service_s, backoff_s)
        self._record_success()
        self.counters["goodput"] += 1
        summary = response.summary()
        summary["service_s"] = round(service_s, 6)
        if sojourn_s is not None:
            summary["sojourn_s"] = round(sojourn_s, 6)
        if backoff_s:
            summary["retry_backoff_s"] = round(backoff_s, 6)
        return summary

    def _attempt(
        self, session: "Session", request: "Request"
    ) -> "tuple[float, Any]":
        """The retry loop: serve, retrying recoverable timeouts.

        Returns ``(modeled_backoff_s, SessionResponse | final
        DeliveryTimeout)``.  Each retry re-installs the fault plan's
        *post-failure* positions as the warm snapshot, so the retry
        samples fresh fault decisions instead of deterministically
        re-living the same failure — and restores the original warm
        plan afterwards so later requests keep cold/warm bit-identity.
        """
        policy = self.policy
        saved_plan = session._warm_plan
        backoff_s = 0.0
        attempt = 0
        try:
            while True:
                try:
                    return backoff_s, session.submit(request)
                except DeliveryTimeout as error:
                    attempt += 1
                    if attempt > policy.retry_budget:
                        return backoff_s, error
                    self.counters["retries"] += 1
                    backoff_s += policy.backoff_s(attempt)
                    plan = session.context._fault_plan
                    if plan is not None:
                        session._warm_plan = plan.warm_state()
                    session.context.emit(
                        "resilience",
                        "serve/retry",
                        id=request.id,
                        attempt=attempt,
                        budget=policy.retry_budget,
                        backoff_s=round(backoff_s, 6),
                    )
        finally:
            session._warm_plan = saved_plan

    # -- breaker -------------------------------------------------------------

    def _check_breaker(self, session: "Session") -> None:
        policy = self.policy
        if self.state == "open":
            if self._cooldown_left > 0:
                self._cooldown_left -= 1
                raise CircuitOpen(
                    "circuit open: fast-failing while repair completes",
                    cooldown_left=self._cooldown_left,
                )
            self.state = "half-open"
            session.context.emit("resilience", "serve/breaker-half-open")
        if (
            policy.staleness_trip > 0.0
            and session.staleness
            >= policy.staleness_trip * session.staleness_bound
        ):
            # Preemptive trip: repair now, fast-fail while it "runs".
            self.counters["repairs"] += 1
            self._trip(session, reason="staleness")
            session.refresh()
            raise CircuitOpen(
                "circuit open: staleness "
                f"{session.staleness:.4f} tripped the breaker "
                f"(bound {session.staleness_bound:g}); rebuilding",
                cooldown_left=self._cooldown_left,
            )

    def _trip(self, session: "Session", *, reason: str) -> None:
        self.state = "open"
        self._cooldown_left = self.policy.breaker_cooldown
        self._consecutive_failures = 0
        self.counters["breaker_trips"] += 1
        session.context.emit(
            "resilience",
            "serve/breaker-open",
            reason=reason,
            cooldown=self.policy.breaker_cooldown,
        )

    def _record_failure(self, session: "Session") -> None:
        if self.state == "half-open":
            # The probe failed: straight back to open.
            self._trip(session, reason="half-open-probe")
            return
        if self.policy.breaker_failures > 0:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.policy.breaker_failures:
                self._trip(session, reason="consecutive-failures")

    def _record_success(self) -> None:
        self._consecutive_failures = 0
        if self.state == "half-open":
            self.state = "closed"

    # -- admission + the open-loop clock -------------------------------------

    def _check_admission(
        self, arrival_s: Optional[float], session: "Session"
    ) -> None:
        policy = self.policy
        if policy.max_inflight <= 0 or arrival_s is None:
            return
        while self._completions and self._completions[0] <= arrival_s:
            self._completions.popleft()
        if len(self._completions) >= policy.max_inflight:
            raise LoadShed(
                f"shed: {len(self._completions)} in flight >= "
                f"max_inflight={policy.max_inflight}",
                inflight=len(self._completions),
                max_inflight=policy.max_inflight,
            )

    def _service_s(self, rounds: float, wall_s: float) -> float:
        if self.policy.round_time_s > 0.0:
            return float(rounds) * self.policy.round_time_s
        return float(wall_s)

    def _budget_s(self) -> float:
        """Virtual server occupancy of a cancelled/timed-out request."""
        policy = self.policy
        if policy.deadline_rounds is not None and policy.round_time_s > 0:
            return float(policy.deadline_rounds) * policy.round_time_s
        if policy.deadline_wall_s is not None:
            return float(policy.deadline_wall_s)
        return 0.0

    def _complete(
        self,
        arrival_s: Optional[float],
        service_s: float,
        backoff_s: float,
    ) -> Optional[float]:
        """Advance the open-loop clock; return the sojourn, if known."""
        occupancy = service_s + backoff_s
        if arrival_s is None:
            self.clock += occupancy
            return None
        completion = max(self.clock, arrival_s) + occupancy
        self.clock = completion
        self._completions.append(completion)
        return completion - arrival_s

    def _observe_rejection(
        self,
        session: "Session",
        rejection: ServeRejection,
        request_id: Optional[str],
    ) -> None:
        if isinstance(rejection, LoadShed):
            self.counters["shed"] += 1
        elif isinstance(rejection, CircuitOpen):
            self.counters["circuit_open"] += 1
        session.context.emit(
            "resilience",
            f"serve/{rejection.kind}",
            id=request_id,
            **{
                key: value
                for key, value in rejection.detail.items()
                if isinstance(value, (int, float, str, bool))
            },
        )
