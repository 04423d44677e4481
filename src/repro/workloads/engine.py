"""Drive an open-loop stream against a warm session; report percentiles.

The engine is the measurement half of the workload package: it takes a
:class:`~repro.workloads.scenarios.Scenario`, generates its
deterministic request stream, serves the stream against one warm
:class:`~repro.runtime.Session` (built once, amortized across the whole
run), and reduces the per-request outcomes to what a service under load
cares about:

* **delivery rounds** — the paper's currency, seed-deterministic and
  therefore gateable across machines;
* **wall latency** — per-request service seconds (machine-dependent,
  reported but never gated);
* **sojourn latency** — open-loop queueing delay: the stream's arrival
  schedule does not wait for the server, so a request's latency is
  ``completion - arrival`` with ``completion = max(arrival,
  previous_completion) + service`` (a governor reports its own).

:func:`run_workload` feeds the records to the one request loop,
:func:`~repro.runtime.serve_jsonl`, and folds the summaries it yields.
``mode="session"`` feeds the generated dicts; ``mode="jsonl"`` feeds
each through a JSON round trip, as ``repro serve`` decodes them.  A
failed request becomes an error record, never a dead loop.  A chaos
campaign is a hook on the feed (see :class:`_ChaosFeed`).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from ..congest.faults import DeliveryTimeout
from ..graphs.graph import Graph
from ..rng import derive_rng, stream_entropy
from ..runtime.chaos import (
    ChaosAction,
    ChaosPlan,
    ChaosSpec,
    corrupt_store_entry,
    kill_session,
    truncate_journal_tail,
)
from ..runtime.config import RunConfig
from ..runtime.resilience import Governor, ResiliencePolicy
from ..runtime.session import Session, serve_jsonl
from ..runtime.store import HierarchyStore
from .generator import WorkloadSpec, generate_workload
from .scenarios import Scenario, get_scenario

__all__ = [
    "MODES",
    "PERCENTILES",
    "WorkloadReport",
    "fault_rate_curve",
    "offered_load_curve",
    "percentile_summary",
    "run_workload",
]

#: The reported latency/round percentiles.
PERCENTILES = (50, 95, 99)

#: How records reach serve_jsonl: as generated, or JSON round-tripped.
MODES = ("session", "jsonl")

#: Governor counters a governed report carries.
_COUNTERS = (
    "goodput", "deadline_miss", "shed", "circuit_open", "timeouts",
    "retries", "breaker_trips",
)


def percentile_summary(values: Sequence[float]) -> dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` over ``values``.

    Linear-interpolated percentiles (``numpy.percentile`` default), so
    the summary of a deterministic series is itself deterministic.
    Empty input reports zeros rather than NaNs — a run where every
    request errored still writes a well-formed record.
    """
    if len(values) == 0:
        return {f"p{p}": 0.0 for p in PERCENTILES}
    data = np.asarray(values, dtype=np.float64)
    return {
        f"p{p}": float(np.percentile(data, p)) for p in PERCENTILES
    }


@dataclass(frozen=True)
class WorkloadReport:
    """What one sustained run measured.

    Attributes:
        scenario / mode / n / seed / epochs / batch: run identity.
        requests: route requests the generator scheduled.
        served: requests that produced a response.
        errors: requests (or updates) that produced an error record.
        updates / rebuilds: churn updates applied / of those, full
            rebuilds forced by the staleness bound.
        total_rounds: delivery rounds across all served requests
            (amortized per batch, so a batch's cost counts once).
        total_wall_s: server busy seconds (sum of service times).
        makespan_s: completion second of the last served request under
            the open-loop clock.
        offered_rps: the generator's scheduled load.
        achieved_rps: ``served / makespan_s``.
        rounds / wall_s / sojourn_s: p50/p95/p99 summaries of
            per-request delivery rounds, service wall seconds, and
            open-loop sojourn seconds.
    """

    scenario: str
    mode: str
    n: int
    seed: int
    epochs: int
    batch: int
    requests: int
    served: int
    errors: int
    updates: int
    rebuilds: int
    total_rounds: float
    total_wall_s: float
    makespan_s: float
    offered_rps: float
    achieved_rps: float
    rounds: dict[str, float]
    wall_s: dict[str, float]
    sojourn_s: dict[str, float]
    # Governed/chaos extension (PR 10) — all defaulted so ungoverned
    # reports (and their committed baselines) are byte-identical to
    # PR 9: summary() only emits these keys when ``governed`` is set.
    governed: bool = False
    goodput: int = 0
    deadline_miss: int = 0
    shed: int = 0
    circuit_open: int = 0
    timeouts: int = 0
    retries: int = 0
    breaker_trips: int = 0
    kills: int = 0
    recoveries: int = 0
    corruptions: int = 0
    truncations: int = 0
    fault_windows: int = 0
    recover_s: dict[str, float] = field(default_factory=dict)

    def summary(self) -> dict[str, Any]:
        """JSON-safe report payload (the bench record's metrics shape).

        Deterministic fields (gateable): ``served``, ``errors``,
        ``updates``, ``rebuilds``, ``total_rounds``, ``rounds_p*`` —
        plus, on governed runs, the goodput/shed/deadline-miss/chaos
        counters.  Wall-clock fields (including time-to-recover) are
        reported for humans, never gated.
        """
        payload: dict[str, Any] = {
            "scenario": self.scenario,
            "mode": self.mode,
            "n": self.n,
            "seed": self.seed,
            "epochs": self.epochs,
            "batch": self.batch,
            "requests": self.requests,
            "served": self.served,
            "errors": self.errors,
            "updates": self.updates,
            "rebuilds": self.rebuilds,
            "total_rounds": float(self.total_rounds),
            "total_wall_s": round(self.total_wall_s, 6),
            "makespan_s": round(self.makespan_s, 6),
            "offered_rps": round(self.offered_rps, 3),
            "achieved_rps": round(self.achieved_rps, 3),
        }
        for name, pcts in (
            ("rounds", self.rounds),
            ("wall_s", self.wall_s),
            ("sojourn_s", self.sojourn_s),
        ):
            for key in sorted(pcts):
                payload[f"{name}_{key}"] = (
                    float(pcts[key])
                    if name == "rounds"
                    else round(pcts[key], 6)
                )
        if self.governed:
            attempted = max(1, self.requests)
            payload.update(
                goodput=self.goodput,
                deadline_miss=self.deadline_miss,
                shed=self.shed,
                circuit_open=self.circuit_open,
                timeouts=self.timeouts,
                retries=self.retries,
                breaker_trips=self.breaker_trips,
                deadline_miss_rate=round(
                    self.deadline_miss / attempted, 6
                ),
                shed_rate=round(self.shed / attempted, 6),
                goodput_rate=round(self.goodput / attempted, 6),
                kills=self.kills,
                recoveries=self.recoveries,
                corruptions=self.corruptions,
                truncations=self.truncations,
                fault_windows=self.fault_windows,
            )
            for key in sorted(self.recover_s):
                payload[f"recover_s_{key}"] = round(
                    self.recover_s[key], 6
                )
        return payload


def _as_scenario(
    scenario: Union[str, Scenario, WorkloadSpec]
) -> Scenario:
    """Coerce any accepted scenario spelling to a :class:`Scenario`."""
    if isinstance(scenario, str):
        return get_scenario(scenario)
    if isinstance(scenario, Scenario):
        return scenario
    if isinstance(scenario, WorkloadSpec):
        values = {
            spec_field.name: getattr(scenario, spec_field.name)
            for spec_field in fields(WorkloadSpec)
        }
        return Scenario(name="custom", **values)
    raise TypeError(
        "scenario must be a catalogue name, Scenario, or WorkloadSpec, "
        f"got {type(scenario).__name__}"
    )


class _ChaosFeed:
    """Feeds records to :func:`serve_jsonl` under a chaos campaign.

    A null :class:`ChaosSpec` never acts, so plain runs feed the
    records straight through.  :func:`serve_jsonl` pulls record k+1
    only after it has yielded record k's response and journaled its
    served mark, so :meth:`_records` acts between requests: it opens a
    fault window before the request that starts it, closes it right
    after the request that ends it, and ends the feed at a kill.
    :meth:`serve` then kills the session, recovers it, and starts a new
    loop at the feed's own record position.  A killing campaign runs over a
    temporary store + journal.  The governor is carried across
    recoveries: the SLO timeline belongs to the *service*, not to one
    process incarnation.
    """

    def __init__(
        self,
        graph: Graph,
        config: RunConfig,
        spec: ChaosSpec,
        records: Sequence[Mapping[str, Any]],
    ) -> None:
        self.graph = graph
        self.config = config
        self.spec = spec
        self.records = records
        self.plan = ChaosPlan(
            spec, rng=derive_rng(int(config.seed), stream_entropy("chaos"))
        )
        self.position = self.requests = self.window_left = 0
        self.window = ExitStack()
        self.fed_updates: list[Mapping[str, Any]] = []
        # The killed request's action, with the kill spent.
        self.pending: Optional[ChaosAction] = None
        self.governor: Optional[Governor] = None
        self.tally = {
            "kills": 0, "recoveries": 0, "corruptions": 0,
            "truncations": 0, "fault_windows": 0,
        }
        self.recover_s: list[float] = []

    def serve(self, batch: int) -> Iterator[dict[str, Any]]:
        """Every summary of the run, across kills and recoveries."""
        with ExitStack() as stack:
            store: Optional[HierarchyStore] = None
            journal: Optional[str] = None
            if self.spec.kill_rate > 0:
                tmp = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-chaos-")
                )
                store = HierarchyStore(os.path.join(tmp, "store"))
                journal = os.path.join(tmp, "journal.jsonl")
            session = Session.open(
                self.graph, self.config, store=store, journal=journal
            )
            self.governor = session.governor
            try:
                while True:
                    yield from serve_jsonl(
                        session, self._records(session), batch=batch
                    )
                    if self.pending is None:
                        break
                    assert journal is not None  # only a journal run kills
                    self._kill(session, store, journal)
                    began = time.perf_counter()  # reprolint: disable=R003
                    session = Session.recover(
                        self.graph, self.config, journal=journal,
                        store=store,
                    )
                    session.governor = self.governor
                    self._reapply_lost_updates(session)
                    self.recover_s.append(
                        time.perf_counter() - began  # reprolint: disable=R003
                    )
                    self.tally["recoveries"] += 1
            finally:
                self.window.close()
                session.close()

    def _records(self, session: Session) -> Iterator[Mapping[str, Any]]:
        """Records from the feed's position up to a kill or the end."""
        spec = self.spec
        while self.position < len(self.records):
            record = self.records[self.position]
            is_update = "update" in record
            if is_update:
                self.fed_updates.append(record["update"])
            else:
                action = self.pending or self.plan.action(self.requests)
                self.pending = None
                if action.kill:
                    self.window.close()
                    self.window_left = 0
                    self.pending = replace(action, kill=False)
                    return
                self.requests += 1
                if action.open_window and spec.fault_spec is not None:
                    self.window.close()
                    self.window.enter_context(
                        session.fault_window(
                            spec.fault_spec, entropy=action.entropy
                        )
                    )
                    self.window_left = spec.fault_window
                    self.tally["fault_windows"] += 1
            self.position += 1
            yield record
            if not is_update and self.window_left > 0:
                self.window_left -= 1
                if self.window_left == 0:
                    self.window.close()

    def _kill(
        self, session: Session, store: Optional[HierarchyStore], journal: str
    ) -> None:
        """Kill ``session`` and damage what it left behind, as planned."""
        action = self.pending
        assert action is not None
        key = session.cache_key
        kill_session(session)
        self.tally["kills"] += 1
        if action.corrupt and store is not None and key:
            self.tally["corruptions"] += corrupt_store_entry(store, key)
        if action.truncate:
            self.tally["truncations"] += truncate_journal_tail(
                journal, self.spec.truncate_bytes
            )

    def _reapply_lost_updates(self, session: Session) -> None:
        """Re-apply the fed updates a torn journal tail destroyed.

        Recovery replays only the journal lines that survived, and a
        tear can take acknowledged update lines with it; every fed
        update past the surviving prefix is applied again.
        """
        assert session.journal is not None
        for update in self.fed_updates[len(session.journal.updates):]:
            try:
                session.apply_update(**update)
            except (ValueError, TypeError, DeliveryTimeout):
                pass  # the live session failed it the same way


def run_workload(
    graph: Graph,
    scenario: Union[str, Scenario, WorkloadSpec],
    *,
    seed: int = 0,
    mode: str = "session",
    backend: str = "oracle",
    config: Optional[RunConfig] = None,
    policy: Optional[ResiliencePolicy] = None,
    chaos: Optional[ChaosSpec] = None,
) -> WorkloadReport:
    """One sustained multi-epoch run of ``scenario`` over ``graph``.

    Builds the hierarchy once (``Session.open``), then serves the
    scenario's full deterministic stream against the warm structure
    through :func:`~repro.runtime.serve_jsonl`, each request record
    stamped with its ``arrival_s``.  The scenario's ``faults`` /
    ``recovery`` / ``batch`` knobs configure the serving side unless an
    explicit ``config`` overrides them.

    With a ``policy``
    (:class:`~repro.runtime.resilience.ResiliencePolicy`, or
    ``config.resilience``) and/or a ``chaos``
    (:class:`~repro.runtime.chaos.ChaosSpec`) campaign, the run is
    *governed*: requests are served one at a time, chaos kills sever
    and recover the session through its write-ahead journal, and the
    report grows goodput, shed, deadline-miss, and time-to-recover
    columns.
    """
    if mode not in MODES:
        raise ValueError(
            f"mode must be one of {MODES}, got {mode!r}"
        )
    resolved = _as_scenario(scenario)
    if config is None:
        config = RunConfig(
            seed=seed,
            backend=backend,
            faults=resolved.faults,
            recovery=resolved.recovery,
        )
    if policy is not None:
        config = replace(config, resilience=policy)
    chaos = chaos or ChaosSpec()
    governed = config.resilience is not None or not chaos.is_null
    workload = generate_workload(graph, resolved, seed=seed)
    records: list[Mapping[str, Any]] = [
        dict(record, arrival_s=float(second)) if "op" in record else record
        for record, second in zip(workload.records, workload.arrivals)
    ]
    if mode == "jsonl":
        records = [json.loads(json.dumps(record)) for record in records]
    arrivals = {r.get("id"): r["arrival_s"] for r in records if "op" in r}

    rounds_values: list[float] = []
    wall_values: list[float] = []
    sojourn_values: list[float] = []
    served = errors = timeouts = updates = rebuilds = 0
    total_rounds = total_wall = clock = 0.0
    feed = _ChaosFeed(graph, config, chaos, records)
    for summary in feed.serve(batch=0 if governed else resolved.batch):
        if "error" in summary:
            errors += 1
            # A failed update's error record carries no ``id``.
            if summary.get("kind") == "delivery_timeout" and "id" in summary:
                timeouts += 1
            continue
        if "update" in summary:
            updates += 1
            rebuilds += int(bool(summary["update"]["rebuilt"]))
            continue
        served += 1
        rounds = float(summary.get("rounds_amortized", summary["rounds"]))
        service = float(
            summary.get("service_s", summary["wall_s"])
        ) / int(summary.get("batch_size", 1))
        rounds_values.append(rounds)
        wall_values.append(service)
        total_rounds += rounds
        total_wall += service
        if "sojourn_s" in summary:  # the governor's own sojourn clock
            sojourn_values.append(float(summary["sojourn_s"]))
            continue
        arrival = arrivals.get(summary.get("id"), clock)
        clock = max(clock, arrival) + service
        sojourn_values.append(clock - arrival)

    extra: dict[str, Any] = {}
    if governed:
        counters = {"goodput": served, "timeouts": timeouts}
        if feed.governor is not None:
            counters = feed.governor.counters
            clock = max(clock, feed.governor.clock)
        extra = {name: int(counters.get(name, 0)) for name in _COUNTERS}
        extra.update(feed.tally, governed=True)
        if feed.recover_s:
            extra["recover_s"] = percentile_summary(feed.recover_s)
    return WorkloadReport(
        scenario=resolved.name,
        mode=mode,
        n=graph.num_nodes,
        seed=seed,
        epochs=resolved.epochs,
        batch=resolved.batch,
        requests=workload.requests,
        served=served,
        errors=errors,
        updates=updates,
        rebuilds=rebuilds,
        total_rounds=total_rounds,
        total_wall_s=total_wall,
        makespan_s=clock,
        offered_rps=workload.offered_rps,
        achieved_rps=served / max(clock, 1e-9),
        rounds=percentile_summary(rounds_values),
        wall_s=percentile_summary(wall_values),
        sojourn_s=percentile_summary(sojourn_values),
        **extra,
    )


def fault_rate_curve(
    graph: Graph,
    scenario: Union[str, Scenario, WorkloadSpec],
    rates: Sequence[float],
    *,
    seed: int = 0,
) -> list[dict[str, Any]]:
    """Throughput vs. wire fault rate: one run per drop probability.

    Each point reruns the *same* deterministic request stream under a
    ``drop=<rate>`` fault plan (rate 0 = clean wire), so the curve
    isolates the fault knob.  Deterministic columns (served, errors,
    delivery-round percentiles) are gateable; throughput is wall-clock.
    """
    resolved = _as_scenario(scenario)
    points = []
    for rate in rates:
        spec = None if rate == 0 else f"drop={rate:g}"
        report = run_workload(
            graph,
            replace(resolved, faults=spec),
            seed=seed,
        )
        point = {"fault_rate": float(rate)}
        point.update(report.summary())
        points.append(point)
    return points


def offered_load_curve(
    graph: Graph,
    scenario: Union[str, Scenario, WorkloadSpec],
    rates_rps: Sequence[float],
    *,
    seed: int = 0,
) -> list[dict[str, Any]]:
    """Throughput and sojourn latency vs. offered load.

    Each point reruns the scenario with a different open-loop arrival
    rate; as the offered rate passes the server's capacity, achieved
    throughput saturates and sojourn percentiles blow up — the classic
    open-loop hockey stick.
    """
    resolved = _as_scenario(scenario)
    points = []
    for rate in rates_rps:
        report = run_workload(
            graph,
            replace(resolved, rate=float(rate)),
            seed=seed,
        )
        point = {"offered_rate": float(rate)}
        point.update(report.summary())
        points.append(point)
    return points
