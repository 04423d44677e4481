"""The declarative benchmark registry: every suite behind one front door.

Each :class:`Suite` pins a runner (graph family, sizes, seeds, scenario,
score extractors), the :class:`~repro.bench.gate.GatePolicy` its
committed baseline is compared under, and where that baseline lives —
``benchmarks/results/<suite>.json`` for the full tier and
``benchmarks/results/<suite>.quick.json`` for the quick tier CI gates
against.  ``repro bench`` dispatches purely through this table, so
adding a benchmark means adding a registry entry — not a new script,
flag, or tripwire.

Suites:

* the five historical kernel suites (``kernels``, ``faults``,
  ``recovery``, ``engine``, ``serve``) wrapping
  :mod:`repro.analysis.perf`;
* ``tripwire`` — the wall-budget canaries (native G0 + level-1 build,
  a full native ``Session.open``, and the warm oracle route request),
  same workloads in both tiers;
* ``serve-soak`` — the PR 9 workload engine: a sustained multi-epoch
  open-loop run with concurrent churn + wire faults against one warm
  session, in both serving modes, plus the throughput-vs-fault-rate
  curve;
* ``load-curve`` — throughput and sojourn latency vs. offered load;
* ``chaos`` — the PR 10 resilience gate: a seeded kill/corrupt/truncate
  campaign over a journaled session (recovery must keep served rounds
  bit-identical), a governed burst (deadlines + admission), and
  mid-stream fault windows under a retry budget.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..analysis import perf
from ..graphs import hypercube, random_regular
from ..rng import derive_rng
from ..runtime.chaos import ChaosSpec
from ..runtime.resilience import ResiliencePolicy
from ..workloads import fault_rate_curve, get_scenario, run_workload
from ..workloads.engine import WorkloadReport
from .gate import GatePolicy, GateResult, compare_records
from .schema import load_record, make_record

__all__ = [
    "SUITES",
    "Suite",
    "baseline_path",
    "check_suite",
    "default_results_dir",
    "get_suite",
    "run_suite",
    "tripwire_measurement",
]

#: Where committed baselines live, relative to the repo root.
RESULTS_DIR = os.path.join("benchmarks", "results")

#: The native-build tripwire budget: 20% of the pre-vectorization 27 s.
TRIPWIRE_BUDGET_S = 5.4

#: The native-open tripwire budget: about twice the array replay's
#: measured open, well below the ~4 s of the per-node simulator replay.
NATIVE_OPEN_BUDGET_S = 2.0

#: The warm-route tripwire budget: about twice the array router's
#: measured p50 request (2.1–3.3 ms on a shared 2-core host).
WARM_ROUTE_BUDGET_S = 0.006

#: Deterministic workload metrics the gate compares exactly (wall-clock
#: metrics are reported but never gated).
_WORKLOAD_EXACT_METRICS = (
    "requests",
    "served",
    "errors",
    "updates",
    "rebuilds",
    "total_rounds",
    "rounds_p50",
    "rounds_p95",
    "rounds_p99",
    "fault_rate",
    "offered_rate",
    "scenario",
    "mode",
)


@dataclass(frozen=True)
class Suite:
    """One registry entry.

    Attributes:
        name: registry key (the ``repro bench`` argument).
        title: one-line human description.
        runner: ``(seed, quick) -> serialized rows`` (dicts in the
            unified row shape).
        gate: the comparison policy for this suite's baselines.
    """

    name: str
    title: str
    runner: Callable[[int, bool], list[dict]]
    gate: GatePolicy = GatePolicy()


def _perf_runner(
    suite_fn: Callable[..., list],
) -> Callable[[int, bool], list[dict]]:
    def run(seed: int, quick: bool) -> list[dict]:
        return [asdict(row) for row in suite_fn(seed=seed, quick=quick)]

    return run


def tripwire_measurement(seed: int = 0, n: int = 256) -> dict:
    """One native-build row at the tripwire's pinned size.

    The same G0 + level-1 workload :func:`perf.run_bench_suite` times,
    but always at ``n`` regardless of tier — the budget canary must run
    the size the budget was pinned for.
    """
    from ..congest.native import build_native_g0, build_native_level1
    from ..graphs import mixing_time

    graph = random_regular(n, 6, derive_rng(seed, n))
    tau = mixing_time(graph)

    def build():
        g0 = build_native_g0(
            graph,
            walks_per_vnode=12,
            degree=6,
            length=2 * tau,
            seed=seed + n,
        )
        level1 = build_native_level1(
            g0, beta=3, degree=4, length=8, seed=seed + n + 1
        )
        return g0, level1

    wall, (g0, level1) = perf._timed(build, repeats=1)
    return {
        "kernel": "native_build",
        "n": n,
        "seed": seed,
        "wall_s": wall,
        "rounds": g0.build_rounds + level1.build_rounds,
    }


def _native_open_measurement(seed: int = 0, n: int = 128) -> dict:
    """One full native ``Session.open`` (cache off) at the pinned size.

    ``rounds`` is the ledger total; ``metrics.executed_rounds`` the
    rounds the walk replay executed on the wire.  Both are exact, and
    the wall budget trips if the replay falls back to the per-node
    simulator.
    """
    from ..runtime import RunConfig, Session

    graph = random_regular(n, 6, derive_rng(seed, n))
    config = RunConfig(seed=seed, backend="native", cache="off")
    wall, session = perf._timed(lambda: Session.open(graph, config))
    with session:
        return {
            "kernel": "native_open",
            "n": n,
            "seed": seed,
            "wall_s": wall,
            "rounds": int(session.context.ledger.total()),
            "metrics": {
                "executed_rounds": int(session.backend.executed_rounds)
            },
        }


def _warm_route_measurement(seed: int = 0, dim: int = 9) -> dict:
    """The warm request: a fixed 64-request route script served from
    one oracle session (cache off) on ``hypercube(dim)``.

    One request in four is a full permutation, the rest are 1..32-packet
    batches.  ``rounds`` is the exact sum of the script's route rounds;
    ``wall_s`` is the p50 request wall time, which trips the budget if
    per-request work scales with the graph instead of the request.
    """
    from ..runtime import RunConfig, Session

    graph = hypercube(dim)
    n = graph.num_nodes
    rng = derive_rng(seed, n)
    script = []
    for index in range(64):
        if index % 4 == 0:
            sources, destinations = np.arange(n), rng.permutation(n)
        else:
            size = int(rng.integers(1, 33))
            sources = rng.integers(0, n, size=size)
            destinations = rng.integers(0, n, size=size)
        script.append((sources.tolist(), destinations.tolist()))
    config = RunConfig(seed=seed, cache="off")
    with Session.open(graph, config) as session:
        timed = [
            perf._timed(
                lambda: session.request(
                    "route", sources=sources, destinations=destinations
                )
            )
            for sources, destinations in script
        ]
    return {
        "kernel": "warm_route",
        "n": n,
        "seed": seed,
        "wall_s": round(float(np.median([wall for wall, _ in timed])), 6),
        "rounds": float(sum(response.rounds for _, response in timed)),
    }


def _tripwire_runner(seed: int, quick: bool) -> list[dict]:
    del quick  # the canaries run the pinned sizes in both tiers
    return [
        tripwire_measurement(seed=seed),
        _native_open_measurement(seed=seed),
        _warm_route_measurement(seed=seed),
    ]


def _workload_row(kernel: str, report: WorkloadReport) -> dict:
    summary = report.summary()
    metrics = {
        key: value
        for key, value in summary.items()
        if key not in ("n", "seed")
    }
    return {
        "kernel": kernel,
        "n": report.n,
        "seed": report.seed,
        "wall_s": round(report.total_wall_s, 6),
        "rounds": float(report.total_rounds),
        "metrics": metrics,
    }


def _soak_runner(seed: int, quick: bool) -> list[dict]:
    """The workload-engine acceptance run (see ``docs/workloads.md``).

    One sustained multi-epoch soak (Zipf keys, diurnal load, periodic
    churn, ``drop=0.01`` wire faults) against a warm session through
    both serving surfaces, then the throughput-vs-fault-rate curve over
    the same deterministic request stream.
    """
    n = 32 if quick else 64
    graph = random_regular(n, 6, derive_rng(seed, n))
    scenario = get_scenario("soak").scaled(quick=quick)
    rows = []
    for mode in ("session", "jsonl"):
        report = run_workload(graph, scenario, seed=seed, mode=mode)
        rows.append(_workload_row(f"workload_soak_{mode}", report))
    rates = (0.0, 0.02) if quick else (0.0, 0.01, 0.05)
    for point in fault_rate_curve(graph, scenario, rates, seed=seed):
        rate = point.pop("fault_rate")
        metrics = {
            key: value
            for key, value in point.items()
            if key not in ("n", "seed")
        }
        metrics["fault_rate"] = rate
        rows.append(
            {
                "kernel": f"workload_soak_drop{rate:g}",
                "n": n,
                "seed": seed,
                "wall_s": round(float(point["total_wall_s"]), 6),
                "rounds": float(point["total_rounds"]),
                "metrics": metrics,
            }
        )
    return rows


def _load_curve_runner(seed: int, quick: bool) -> list[dict]:
    """Throughput / sojourn vs. offered load on the Zipf scenario.

    The key stream is independent of the arrival stream, so every point
    routes the *same* demands — the curve isolates the load knob, and
    the rounds columns are identical across points by construction.
    """
    from ..workloads import offered_load_curve

    n = 32 if quick else 64
    graph = random_regular(n, 6, derive_rng(seed, n))
    scenario = get_scenario("zipf").scaled(quick=quick)
    rates = (100.0, 1600.0) if quick else (50.0, 200.0, 800.0, 3200.0)
    rows = []
    for point in offered_load_curve(graph, scenario, rates, seed=seed):
        rate = point.pop("offered_rate")
        metrics = {
            key: value
            for key, value in point.items()
            if key not in ("n", "seed")
        }
        metrics["offered_rate"] = rate
        rows.append(
            {
                "kernel": f"workload_load_r{rate:g}",
                "n": n,
                "seed": seed,
                "wall_s": round(float(point["total_wall_s"]), 6),
                "rounds": float(point["total_rounds"]),
                "metrics": metrics,
            }
        )
    return rows


_WORKLOAD_GATE = GatePolicy(
    exact=("rounds",), exact_metrics=_WORKLOAD_EXACT_METRICS
)

#: The chaos suite additionally gates the governed/chaos counters —
#: all seed-deterministic under the virtual clock.  Time-to-recover
#: percentiles (``recover_s_p*``) are wall-clock: reported, never
#: gated.
_CHAOS_EXACT_METRICS = _WORKLOAD_EXACT_METRICS + (
    "goodput",
    "deadline_miss",
    "shed",
    "circuit_open",
    "timeouts",
    "retries",
    "breaker_trips",
    "kills",
    "recoveries",
    "corruptions",
    "truncations",
    "fault_windows",
)

_CHAOS_GATE = GatePolicy(
    exact=("rounds",), exact_metrics=_CHAOS_EXACT_METRICS
)


def _chaos_runner(seed: int, quick: bool) -> list[dict]:
    """The resilience acceptance run (see ``docs/robustness.md``).

    Three rows, all seed-deterministic:

    * ``chaos_lifecycle`` — churn traffic over a journaled session
      while a seeded campaign kills the process, corrupts the store
      entry, and truncates the journal tail; recovery (plus re-applying
      the fed updates the tear destroyed) must keep every served round
      bit-identical (gated via ``rounds``/``total_rounds`` equality
      with the committed baseline, which equals a clean run's: 0
      errors, every update applied).
    * ``chaos_burst_governed`` — the burst scenario under deadlines +
      admission control; shed/deadline-miss/goodput counts are exact.
    * ``chaos_fault_windows`` — mid-stream drop windows against a
      retry budget; retries and timeouts are exact.
    """
    n = 32 if quick else 64
    graph = random_regular(n, 6, derive_rng(seed, n))
    rows = []

    lifecycle_policy = ResiliencePolicy(
        retry_budget=2, max_inflight=16, round_time_s=1e-6
    )
    lifecycle_chaos = ChaosSpec(
        kill_rate=0.15,
        max_kills=2,
        corrupt_store=1.0,
        truncate_journal=1.0,
    )
    report = run_workload(
        graph,
        get_scenario("churn").scaled(quick=quick),
        seed=seed,
        policy=lifecycle_policy,
        chaos=lifecycle_chaos,
    )
    rows.append(_workload_row("chaos_lifecycle", report))

    burst_policy = ResiliencePolicy(
        deadline_rounds=2e6,
        max_inflight=4,
        round_time_s=1e-6,
    )
    report = run_workload(
        graph,
        get_scenario("burst").scaled(quick=quick),
        seed=seed,
        policy=burst_policy,
    )
    rows.append(_workload_row("chaos_burst_governed", report))

    window_policy = ResiliencePolicy(retry_budget=2, round_time_s=1e-6)
    window_chaos = ChaosSpec(
        fault_rate=0.2, fault_spec="drop=0.3", fault_window=3
    )
    report = run_workload(
        graph,
        get_scenario("steady").scaled(quick=quick),
        seed=seed,
        policy=window_policy,
        chaos=window_chaos,
    )
    rows.append(_workload_row("chaos_fault_windows", report))
    return rows

SUITES: dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            name="kernels",
            title="pinned kernel suite (walks, scheduler, simulator, "
            "native build, end-to-end)",
            runner=_perf_runner(perf.run_bench_suite),
        ),
        Suite(
            name="faults",
            title="fault-injection suite (clean vs drop=0.01 reliable "
            "forwarding)",
            runner=_perf_runner(perf.run_fault_suite),
        ),
        Suite(
            name="recovery",
            title="self-healing suite (detection, parking, re-homing, "
            "portal failover)",
            runner=_perf_runner(perf.run_recovery_suite),
        ),
        Suite(
            name="engine",
            title="vectorized-engine suite (scalar-vs-array walks, "
            "large native builds)",
            runner=_perf_runner(perf.run_pr7_suite),
        ),
        Suite(
            name="serve",
            title="session-layer suite (cold vs warm serving, build, "
            "cache-hit re-open)",
            runner=_perf_runner(perf.run_serve_suite),
        ),
        Suite(
            name="tripwire",
            title="wall-budget canaries (native build n=256, "
            f"{TRIPWIRE_BUDGET_S}s; native open n=128, "
            f"{NATIVE_OPEN_BUDGET_S}s; warm route p50 n=512, "
            f"{WARM_ROUTE_BUDGET_S}s)",
            runner=_tripwire_runner,
            gate=GatePolicy(
                exact=("rounds",),
                exact_metrics=("executed_rounds",),
                wall_budget_s={
                    "native_build": TRIPWIRE_BUDGET_S,
                    "native_open": NATIVE_OPEN_BUDGET_S,
                    "warm_route": WARM_ROUTE_BUDGET_S,
                },
            ),
        ),
        Suite(
            name="serve-soak",
            title="sustained open-loop soak with churn+faults over a "
            "warm session, both serving modes, fault-rate curve",
            runner=_soak_runner,
            gate=_WORKLOAD_GATE,
        ),
        Suite(
            name="load-curve",
            title="throughput and sojourn latency vs offered load "
            "(open-loop hockey stick)",
            runner=_load_curve_runner,
            gate=_WORKLOAD_GATE,
        ),
        Suite(
            name="chaos",
            title="resilience gate: kill/corrupt/truncate recovery, "
            "governed burst, mid-stream fault windows",
            runner=_chaos_runner,
            gate=_CHAOS_GATE,
        ),
    )
}


def get_suite(name: str) -> Suite:
    """The registry entry for ``name``, or ``ValueError`` listing all."""
    try:
        return SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown bench suite {name!r}; choose from "
            f"{tuple(sorted(SUITES))}"
        ) from None


def default_results_dir(root: Optional[str] = None) -> str:
    """``<root>/benchmarks/results`` (root defaults to the cwd)."""
    return os.path.join(root or os.getcwd(), RESULTS_DIR)


def baseline_path(
    name: str, *, quick: bool, results_dir: Optional[str] = None
) -> str:
    """Where the committed baseline record for ``name`` lives."""
    get_suite(name)
    directory = (
        results_dir
        if results_dir is not None
        else default_results_dir()
    )
    stem = f"{name}.quick.json" if quick else f"{name}.json"
    return os.path.join(directory, stem)


def run_suite(
    name: str, *, seed: int = 0, quick: bool = False
) -> dict[str, Any]:
    """Run one suite; return its unified v1 record."""
    suite = get_suite(name)
    rows = suite.runner(seed, quick)
    return make_record(
        name,
        rows,
        seed=seed,
        quick=quick,
        meta={"title": suite.title},
    )


def check_suite(
    name: str,
    *,
    seed: int = 0,
    results_dir: Optional[str] = None,
) -> GateResult:
    """Run ``name``'s quick tier and gate it against its baseline.

    A missing baseline is itself a failure (the gate cannot vouch for a
    suite nothing was committed for) — refresh with
    ``repro bench <suite> --quick``.
    """
    suite = get_suite(name)
    path = baseline_path(name, quick=True, results_dir=results_dir)
    if not os.path.exists(path):
        result = GateResult(suite=name)
        result.failures.append(
            f"no committed baseline at {path} — run "
            f"`repro bench {name} --quick` and commit the record"
        )
        return result
    baseline = load_record(path)
    current = run_suite(name, seed=seed, quick=True)
    return compare_records(baseline, current, suite.gate)
