"""Every bench suite runner, each returning ``repro-bench/v1`` dict rows.

The registry (:mod:`repro.bench.registry`) maps suite names onto these
``(seed, quick) -> rows`` functions; ``run_suite(name)`` is the one way
to run them.  Every runner derives all randomness from ``seed``, so
``rounds`` (and the metrics a suite's gate pins) are reproducible
bit-for-bit; only wall times are machine-dependent.

Where a suite times a fast engine against its oracle (the scheduler
pair, the per-node simulator against the walk engine's charge, warm
vs. cold serving, the cache-hit re-open), it checks the two agree
*before* any row is reported — a record can never show a speedup bought
by changed semantics.
"""

from __future__ import annotations

import inspect
import math
import tempfile
import time
from typing import Callable, Optional

import numpy as np

from ..analysis.report import SECTIONS, kernel_prefix
from ..analysis.workloads import circulation_paths
from ..baselines.routing_baselines import schedule_paths
from ..baselines.routing_baselines_ref import schedule_paths_ref
from ..congest.detector import run_heartbeat_detector
from ..congest.faults import FaultPlan, FaultSpec
from ..congest.forwarding import _forward_demands_scalar
from ..congest.native import build_native_g0, build_native_level1
from ..congest.reliable import reliable_forward_demands
from ..core import MstRunner, Router, build_hierarchy
from ..graphs import (
    hypercube,
    mixing_time,
    random_regular,
    with_random_weights,
)
from ..params import Params
from ..rng import derive_rng
from ..runtime import Request, RunConfig, Session
from ..runtime import run as run_op
from ..runtime.chaos import ChaosSpec
from ..runtime.resilience import ResiliencePolicy
from ..walks import degree_proportional_starts, run_lazy_walks
from ..workloads import (
    fault_rate_curve,
    get_scenario,
    offered_load_curve,
    run_workload,
)
from ..workloads.engine import WorkloadReport

__all__ = [
    "chaos",
    "engine",
    "faults",
    "kernels",
    "load_curve",
    "paper",
    "recovery",
    "serve",
    "soak",
    "tripwire",
]


def _timed(fn: Callable[[], object], repeats: int = 1):
    """Best-of-``repeats`` wall time of ``fn`` plus its (last) result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        result = fn()
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        best = min(best, elapsed)
    return round(best, 6), result


def _row(
    kernel: str,
    n: int,
    seed: int,
    wall_s: float,
    rounds,
    metrics: Optional[dict] = None,
) -> dict:
    """One v1 row; plain ints/floats so it serializes as JSON."""
    row = {
        "kernel": kernel,
        "n": int(n),
        "seed": int(seed),
        "wall_s": float(wall_s),
        "rounds": rounds,
    }
    if metrics is not None:
        row["metrics"] = metrics
    return row


def _regular(seed: int, n: int, degree: int = 6):
    return random_regular(n, degree, derive_rng(seed, n))


def _native_embedded_build_row(seed: int, n: int) -> dict:
    """The embedded-path native G0 + level-1 build (experiment E15's
    pipeline) on ``random_regular(n, 6)``.

    ``rounds`` is the executed construction: the G0 walks' forward and
    reverse passes plus the level-1 chain schedule.  The one workload
    behind every ``native_embedded_build`` row: the kernels and engine
    suites run it at their sizes, the tripwire at its budget's.
    """
    graph = _regular(seed, n)
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
        return g0.build_rounds + level1.build_rounds

    wall, rounds = _timed(build)
    return _row("native_embedded_build", n, seed, wall, int(rounds))


def _fault_plan(text: str, seed: int, n: int, label: int):
    spec = FaultSpec.parse(text)
    if spec.is_null:
        return None
    return FaultPlan(spec, rng=derive_rng(seed, n, label))


def _neighbor_demands(graph):
    """Single-hop demands: every node sends to its first neighbour."""
    return np.arange(graph.num_nodes), graph.indices[graph.indptr[:-1]]


# -- kernels -------------------------------------------------------------


def _walk_engine(seed: int, quick: bool) -> list[dict]:
    rows = []
    for n, steps in [(256, 20)] if quick else [(1024, 100), (4096, 100)]:
        graph = _regular(seed, n, 8)
        starts = degree_proportional_starts(graph, 2)
        wall, __ = _timed(
            lambda: run_lazy_walks(
                graph, starts, steps, derive_rng(seed, n, 1)
            ),
            repeats=1 if quick else 3,
        )
        rows.append(_row("walk_engine", n, seed, wall, steps))
    return rows


def _scheduler(seed: int, quick: bool) -> list[dict]:
    # (n, degree, packets, hops): 4096 packets over random_regular(1024, 8)
    # is the pinned scheduler acceptance workload.
    configs = (
        [(256, 8, 512, 16)]
        if quick
        else [(1024, 8, 4096, 192), (512, 8, 2048, 64)]
    )
    rows = []
    for n, degree, packets, hops in configs:
        paths = circulation_paths(_regular(seed, n, degree), packets, hops)
        wall_vec, res_vec = _timed(
            lambda: schedule_paths(paths, rng=derive_rng(seed, n, 2)),
            repeats=1 if quick else 5,
        )
        wall_ref, res_ref = _timed(
            lambda: schedule_paths_ref(paths, rng=derive_rng(seed, n, 2)),
            repeats=1 if quick else 2,
        )
        if res_vec != res_ref:
            raise AssertionError(
                f"scheduler implementations diverged on the bench workload: "
                f"{res_vec} != {res_ref}"
            )
        rounds = int(res_vec.rounds)
        rows.append(_row("scheduler_vectorized", n, seed, wall_vec, rounds))
        rows.append(_row("scheduler_reference", n, seed, wall_ref, rounds))
    return rows


def _simulator(seed: int, quick: bool) -> list[dict]:
    """The per-node simulator replaying the moving steps of one walk
    batch, every outbox checked every round."""
    rows = []
    for n, length in [(48, 8)] if quick else [(64, 16), (128, 16)]:
        graph = _regular(seed, n)
        steps = []

        def keep_moves(before, after):
            moved = before != after
            if moved.any():
                steps.append((before[moved], after[moved]))

        run = run_lazy_walks(
            graph,
            np.repeat(np.arange(n), 2),
            length,
            derive_rng(seed, n, 6),
            on_step=keep_moves,
        )
        wall, executed = _timed(
            lambda: sum(
                _forward_demands_scalar(graph, *step)[0] for step in steps
            ),
            repeats=1 if quick else 3,
        )
        if executed != sum(run.edge_congestion):
            raise AssertionError(
                f"the simulator executed {executed} rounds but the "
                f"walk engine charged {sum(run.edge_congestion)}"
            )
        rows.append(_row("simulator", n, seed, wall, int(executed)))
    return rows


def _end_to_end(seed: int, quick: bool) -> list[dict]:
    params = Params.default()
    rows = []
    for n in (48,) if quick else (64, 128):
        graph = _regular(seed, n)

        def route(seed=seed, n=n):
            rng = derive_rng(seed, n, 3)
            hierarchy = build_hierarchy(graph, params, rng)
            router = Router(hierarchy, params=params, rng=rng)
            return router.route(np.arange(n), rng.permutation(n))

        wall, result = _timed(route)
        rows.append(
            _row("end_to_end_route", n, seed, wall, int(result.cost_rounds))
        )

        def mst(seed=seed, n=n):
            rng = derive_rng(seed, n, 4)
            weighted = with_random_weights(graph, rng)
            hierarchy = build_hierarchy(weighted, params, rng)
            runner = MstRunner(
                weighted, hierarchy=hierarchy, params=params, rng=rng
            )
            return runner.run()

        wall, result = _timed(mst)
        rows.append(_row("end_to_end_mst", n, seed, wall, int(result.rounds)))
    return rows


def kernels(seed: int, quick: bool) -> list[dict]:
    """Walk engine, scheduler pair, simulator, native build, end to end."""
    return (
        _walk_engine(seed, quick)
        + _scheduler(seed, quick)
        + _simulator(seed, quick)
        + [
            _native_embedded_build_row(seed, n)
            for n in ((32,) if quick else (64, 256))
        ]
        + _end_to_end(seed, quick)
    )


# -- faults and recovery -------------------------------------------------


def faults(seed: int, quick: bool) -> list[dict]:
    """The reliable forwarder with drop off and at the pinned 1%.

    The delta between the two rows *is* the recorded retry overhead.
    """
    rows = []
    for n in (32,) if quick else (64, 128):
        graph = _regular(seed, n)
        origins, targets = _neighbor_demands(graph)
        for kernel, spec in (
            ("reliable_forward_clean", "drop=0"),
            ("reliable_forward_drop1pct", "drop=0.01"),
        ):
            wall, report = _timed(
                lambda spec=spec: reliable_forward_demands(
                    graph,
                    origins,
                    targets,
                    faults=_fault_plan(spec, seed, n, 7),
                ),
                repeats=1 if quick else 3,
            )
            rows.append(_row(kernel, n, seed, wall, int(report.rounds)))
    return rows


def recovery(seed: int, quick: bool) -> list[dict]:
    """One row per self-heal mechanism, at each pinned size.

    ``heartbeat_detect`` (failure detection under a temporary crash
    window), ``selfheal_forward_park`` (forwarding waits the window out),
    ``selfheal_forward_rehome`` (demands to permanently dead targets are
    re-homed) and ``selfheal_route_failover`` (an end-to-end route over
    dead portal hosts).
    """
    crashes = 3 if quick else 6
    temp = f"crash={crashes}@rounds:2-40"
    perm = f"crash={crashes}@rounds:1-1000000"
    repeats = 1 if quick else 3
    rows = []
    for n in (32,) if quick else (64, 128):
        graph = _regular(seed, n)
        origins, targets = _neighbor_demands(graph)

        wall, report = _timed(
            lambda: run_heartbeat_detector(
                graph, duration=16, faults=_fault_plan(temp, seed, n, 10)
            ),
            repeats=repeats,
        )
        rows.append(
            _row("heartbeat_detect", n, seed, wall, int(report.stats.rounds))
        )

        for kernel, spec in (
            ("selfheal_forward_park", temp),
            ("selfheal_forward_rehome", perm),
        ):
            wall, delivery = _timed(
                lambda spec=spec: reliable_forward_demands(
                    graph,
                    origins,
                    targets,
                    faults=_fault_plan(spec, seed, n, 11),
                    recovery="self-heal",
                ),
                repeats=repeats,
            )
            rows.append(_row(kernel, n, seed, wall, int(delivery.rounds)))

    n = 32 if quick else 64
    graph = _regular(seed, n)
    wall, outcome = _timed(
        lambda: run_op(
            "route",
            graph,
            config=RunConfig(
                seed=seed + n, faults=perm, recovery="self-heal"
            ),
        )
    )
    rows.append(
        _row(
            "selfheal_route_failover",
            n,
            seed,
            wall,
            int(outcome.result.cost_rounds),
        )
    )
    return rows


# -- engine --------------------------------------------------------------


def engine(seed: int, quick: bool) -> list[dict]:
    """Embedded-path native builds at large n; the full tier adds one
    full native ``Session.open`` at n=4096."""
    rows = [
        _native_embedded_build_row(seed, n)
        for n in ((128,) if quick else (512, 1024))
    ]
    if not quick:
        rows.append(_native_open_row(seed, 4096))
    return rows


# -- serve ---------------------------------------------------------------


def serve(seed: int, quick: bool) -> list[dict]:
    """Cold single shot vs. session build, warm request, cache-hit open.

    ``serve_warm_request`` is the per-request wall of the same route
    served repeatedly from one warm session; it is reported only after
    its result matches the cold run's.
    """
    n, requests = (64, 8) if quick else (512, 32)
    graph = _regular(seed, n)
    sources = np.arange(n)
    destinations = derive_rng(seed, n, 5).permutation(n)

    wall_cold, outcome = _timed(
        lambda: run_op(
            "route",
            graph,
            config=RunConfig(seed=seed + n),
            sources=sources,
            destinations=destinations,
        )
    )
    rows = [
        _row(
            "serve_cold_single_shot",
            n,
            seed,
            wall_cold,
            int(outcome.result.cost_rounds),
        )
    ]
    with tempfile.TemporaryDirectory() as cache_root:
        config = RunConfig(seed=seed + n, cache=cache_root)
        wall_build, session = _timed(lambda: Session.open(graph, config))
        with session:
            request = Request(
                op="route",
                args={"sources": sources, "destinations": destinations},
            )

            def serve_all():
                response = None
                for _ in range(requests):
                    response = session.submit(request)
                return response

            wall_serve, response = _timed(serve_all)
            if (
                float(response.result.cost_rounds)
                != float(outcome.result.cost_rounds)
                or response.result.delivered != outcome.result.delivered
            ):
                raise AssertionError(
                    "warm-served route diverged from the cold run on the "
                    "bench workload"
                )
            rows.append(
                _row(
                    "serve_session_build",
                    n,
                    seed,
                    wall_build,
                    int(session.build_ledger.total()),
                )
            )
            rows.append(
                _row(
                    "serve_warm_request",
                    n,
                    seed,
                    round(wall_serve / requests, 6),
                    int(response.result.cost_rounds),
                )
            )

        wall_hit, reopened = _timed(lambda: Session.open(graph, config))
        with reopened:
            if not reopened.from_cache:
                raise AssertionError(
                    "session re-open missed the content-addressed cache"
                )
            rows.append(
                _row(
                    "serve_cache_hit_open",
                    n,
                    seed,
                    wall_hit,
                    int(reopened.build_ledger.total()),
                )
            )
    return rows


# -- tripwire ------------------------------------------------------------


def _native_open_row(seed: int, n: int = 128) -> dict:
    """One full native ``Session.open`` (cache off).

    ``rounds`` is the ledger total; ``metrics.executed_rounds`` the
    rounds the walk replay executed on the wire.  The wall budget trips
    if the replay falls back to the per-node simulator.
    """
    graph = _regular(seed, n)
    config = RunConfig(seed=seed, backend="native", cache="off")
    wall, session = _timed(lambda: Session.open(graph, config))
    with session:
        return _row(
            "native_open",
            n,
            seed,
            wall,
            int(session.context.ledger.total()),
            {"executed_rounds": int(session.backend.executed_rounds)},
        )


def _warm_route_row(seed: int, dim: int = 9) -> dict:
    """A fixed 64-request route script on one warm oracle session.

    One request in four is a full permutation, the rest 1..32-packet
    batches.  ``rounds`` is the exact sum of the script's route rounds;
    ``wall_s`` is the p50 request wall time, which trips the budget if
    per-request work scales with the graph instead of the request.
    """
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
    with Session.open(graph, RunConfig(seed=seed, cache="off")) as session:
        timed = [
            _timed(
                lambda: session.request(
                    "route", sources=sources, destinations=destinations
                )
            )
            for sources, destinations in script
        ]
    return _row(
        "warm_route",
        n,
        seed,
        round(float(np.median([wall for wall, _ in timed])), 6),
        float(sum(response.rounds for _, response in timed)),
    )


def tripwire(seed: int, quick: bool) -> list[dict]:
    """The wall-budget canaries, at their pinned sizes in both tiers."""
    del quick
    return [
        _native_embedded_build_row(seed, 256),
        _native_open_row(seed),
        _warm_route_row(seed),
    ]


# -- workload suites -----------------------------------------------------


def _workload_row(kernel: str, report: WorkloadReport) -> dict:
    summary = report.summary()
    return _row(
        kernel,
        report.n,
        report.seed,
        round(report.total_wall_s, 6),
        float(report.total_rounds),
        {k: v for k, v in summary.items() if k not in ("n", "seed")},
    )


def _curve_row(kernel: str, n: int, seed: int, point: dict, key: str) -> dict:
    """A curve point as a row, its x coordinate ``key`` kept in metrics."""
    x = point.pop(key)
    metrics = {k: v for k, v in point.items() if k not in ("n", "seed")}
    metrics[key] = x
    return _row(
        kernel.format(x),
        n,
        seed,
        round(float(point["total_wall_s"]), 6),
        float(point["total_rounds"]),
        metrics,
    )


def soak(seed: int, quick: bool) -> list[dict]:
    """A sustained multi-epoch soak, then the fault-rate curve.

    Zipf keys, diurnal load, periodic churn and ``drop=0.01`` wire
    faults against one warm session through both serving surfaces,
    then throughput vs. fault rate over the same request stream.
    """
    n = 32 if quick else 64
    graph = _regular(seed, n)
    scenario = get_scenario("soak").scaled(quick=quick)
    rows = [
        _workload_row(
            f"workload_soak_{mode}",
            run_workload(graph, scenario, seed=seed, mode=mode),
        )
        for mode in ("session", "jsonl")
    ]
    rates = (0.0, 0.02) if quick else (0.0, 0.01, 0.05)
    for point in fault_rate_curve(graph, scenario, rates, seed=seed):
        rows.append(
            _curve_row("workload_soak_drop{:g}", n, seed, point, "fault_rate")
        )
    return rows


def load_curve(seed: int, quick: bool) -> list[dict]:
    """Throughput and sojourn vs. offered load on the Zipf scenario.

    The key stream is independent of the arrival stream, so every point
    routes the same demands and the rounds columns agree across points.
    """
    n = 32 if quick else 64
    graph = _regular(seed, n)
    scenario = get_scenario("zipf").scaled(quick=quick)
    rates = (100.0, 1600.0) if quick else (50.0, 200.0, 800.0, 3200.0)
    return [
        _curve_row("workload_load_r{:g}", n, seed, point, "offered_rate")
        for point in offered_load_curve(graph, scenario, rates, seed=seed)
    ]


def chaos(seed: int, quick: bool) -> list[dict]:
    """The resilience acceptance run (see ``docs/robustness.md``).

    * ``chaos_lifecycle`` — churn over a journaled session while a
      seeded campaign kills the process, corrupts the store entry and
      truncates the journal tail; recovery must keep every served round
      bit-identical to a clean run's.
    * ``chaos_burst_governed`` — the burst scenario under deadlines and
      admission control.
    * ``chaos_fault_windows`` — mid-stream drop windows against a retry
      budget.
    """
    n = 32 if quick else 64
    graph = _regular(seed, n)
    runs = (
        (
            "chaos_lifecycle",
            "churn",
            ResiliencePolicy(
                retry_budget=2, max_inflight=16, round_time_s=1e-6
            ),
            ChaosSpec(
                kill_rate=0.15,
                max_kills=2,
                corrupt_store=1.0,
                truncate_journal=1.0,
            ),
        ),
        (
            "chaos_burst_governed",
            "burst",
            ResiliencePolicy(
                deadline_rounds=2e6, max_inflight=4, round_time_s=1e-6
            ),
            None,
        ),
        (
            "chaos_fault_windows",
            "steady",
            ResiliencePolicy(retry_budget=2, round_time_s=1e-6),
            ChaosSpec(fault_rate=0.2, fault_spec="drop=0.3", fault_window=3),
        ),
    )
    return [
        _workload_row(
            kernel,
            run_workload(
                graph,
                get_scenario(scenario).scaled(quick=quick),
                seed=seed,
                policy=policy,
                chaos=spec,
            ),
        )
        for kernel, scenario, policy, spec in runs
    ]


# -- paper ---------------------------------------------------------------


def _cell(value):
    """A table cell as a v1 metric: booleans and infinities become the
    strings the table prints for them (``yes``/``no``, ``inf``)."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def paper(seed: int, quick: bool) -> list[dict]:
    """Every EXPERIMENTS.md table, one row per table row.

    Each experiment in :data:`repro.analysis.report.SECTIONS` runs at
    its tier's arguments and at its own fixed seed plus ``seed``, so
    seed 0 reproduces the committed tables.  A row is keyed
    ``<id>/<first column>=<value>`` at the graph size it measured (its
    ``n`` cell, else the experiment's ``n`` or largest of ``sizes``);
    its metrics are the table's cells, and ``wall_s`` is the whole
    experiment call's time.  ``rounds`` is 0: a table's round counts
    are named cells, gated as metrics.
    """
    rows = []
    for section in SECTIONS:
        experiment = section["experiment"]
        call = inspect.signature(experiment).bind(
            **section["quick" if quick else "full"]
        )
        call.apply_defaults()
        call.arguments["seed"] += seed
        wall, table = _timed(lambda: experiment(*call.args, **call.kwargs))
        size = call.arguments.get("n") or max(
            call.arguments.get("sizes", (0,))
        )
        columns = section["columns"]
        for cells in table:
            if tuple(cells) != columns:
                raise AssertionError(
                    f"{section['id']} returned the columns {tuple(cells)}, "
                    f"but its section lists {columns}"
                )
            rows.append(
                _row(
                    kernel_prefix(section) + str(cells[columns[0]]),
                    cells.get("n", size),
                    call.arguments["seed"],
                    wall,
                    0,
                    {key: _cell(value) for key, value in cells.items()},
                )
            )
    return rows
