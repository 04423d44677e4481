"""Perf-baseline harness: a pinned kernel suite with a committed record.

``python -m repro bench kernels`` runs this suite (via the registry in
:mod:`repro.bench.registry`) and writes ``benchmarks/results/kernels.json``
— one row per ``(kernel, problem size)`` with the wall time and the
round count of the run.  Later performance PRs re-run the suite and
diff against the committed record, so speedups are *recorded* rather
than asserted.  See ``docs/performance.md`` for the kernel inventory
and the refresh procedure.

Two deliberate design points:

* every kernel derives all randomness from the single ``seed`` argument
  (the committed baseline is reproducible bit-for-bit in its ``rounds``
  columns; only ``wall_s`` is machine-dependent);
* the scheduler kernel times the vectorized and the reference
  implementation on the *same* workload and verifies they return equal
  results before reporting — the baseline cannot silently record a
  speedup obtained by changing semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..baselines.routing_baselines import schedule_paths
from ..baselines.routing_baselines_ref import schedule_paths_ref
from ..congest.detector import run_heartbeat_detector
from ..congest.faults import FaultPlan, FaultSpec
from ..congest.native import build_native_g0, build_native_level1
from ..congest.reliable import reliable_forward_demands
from ..congest.walk_protocol import run_walk_protocol
from ..core import MstRunner, Router, build_hierarchy
from ..graphs import (
    Graph,
    mixing_time,
    random_regular,
    with_random_weights,
)
from ..params import Params
from ..rng import derive_rng
from ..walks import degree_proportional_starts, run_lazy_walks

__all__ = [
    "BenchRow",
    "circulation_paths",
    "delivery_curve",
    "run_bench_suite",
    "run_fault_suite",
    "run_pr7_suite",
    "run_recovery_suite",
    "run_serve_suite",
]

@dataclass
class BenchRow:
    """One benchmark measurement.

    Attributes:
        kernel: which kernel ran (e.g. ``"scheduler_vectorized"``).
        n: the problem size (number of base-graph nodes).
        seed: the suite seed the run derived its randomness from.
        wall_s: best-of-repeats wall time in seconds (machine-dependent;
            everything else in the row is seed-deterministic).
        rounds: the round count the run produced — the semantic
            fingerprint that must not drift when the kernel gets faster.
    """

    kernel: str
    n: int
    seed: int
    wall_s: float
    rounds: int

    def __post_init__(self):
        # Normalise numpy scalars so the rows serialize as plain JSON.
        self.n = int(self.n)
        self.seed = int(self.seed)
        self.wall_s = float(self.wall_s)
        self.rounds = int(self.rounds)


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


def circulation_paths(
    graph: Graph, num_packets: int, length: int
) -> list[list[int]]:
    """Contention-free packet paths along an Eulerian circulation.

    Walks an Eulerian circuit of the symmetric digraph (every directed
    arc exactly once — it exists for any connected graph) and starts
    packet ``i`` at circuit offset ``2 i`` with ``length`` hops.  Every
    packet then occupies a *distinct* directed edge in every round: a
    congestion-free path system in the sense of the paper's routing
    sections, and the scheduler's throughput-bound regime.
    """
    num_arcs = int(graph.indptr[-1])
    if 2 * num_packets > num_arcs:
        raise ValueError(
            f"need 2*num_packets <= num_arcs, got {num_packets} packets "
            f"for {num_arcs} arcs"
        )
    nxt = graph.indptr[:-1].astype(np.int64)
    limit = graph.indptr[1:]
    stack = [0]
    circuit: list[int] = []
    while stack:
        v = stack[-1]
        if nxt[v] < limit[v]:
            arc = int(nxt[v])
            nxt[v] += 1
            stack.append(int(graph.indices[arc]))
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    if len(circuit) != num_arcs + 1:
        raise ValueError("circulation workload needs a connected graph")
    base = circuit[:-1]
    ext = base + base + base[: length + 1]
    return [ext[2 * i : 2 * i + length + 1] for i in range(num_packets)]


def _bench_walk_engine(seed: int, quick: bool) -> list[BenchRow]:
    configs = [(256, 20)] if quick else [(1024, 100), (4096, 100)]
    rows = []
    for n, steps in configs:
        graph = random_regular(n, 8, derive_rng(seed, n))
        starts = degree_proportional_starts(graph, 2)
        wall, __ = _timed(
            lambda: run_lazy_walks(
                graph, starts, steps, derive_rng(seed, n, 1)
            ),
            repeats=1 if quick else 3,
        )
        rows.append(BenchRow("walk_engine", n, seed, wall, steps))
    return rows


def _bench_scheduler(seed: int, quick: bool) -> list[BenchRow]:
    # (n, degree, packets, hops): 4096 packets over random_regular(1024, 8)
    # is the pinned acceptance workload of PR 2.
    configs = (
        [(256, 8, 512, 16)]
        if quick
        else [(1024, 8, 4096, 192), (512, 8, 2048, 64)]
    )
    rows = []
    for n, degree, packets, hops in configs:
        graph = random_regular(n, degree, derive_rng(seed, n))
        paths = circulation_paths(graph, packets, hops)
        wall_vec, res_vec = _timed(
            lambda: schedule_paths(
                paths, rng=derive_rng(seed, n, 2)
            ),
            repeats=1 if quick else 5,
        )
        wall_ref, res_ref = _timed(
            lambda: schedule_paths_ref(
                paths, rng=derive_rng(seed, n, 2)
            ),
            repeats=1 if quick else 2,
        )
        if res_vec != res_ref:
            raise AssertionError(
                f"scheduler implementations diverged on the bench workload: "
                f"{res_vec} != {res_ref}"
            )
        rows.append(
            BenchRow("scheduler_vectorized", n, seed, wall_vec, res_vec.rounds)
        )
        rows.append(
            BenchRow("scheduler_reference", n, seed, wall_ref, res_ref.rounds)
        )
    return rows


def _bench_simulator(seed: int, quick: bool) -> list[BenchRow]:
    configs = [(48, 8)] if quick else [(64, 16), (128, 16)]
    rows = []
    for n, length in configs:
        graph = random_regular(n, 6, derive_rng(seed, n))
        starts = np.repeat(np.arange(n), 2)
        for kernel, mode in (
            ("simulator", "full"),
            ("simulator_novalidate", "off"),
        ):
            wall, outcome = _timed(
                lambda: run_walk_protocol(
                    graph, starts, length, seed=seed + n, validate=mode
                ),
                repeats=1 if quick else 3,
            )
            rows.append(
                BenchRow(
                    kernel,
                    n,
                    seed,
                    wall,
                    outcome.forward_rounds + outcome.reverse_rounds,
                )
            )
    return rows


def _bench_native_build(seed: int, quick: bool) -> list[BenchRow]:
    configs = [(32, 6)] if quick else [(64, 6), (256, 6)]
    rows = []
    for n, degree in configs:
        graph = random_regular(n, degree, derive_rng(seed, n))
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

        wall, (g0, level1) = _timed(build, repeats=1)
        rows.append(
            BenchRow(
                "native_build",
                n,
                seed,
                wall,
                g0.build_rounds + level1.build_rounds,
            )
        )
    return rows


def _bench_end_to_end(seed: int, quick: bool) -> list[BenchRow]:
    sizes = (48,) if quick else (64, 128)
    params = Params.default()
    rows = []
    for n in sizes:
        graph = random_regular(n, 6, derive_rng(seed, n))

        def route(seed=seed, n=n):
            rng = derive_rng(seed, n, 3)
            hierarchy = build_hierarchy(graph, params, rng)
            router = Router(hierarchy, params=params, rng=rng)
            return router.route(np.arange(n), rng.permutation(n))

        wall_route, route_result = _timed(route, repeats=1)
        rows.append(
            BenchRow(
                "end_to_end_route", n, seed, wall_route, route_result.cost_rounds
            )
        )

        def mst(seed=seed, n=n):
            rng = derive_rng(seed, n, 4)
            weighted = with_random_weights(graph, rng)
            hierarchy = build_hierarchy(weighted, params, rng)
            runner = MstRunner(
                weighted, hierarchy=hierarchy, params=params, rng=rng
            )
            return runner.run()

        wall_mst, mst_result = _timed(mst, repeats=1)
        rows.append(
            BenchRow("end_to_end_mst", n, seed, wall_mst, mst_result.rounds)
        )
    return rows


def _fault_plan(rate: float, seed: int, n: int) -> FaultPlan | None:
    spec = FaultSpec(drop=float(rate))
    if spec.is_null:
        return None
    return FaultPlan(spec, rng=derive_rng(seed, n, 7))


def delivery_curve(
    n: int,
    rates: Sequence[float],
    seed: int = 0,
    degree: int = 6,
) -> list[dict]:
    """Delivery vs. fault rate for the reliable forwarder.

    Runs the same all-nodes demand (each node sends one token to its
    first neighbour — forwarding is single-hop, along edges) under each
    per-link drop probability in ``rates`` and reports the measured
    retry overhead.  The topology and the fault draws both derive from
    ``seed`` alone, so a curve is reproducible bit-for-bit in
    everything but wall time.

    Returns one dict per rate with keys ``rate``, ``delivered``,
    ``expected``, ``rounds``, ``ideal_rounds``, ``retry_rounds``,
    ``retransmissions``, and ``overhead`` (``rounds / ideal_rounds``).
    """
    graph = random_regular(n, degree, derive_rng(seed, n))
    origins = np.arange(n)
    targets = graph.indices[graph.indptr[:-1]]
    curve = []
    for rate in rates:
        report = reliable_forward_demands(
            graph, origins, targets, faults=_fault_plan(rate, seed, n)
        )
        curve.append(
            {
                "rate": float(rate),
                "delivered": report.delivered,
                "expected": report.expected,
                "rounds": report.rounds,
                "ideal_rounds": report.ideal_rounds,
                "retry_rounds": report.retry_rounds,
                "retransmissions": report.retransmissions,
                "overhead": report.rounds / max(1, report.ideal_rounds),
            }
        )
    return curve


def run_fault_suite(seed: int = 0, quick: bool = False) -> list[BenchRow]:
    """The fault-injection suite behind ``benchmarks/results/faults.json``.

    Times the reliable forwarder on a random regular expander with the
    per-link drop rate off (``reliable_forward_clean``) and at the
    pinned 1% (``reliable_forward_drop1pct``) — the committed delta
    between the two rows *is* the recorded retry overhead.  ``rounds``
    is seed-deterministic either way.
    """
    configs = [(32,)] if quick else [(64,), (128,)]
    rows = []
    for (n,) in configs:
        graph = random_regular(n, 6, derive_rng(seed, n))
        # Single-hop demands: every node sends to its first neighbour.
        origins = np.arange(n)
        targets = graph.indices[graph.indptr[:-1]]
        for kernel, rate in (
            ("reliable_forward_clean", 0.0),
            ("reliable_forward_drop1pct", 0.01),
        ):
            wall, report = _timed(
                lambda rate=rate: reliable_forward_demands(
                    graph,
                    origins,
                    targets,
                    faults=_fault_plan(rate, seed, n),
                ),
                repeats=1 if quick else 3,
            )
            rows.append(BenchRow(kernel, n, seed, wall, report.rounds))
    return rows


def _crash_plan(text: str, seed: int, n: int, label: int) -> FaultPlan:
    return FaultPlan(
        FaultSpec.parse(text), rng=derive_rng(seed, n, label)
    )


def run_recovery_suite(seed: int = 0, quick: bool = False) -> list[BenchRow]:
    """The self-healing suite behind ``benchmarks/results/recovery.json``.

    One row per recovery mechanism, at each pinned size:

    * ``heartbeat_detect`` — the wire heartbeat protocol under a
      temporary crash window (what failure detection itself costs);
    * ``selfheal_forward_park`` — reliable forwarding waits out a
      temporary window by parking tokens instead of burning retries;
    * ``selfheal_forward_rehome`` — reliable forwarding re-homes
      demands whose targets are permanently dead;
    * ``selfheal_walk_avoid`` — the walk protocol confines walks to
      the live subgraph and orphans walks with dead origins;
    * ``selfheal_route_failover`` — an end-to-end route over dead
      portal hosts (failover to redundant portals plus re-election).

    ``rounds`` is seed-deterministic in every row: crash membership
    derives from split-off entropy and self-heal draws only from its
    own streams.
    """
    sizes = [32] if quick else [64, 128]
    crashes = 3 if quick else 6
    rows: list[BenchRow] = []
    for n in sizes:
        graph = random_regular(n, 6, derive_rng(seed, n))
        origins = np.arange(n)
        targets = graph.indices[graph.indptr[:-1]]
        temp = f"crash={crashes}@rounds:2-40"
        perm = f"crash={crashes}@rounds:1-1000000"

        wall, report = _timed(
            lambda: run_heartbeat_detector(
                graph,
                duration=16,
                faults=_crash_plan(temp, seed, n, 10),
            ),
            repeats=1 if quick else 3,
        )
        rows.append(
            BenchRow("heartbeat_detect", n, seed, wall, report.stats.rounds)
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
                    faults=_crash_plan(spec, seed, n, 11),
                    recovery="self-heal",
                ),
                repeats=1 if quick else 3,
            )
            rows.append(BenchRow(kernel, n, seed, wall, delivery.rounds))

        starts = np.repeat(np.arange(n), 2)
        wall, outcome = _timed(
            lambda: run_walk_protocol(
                graph,
                starts,
                8,
                seed=seed + n,
                faults=_crash_plan(perm, seed, n, 12),
                recovery="self-heal",
            ),
            repeats=1 if quick else 3,
        )
        rows.append(
            BenchRow(
                "selfheal_walk_avoid",
                n,
                seed,
                wall,
                outcome.forward_rounds + outcome.reverse_rounds,
            )
        )

    # End-to-end failover: full pipeline, one pinned size.
    from ..runtime import RunConfig, run as run_op

    n = 32 if quick else 64
    graph = random_regular(n, 6, derive_rng(seed, n))
    wall, outcome = _timed(
        lambda: run_op(
            "route",
            graph,
            config=RunConfig(
                seed=seed + n,
                faults=f"crash={crashes}@rounds:1-1000000",
                recovery="self-heal",
            ),
        ),
        repeats=1,
    )
    rows.append(
        BenchRow(
            "selfheal_route_failover",
            n,
            seed,
            wall,
            int(outcome.result.cost_rounds),
        )
    )
    return rows


def _bench_walk_protocol_vec(seed: int, quick: bool) -> list[BenchRow]:
    """Scalar-oracle vs array-engine walk protocol, verified equal.

    Like the scheduler kernel, both engines run the *same* workload and
    the rows are only reported after their outcomes compare bit-equal —
    the recorded speedup can never come from changed semantics.
    """
    configs = [(64, 8)] if quick else [(128, 12), (512, 16)]
    rows = []
    for n, length in configs:
        graph = random_regular(n, 6, derive_rng(seed, n))
        starts = np.repeat(np.arange(n), 2)
        wall_vec, vec = _timed(
            lambda: run_walk_protocol(
                graph, starts, length, seed=seed + n, engine="vectorized"
            ),
            repeats=1 if quick else 3,
        )
        wall_sca, sca = _timed(
            lambda: run_walk_protocol(
                graph, starts, length, seed=seed + n, engine="scalar"
            ),
            repeats=1,
        )
        if (
            not np.array_equal(vec.endpoints, sca.endpoints)
            or not np.array_equal(vec.returned_to, sca.returned_to)
            or (vec.forward_rounds, vec.reverse_rounds, vec.messages)
            != (sca.forward_rounds, sca.reverse_rounds, sca.messages)
        ):
            raise AssertionError(
                "walk-protocol engines diverged on the bench workload"
            )
        total = vec.forward_rounds + vec.reverse_rounds
        rows.append(BenchRow("walk_protocol_vec", n, seed, wall_vec, total))
        rows.append(BenchRow("walk_protocol_scalar", n, seed, wall_sca, total))
    return rows


def _bench_native_build_large(seed: int, quick: bool) -> list[BenchRow]:
    """The PR 7 headline: the native hierarchy at n = 512 and 1024."""
    configs = [(128, 6)] if quick else [(512, 6), (1024, 6)]
    rows = []
    for n, degree in configs:
        graph = random_regular(n, degree, derive_rng(seed, n))
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

        wall, (g0, level1) = _timed(build, repeats=1)
        rows.append(
            BenchRow(
                "native_build",
                n,
                seed,
                wall,
                g0.build_rounds + level1.build_rounds,
            )
        )
    return rows


def run_pr7_suite(seed: int = 0, quick: bool = False) -> list[BenchRow]:
    """The vectorized-engine suite behind ``benchmarks/results/engine.json``.

    Two groups: the scalar-vs-array walk protocol (verified equal
    before reporting) and the native hierarchy build at n = 512/1024
    (the sizes the array engine unlocked).
    """
    rows: list[BenchRow] = []
    rows += _bench_walk_protocol_vec(seed, quick)
    rows += _bench_native_build_large(seed, quick)
    return rows


def run_serve_suite(seed: int = 0, quick: bool = False) -> list[BenchRow]:
    """The session-layer suite behind ``benchmarks/results/serve.json``.

    The serve economics in four rows per size:

    * ``serve_cold_single_shot`` — one ``repro.run("route", ...)``: the
      full hierarchy build paid for a single routed instance;
    * ``serve_session_build`` — opening a :class:`~repro.runtime.Session`
      on a cold cache (one build, amortized by everything below);
    * ``serve_warm_request`` — per-request wall time of the *same* route
      served repeatedly from the warm session (total serve wall divided
      by the request count) — the headline: this must beat the cold
      single-shot by a wide margin, because it pays no build;
    * ``serve_cache_hit_open`` — re-opening the session from the
      content-addressed store (a process restart that skips the build).

    The warm-served result is asserted bit-equal (``cost_rounds``,
    delivered count) to the cold run before any row is reported — the
    recorded speedup cannot come from serving something different.
    """
    import tempfile

    from ..runtime import Request, RunConfig, Session
    from ..runtime import run as run_op

    n, requests = (64, 8) if quick else (512, 32)
    rows: list[BenchRow] = []
    graph = random_regular(n, 6, derive_rng(seed, n))
    workload_rng = derive_rng(seed, n, 5)
    sources = np.arange(n)
    destinations = workload_rng.permutation(n)

    wall_cold, outcome = _timed(
        lambda: run_op(
            "route",
            graph,
            config=RunConfig(seed=seed + n),
            sources=sources,
            destinations=destinations,
        ),
        repeats=1,
    )
    rows.append(
        BenchRow(
            "serve_cold_single_shot",
            n,
            seed,
            wall_cold,
            int(outcome.result.cost_rounds),
        )
    )

    with tempfile.TemporaryDirectory() as cache_root:
        config = RunConfig(seed=seed + n, cache=cache_root)
        wall_build, session = _timed(
            lambda: Session.open(graph, config), repeats=1
        )
        try:
            request = Request(
                op="route",
                args={"sources": sources, "destinations": destinations},
            )

            def serve():
                response = None
                for _ in range(requests):
                    response = session.submit(request)
                return response

            wall_serve, response = _timed(serve, repeats=1)
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
                BenchRow(
                    "serve_session_build",
                    n,
                    seed,
                    wall_build,
                    int(session.build_ledger.total()),
                )
            )
            rows.append(
                BenchRow(
                    "serve_warm_request",
                    n,
                    seed,
                    round(wall_serve / requests, 6),
                    int(response.result.cost_rounds),
                )
            )
        finally:
            session.close()

        wall_hit, reopened = _timed(
            lambda: Session.open(graph, config), repeats=1
        )
        try:
            if not reopened.from_cache:
                raise AssertionError(
                    "session re-open missed the content-addressed cache"
                )
            rows.append(
                BenchRow(
                    "serve_cache_hit_open",
                    n,
                    seed,
                    wall_hit,
                    int(reopened.build_ledger.total()),
                )
            )
        finally:
            reopened.close()
    return rows


def run_bench_suite(seed: int = 0, quick: bool = False) -> list[BenchRow]:
    """Run the pinned kernel suite.

    Args:
        seed: single seed every kernel derives its randomness from.
        quick: smoke mode for ``repro bench --check`` —
            one small size per kernel, single repetition, no thresholds.

    Returns one :class:`BenchRow` per kernel/size measurement.
    """
    rows: list[BenchRow] = []
    rows += _bench_walk_engine(seed, quick)
    rows += _bench_scheduler(seed, quick)
    rows += _bench_simulator(seed, quick)
    rows += _bench_native_build(seed, quick)
    rows += _bench_end_to_end(seed, quick)
    return rows
