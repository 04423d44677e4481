"""E17 — scheduler throughput: vectorized vs scalar store-and-forward.

The paper's routing theorems charge rounds to store-and-forward delivery
of explicit path systems; `schedule_paths` is the kernel that executes
those deliveries everywhere in this repo (native G0/level-1 rounds,
routing baselines).  This benchmark times the vectorized scheduler
against the retained scalar oracle on the PR-2 acceptance workload
(4096 packets over `random_regular(1024, 8)`) and asserts their results
stay identical while the speedup stays ~10x.  The committed baseline
numbers live in benchmarks/results/kernels.json (see
docs/performance.md).
"""

import time

import numpy as np

from repro.analysis import format_table
from repro.analysis.workloads import circulation_paths
from repro.baselines import schedule_paths, schedule_paths_ref
from repro.graphs import random_regular

from .conftest import emit


def test_scheduler_speedup(benchmark):
    graph = random_regular(1024, 8, np.random.default_rng(1700))
    rows = []
    for hops in (32, 64, 128):
        paths = circulation_paths(graph, 4096, hops)

        def vectorized():
            return schedule_paths(paths, seed=1701)

        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        reference = schedule_paths_ref(paths, seed=1701)
        ref_wall = time.perf_counter() - begin  # reprolint: disable=R003

        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        vec_result = vectorized()
        vec_wall = time.perf_counter() - begin  # reprolint: disable=R003

        assert vec_result == reference
        rows.append(
            {
                "hops": hops,
                "rounds": vec_result.rounds,
                "max_queue": vec_result.max_queue,
                "vec_s": round(vec_wall, 4),
                "ref_s": round(ref_wall, 4),
                "speedup": round(ref_wall / vec_wall, 1),
            }
        )

    # The pytest-benchmark timer tracks the vectorized kernel at the
    # acceptance size.
    paths = circulation_paths(graph, 4096, 64)
    result = benchmark.pedantic(
        lambda: schedule_paths(paths, seed=1701), rounds=3, iterations=1
    )
    assert result.rounds == 64

    emit(format_table(rows, title="E17: scheduler vectorized vs reference"))
    # Loose floor: the vectorized path must stay clearly ahead; the
    # committed >= 10x evidence is benchmarks/results/kernels.json.
    assert all(row["speedup"] > 3.0 for row in rows)
