"""Performance regression guards.

Loose wall-clock ceilings on the vectorized kernels: these are not
micro-benchmarks (see benchmarks/) but tripwires against accidentally
de-vectorizing a hot path.  Thresholds are ~10x typical laptop times.
"""

import time

import numpy as np
import pytest

from repro.graphs import random_regular
from repro.walks import degree_proportional_starts, run_lazy_walks
from repro.walks.correlated import run_correlated_walks


@pytest.fixture(scope="module")
def big_graph():
    return random_regular(1024, 8, np.random.default_rng(310))


class TestKernelSpeed:
    def test_walk_engine_throughput(self, big_graph):
        """~1.6M walk-steps should take well under 10 seconds."""
        rng = np.random.default_rng(311)
        starts = degree_proportional_starts(big_graph, 2)  # 16384 walks
        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        run_lazy_walks(big_graph, starts, 100, rng)
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        assert elapsed < 10.0, f"walk engine too slow: {elapsed:.1f}s"

    def test_correlated_engine_throughput(self, big_graph):
        rng = np.random.default_rng(312)
        starts = degree_proportional_starts(big_graph, 1)
        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        run_correlated_walks(big_graph, starts, 50, rng)
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        assert elapsed < 10.0, f"correlated engine too slow: {elapsed:.1f}s"

    def test_spectral_gap_large_graph(self, big_graph):
        from repro.graphs import spectral_gap

        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        gap = spectral_gap(big_graph)
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        assert gap > 0
        assert elapsed < 10.0, f"sparse gap too slow: {elapsed:.1f}s"

    def test_hierarchy_build_moderate(self):
        from repro.core import build_hierarchy
        from repro.params import Params

        graph = random_regular(256, 8, np.random.default_rng(313))
        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        build_hierarchy(graph, Params.default(), np.random.default_rng(314))
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        assert elapsed < 30.0, f"hierarchy build too slow: {elapsed:.1f}s"

    def test_scheduler_throughput(self, big_graph):
        """4096 packets x 64 hops through the vectorized scheduler —
        sub-second when vectorized, ~10x ceiling against regression."""
        from repro.analysis.workloads import circulation_paths
        from repro.baselines import schedule_paths

        paths = circulation_paths(big_graph, 4096, 64)
        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        result = schedule_paths(paths, seed=316)
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        assert result.rounds == 64
        assert elapsed < 2.0, f"scheduler too slow: {elapsed:.1f}s"

    def test_simulator_throughput(self):
        """The per-node simulator replaying a walk batch at n=128: the
        per-round delivery loop must stay O(messages), not O(n * degree)."""
        from repro.congest.forwarding import _forward_demands_scalar
        from repro.walks import run_lazy_walks

        graph = random_regular(128, 6, np.random.default_rng(317))
        starts = np.repeat(np.arange(128), 2)
        run = run_lazy_walks(
            graph, starts, 16, np.random.default_rng(318),
            record_trajectory=True,
        )
        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        executed = [
            _forward_demands_scalar(
                graph, before[before != after], after[before != after]
            )[0]
            for before, after in zip(run.trajectory, run.trajectory[1:])
        ]
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        assert executed == run.edge_congestion
        assert elapsed < 5.0, f"simulator too slow: {elapsed:.1f}s"

    def test_routing_instance_fast(self, hierarchy64, router64):
        rng = np.random.default_rng(315)
        begin = time.perf_counter()  # reprolint: disable=R003 (measurement)
        for _ in range(10):
            router64.route(np.arange(64), rng.permutation(64))
        elapsed = time.perf_counter() - begin  # reprolint: disable=R003
        assert elapsed < 10.0, f"routing too slow: {elapsed:.1f}s"
