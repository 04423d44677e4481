"""Seed-for-seed equivalence of the vectorized scheduler and its oracle.

The vectorized :func:`repro.baselines.routing_baselines.schedule_paths`
must replicate the scalar dict-and-deque reference packet-for-packet:
same ``rounds``, ``delivered``, ``max_queue`` and ``total_hops`` on the
same seed, across adversarial path sets (duplicate-edge contention,
length-1 paths, sparse node ids) and the workloads the pipeline actually
produces (walk trajectories, circulations).
"""

import numpy as np
import pytest

from repro.analysis.workloads import circulation_paths
from repro.baselines.routing_baselines import schedule_paths
from repro.baselines.routing_baselines_ref import schedule_paths_ref
from repro.graphs import random_regular
from repro.walks import degree_proportional_starts, run_lazy_walks


def _both(paths, seed):
    vec = schedule_paths(paths, rng=np.random.default_rng(seed))
    ref = schedule_paths_ref(paths, rng=np.random.default_rng(seed))
    return vec, ref


def _random_paths(rng, num_paths, num_nodes, max_len, offset=0):
    paths = []
    for _ in range(num_paths):
        length = int(rng.integers(1, max_len + 1))
        paths.append(
            [int(x) + offset for x in rng.integers(0, num_nodes, size=length)]
        )
    return paths


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("trial", range(20))
    def test_random_path_sets(self, trial):
        rng = np.random.default_rng((400, trial))
        num_nodes = int(rng.integers(4, 40))
        paths = _random_paths(
            rng, int(rng.integers(1, 80)), num_nodes, int(rng.integers(1, 12))
        )
        vec, ref = _both(paths, (401, trial))
        assert vec == ref

    @pytest.mark.parametrize("trial", range(8))
    def test_duplicate_edge_contention(self, trial):
        """Many verbatim copies of the same paths pile onto shared edges."""
        rng = np.random.default_rng((402, trial))
        base = _random_paths(rng, 6, 10, 8)
        paths = []
        for _ in range(12):
            paths.extend([list(p) for p in base])
        vec, ref = _both(paths, (403, trial))
        assert vec == ref
        assert vec.max_queue > 1  # the workload really contends

    def test_single_path_copies_queue_depth(self):
        paths = [[0, 1, 2, 3]] * 25
        vec, ref = _both(paths, 404)
        assert vec == ref
        assert vec.max_queue == 25
        assert vec.rounds == 3 + 24  # pipeline drain: hops + (copies - 1)

    @pytest.mark.parametrize("trial", range(6))
    def test_sparse_node_ids(self, trial):
        """Huge id spread forces the np.unique fallback path."""
        rng = np.random.default_rng((405, trial))
        paths = _random_paths(rng, 30, 10, 8)
        spread = [
            [node * 10_000_019 for node in path] for path in paths
        ]
        vec, ref = _both(spread, (406, trial))
        assert vec == ref


class TestDegenerateInputs:
    def test_empty_input(self):
        vec, ref = _both([], 407)
        assert vec == ref
        assert vec.rounds == 0 and vec.total_hops == 0

    def test_all_length_one_paths(self):
        paths = [[3], [7], [3]]
        vec, ref = _both(paths, 408)
        assert vec == ref
        assert vec.rounds == 0 and vec.max_queue == 0

    def test_mixed_length_one_and_real_paths(self):
        paths = [[5], [0, 1], [9], [1, 0, 1], [2]]
        vec, ref = _both(paths, 409)
        assert vec == ref

    def test_rng_consumption_matches(self):
        """Both implementations consume exactly one permutation call."""
        paths = [[0, 1, 2], [2, 1, 0], [1]]
        rng_vec = np.random.default_rng(410)
        rng_ref = np.random.default_rng(410)
        schedule_paths(paths, rng=rng_vec)
        schedule_paths_ref(paths, rng=rng_ref)
        assert rng_vec.integers(1 << 30) == rng_ref.integers(1 << 30)


class TestPipelineWorkloads:
    def test_walk_trajectory_workload(self):
        """Compressed lazy-walk trajectories — the native-G0 shape."""
        graph = random_regular(64, 6, np.random.default_rng(412))
        starts = degree_proportional_starts(graph, 2)
        rows = [starts]
        run_lazy_walks(
            graph, starts, 24, np.random.default_rng(413),
            on_step=lambda _before, after: rows.append(after),
        )
        paths = []
        for col in np.stack(rows).T:
            keep = np.ones(col.shape[0], dtype=bool)
            keep[1:] = col[1:] != col[:-1]
            paths.append(col[keep].tolist())
        vec, ref = _both(paths, 414)
        assert vec == ref

    def test_circulation_workload(self):
        """Contention-free circulation: rounds == hops, unit queues."""
        graph = random_regular(128, 8, np.random.default_rng(415))
        paths = circulation_paths(graph, 256, 20)
        vec, ref = _both(paths, 416)
        assert vec == ref
        assert vec.rounds == 20
        assert vec.max_queue == 1

    def test_round_budget_exceeded_matches(self):
        paths = [[0, 1, 2, 3, 4]] * 10
        with pytest.raises(RuntimeError, match="round budget"):
            schedule_paths(
                paths, rng=np.random.default_rng(417), max_rounds=3
            )
        with pytest.raises(RuntimeError, match="round budget"):
            schedule_paths_ref(
                paths, rng=np.random.default_rng(417), max_rounds=3
            )
