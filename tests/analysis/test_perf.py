"""Tests for the perf-baseline harness (`repro.analysis.perf`)."""

import os
from dataclasses import asdict

import numpy as np
import pytest

from repro.analysis.perf import (
    BenchRow,
    circulation_paths,
    delivery_curve,
    run_bench_suite,
    run_fault_suite,
)
from repro.bench import load_record
from repro.bench.schema import (
    ROW_KEYS,
    SCHEMA_VERSION,
    make_record,
    validate_record,
    write_record,
)
from repro.graphs import Graph, random_regular

_RESULTS_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "results"
)


def _committed_record(suite):
    path = os.path.join(_RESULTS_DIR, f"{suite}.json")
    if not os.path.exists(path):
        pytest.skip(f"benchmarks/results/{suite}.json not present")
    return load_record(path)


class TestCirculationPaths:
    def test_paths_follow_edges(self):
        graph = random_regular(32, 4, np.random.default_rng(420))
        paths = circulation_paths(graph, 20, 9)
        assert len(paths) == 20
        for path in paths:
            assert len(path) == 10
            for a, b in zip(path, path[1:]):
                assert graph.has_edge(a, b)

    def test_contention_free(self):
        """Packets occupy pairwise-distinct directed edges every round."""
        graph = random_regular(32, 4, np.random.default_rng(421))
        paths = circulation_paths(graph, 30, 7)
        for step in range(7):
            hops = [(path[step], path[step + 1]) for path in paths]
            assert len(set(hops)) == len(hops)

    def test_too_many_packets_rejected(self):
        graph = random_regular(16, 4, np.random.default_rng(422))
        with pytest.raises(ValueError, match="num_packets"):
            circulation_paths(graph, 33, 4)  # 64 arcs < 2 * 33

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            circulation_paths(Graph(4, [(0, 1), (2, 3)]), 1, 2)


class TestBenchSuite:
    @pytest.fixture(scope="class")
    def quick_rows(self):
        return run_bench_suite(seed=0, quick=True)

    def test_quick_suite_covers_all_kernels(self, quick_rows):
        kernels = {row.kernel for row in quick_rows}
        assert kernels >= {
            "walk_engine",
            "scheduler_vectorized",
            "scheduler_reference",
            "simulator",
            "native_build",
            "end_to_end_route",
            "end_to_end_mst",
        }

    def test_quick_rows_validate(self, quick_rows):
        record = make_record("kernels", [asdict(row) for row in quick_rows])
        validate_record(record)

    def test_rounds_deterministic_in_seed(self, quick_rows):
        """Re-running the suite reproduces every round count exactly."""
        again = run_bench_suite(seed=0, quick=True)
        assert [(r.kernel, r.n, r.rounds) for r in again] == [
            (r.kernel, r.n, r.rounds) for r in quick_rows
        ]

    def test_roundtrip(self, quick_rows, tmp_path):
        path = str(tmp_path / "bench.json")
        record = make_record("kernels", [asdict(row) for row in quick_rows])
        write_record(record, path)
        loaded = load_record(path)
        assert [BenchRow(**row) for row in loaded["rows"]] == quick_rows


class TestValidateBench:
    """Bench rows are shaped by :mod:`repro.bench.schema`."""

    def _row(self, **overrides):
        row = {"kernel": "k", "n": 8, "seed": 0, "wall_s": 0.1, "rounds": 3}
        row.update(overrides)
        return row

    def _record(self, rows):
        return {
            "schema": SCHEMA_VERSION,
            "suite": "kernels",
            "seed": 0,
            "quick": False,
            "rows": rows,
            "meta": {},
        }

    def test_accepts_well_formed(self):
        validate_record(self._record([self._row()]))

    def test_rejects_non_list_and_empty(self):
        with pytest.raises(ValueError):
            validate_record(self._record({"rows": []}))
        with pytest.raises(ValueError):
            validate_record(self._record([]))

    def test_rejects_wrong_keys(self):
        bad = self._row()
        del bad["rounds"]
        with pytest.raises(ValueError, match="columns"):
            validate_record(self._record([bad]))
        with pytest.raises(ValueError, match="columns"):
            validate_record(self._record([{**self._row(), "extra": 1}]))

    def test_rejects_wrong_types(self):
        with pytest.raises(ValueError, match="int"):
            validate_record(self._record([self._row(n="8")]))
        with pytest.raises(ValueError, match="rounds"):
            validate_record(self._record([self._row(rounds="3")]))
        with pytest.raises(ValueError, match="kernel"):
            validate_record(self._record([self._row(kernel="")]))
        with pytest.raises(ValueError, match="wall_s"):
            validate_record(self._record([self._row(wall_s=-0.1)]))
        with pytest.raises(ValueError, match="rounds"):
            validate_record(self._record([self._row(rounds=-1)]))

    def test_key_order_is_canonical(self):
        scrambled = {
            "rounds": 3, "kernel": "k", "wall_s": 0.1, "seed": 0, "n": 8
        }
        with pytest.raises(ValueError, match="columns"):
            validate_record(self._record([scrambled]))
        record = make_record("kernels", [scrambled])
        assert tuple(record["rows"][0]) == ROW_KEYS


class TestFaultSuite:
    @pytest.fixture(scope="class")
    def fault_rows(self):
        return run_fault_suite(seed=0, quick=True)

    def test_covers_clean_and_faulty_kernels(self, fault_rows):
        assert {row.kernel for row in fault_rows} == {
            "reliable_forward_clean",
            "reliable_forward_drop1pct",
        }

    def test_rows_validate(self, fault_rows):
        record = make_record("faults", [asdict(row) for row in fault_rows])
        validate_record(record)

    def test_drop_rounds_never_below_clean(self, fault_rows):
        """Retries can only add rounds, never remove them."""
        by_n = {}
        for row in fault_rows:
            by_n.setdefault(row.n, {})[row.kernel] = row.rounds
        for n, rounds in by_n.items():
            assert (
                rounds["reliable_forward_drop1pct"]
                >= rounds["reliable_forward_clean"]
            ), n

    def test_rounds_deterministic_in_seed(self, fault_rows):
        again = run_fault_suite(seed=0, quick=True)
        assert [(r.kernel, r.n, r.rounds) for r in again] == [
            (r.kernel, r.n, r.rounds) for r in fault_rows
        ]


class TestDeliveryCurve:
    def test_full_delivery_and_monotone_overhead(self):
        curve = delivery_curve(32, [0.0, 0.05, 0.2], seed=1)
        assert [row["delivered"] for row in curve] == [32, 32, 32]
        assert curve[0]["retry_rounds"] == 0
        assert curve[0]["overhead"] == 1.0
        rounds = [row["rounds"] for row in curve]
        assert rounds == sorted(rounds)
        assert curve[-1]["retransmissions"] > 0

    def test_curve_reproducible(self):
        assert delivery_curve(32, [0.1], seed=3) == delivery_curve(
            32, [0.1], seed=3
        )


class TestCommittedFaultBaseline:
    """benchmarks/results/faults.json must stay loadable and meaningful."""

    @pytest.fixture(scope="class")
    def committed(self):
        return _committed_record("faults")

    def test_records_retry_overhead_at_two_sizes(self, committed):
        by_kernel = {}
        for row in committed["rows"]:
            by_kernel.setdefault(row["kernel"], {})[row["n"]] = row["rounds"]
        assert set(by_kernel) == {
            "reliable_forward_clean",
            "reliable_forward_drop1pct",
        }
        for kernel, sizes in by_kernel.items():
            assert len(sizes) >= 2, f"{kernel} benched at only {sizes}"
        for n, clean in by_kernel["reliable_forward_clean"].items():
            assert by_kernel["reliable_forward_drop1pct"][n] >= clean


class TestCommittedBaseline:
    """benchmarks/results/kernels.json must stay loadable and meaningful."""

    @pytest.fixture(scope="class")
    def committed(self):
        return _committed_record("kernels")

    def test_kernel_and_size_coverage(self, committed):
        by_kernel = {}
        for row in committed["rows"]:
            by_kernel.setdefault(row["kernel"], set()).add(row["n"])
        assert len(by_kernel) >= 5
        for kernel, sizes in by_kernel.items():
            assert len(sizes) >= 2, f"{kernel} benched at only {sizes}"

    def test_scheduler_speedup_recorded(self, committed):
        """The acceptance headline: >= 10x on the n=1024 workload."""
        vec = {
            row["n"]: row["wall_s"]
            for row in committed["rows"]
            if row["kernel"] == "scheduler_vectorized"
        }
        ref = {
            row["n"]: row["wall_s"]
            for row in committed["rows"]
            if row["kernel"] == "scheduler_reference"
        }
        assert 1024 in vec and 1024 in ref
        assert ref[1024] / vec[1024] >= 10.0
