"""Tests for the suite runners (`repro.bench.suites`), driven through
``run_suite`` on v1 dict rows, and for the committed full records."""

import os

import pytest

from repro.bench import load_record, run_suite, validate_record, write_record

_RESULTS_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "results"
)


def _committed_record(suite):
    path = os.path.join(_RESULTS_DIR, f"{suite}.json")
    if not os.path.exists(path):
        pytest.skip(f"benchmarks/results/{suite}.json not present")
    return load_record(path)


def _fingerprint(record):
    return [(r["kernel"], r["n"], r["rounds"]) for r in record["rows"]]


class TestBenchSuite:
    @pytest.fixture(scope="class")
    def quick_record(self):
        return run_suite("kernels", seed=0, quick=True)

    def test_quick_suite_covers_all_kernels(self, quick_record):
        kernels = {row["kernel"] for row in quick_record["rows"]}
        assert kernels >= {
            "walk_engine",
            "scheduler_vectorized",
            "scheduler_reference",
            "simulator",
            "native_embedded_build",
            "end_to_end_route",
            "end_to_end_mst",
        }

    def test_quick_rows_validate(self, quick_record):
        validate_record(quick_record)
        for row in quick_record["rows"]:
            assert isinstance(row["rounds"], int)

    def test_rounds_deterministic_in_seed(self, quick_record):
        """Re-running the suite reproduces every round count exactly."""
        again = run_suite("kernels", seed=0, quick=True)
        assert _fingerprint(again) == _fingerprint(quick_record)

    def test_roundtrip(self, quick_record, tmp_path):
        path = str(tmp_path / "bench.json")
        write_record(quick_record, path)
        assert load_record(path) == quick_record


class TestFaultSuite:
    @pytest.fixture(scope="class")
    def fault_record(self):
        return run_suite("faults", seed=0, quick=True)

    def test_covers_clean_and_faulty_kernels(self, fault_record):
        assert {row["kernel"] for row in fault_record["rows"]} == {
            "reliable_forward_clean",
            "reliable_forward_drop1pct",
        }

    def test_rows_validate(self, fault_record):
        validate_record(fault_record)

    def test_drop_rounds_never_below_clean(self, fault_record):
        """Retries can only add rounds, never remove them."""
        by_n = {}
        for row in fault_record["rows"]:
            by_n.setdefault(row["n"], {})[row["kernel"]] = row["rounds"]
        for n, rounds in by_n.items():
            assert (
                rounds["reliable_forward_drop1pct"]
                >= rounds["reliable_forward_clean"]
            ), n

    def test_rounds_deterministic_in_seed(self, fault_record):
        again = run_suite("faults", seed=0, quick=True)
        assert _fingerprint(again) == _fingerprint(fault_record)


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
