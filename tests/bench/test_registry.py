"""Tests for the benchmark registry and the check/refresh workflow."""

import os

import pytest

from repro.bench import (
    SUITES,
    baseline_path,
    check_suite,
    get_suite,
    run_suite,
    validate_record,
    write_record,
)
from repro.bench.schema import load_record

RESULTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    "benchmarks",
    "results",
)


class TestCatalogue:
    def test_expected_suites_registered(self):
        assert set(SUITES) >= {
            "kernels",
            "faults",
            "recovery",
            "engine",
            "serve",
            "tripwire",
            "serve-soak",
            "load-curve",
        }

    def test_unknown_suite_rejected_listing_choices(self):
        with pytest.raises(ValueError, match="kernels"):
            get_suite("warp-speed")

    def test_legacy_sources_recorded(self):
        """A migrated baseline names its source artifact in its own
        ``meta``; a suite born in the v1 schema carries no such tag."""
        faults = load_record(
            baseline_path("faults", quick=False, results_dir=RESULTS)
        )
        assert faults["meta"]["legacy"] is True
        assert faults["meta"]["source"] == "BENCH_PR4.json"
        soak = load_record(
            baseline_path("serve-soak", quick=False, results_dir=RESULTS)
        )
        assert "legacy" not in soak["meta"]

    def test_baseline_paths_by_tier(self, tmp_path):
        directory = str(tmp_path)
        full = baseline_path(
            "faults", quick=False, results_dir=directory
        )
        quick = baseline_path(
            "faults", quick=True, results_dir=directory
        )
        assert full.endswith(os.path.join(directory, "faults.json"))
        assert quick.endswith("faults.quick.json")

    def test_workload_gates_pin_deterministic_metrics(self):
        for name in ("serve-soak", "load-curve"):
            gate = get_suite(name).gate
            assert "rounds_p50" in gate.exact_metrics
            assert "served" in gate.exact_metrics
            # Wall-clock metrics must never be gated.
            assert not any(
                "wall" in metric for metric in gate.exact_metrics
            )


class TestRunAndCheck:
    @pytest.fixture(scope="class")
    def faults_record(self):
        return run_suite("faults", seed=0, quick=True)

    def test_run_suite_emits_valid_record(self, faults_record):
        validate_record(faults_record)
        assert faults_record["suite"] == "faults"
        assert faults_record["quick"] is True
        assert faults_record["meta"]["title"]

    def test_check_against_fresh_baseline_passes(
        self, faults_record, tmp_path
    ):
        directory = str(tmp_path)
        write_record(
            faults_record,
            baseline_path("faults", quick=True, results_dir=directory),
        )
        result = check_suite("faults", seed=0, results_dir=directory)
        assert result.ok, result.describe()

    def test_check_detects_tampered_rounds(self, faults_record, tmp_path):
        directory = str(tmp_path)
        tampered = dict(faults_record)
        tampered["rows"] = [dict(row) for row in faults_record["rows"]]
        tampered["rows"][0]["rounds"] += 7
        write_record(
            tampered,
            baseline_path("faults", quick=True, results_dir=directory),
        )
        result = check_suite("faults", seed=0, results_dir=directory)
        assert not result.ok
        assert "rounds drifted" in result.describe()

    def test_missing_baseline_is_a_failure_naming_the_fix(self, tmp_path):
        result = check_suite("faults", results_dir=str(tmp_path))
        assert not result.ok
        assert "repro bench faults --quick" in result.describe()


class TestCommittedQuickBaselines:
    """Every registered suite must have a committed quick baseline."""

    _RESULTS = os.path.join(
        os.path.dirname(__file__), "..", "..", "benchmarks", "results"
    )

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_quick_baseline_committed_and_valid(self, name):
        path = os.path.join(self._RESULTS, f"{name}.quick.json")
        assert os.path.exists(path), (
            f"missing {path}; run `repro bench {name} --quick`"
        )
        record = load_record(path)
        assert record["suite"] == name
        assert record["quick"] is True

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_full_baseline_committed_and_valid(self, name):
        path = os.path.join(self._RESULTS, f"{name}.json")
        assert os.path.exists(path), (
            f"missing {path}; run `repro bench {name}`"
        )
        record = load_record(path)
        assert record["suite"] == name
        assert record["quick"] is False
