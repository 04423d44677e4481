"""Tests for the benchmark registry and the check/refresh workflow."""

import os

import pytest

from repro.bench import (
    SUITES,
    baseline_path,
    check_suite,
    compare_records,
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

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_full_records_carry_provenance(self, name):
        """Every full record says where it was measured; none is a
        verbatim copy of a retired per-PR file any more."""
        meta = load_record(
            baseline_path(name, quick=False, results_dir=RESULTS)
        )["meta"]
        assert set(meta["provenance"]) == {
            "commit",
            "python",
            "numpy",
            "cpu_count",
        }
        assert meta["provenance"]["commit"]
        assert "legacy" not in meta and "source" not in meta

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
        result = check_suite("faults", results_dir=directory)
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
        result = check_suite("faults", results_dir=directory)
        assert not result.ok
        assert "rounds drifted" in result.describe()

    def test_check_runs_at_the_baseline_seed(self, tmp_path):
        directory = str(tmp_path)
        write_record(
            run_suite("faults", seed=3, quick=True),
            baseline_path("faults", quick=True, results_dir=directory),
        )
        result = check_suite("faults", results_dir=directory)
        assert result.ok, result.describe()

    def test_run_suite_records_provenance(self, faults_record):
        provenance = faults_record["meta"]["provenance"]
        assert provenance["cpu_count"] >= 1
        assert provenance["python"].count(".") == 2

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


class TestCommittedFullBaselines:
    """A full record that no longer reproduces fails tier-1.

    Only the cheap full tiers run here (about 0.5–1 s each on a 2-core
    host).  ``kernels``, ``engine`` and ``serve`` take about 11 s, 24 s
    and 4 s, too slow for every test run; ``tripwire``'s full tier is
    its quick tier, which ``repro bench --check`` already gates.
    """

    @pytest.mark.parametrize(
        "name", ["faults", "recovery", "serve-soak", "load-curve", "chaos"]
    )
    def test_cheap_full_tier_reproduces(self, name):
        baseline = load_record(
            baseline_path(name, quick=False, results_dir=RESULTS)
        )
        current = run_suite(name, seed=baseline["seed"], quick=False)
        result = compare_records(baseline, current, get_suite(name).gate)
        assert result.ok, result.describe()
