"""Tests for the uniform regression gate (`repro.bench.gate`)."""

import pytest

from repro.bench import GatePolicy, compare_records, make_record


def _record(rows, suite="kernels", **kwargs):
    return make_record(suite, rows, **kwargs)


def _row(**overrides):
    row = {
        "kernel": "walk_engine",
        "n": 64,
        "seed": 0,
        "wall_s": 0.25,
        "rounds": 100,
    }
    row.update(overrides)
    return row


class TestCompareRecords:
    def test_identical_records_pass(self):
        record = _record([_row(), _row(n=128)])
        result = compare_records(record, record, GatePolicy())
        assert result.ok
        assert result.describe() == "kernels: OK"

    def test_rounds_drift_fails(self):
        baseline = _record([_row(rounds=100)])
        current = _record([_row(rounds=101)])
        result = compare_records(baseline, current, GatePolicy())
        assert not result.ok
        assert "rounds drifted" in result.describe()

    def test_wall_drift_is_ignored(self):
        baseline = _record([_row(wall_s=0.1)])
        current = _record([_row(wall_s=9.9)])
        assert compare_records(baseline, current, GatePolicy()).ok

    def test_float_serialization_jitter_tolerated(self):
        baseline = _record([_row(rounds=100.0)])
        current = _record([_row(rounds=100.0 * (1 + 1e-12))])
        assert compare_records(baseline, current, GatePolicy()).ok

    def test_missing_row_fails_both_directions(self):
        two = _record([_row(), _row(n=128)])
        one = _record([_row()])
        missing = compare_records(two, one, GatePolicy())
        assert any("missing" in f for f in missing.failures)
        extra = compare_records(one, two, GatePolicy())
        assert any("refresh" in f for f in extra.failures)

    def test_duplicate_row_keys_rejected(self):
        """Two rows under one (kernel, n, seed) key: a dict keyed by it
        kept only the last, so the first row's drift (5 -> 6) passed."""
        with pytest.raises(ValueError, match=r"\('walk_engine', 64, 0\)"):
            _record([_row(rounds=5), _row(rounds=7)])
        baseline = {
            "schema": "repro-bench/v1", "suite": "kernels", "seed": 0,
            "quick": False, "meta": {},
            "rows": [_row(rounds=5), _row(rounds=7)],
        }
        current = dict(baseline, rows=[_row(rounds=6), _row(rounds=7)])
        with pytest.raises(ValueError, match="repeats the key"):
            compare_records(baseline, current, GatePolicy())

    def test_suite_mismatch_fails(self):
        baseline = _record([_row()], suite="kernels")
        current = _record([_row()], suite="faults")
        result = compare_records(baseline, current, GatePolicy())
        assert any("suite mismatch" in f for f in result.failures)


class TestMetricGating:
    policy = GatePolicy(exact_metrics=("served", "rounds_p50"))

    def test_gated_metric_drift_fails(self):
        baseline = _record([_row(metrics={"served": 12})])
        current = _record([_row(metrics={"served": 11})])
        result = compare_records(baseline, current, self.policy)
        assert any("'served' drifted" in f for f in result.failures)

    def test_ungated_metric_drift_ignored(self):
        baseline = _record([_row(metrics={"wall_p50": 0.1})])
        current = _record([_row(metrics={"wall_p50": 5.0})])
        assert compare_records(baseline, current, self.policy).ok

    def test_metric_missing_on_one_side_fails(self):
        with_metric = _record([_row(metrics={"served": 12})])
        without = _record([_row()])
        result = compare_records(with_metric, without, self.policy)
        assert any("only present" in f for f in result.failures)

    def test_metric_missing_on_both_sides_ok(self):
        record = _record([_row()])
        assert compare_records(record, record, self.policy).ok


class TestWallBudgets:
    def test_over_budget_fails(self):
        policy = GatePolicy(wall_budget_s={"walk_engine": 1.0})
        baseline = _record([_row(wall_s=0.5)])
        current = _record([_row(wall_s=1.5)])
        result = compare_records(baseline, current, policy)
        assert any("exceeds" in f for f in result.failures)

    def test_nan_wall_fails_budget(self):
        """NaN compares False against everything, so a ``>`` check
        would wave it through; the gate must not."""
        policy = GatePolicy(wall_budget_s={"walk_engine": 1.0})
        baseline = _record([_row(wall_s=0.5)])
        current = _record([_row(wall_s=0.5)])
        current["rows"][0]["wall_s"] = float("nan")
        result = compare_records(baseline, current, policy)
        assert any("exceeds" in f for f in result.failures)

    def test_budget_applies_to_current_not_baseline(self):
        policy = GatePolicy(wall_budget_s={"walk_engine": 1.0})
        slow_baseline = _record([_row(wall_s=9.0)])
        fast_current = _record([_row(wall_s=0.5)])
        assert compare_records(slow_baseline, fast_current, policy).ok

    def test_budget_only_names_its_kernel(self):
        policy = GatePolicy(wall_budget_s={"other_kernel": 0.01})
        record = _record([_row(wall_s=9.0)])
        assert compare_records(record, record, policy).ok


class TestDescribe:
    def test_failures_listed_one_per_line(self):
        baseline = _record([_row(rounds=1), _row(n=128, rounds=2)])
        current = _record([_row(rounds=5), _row(n=128, rounds=6)])
        text = compare_records(baseline, current, GatePolicy()).describe()
        assert "2 regression(s)" in text
        assert text.count("\n") == 2
