"""Tests for the workload engine: sustained runs, curves, and the soak.

The engine's contracts: the two serving surfaces (direct session API
and the ``serve_jsonl`` wire path) agree on every deterministic field;
reports are reproducible from the seed; curves isolate their knob; and
a churn+fault soak can never kill the serving loop.
"""

import json

import pytest

from repro.graphs import random_regular
from repro.rng import derive_rng
from repro.runtime import ChaosSpec, ResiliencePolicy, RunConfig, Session
from repro.runtime.session import serve_jsonl
from repro.workloads import (
    Scenario,
    fault_rate_curve,
    get_scenario,
    offered_load_curve,
    percentile_summary,
    run_workload,
)


@pytest.fixture(scope="module")
def graph():
    return random_regular(24, 4, derive_rng(9))


def _quick(name):
    return get_scenario(name).scaled(quick=True)


class TestPercentileSummary:
    def test_reports_the_three_percentiles(self):
        summary = percentile_summary(list(range(1, 101)))
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["p99"] == pytest.approx(99.01)

    def test_empty_is_zeros_not_nans(self):
        assert percentile_summary([]) == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0
        }


class TestRunWorkload:
    @pytest.fixture(scope="class")
    def steady_report(self, graph):
        return run_workload(graph, _quick("steady"), seed=0)

    def test_all_requests_served(self, steady_report):
        assert steady_report.served == steady_report.requests
        assert steady_report.errors == 0
        assert steady_report.total_rounds > 0

    def test_reproducible_from_seed(self, graph, steady_report):
        again = run_workload(graph, _quick("steady"), seed=0)
        assert again.rounds == steady_report.rounds
        assert again.served == steady_report.served
        assert again.total_rounds == steady_report.total_rounds

    def test_modes_agree_on_deterministic_fields(self, graph):
        """Plain, governed and chaos runs: both modes feed the same
        serve loop, so every deterministic column matches."""
        scenario = _quick("churn")
        policy = ResiliencePolicy(retry_budget=2, round_time_s=1e-6)
        chaos = ChaosSpec(
            kill_rate=0.2,
            max_kills=2,
            corrupt_store=1.0,
            truncate_journal=1.0,
        )
        for knobs in ({}, {"policy": policy}, {"chaos": chaos}):
            session_run = run_workload(
                graph, scenario, seed=0, mode="session", **knobs
            )
            jsonl_run = run_workload(
                graph, scenario, seed=0, mode="jsonl", **knobs
            )
            assert session_run.rounds == jsonl_run.rounds
            assert session_run.served == jsonl_run.served
            assert session_run.errors == jsonl_run.errors
            assert session_run.updates == jsonl_run.updates
            assert session_run.total_rounds == jsonl_run.total_rounds
            assert session_run.kills == jsonl_run.kills
            assert session_run.governed == bool(knobs)

    def test_summary_is_json_safe_and_flat(self, steady_report):
        summary = steady_report.summary()
        json.dumps(summary)
        for name in ("rounds", "wall_s", "sojourn_s"):
            for percentile in ("p50", "p95", "p99"):
                assert f"{name}_{percentile}" in summary

    def test_unknown_mode_rejected(self, graph):
        with pytest.raises(ValueError, match="mode"):
            run_workload(graph, "steady", mode="telepathy")

    def test_unknown_scenario_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_workload(graph, "flashmob")

    def test_custom_spec_accepted(self, graph):
        from repro.workloads import WorkloadSpec

        report = run_workload(
            graph, WorkloadSpec(requests=4, packets=2), seed=1
        )
        assert report.scenario == "custom"
        assert report.served == 4


class TestSoak:
    """The acceptance scenario: multi-epoch, churn + faults, batched."""

    @pytest.fixture(scope="class")
    def soak_report(self, graph):
        return run_workload(graph, _quick("soak"), seed=0)

    def test_multi_epoch_with_churn_and_faults(self, soak_report):
        assert soak_report.epochs >= 2
        assert soak_report.updates >= 2
        assert soak_report.batch > 0
        assert soak_report.served > 0
        assert soak_report.served + soak_report.errors > 0
        assert soak_report.requests == soak_report.served or (
            soak_report.errors > 0
        )

    def test_percentiles_populated(self, soak_report):
        assert soak_report.rounds["p50"] > 0
        assert soak_report.rounds["p99"] >= soak_report.rounds["p50"]
        assert soak_report.sojourn_s["p99"] >= soak_report.sojourn_s["p50"]


class TestCurves:
    def test_fault_rate_curve_isolates_the_fault_knob(self, graph):
        scenario = _quick("steady")
        points = fault_rate_curve(
            graph, scenario, (0.0, 0.05), seed=0
        )
        assert [point["fault_rate"] for point in points] == [0.0, 0.05]
        clean = run_workload(graph, scenario, seed=0)
        assert points[0]["total_rounds"] == clean.total_rounds
        # Retries can only add rounds.
        assert points[1]["rounds_p50"] >= points[0]["rounds_p50"]

    def test_offered_load_curve_routes_identical_demands(self, graph):
        points = offered_load_curve(
            graph, _quick("zipf"), (50.0, 3200.0), seed=0
        )
        assert [point["offered_rate"] for point in points] == [
            50.0, 3200.0
        ]
        assert points[0]["total_rounds"] == points[1]["total_rounds"]
        assert points[0]["rounds_p50"] == points[1]["rounds_p50"]


class TestServeJsonlSoak:
    """The wire path under churn + faults + garbage must keep serving."""

    def test_loop_survives_faults_churn_and_garbage(self, graph):
        from repro.workloads import generate_workload

        scenario = _quick("soak")
        workload = generate_workload(graph, scenario, seed=0)
        # Interleave malformed records into the generated stream.
        records = list(workload.records)
        records.insert(0, {"op": "warp", "id": "bad-op"})
        records.insert(
            len(records) // 2, {"neither": "request nor update"}
        )
        records.append({"op": "route", "args": {"sources": [0]}})
        config = RunConfig(
            seed=0, faults="drop=0.05", recovery=scenario.recovery
        )
        with Session.open(graph, config) as session:
            outputs = list(
                serve_jsonl(session, records, batch=scenario.batch)
            )
        errors = [out for out in outputs if "error" in out]
        served = [out for out in outputs if "result" in out]
        updates = [out for out in outputs if "update" in out]
        # The three malformed records always error; injected faults may
        # add DeliveryTimeout error records, never a crash.
        assert len(errors) >= 3
        assert len(served) + len(updates) + len(errors) == len(outputs)
        assert len(served) > 0
        json.dumps(outputs)  # every record is wire-serializable

    def test_delivery_timeouts_become_error_records(self, graph):
        """An unbeatable fault plan errors every request, kills nothing."""
        from repro.workloads import generate_workload

        workload = generate_workload(
            graph, Scenario(name="mini", requests=3, packets=2), seed=1
        )
        config = RunConfig(seed=1, faults="drop=0.95,attempts=2")
        with Session.open(graph, config) as session:
            outputs = list(serve_jsonl(session, workload.records))
        assert len(outputs) == 3
        assert all("error" in out for out in outputs)
        assert all("timed out" in out["error"].lower() or out["error"]
                   for out in outputs)
