"""Tests for failure detection (analytic view vs. the real wire)."""

import pytest

from repro.congest.detector import (
    MAX_WAIT_ROUNDS,
    MISS_THRESHOLD,
    CrashView,
    crash_view,
    detection_rounds,
    run_heartbeat_detector,
)
from repro.congest.faults import FaultPlan, FaultSpec
from repro.graphs import random_regular
from repro.rng import derive_rng


def _plan(text: str, label: int = 0) -> FaultPlan:
    return FaultPlan(FaultSpec.parse(text), rng=derive_rng(77, label))


@pytest.fixture(scope="module")
def graph32():
    return random_regular(32, 6, derive_rng(77, 32))


class TestCrashView:
    def test_null_plan(self):
        view = crash_view(None, 16)
        assert view.is_null
        assert view.ever_down == frozenset()
        assert view.detection_rounds == 0.0
        assert view.down_until(3, 5) == -1

    def test_window_queries(self):
        view = CrashView(
            8, ((2, 10, frozenset({1, 4})),), detection_rounds(1, 8)
        )
        assert view.down_until(1, 2) == view.down_until(4, 10) == 10
        assert view.down_until(1, 1) == view.down_until(1, 11) == -1
        assert view.down_until(1, 5) == view.down_until(4, 5) == 10
        assert view.down_until(2, 5) == -1

    def test_overlapping_windows_take_latest_end(self):
        view = CrashView(
            8,
            ((2, 10, frozenset({1})), (5, 30, frozenset({1}))),
            detection_rounds(2, 8),
        )
        assert view.down_until(1, 6) == 30

    def test_permanence_classification(self):
        view = CrashView(
            8,
            (
                (1, 40, frozenset({2})),
                (1, MAX_WAIT_ROUNDS + 1, frozenset({5})),
            ),
            detection_rounds(2, 8),
        )
        assert view.permanently_down() == frozenset({5})
        assert view.waitable_end() == 40
        # A window ending on the patience bound itself is still waited out.
        edge = CrashView(
            8, ((1, MAX_WAIT_ROUNDS, frozenset({2})),), detection_rounds(1, 8)
        )
        assert edge.permanently_down() == frozenset()
        assert edge.waitable_end() == MAX_WAIT_ROUNDS

    def test_detection_cost_model(self):
        assert detection_rounds(0, 64) == 0.0
        assert detection_rounds(1, 64) == float(MISS_THRESHOLD + 6)
        assert detection_rounds(2, 64) == 2 * detection_rounds(1, 64)


class TestAnalyticView:
    def test_membership_matches_plan_and_is_stable(self, graph32):
        plan = _plan("crash=5@rounds:3-9", label=1)
        n = graph32.num_nodes
        view_a = crash_view(plan, n)
        view_b = crash_view(plan, n)
        assert view_a.windows == view_b.windows
        (start, end, nodes) = view_a.windows[0]
        assert (start, end) == (3, 9)
        assert len(nodes) == 5

    def test_view_never_consumes_wire_draws(self, graph32):
        """Asking for the view must not advance the drop stream."""
        plan_a = _plan("drop=0.2,crash=4@rounds:2-6", label=2)
        plan_b = _plan("drop=0.2,crash=4@rounds:2-6", label=2)
        crash_view(plan_a, graph32.num_nodes)  # only plan_a is queried
        report_a = run_heartbeat_detector(
            graph32, duration=10, faults=plan_a
        )
        report_b = run_heartbeat_detector(
            graph32, duration=10, faults=plan_b
        )
        assert report_a.suspected == report_b.suspected
        assert report_a.stats.rounds == report_b.stats.rounds


class TestWireAgreement:
    def test_heartbeat_suspects_exactly_the_crashed(self, graph32):
        plan = _plan("crash=6@rounds:2-40", label=3)
        view = crash_view(plan, graph32.num_nodes)
        crashed = set(view.windows[0][2])
        report = run_heartbeat_detector(graph32, duration=12, faults=plan)
        assert set(report.suspected) == crashed

    def test_suspicion_latency(self, graph32):
        """A node silent from round s is suspected ~MISS_THRESHOLD
        rounds later, never before."""
        plan = _plan("crash=6@rounds:2-40", label=3)
        report = run_heartbeat_detector(graph32, duration=12, faults=plan)
        for round_number in report.suspected.values():
            assert round_number >= 2 + MISS_THRESHOLD - 1

    def test_clean_wire_suspects_nobody(self, graph32):
        report = run_heartbeat_detector(graph32, duration=8, faults=None)
        assert report.suspected == {}

    def test_recovered_window_stops_costing(self, graph32):
        """After the window closes the detector hears beats again; the
        run still terminates within duration+2 rounds."""
        plan = _plan("crash=4@rounds:2-5", label=4)
        report = run_heartbeat_detector(graph32, duration=14, faults=plan)
        assert report.stats.rounds <= 16


class TestContextIntegration:
    def test_view_charged_once_under_self_heal(self, graph32):
        from repro.runtime import RunContext

        context = RunContext(
            seed=5, faults="crash=3@rounds:1-20", recovery="self-heal"
        )
        view_a = context.crash_view_for(graph32.num_nodes)
        view_b = context.crash_view_for(graph32.num_nodes)
        assert view_a is view_b
        charges = [
            charge
            for charge in context.ledger.charges
            if charge.label == "recovery/detection"
        ]
        assert len(charges) == 1
        assert charges[0].rounds == view_a.detection_rounds

    def test_fail_fast_context_never_charges_recovery(self, graph32):
        """Fail-fast may build the view (callers gate on the mode) but
        must not charge or emit anything under recovery/."""
        from repro.runtime import RunContext

        context = RunContext(seed=5, faults="crash=3@rounds:1-20")
        assert context.crash_view_for(graph32.num_nodes) is not None
        assert not any(
            charge.label.startswith("recovery/")
            for charge in context.ledger.charges
        )

    def test_crash_free_plan_has_no_view(self, graph32):
        from repro.runtime import RunContext

        context = RunContext(
            seed=5, faults="drop=0.1", recovery="self-heal"
        )
        assert context.crash_view_for(graph32.num_nodes) is None
