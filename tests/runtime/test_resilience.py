"""The SLO governor: deadlines, admission, retries, and the breaker.

Everything asserted here is deterministic by construction: the policy's
``round_time_s`` virtual clock turns service time into
``rounds * round_time_s``, so shed counts, deadline misses, and breaker
transitions are exact functions of the seed and the arrival schedule.
"""

import numpy as np
import pytest

from repro.congest.faults import DeliveryTimeout
from repro.graphs import random_regular
from repro.runtime import (
    CircuitOpen,
    DeadlineExceeded,
    Governor,
    LoadShed,
    Request,
    ResiliencePolicy,
    RunConfig,
    Session,
)

SEED = 5
N = 32

#: Well past any single n=32 route (~300k rounds), never interferes.
HUGE = 1e9


@pytest.fixture(scope="module")
def graph():
    return random_regular(N, 4, np.random.default_rng(1))


@pytest.fixture(scope="module")
def session(graph):
    with Session.open(graph, RunConfig(seed=SEED)) as sess:
        yield sess


def _route(index: int = 0) -> Request:
    rng = np.random.default_rng(50 + index)
    return Request(
        op="route",
        args={
            "sources": list(range(N)),
            "destinations": [int(x) for x in rng.permutation(N)],
        },
        id=f"req-{index}",
    )


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(deadline_rounds=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(deadline_wall_s=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(retry_budget=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(breaker_cooldown=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(staleness_trip=1.5)

    def test_is_null(self):
        assert ResiliencePolicy().is_null
        assert ResiliencePolicy(round_time_s=1e-6).is_null
        assert not ResiliencePolicy(deadline_rounds=1).is_null
        assert not ResiliencePolicy(max_inflight=2).is_null

    def test_backoff_schedule(self):
        policy = ResiliencePolicy(
            retry_budget=5, backoff_base_s=0.01, backoff_cap_s=0.05
        )
        assert [policy.backoff_s(k) for k in (1, 2, 3, 4)] == [
            0.01, 0.02, 0.04, 0.05,
        ]

    def test_rejection_records(self):
        record = LoadShed("too deep", inflight=7, max_inflight=4).record(
            "req-9"
        )
        assert record == {
            "error": "too deep",
            "kind": "shed",
            "id": "req-9",
            "inflight": 7,
            "max_inflight": 4,
        }
        assert DeadlineExceeded("x").record(None)["kind"] == (
            "deadline_exceeded"
        )
        assert CircuitOpen("x").record(None)["kind"] == "circuit_open"


class TestDeadlines:
    def test_miss_yields_structured_record(self, session):
        governor = Governor(
            ResiliencePolicy(deadline_rounds=10, round_time_s=1e-6)
        )
        record = governor.serve(session, _route(), arrival_s=0.0)
        assert record["kind"] == "deadline_exceeded"
        assert record["id"] == "req-0"
        assert record["rounds"] > record["deadline_rounds"] == 10.0
        assert governor.counters["deadline_miss"] == 1
        assert governor.counters["goodput"] == 0
        assert governor.counters["served"] == 1

    def test_generous_deadline_is_invisible(self, session):
        reference = session.submit(_route()).summary()
        governor = Governor(
            ResiliencePolicy(deadline_rounds=HUGE, round_time_s=1e-6)
        )
        governed = governor.serve(session, _route(), arrival_s=0.0)
        sojourn = governed.pop("sojourn_s")
        service = governed.pop("service_s")
        governed.pop("wall_s"), reference.pop("wall_s")
        # The serve index differs on a shared session; order is not
        # what this asserts.
        governed.pop("index"), reference.pop("index")
        assert governed == reference
        assert service == pytest.approx(
            reference["rounds"] * 1e-6, rel=1e-9
        )
        assert sojourn == pytest.approx(service)
        assert governor.counters["goodput"] == 1

    def test_cancellation_bounds_occupancy(self, session):
        """A missed request holds the virtual server only for its
        budget, so the clock advances by the budget, not the cost."""
        governor = Governor(
            ResiliencePolicy(deadline_rounds=10, round_time_s=1e-6)
        )
        governor.serve(session, _route(), arrival_s=0.0)
        assert governor.clock == pytest.approx(10 * 1e-6)


class TestAdmission:
    def test_sheds_above_inflight_bound(self, session):
        governor = Governor(
            ResiliencePolicy(max_inflight=1, round_time_s=1e-6)
        )
        first = governor.serve(session, _route(0), arrival_s=0.0)
        assert "error" not in first
        # Arrives while req-0 is still in flight (service ~0.3s).
        second = governor.serve(session, _route(1), arrival_s=1e-4)
        assert second["kind"] == "shed"
        assert second["inflight"] == 1
        assert governor.counters["shed"] == 1
        # After req-0 completes the server is free again.
        third = governor.serve(
            session, _route(2), arrival_s=first["sojourn_s"] + 1.0
        )
        assert "error" not in third
        assert governor.counters["goodput"] == 2

    def test_unbounded_without_arrivals(self, session):
        governor = Governor(
            ResiliencePolicy(max_inflight=1, round_time_s=1e-6)
        )
        for index in range(3):
            record = governor.serve(session, _route(index))
            assert "error" not in record
        assert governor.counters["shed"] == 0


class TestBreaker:
    def test_trips_after_consecutive_failures(self, session):
        governor = Governor(
            ResiliencePolicy(
                deadline_rounds=10,
                breaker_failures=2,
                breaker_cooldown=2,
                round_time_s=1e-6,
            )
        )
        # Two misses trip it ...
        for index in range(2):
            record = governor.serve(session, _route(index), arrival_s=0.0)
            assert record["kind"] == "deadline_exceeded"
        assert governor.state == "open"
        assert governor.counters["breaker_trips"] == 1
        # ... then cooldown requests fast-fail without being served.
        served_before = governor.counters["served"]
        for index in range(2, 4):
            record = governor.serve(session, _route(index), arrival_s=0.0)
            assert record["kind"] == "circuit_open"
        assert governor.counters["served"] == served_before
        assert governor.counters["circuit_open"] == 2
        # The half-open probe is served; its miss re-trips the breaker.
        record = governor.serve(session, _route(4), arrival_s=0.0)
        assert record["kind"] == "deadline_exceeded"
        assert governor.state == "open"
        assert governor.counters["breaker_trips"] == 2

    def test_half_open_probe_success_closes(self, session):
        governor = Governor(
            ResiliencePolicy(
                deadline_rounds=10,
                breaker_failures=1,
                breaker_cooldown=1,
                round_time_s=1e-6,
            )
        )
        assert governor.serve(
            session, _route(0), arrival_s=0.0
        )["kind"] == "deadline_exceeded"
        assert governor.serve(
            session, _route(1), arrival_s=0.0
        )["kind"] == "circuit_open"
        # Probe under a relaxed deadline: succeed by swapping policy
        # for one with room (same governor state machine).
        governor.policy = ResiliencePolicy(
            deadline_rounds=HUGE, breaker_failures=1, round_time_s=1e-6
        )
        probe = governor.serve(session, _route(2), arrival_s=0.0)
        assert "error" not in probe
        assert governor.state == "closed"


class TestRetries:
    def _flaky(self, session, failures: int):
        """Make the session's submit raise ``failures`` DeliveryTimeouts
        before delegating to the real thing."""
        real = session.submit
        state = {"left": failures}

        def submit(request):
            if state["left"] > 0:
                state["left"] -= 1
                raise DeliveryTimeout(
                    "injected timeout", culprits=((3, 7, 2),)
                )
            return real(request)

        return submit

    def test_retry_recovers_within_budget(self, session, monkeypatch):
        governor = Governor(
            ResiliencePolicy(
                retry_budget=2,
                backoff_base_s=0.01,
                round_time_s=1e-6,
            )
        )
        monkeypatch.setattr(session, "submit", self._flaky(session, 2))
        record = governor.serve(session, _route(), arrival_s=0.0)
        assert "error" not in record
        assert record["retry_backoff_s"] == pytest.approx(0.03)
        assert governor.counters["retries"] == 2
        assert governor.counters["timeouts"] == 0
        assert governor.counters["goodput"] == 1

    def test_budget_exhaustion_reports_timeout(self, session, monkeypatch):
        governor = Governor(
            ResiliencePolicy(retry_budget=1, round_time_s=1e-6)
        )
        monkeypatch.setattr(session, "submit", self._flaky(session, 5))
        record = governor.serve(session, _route(), arrival_s=0.0)
        assert record["kind"] == "delivery_timeout"
        assert record["culprits"] == [[3, 7, 2]]
        assert governor.counters["retries"] == 1
        assert governor.counters["timeouts"] == 1
        assert governor.counters["goodput"] == 0


class TestSessionIntegration:
    def test_config_resilience_threads_through(self, graph):
        config = RunConfig(
            seed=SEED,
            resilience=ResiliencePolicy(
                deadline_rounds=10, round_time_s=1e-6
            ),
        )
        with Session.open(graph, config) as session:
            assert session.governor is not None
            record = session.governor.serve(
                session, _route(), arrival_s=0.0
            )
            assert record["kind"] == "deadline_exceeded"

    def test_null_policy_means_no_governor(self, graph):
        config = RunConfig(seed=SEED)
        with Session.open(graph, config) as session:
            assert session.governor is None

    def test_config_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            RunConfig(resilience={"deadline_rounds": 10})


class TestGovernedServeJsonl:
    def test_bad_request_yields_error_record_not_crash(self, session):
        """The governed branch must absorb runtime ValueErrors too.

        The governor's retry loop only catches DeliveryTimeout, so a
        request that passes construction-time validation but fails in
        the runner (misaligned demands here) used to escape serve_jsonl
        and kill the loop — violating 'the loop outlives any single
        record'."""
        from repro.runtime import serve_jsonl

        records = [
            {"op": "route", "id": "ok-1"},
            {
                "op": "route",
                "args": {"sources": [0, 1], "destinations": [2]},
                "id": "bad-demands",
            },
            {"op": "route", "id": "ok-2"},
        ]
        assert session.governor is None
        session.governor = Governor(ResiliencePolicy(retry_budget=1))
        try:
            responses = list(serve_jsonl(session, records))
        finally:
            session.governor = None
        assert [r["id"] for r in responses] == [
            "ok-1", "bad-demands", "ok-2",
        ]
        assert "error" in responses[1]
        assert "error" not in responses[0]
        assert "error" not in responses[2]
