"""Governed and chaos-driven workload runs: the robustness contracts.

Three claims, each load-bearing for the serve stack's SLO story:

* an *inert* policy (virtual clock only) changes nothing — the governed
  loop reproduces the ungoverned totals bit for bit;
* a seeded chaos campaign (kills + corruption + truncation) also
  changes nothing deterministic — recovery restores the exact stream;
* deadlines plus admission *bound the sojourn tail*: with at most
  ``max_inflight`` requests in flight and every request cancelled at
  its deadline, an admitted request waits behind at most
  ``max_inflight`` budgets plus its own.
"""

import pytest

from repro.graphs import random_regular
from repro.rng import derive_rng
from repro.runtime import ChaosSpec, ResiliencePolicy
from repro.workloads import get_scenario, run_workload

#: Virtual seconds per round: the deterministic clock every governed
#: assertion in this file rides on.
ROUND_TIME_S = 1e-6


@pytest.fixture(scope="module")
def graph():
    return random_regular(24, 4, derive_rng(9))


def _quick(name):
    return get_scenario(name).scaled(quick=True)


class TestGovernedEquivalence:
    def test_inert_policy_reproduces_ungoverned_totals(self, graph):
        ungoverned = run_workload(graph, _quick("steady"), seed=0)
        governed = run_workload(
            graph,
            _quick("steady"),
            seed=0,
            policy=ResiliencePolicy(round_time_s=ROUND_TIME_S),
        )
        assert governed.governed
        assert governed.served == ungoverned.served
        assert governed.errors == ungoverned.errors
        assert governed.total_rounds == ungoverned.total_rounds
        assert governed.rounds == ungoverned.rounds
        assert governed.goodput == governed.served
        assert governed.shed == 0
        assert governed.deadline_miss == 0

    def test_ungoverned_summary_has_no_governed_keys(self, graph):
        report = run_workload(graph, _quick("steady"), seed=0)
        assert not report.governed
        assert "goodput" not in report.summary()
        assert "kills" not in report.summary()


class TestChaosCampaign:
    @pytest.fixture(scope="class")
    def clean(self, graph):
        return run_workload(
            graph,
            _quick("churn"),
            seed=0,
            policy=ResiliencePolicy(
                retry_budget=2, round_time_s=ROUND_TIME_S
            ),
        )

    @pytest.fixture(scope="class")
    def chaotic(self, graph):
        return run_workload(
            graph,
            _quick("churn"),
            seed=0,
            policy=ResiliencePolicy(
                retry_budget=2, round_time_s=ROUND_TIME_S
            ),
            chaos=ChaosSpec(
                kill_rate=0.2,
                max_kills=2,
                corrupt_store=1.0,
                truncate_journal=1.0,
            ),
        )

    def test_kills_happened_and_recovered(self, chaotic):
        assert chaotic.kills == 2
        assert chaotic.recoveries == 2
        assert chaotic.corruptions == 2
        assert chaotic.truncations == 2
        assert chaotic.recover_s["p50"] > 0.0

    def test_campaign_is_deterministically_invisible(self, clean, chaotic):
        """Kill + corrupt + truncate + recover must not change any
        deterministic column of the report."""
        assert chaotic.served == clean.served
        assert chaotic.errors == clean.errors
        assert chaotic.updates == clean.updates
        assert chaotic.total_rounds == clean.total_rounds
        assert chaotic.rounds == clean.rounds

    def test_campaign_replays_from_seed(self, graph, chaotic):
        again = run_workload(
            graph,
            _quick("churn"),
            seed=0,
            policy=ResiliencePolicy(
                retry_budget=2, round_time_s=ROUND_TIME_S
            ),
            chaos=ChaosSpec(
                kill_rate=0.2,
                max_kills=2,
                corrupt_store=1.0,
                truncate_journal=1.0,
            ),
        )
        assert again.kills == chaotic.kills
        assert again.total_rounds == chaotic.total_rounds
        assert again.rounds == chaotic.rounds

    def test_fault_windows_open_and_close(self, graph):
        report = run_workload(
            graph,
            _quick("steady"),
            seed=0,
            policy=ResiliencePolicy(
                retry_budget=2, round_time_s=ROUND_TIME_S
            ),
            chaos=ChaosSpec(
                fault_rate=0.3, fault_spec="drop=0.2", fault_window=2
            ),
        )
        assert report.fault_windows > 0
        assert report.served + report.errors == report.requests

    @pytest.mark.parametrize(
        ("seed", "truncate_bytes"), [(0, 64), (0, 160), (3, 100)]
    )
    def test_torn_journal_tail_loses_no_update(self, seed, truncate_bytes):
        """A tear that destroys acknowledged update lines is still
        invisible: run_workload re-applies the updates it fed past the
        journal's surviving prefix before serving resumes."""
        graph = random_regular(32, 6, derive_rng(seed, 32))
        policy = ResiliencePolicy(
            retry_budget=2, max_inflight=16, round_time_s=ROUND_TIME_S
        )
        clean = run_workload(
            graph, _quick("churn"), seed=seed, policy=policy
        )
        chaotic = run_workload(
            graph,
            _quick("churn"),
            seed=seed,
            policy=policy,
            chaos=ChaosSpec(
                kill_rate=0.15,
                max_kills=2,
                corrupt_store=1.0,
                truncate_journal=1.0,
                truncate_bytes=truncate_bytes,
            ),
        )
        assert chaotic.kills > 0
        assert chaotic.truncations == chaotic.kills
        assert chaotic.served == clean.served
        assert chaotic.errors == clean.errors
        assert chaotic.updates == clean.updates
        assert chaotic.total_rounds == clean.total_rounds
        assert chaotic.rounds == clean.rounds


class TestSojournTailBound:
    def test_deadline_plus_admission_bound_the_tail(self, graph):
        """The acceptance bound: admitted requests' p99 sojourn is
        within ``(max_inflight + 1) * deadline`` virtual seconds — a
        queue of at most ``max_inflight`` requests each cancelled at
        its budget, plus the request's own occupancy.  Chaos fault
        windows inject slow self-heal periods (drop faults force
        retransmission rounds) into the burst, so the bound is proved
        under degradation, not on the happy path: slowed requests
        either finish under the deadline or are cancelled at it, and
        what admission refuses is accounted as shed."""
        max_inflight = 4
        deadline_rounds = 5e5  # p50 ~395k, p99 ~562k at n=24, clean
        policy = ResiliencePolicy(
            deadline_rounds=deadline_rounds,
            max_inflight=max_inflight,
            round_time_s=ROUND_TIME_S,
        )
        report = run_workload(
            graph,
            _quick("burst"),
            seed=0,
            policy=policy,
            chaos=ChaosSpec(
                fault_rate=0.4, fault_spec="drop=0.1", fault_window=3
            ),
        )
        assert report.fault_windows > 0
        assert report.governed
        # The burst must actually exercise the policy: something was
        # shed or missed, and something was still admitted and served.
        assert report.goodput > 0
        assert report.shed + report.deadline_miss > 0
        bound = (max_inflight + 1) * deadline_rounds * ROUND_TIME_S
        assert report.sojourn_s["p99"] <= bound, (
            f"p99 sojourn {report.sojourn_s['p99']:.3f}s breaches the "
            f"(max_inflight+1) x deadline bound {bound:.3f}s"
        )
