"""Robustness: pathological topologies, adversarial inputs, and faults.

The paper's guarantees assume good expansion *and* a perfect network;
these tests push the implementation onto graphs with terrible
expansion, trivial degrees, or degenerate sizes — and onto networks
that drop, duplicate, delay, and crash — and require it to either work
correctly (at whatever measured cost) or fail loudly with a diagnosable
error — never deliver wrong results silently.

The fault matrix at the bottom is the contract of docs/robustness.md:
zero-fault plans are bit-identical to no plan on both backends, drop
faults are beaten by retries whose every round is accounted, and crash
windows produce ``DeliveryTimeout``, not partial results.
"""

import numpy as np
import pytest

from repro import RunConfig, run
from repro.baselines import kruskal
from repro.congest.detector import CrashView, detection_rounds
from repro.congest.faults import (
    CrashWindow,
    DeliveryTimeout,
    FaultPlan,
    FaultSpec,
)
from repro.congest.forwarding import forward_demands
from repro.congest.reliable import reliable_forward_demands
from repro.core import Router, build_hierarchy, minimum_spanning_tree
from repro.graphs import (
    Graph,
    WeightedGraph,
    binary_tree,
    path_graph,
    random_regular,
    star_graph,
    with_random_weights,
)
from repro.rng import derive_rng
from repro.runtime import MemorySink, RunContext, sum_ledger_charges


class TestDegenerateSizes:
    def test_two_node_graph_routes(self, params):
        graph = Graph(2, [(0, 1)])
        rng = np.random.default_rng(260)
        hierarchy = build_hierarchy(graph, params, rng)
        router = Router(hierarchy, params=params, rng=rng)
        result = router.route(np.array([0, 1]), np.array([1, 0]))
        assert result.delivered

    def test_two_node_mst(self, params):
        graph = WeightedGraph(2, [(0, 1)], [3.5])
        rng = np.random.default_rng(261)
        result = minimum_spanning_tree(graph, params, rng)
        assert result.edge_ids == [0]
        assert result.total_weight == pytest.approx(3.5)

    def test_triangle_mst(self, params):
        graph = WeightedGraph(
            3, [(0, 1), (1, 2), (0, 2)], [1.0, 2.0, 3.0]
        )
        rng = np.random.default_rng(262)
        result = minimum_spanning_tree(graph, params, rng)
        assert result.edge_ids == [0, 1]


class TestTerribleExpansion:
    """Trees and paths: conductance ~1/n, mixing time ~n^2."""

    def test_binary_tree_pipeline(self, params):
        graph = binary_tree(31)
        rng = np.random.default_rng(263)
        hierarchy = build_hierarchy(graph, params, rng)
        router = Router(hierarchy, params=params, rng=rng)
        perm = rng.permutation(31)
        assert router.route(np.arange(31), perm).delivered

    def test_path_graph_mst(self, params):
        rng = np.random.default_rng(264)
        graph = with_random_weights(path_graph(20), rng)
        result = minimum_spanning_tree(graph, params, rng)
        assert result.edge_ids == kruskal(graph)

    def test_star_graph_pipeline(self, params):
        """The hub simulates n-1 virtual nodes; leaves simulate one."""
        graph = star_graph(24)
        rng = np.random.default_rng(265)
        hierarchy = build_hierarchy(graph, params, rng)
        # Hub hosts half of all virtual nodes.
        hub_vnodes = int(np.sum(hierarchy.g0.virtual.host == 0))
        assert hub_vnodes == 23
        router = Router(hierarchy, params=params, rng=rng)
        perm = rng.permutation(24)
        assert router.route(np.arange(24), perm).delivered


class TestMultigraphs:
    def test_multigraph_pipeline(self, params):
        """Parallel edges: more virtual nodes on the doubled pair."""
        edges = [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]
        graph = Graph(4, edges)
        rng = np.random.default_rng(266)
        hierarchy = build_hierarchy(graph, params, rng)
        assert hierarchy.g0.virtual.count == 12
        router = Router(hierarchy, params=params, rng=rng)
        result = router.route(
            np.array([0, 1, 2, 3]), np.array([2, 3, 0, 1])
        )
        assert result.delivered

    def test_multigraph_mst_uses_cheaper_parallel_edge(self, params):
        edges = [(0, 1), (0, 1), (1, 2)]
        graph = WeightedGraph(3, edges, [5.0, 1.0, 2.0])
        rng = np.random.default_rng(267)
        result = minimum_spanning_tree(graph, params, rng)
        assert result.edge_ids == [1, 2]


class TestAdversarialDemand:
    def test_maximal_skew_with_phasing(self, router64):
        """Every packet to one node, repeated: heavy phasing, delivered."""
        sources = np.tile(np.arange(64), 3)
        destinations = np.full(192, 17, dtype=np.int64)
        result = router64.route(sources, destinations)
        assert result.delivered
        assert result.num_phases > 1

    def test_pathological_weights_mst(self, params, expander64, hierarchy64):
        """Weights spanning 12 orders of magnitude."""
        rng = np.random.default_rng(268)
        weights = 10.0 ** rng.uniform(-6, 6, size=expander64.num_edges)
        graph = WeightedGraph(
            expander64.num_nodes, list(expander64.edges()), weights
        )
        result = minimum_spanning_tree(
            graph, params, rng, hierarchy=hierarchy64
        )
        assert result.edge_ids == kruskal(graph)

    def test_negative_weights_mst(self, params, expander64, hierarchy64):
        """Negative weights are legal for MST."""
        rng = np.random.default_rng(269)
        weights = rng.uniform(-10, -1, size=expander64.num_edges)
        graph = WeightedGraph(
            expander64.num_nodes, list(expander64.edges()), weights
        )
        result = minimum_spanning_tree(
            graph, params, rng, hierarchy=hierarchy64
        )
        assert result.edge_ids == kruskal(graph)
        assert result.total_weight < 0


# --------------------------------------------------------------------------
# The fault matrix (docs/robustness.md)
# --------------------------------------------------------------------------


def _plan(text: str, label: int = 0) -> FaultPlan:
    return FaultPlan(FaultSpec.parse(text), rng=derive_rng(1234, label))


def _neighbor_demands(graph):
    """Single-hop demands: every node sends to its first neighbour."""
    origins = np.arange(graph.num_nodes)
    return origins, graph.indices[graph.indptr[:-1]]


class TestFaultSpecParsing:
    def test_full_grammar_round_trip(self):
        spec = FaultSpec.parse(
            "drop=0.01,dup=0.001,delay=0.05,max_delay=4,attempts=16,"
            "crash=3@rounds:10-20,crash=1@rounds:40-45"
        )
        assert spec.drop == pytest.approx(0.01)
        assert spec.duplicate == pytest.approx(0.001)
        assert spec.delay == pytest.approx(0.05)
        assert spec.max_delay == 4
        assert spec.max_attempts == 16
        assert spec.crashes == (
            CrashWindow(3, 10, 20),
            CrashWindow(1, 40, 45),
        )
        assert FaultSpec.parse(spec.describe()) == spec

    def test_duplicate_key_alias(self):
        assert FaultSpec.parse("duplicate=0.5") == FaultSpec.parse("dup=0.5")

    def test_null_detection(self):
        assert FaultSpec.parse("drop=0.0").is_null
        assert FaultSpec().is_null
        assert not FaultSpec.parse("crash=1@rounds:1-2").is_null

    @pytest.mark.parametrize(
        "bad",
        [
            "bogus=1",
            "drop=2.0",
            "drop=-0.1",
            "crash=3@rounds:0-5",
            "crash=3@rounds:9-5",
            "crash=x@rounds:1-2",
            "drop",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)


class TestZeroFaultIdentity:
    """Guarantee 1: a rate-0 plan is bit-identical to no plan at all."""

    def test_oracle_route_bit_identical(self, expander64):
        clean = run("route", expander64, config=RunConfig(seed=11))
        gated = run(
            "route", expander64,
            config=RunConfig(seed=11, faults="drop=0.0,dup=0,delay=0"),
        )
        assert (
            gated.backend.g0_edge_multiset()
            == clean.backend.g0_edge_multiset()
        )
        assert gated.result.cost_rounds == clean.result.cost_rounds
        assert np.array_equal(
            gated.result.final_vnodes, clean.result.final_vnodes
        )
        assert gated.result.fault_rounds == 0.0
        assert gated.fault_rounds() == 0.0

    def test_native_route_bit_identical(self):
        graph = random_regular(24, 6, np.random.default_rng(5))
        results = {}
        for faults in (None, "drop=0.0"):
            outcome = run(
                "route", graph,
                config=RunConfig(
                    seed=11, backend="native",
                    validate="first_round", faults=faults,
                ),
            )
            results[faults] = (
                outcome.backend.g0_edge_multiset(),
                outcome.result.cost_rounds,
                outcome.result.final_vnodes.tolist(),
            )
        assert results[None] == results["drop=0.0"]

    def test_forwarding_null_plan_short_circuits(self, expander64):
        origins, targets = _neighbor_demands(expander64)
        assert forward_demands(
            expander64, origins, targets, faults=_plan("drop=0")
        ) == forward_demands(expander64, origins, targets)


class TestNetworkFaultInjection:
    """The simulator's wire faults are sampled, counted, and visible."""

    def test_drops_counted_and_beaten(self, expander64):
        origins, targets = _neighbor_demands(expander64)
        report = reliable_forward_demands(
            expander64, origins, targets, faults=_plan("drop=0.3", label=1)
        )
        assert report.delivered == expander64.num_nodes
        assert report.stats.dropped > 0
        assert report.retransmissions > 0

    def test_duplicates_and_delays_exactly_once(self, expander64):
        origins, targets = _neighbor_demands(expander64)
        report = reliable_forward_demands(
            expander64, origins, targets,
            faults=_plan("dup=0.3,delay=0.3", label=2),
        )
        assert report.delivered == report.expected
        assert report.stats.duplicated + report.stats.delayed > 0

    def test_mixed_wire_faults_exactly_once(self, expander64):
        origins, targets = _neighbor_demands(expander64)
        report = reliable_forward_demands(
            expander64, origins, targets,
            faults=_plan("drop=0.1,dup=0.02,delay=0.05", label=6),
        )
        assert report.delivered == report.expected == expander64.num_nodes
        assert report.rounds >= report.ideal_rounds
        assert report.stats.dropped > 0

    def test_fault_events_mirrored_to_trace(self, expander64):
        origins, targets = _neighbor_demands(expander64)
        context = RunContext(seed=9, sink=MemorySink(), faults="drop=0.2")
        report = reliable_forward_demands(
            expander64, origins, targets,
            faults=context.fault_plan, context=context,
        )
        fault_events = context.sink.of_kind("fault")
        assert {e.name for e in fault_events} >= {"faults/drop"}
        assert len([e for e in fault_events if e.name == "faults/drop"]) == (
            report.stats.dropped
        )


class TestReliableDeliveryUnderFaults:
    """Guarantees 2+3 on the acceptance workload: n=128, drop=0.05."""

    def test_drop5pct_expander128_all_delivered_and_accounted(
        self, expander128
    ):
        origins, targets = _neighbor_demands(expander128)
        context = RunContext(seed=3, sink=MemorySink(), faults="drop=0.05")
        report = reliable_forward_demands(
            expander128, origins, targets,
            faults=context.fault_plan, context=context,
        )
        assert report.delivered == 128
        assert report.retry_rounds == report.rounds - report.ideal_rounds
        # Every retry round lands in the ledger under faults/ — both the
        # ledger object and the mirrored trace events agree exactly.
        ledger_faults = sum(
            charge.rounds
            for charge in context.ledger.charges
            if charge.label.startswith("faults/")
        )
        assert ledger_faults == report.retry_rounds
        assert sum_ledger_charges(
            context.sink.events, prefix="faults/"
        ) == pytest.approx(report.retry_rounds)

    def test_routed_demand_cost_decomposition(self, expander128):
        clean = run("route", expander128, config=RunConfig(seed=3))
        faulty = run(
            "route", expander128,
            config=RunConfig(seed=3, faults="drop=0.05"),
        )
        assert faulty.result.delivered
        assert faulty.result.fault_rounds > 0
        assert faulty.result.cost_rounds == (
            clean.result.cost_rounds + faulty.result.fault_rounds
        )
        assert faulty.fault_rounds() == faulty.result.fault_rounds


class TestDeliveryCurve:
    """Delivery vs. per-link drop rate for the reliable forwarder."""

    @staticmethod
    def _deliver(rate, seed, n=32):
        graph = random_regular(n, 6, derive_rng(seed, n))
        origins, targets = _neighbor_demands(graph)
        faults = None
        if rate:
            faults = FaultPlan(
                FaultSpec(drop=rate), rng=derive_rng(seed, n, 7)
            )
        return reliable_forward_demands(
            graph, origins, targets, faults=faults
        )

    def test_full_delivery_and_monotone_overhead(self):
        curve = [self._deliver(rate, seed=1) for rate in (0.0, 0.05, 0.2)]
        assert [report.delivered for report in curve] == [32, 32, 32]
        assert curve[0].retry_rounds == 0
        assert curve[0].rounds == curve[0].ideal_rounds
        rounds = [report.rounds for report in curve]
        assert rounds == sorted(rounds)
        assert curve[-1].retransmissions > 0

    def test_curve_reproducible(self):
        first = self._deliver(0.1, seed=3)
        again = self._deliver(0.1, seed=3)
        assert (first.rounds, first.messages, first.retransmissions) == (
            again.rounds,
            again.messages,
            again.retransmissions,
        )


class TestCrashWindows:
    """Crash windows recover — or time out loudly.  Never silence."""

    def test_temporary_crash_recovers(self, expander64):
        origins, targets = _neighbor_demands(expander64)
        report = reliable_forward_demands(
            expander64, origins, targets,
            faults=_plan("crash=6@rounds:2-8", label=3),
        )
        assert report.delivered == expander64.num_nodes
        assert report.stats.crash_dropped > 0

    def test_permanent_crash_times_out_diagnosably(self, expander64):
        origins, targets = _neighbor_demands(expander64)
        with pytest.raises(DeliveryTimeout) as excinfo:
            reliable_forward_demands(
                expander64, origins, targets,
                faults=_plan("crash=8@rounds:1-1000000", label=4),
            )
        assert excinfo.value.undelivered

    def test_model_timeout_on_unbeatable_drop(self, expander64):
        """The oracle's modeled retries hit max_attempts and raise too."""
        with pytest.raises(DeliveryTimeout):
            run(
                "route", expander64,
                config=RunConfig(
                    seed=3, faults="drop=0.999,attempts=3"
                ),
            )


class TestParseErrorDiagnostics:
    """A typo'd --faults string is fixable from the message alone: the
    error quotes the offending token and the one-line grammar."""

    @pytest.mark.parametrize(
        ("bad", "token"),
        [
            ("bogus=1", "'bogus'"),
            ("drop=abc", "drop='abc'"),
            ("max_delay=soon", "max_delay='soon'"),
            ("drop", "'drop'"),
        ],
    )
    def test_message_quotes_token_and_grammar(self, bad, token):
        from repro.congest.faults import GRAMMAR

        with pytest.raises(ValueError) as excinfo:
            FaultSpec.parse(bad)
        message = str(excinfo.value)
        assert token in message
        assert GRAMMAR in message

    def test_crash_errors_name_the_window(self):
        with pytest.raises(ValueError) as excinfo:
            FaultSpec.parse("crash=3@sometime")
        assert "'3@sometime'" in str(excinfo.value)
        with pytest.raises(ValueError) as excinfo:
            FaultSpec.parse("crash=3@rounds:9-5")
        assert "9-5" in str(excinfo.value)

    def test_cli_exits_2_with_the_message(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graphs import save_graph

        path = str(tmp_path / "g.json")
        save_graph(random_regular(16, 4, derive_rng(1, 16)), path)
        code = main(["route", path, "--faults", "bogus=1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "grammar" in err


class TestDeliveryCulprits:
    """Guarantee 2, sharpened: a timeout names who exhausted attempts."""

    def test_wire_timeout_names_the_worst_link(self, expander64):
        origins, targets = _neighbor_demands(expander64)
        with pytest.raises(DeliveryTimeout) as excinfo:
            reliable_forward_demands(
                expander64, origins, targets,
                faults=_plan("crash=8@rounds:1-1000000", label=4),
            )
        culprits = excinfo.value.culprits
        assert culprits, "timeout must carry culprits"
        undelivered = set(excinfo.value.undelivered)
        for node, target, attempts in culprits:
            assert attempts >= 1
            assert (node, target) in undelivered
        assert "attempt" in str(excinfo.value)

    def test_model_timeout_carries_attempts(self, expander64):
        with pytest.raises(DeliveryTimeout) as excinfo:
            run(
                "route", expander64,
                config=RunConfig(seed=3, faults="drop=0.999,attempts=3"),
            )
        culprits = excinfo.value.culprits
        assert culprits
        assert all(attempts > 3 for _, _, attempts in culprits)


class TestSelfHealCompletion:
    """The tentpole guarantee: every fault-matrix crash scenario that
    raises in fail-fast completes under recovery='self-heal', with the
    recovery cost in its own ledger category."""

    def test_permanent_crash_forwarding_completes(self, expander64):
        origins, targets = _neighbor_demands(expander64)
        report = reliable_forward_demands(
            expander64, origins, targets,
            faults=_plan("crash=8@rounds:1-1000000", label=4),
            recovery="self-heal",
        )
        assert report.delivered == report.expected
        assert report.rehomed or report.orphaned
        assert report.recovery_rounds >= 0

    def test_waitable_window_parks_without_retries(self, expander64):
        """A crash window that ends is waited out: tokens park, and the
        wait is charged under recovery/, not as retries."""
        origins, targets = _neighbor_demands(expander64)
        report = reliable_forward_demands(
            expander64, origins, targets,
            faults=_plan("crash=6@rounds:2-520", label=7),
            recovery="self-heal",
        )
        assert report.delivered == report.expected
        assert report.parked > 0
        assert report.retry_rounds == 0

    def test_permanent_crash_forwarding_deterministic(self, expander64):
        origins, targets = _neighbor_demands(expander64)

        def heal():
            return reliable_forward_demands(
                expander64, origins, targets,
                faults=_plan("crash=8@rounds:1-1000000", label=4),
                recovery="self-heal",
            )

        a, b = heal(), heal()
        assert (a.delivered, a.rounds, a.rehomed, a.orphaned) == (
            b.delivered, b.rounds, b.rehomed, b.orphaned
        )

    def test_end_to_end_route_heals_and_charges_recovery(self, expander64):
        healed = run(
            "route", expander64,
            config=RunConfig(
                seed=11,
                faults="crash=8@rounds:1-1000000",
                recovery="self-heal",
            ),
        )
        assert healed.result.delivered
        assert healed.recovery_rounds() > 0
        labels = {
            charge.label
            for charge in healed.ledger.charges
            if charge.label.startswith("recovery/")
        }
        assert labels, "self-heal cost must land under recovery/"
        # Recovery and fault retry accounting stay disjoint.
        assert not any(label.startswith("faults/") for label in labels)

    def test_portal_failover_at_every_level(self):
        """Killing primary portal hosts at each level of a two-level
        tower: the self-healing router fails over (or re-elects) and
        still delivers, with recovery cost below one clean route."""
        n = 96
        graph = random_regular(n, 6, derive_rng(7, n))
        # beta=4 forces a two-level tower at this size.
        clean = run("route", graph, config=RunConfig(seed=7, beta=4))
        hierarchy = clean.backend.hierarchy
        assert hierarchy.depth >= 2
        host = hierarchy.g0.virtual.host
        total_recovery = 0.0
        for level in range(1, hierarchy.depth + 1):
            table = clean.backend.router.portals.tables[level - 1]
            portal_vnodes = np.unique(table[table >= 0])
            assert portal_vnodes.size, f"level {level} has no portals"
            victims = frozenset(
                int(host[v]) for v in portal_vnodes[:4].tolist()
            )
            view = CrashView(
                n, ((1, 10**6, victims),), detection_rounds(1, n)
            )
            live = np.array([v for v in range(n) if v not in victims])
            router = Router(
                hierarchy,
                params=clean.backend.context.params,
                rng=derive_rng(7, 100 + level),
                recovery="self-heal",
                crash_view=view,
            )
            result = router.route(live, np.roll(live, 3))
            assert result.delivered, f"level {level} failover"
            assert result.recovery_rounds <= clean.result.cost_rounds
            total_recovery += result.recovery_rounds
        assert total_recovery > 0

    def test_self_heal_without_crashes_is_bit_identical(self, expander64):
        """Enabling self-heal draws nothing unless a crash window
        exists: a crash-free run is identical to fail-fast."""
        default = run("route", expander64, config=RunConfig(seed=11))
        healed = run(
            "route", expander64,
            config=RunConfig(seed=11, recovery="self-heal"),
        )
        assert healed.result.cost_rounds == default.result.cost_rounds
        assert [
            (c.label, c.rounds) for c in healed.ledger.charges
        ] == [(c.label, c.rounds) for c in default.ledger.charges]
        assert healed.recovery_rounds() == 0.0

    def test_fail_fast_is_still_the_default(self, expander64):
        assert RunConfig(seed=1).recovery == "fail-fast"
        origins, targets = _neighbor_demands(expander64)
        with pytest.raises(DeliveryTimeout):
            reliable_forward_demands(
                expander64, origins, targets,
                faults=_plan("crash=8@rounds:1-1000000", label=4),
            )


class TestNativeFaultReplay:
    def test_native_drop_charges_faults_and_keeps_structure(self):
        graph = random_regular(24, 6, np.random.default_rng(5))
        clean = run(
            "route", graph,
            config=RunConfig(
                seed=11, backend="native", validate="first_round"
            ),
        )
        faulty = run(
            "route", graph,
            config=RunConfig(
                seed=11, backend="native", validate="first_round",
                faults="drop=0.02",
            ),
        )
        # Retries resend recorded tokens, never resample them: the
        # structure is bit-identical, only the round bill grows.
        assert (
            faulty.backend.g0_edge_multiset()
            == clean.backend.g0_edge_multiset()
        )
        assert faulty.fault_rounds() > 0
        assert _step_surplus(faulty, "faults/retry-rounds") > 0
        _assert_surplus_billed_once(faulty)

    def test_native_self_heal_waits_out_a_window_and_bills_it_once(self):
        # A crash window short enough to wait out: the steps park
        # tokens and book recovery/wait themselves, and the batch
        # charges only what they left.
        graph = random_regular(24, 6, np.random.default_rng(5))
        outcome = run(
            "route", graph,
            config=RunConfig(
                seed=11, backend="native", validate="first_round",
                faults="crash=3@rounds:1-40", recovery="self-heal",
            ),
        )
        assert outcome.result.delivered
        assert _step_surplus(outcome, "recovery/wait") > 0
        _assert_surplus_billed_once(outcome)

    def test_native_self_heal_delivers_and_bills_each_surplus_once(self):
        # A permanent crash window outlives every retry: fail-fast
        # times out, so delivery needs the run's self-heal mode to reach
        # the replay's reliable forwarding.
        graph = random_regular(32, 6, derive_rng(0, 32))
        outcomes = {
            backend: run(
                "route", graph,
                config=RunConfig(
                    seed=3, backend=backend, cache="off",
                    faults="crash=3@rounds:1-1000000",
                    recovery="self-heal",
                ),
            )
            for backend in ("oracle", "native")
        }
        native = outcomes["native"]
        assert native.result.delivered
        assert (
            native.result.cost_rounds
            == outcomes["oracle"].result.cost_rounds
        )
        _assert_surplus_billed_once(native)


def _step_surplus(outcome, label):
    """Surplus the replay's steps booked under ``label`` themselves."""
    return sum(
        charge.rounds
        for charge in outcome.ledger.charges
        if charge.label == label
        and charge.detail.get("stage")
        not in ("route/model", "native/walk-batch")
    )


def _assert_surplus_billed_once(outcome):
    """Walk-batch fault charges add up to the executed surplus, once.

    The steps book their surplus over the ARQ ideal and each batch
    charges the rest, so together they equal the executed rounds over
    the engine's clean charge — no more (double billing), no less.
    """
    charges = outcome.ledger.charges
    surplus = sum(
        charge.rounds
        for charge in charges
        if charge.label in ("faults/retry-rounds", "recovery/wait")
        and charge.detail.get("stage") != "route/model"
    )
    batches = [
        charge.detail
        for charge in charges
        if charge.detail.get("stage") == "native/walk-batch"
    ]
    assert batches
    assert surplus == sum(
        batch["rounds_total"] - batch["ideal_rounds"] for batch in batches
    )
    assert outcome.backend.executed_rounds == sum(
        batch["rounds_total"] for batch in batches
    )
