"""Tests for the ``repro.run``/``RunConfig`` front door.

One frozen config must drive every operation and normalize its fault
spec; the retired per-function shims must stay gone.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import repro
from repro import RunConfig, run
from repro.cli import main
from repro.congest.faults import FaultSpec
from repro.graphs import random_regular, save_graph
from repro.runtime import (
    OPS,
    MemorySink,
    RunOutcome,
    read_jsonl_trace,
    sum_ledger_charges,
)


@pytest.fixture(scope="module")
def graph():
    return random_regular(48, 6, np.random.default_rng(0))


class TestRunConfig:
    def test_frozen(self):
        config = RunConfig(seed=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 4

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            RunConfig(backend="quantum")

    def test_faults_string_normalized_to_spec(self):
        config = RunConfig(faults="drop=0.25,attempts=5")
        assert isinstance(config.faults, FaultSpec)
        assert config.faults.drop == pytest.approx(0.25)
        assert config.faults.max_attempts == 5

    def test_faults_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            RunConfig(faults=0.25)

    def test_make_context_carries_config(self):
        context = RunConfig(seed=12, faults="drop=0.5").make_context()
        assert context.seed == 12
        assert context.fault_spec.drop == pytest.approx(0.5)

    def test_make_backend(self, graph):
        config = RunConfig(seed=1, backend="oracle")
        backend = config.make_backend(graph)
        assert backend.name == "oracle"


class TestRun:
    def test_ops_catalogue(self):
        assert OPS == ("build", "clique", "mincut", "mst", "route")

    def test_unknown_op_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown operation"):
            run("teleport", graph)

    def test_unknown_op_args_rejected(self, graph):
        with pytest.raises(TypeError, match="unexpected"):
            run("build", graph, config=RunConfig(seed=1), packets=3)

    def test_default_config(self, graph):
        outcome = run("build", graph)
        assert outcome.config == RunConfig()

    def test_route_permutation_default(self, graph):
        outcome = run("route", graph, config=RunConfig(seed=2))
        assert outcome.result.delivered
        assert outcome.result.num_packets == graph.num_nodes

    def test_route_packets_workload(self, graph):
        outcome = run("route", graph, config=RunConfig(seed=2), packets=7)
        assert outcome.result.num_packets == 7

    def test_route_explicit_demands(self, graph):
        n = graph.num_nodes
        outcome = run(
            "route", graph, config=RunConfig(seed=2),
            sources=np.arange(n), destinations=np.roll(np.arange(n), 1),
        )
        assert outcome.result.delivered

    def test_route_half_demand_rejected(self, graph):
        with pytest.raises(ValueError, match="both"):
            run("route", graph, sources=np.arange(4))

    def test_route_packets_conflicts_with_demands(self, graph):
        n = graph.num_nodes
        with pytest.raises(ValueError, match="conflicts"):
            run(
                "route", graph, packets=3,
                sources=np.arange(n), destinations=np.arange(n),
            )

    def test_workload_never_perturbs_structure(self, graph):
        """Changing packets= must not change what gets built."""
        a = run("route", graph, config=RunConfig(seed=5), packets=3)
        b = run("route", graph, config=RunConfig(seed=5), packets=17)
        assert a.backend.g0_edge_multiset() == b.backend.g0_edge_multiset()

    def test_mst_attaches_weights_deterministically(self, graph):
        one = run("mst", graph, config=RunConfig(seed=6))
        two = run("mst", graph, config=RunConfig(seed=6))
        assert one.result.edge_ids == two.result.edge_ids
        assert one.result.total_weight == two.result.total_weight

    def test_outcome_bundles_ledger_and_events(self, graph):
        sink = MemorySink()
        outcome = run(
            "route", graph, config=RunConfig(seed=2, trace=sink)
        )
        assert isinstance(outcome, RunOutcome)
        assert outcome.ledger.total() > 0
        kinds = {event.kind for event in outcome.events}
        assert {"run_start", "run_end", "ledger_charge"} <= kinds

    def test_trace_path_written_and_closed(self, graph, tmp_path):
        trace = str(tmp_path / "run.jsonl")
        outcome = run(
            "route", graph, config=RunConfig(seed=2, trace=trace)
        )
        events = list(read_jsonl_trace(trace))
        assert events[0].kind == "run_start"
        assert events[-1].kind == "run_end"
        assert sum_ledger_charges(
            events, prefix="route/instance"
        ) == pytest.approx(outcome.result.cost_rounds)

    def test_run_start_names_the_fault_spec(self, graph):
        sink = MemorySink()
        run(
            "route", graph,
            config=RunConfig(seed=2, trace=sink, faults="drop=0.1"),
        )
        (start,) = sink.of_kind("run_start")
        assert "drop=0.1" in start.payload["faults"]


class TestDeprecatedShims:
    """The retired legacy entry points are gone from the package root.

    ``repro.run`` and ``Session.open`` are the only entry points; the
    un-deprecated originals live on in :mod:`repro.core`.
    """

    @pytest.mark.parametrize(
        "name",
        [
            "Router",
            "emulate_clique",
            "approximate_min_cut",
            "build_hierarchy",
            "minimum_spanning_tree",
        ],
    )
    def test_dead_shims_are_gone(self, name):
        assert not hasattr(repro, name)
        assert name not in repro.__all__
        # The un-deprecated originals live on in repro.core.
        assert hasattr(repro.core, name)

    def test_core_originals_do_not_warn(self, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.core.build_hierarchy(graph, rng=np.random.default_rng(8))

    def test_front_door_does_not_warn(self, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run("route", graph, config=RunConfig(seed=2))


class TestCliFaults:
    @pytest.fixture()
    def graph_file(self, tmp_path, graph):
        path = str(tmp_path / "exp.json")
        save_graph(graph, path)
        return path

    def test_route_with_faults_reports_fault_rounds(
        self, graph_file, capsys
    ):
        assert main(
            ["route", graph_file, "--seed", "1", "--faults", "drop=0.02"]
        ) == 0
        out = capsys.readouterr().out
        assert "delivered    True" in out
        assert "fault rounds" in out

    def test_zero_rate_faults_match_clean_run(self, graph_file, capsys):
        main(["route", graph_file, "--seed", "1"])
        clean = capsys.readouterr().out
        main(["route", graph_file, "--seed", "1", "--faults", "drop=0.0"])
        gated = capsys.readouterr().out
        clean_rounds = [l for l in clean.splitlines() if "rounds" in l]
        assert all(line in gated for line in clean_rounds)

    def test_bad_spec_exits_2(self, graph_file, capsys):
        assert main(
            ["route", graph_file, "--faults", "warp=0.5"]
        ) == 2
        assert "--faults" in capsys.readouterr().err

    def test_unbeatable_faults_exit_3(self, graph_file, capsys):
        assert main(
            ["route", graph_file, "--seed", "1",
             "--faults", "drop=0.999,attempts=3"]
        ) == 3
        assert "delivery failed" in capsys.readouterr().err
