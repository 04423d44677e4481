"""The session layer: warm serving must be bit-identical to cold runs.

The equivalence oracle of the build-once/serve-many refactor: for every
(backend, op) pair, a request served from a warm :class:`Session` —
regardless of what was served before it — must reproduce the cold
``repro.run`` result exactly, and the cold ledger must equal the
session's build ledger followed by the request's ledger slice.
"""

import gc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, WeightedGraph, random_regular
from repro.rng import derive_rng
from repro.runtime import (
    Journal,
    MemorySink,
    Request,
    RunConfig,
    Session,
    UnsupportedOnBackend,
    run,
    serve_jsonl,
)
from repro.runtime.ops import summarize_result

SEED = 9

ORACLE_OPS = ("build", "route", "mst", "mincut", "clique")
NATIVE_OPS = ("build", "route")


def _charges(ledger):
    return [(c.label, c.rounds) for c in ledger.charges]


@pytest.fixture(scope="module")
def graph():
    return random_regular(48, 6, np.random.default_rng(0))


@pytest.fixture(scope="module")
def oracle_session(graph):
    with Session.open(graph, RunConfig(seed=SEED)) as session:
        yield session


@pytest.fixture(scope="module")
def native_session(graph):
    config = RunConfig(seed=SEED, backend="native")
    with Session.open(graph, config) as session:
        yield session


@pytest.fixture(scope="module")
def cold_outcomes(graph):
    """One cold ``repro.run`` per (backend, op) — the reference."""
    outcomes = {}
    for backend, ops in (("oracle", ORACLE_OPS), ("native", NATIVE_OPS)):
        for op in ops:
            config = RunConfig(seed=SEED, backend=backend)
            outcomes[backend, op] = run(op, graph, config=config)
    return outcomes


class TestColdWarmEquivalence:
    @pytest.mark.parametrize("op", ORACLE_OPS)
    def test_oracle_request_matches_cold_run(
        self, oracle_session, cold_outcomes, op
    ):
        cold = cold_outcomes["oracle", op]
        response = oracle_session.request(op)
        assert summarize_result(op, response.result) == summarize_result(
            op, cold.result
        )
        assert _charges(cold.ledger) == _charges(
            oracle_session.build_ledger
        ) + _charges(response.ledger)

    @pytest.mark.parametrize("op", NATIVE_OPS)
    def test_native_request_matches_cold_run(
        self, native_session, cold_outcomes, op
    ):
        cold = cold_outcomes["native", op]
        response = native_session.request(op)
        assert summarize_result(op, response.result) == summarize_result(
            op, cold.result
        )
        assert _charges(cold.ledger) == _charges(
            native_session.build_ledger
        ) + _charges(response.ledger)

    def test_repeated_requests_are_identical(self, oracle_session):
        first = oracle_session.request("route")
        second = oracle_session.request("route")
        assert summarize_result(
            "route", first.result
        ) == summarize_result("route", second.result)
        assert _charges(first.ledger) == _charges(second.ledger)

    def test_explicit_demands_match_cold_run(self, graph, oracle_session):
        sources = np.arange(graph.num_nodes)
        destinations = np.roll(sources, 5)
        cold = run(
            "route",
            graph,
            config=RunConfig(seed=SEED),
            sources=sources,
            destinations=destinations,
        )
        response = oracle_session.request(
            "route", sources=sources, destinations=destinations
        )
        assert response.result.cost_rounds == cold.result.cost_rounds
        assert np.array_equal(
            response.result.final_vnodes, cold.result.final_vnodes
        )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(order=st.permutations(list(ORACLE_OPS)))
def test_request_stream_order_is_irrelevant(
    oracle_session, cold_outcomes, order
):
    """Serving the five ops in any order yields the same responses."""
    for op in order:
        cold = cold_outcomes["oracle", op]
        response = oracle_session.request(op)
        assert summarize_result(op, response.result) == summarize_result(
            op, cold.result
        )
        assert _charges(response.ledger) == _charges(cold.ledger)[
            len(_charges(oracle_session.build_ledger)):
        ]


class TestResidentSet:
    def test_serving_leaves_overlay_arc_maps_unbuilt(self, graph):
        """Nothing on the oracle serve path reads the overlays'
        ``arc_twin``/``arc_edge``, so a warm session never holds those
        two ``2m`` arrays per overlay."""
        config = RunConfig(seed=SEED, cache="off")
        with Session.open(graph, config) as session:
            session.request("route")
            hierarchy = session.backend.hierarchy
            for level in range(hierarchy.depth + 1):
                overlay = vars(hierarchy.overlay_at(level))
                assert "arc_twin" not in overlay
                assert "arc_edge" not in overlay


class TestRequestValidation:
    def test_unknown_op_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown operation"):
            Request(op="frobnicate", args={})

    def test_unknown_arg_rejected_naming_the_key(self):
        with pytest.raises(TypeError, match="bogus"):
            Request(op="route", args={"bogus": 1})

    def test_session_request_validates_too(self, oracle_session):
        with pytest.raises(ValueError, match="unknown operation"):
            oracle_session.request("frobnicate")
        with pytest.raises(TypeError, match="sample_fraction"):
            oracle_session.request("route", sample_fraction=0.5)

    def test_unsupported_op_on_native(self, native_session):
        with pytest.raises(UnsupportedOnBackend):
            native_session.request("mst")

    def test_closed_session_refuses_requests(self, graph):
        session = Session.open(graph, RunConfig(seed=SEED))
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.request("route")


class TestRouteBatch:
    def test_batch_equals_concatenated_route(self, graph, oracle_session):
        n = graph.num_nodes
        half = n // 2
        first = Request(
            op="route",
            args={
                "sources": list(range(half)),
                "destinations": list(range(half, n)),
            },
        )
        second = Request(
            op="route",
            args={
                "sources": list(range(half, n)),
                "destinations": list(range(half)),
            },
        )
        responses = oracle_session.route_batch([first, second])
        combined = oracle_session.request(
            "route",
            sources=np.arange(n),
            destinations=np.roll(np.arange(n), half),
        )
        assert len(responses) == 2
        assert all(r.batch_size == 2 for r in responses)
        assert (
            responses[0].result.cost_rounds == combined.result.cost_rounds
        )
        summary = responses[0].summary()
        assert summary["rounds_amortized"] == pytest.approx(
            summary["rounds"] / 2
        )


    def test_batch_refuses_ineligible_requests(self, oracle_session):
        explicit = Request(
            op="route", args={"sources": [0], "destinations": [1]}
        )
        random_demand = Request(op="route", args={"packets": 2})
        served = oracle_session.served
        with pytest.raises(ValueError, match="route_batch"):
            oracle_session.route_batch([explicit, random_demand])
        assert oracle_session.served == served

    def test_batch_is_one_request_in_the_trace(self, graph):
        sink = MemorySink()
        config = RunConfig(seed=SEED, trace=sink)
        requests = [
            Request(
                op="route",
                args={"sources": [i], "destinations": [i + 1]},
                id=f"b{i}",
            )
            for i in range(3)
        ]
        with Session.open(graph, config) as session:
            start = len(sink.events)
            responses = session.route_batch(requests)
            assert session.served == 3
            names = [
                event.name
                for event in sink.events[start:]
                if event.kind == "session"
            ]
        assert names == ["serve/batch", "serve/request", "serve/response"]
        assert [r.index for r in responses] == [0, 1, 2]
        assert [r.request_id for r in responses] == ["b0", "b1", "b2"]


class TestApplyUpdate:
    def test_repair_path_keeps_serving(self, graph):
        with Session.open(graph, RunConfig(seed=SEED)) as session:
            u = 0
            v = int(graph.indices[graph.indptr[0]])
            report = session.apply_update(edges_removed=[(u, v)])
            assert not report.rebuilt
            assert report.repaired or report.dropped
            assert report.cost_rounds > 0
            serve = session.context.ledger.by_prefix().get("serve", 0.0)
            assert serve > 0, "repair must charge under serve/"
            response = session.request("route")
            assert response.result.delivered

    def test_forced_rebuild_matches_fresh_session(self, graph):
        config = RunConfig(seed=SEED)
        with Session.open(graph, config) as session:
            session.staleness_bound = 1e-9
            u = 0
            v = int(graph.indices[graph.indptr[0]])
            report = session.apply_update(edges_removed=[(u, v)])
            assert report.rebuilt
            rebuilt = session.request("route")
            with Session.open(session.graph, config) as fresh:
                reference = fresh.request("route")
                assert (
                    rebuilt.result.cost_rounds
                    == reference.result.cost_rounds
                )
                assert _charges(rebuilt.ledger) == _charges(
                    reference.ledger
                )

    def test_update_on_cached_session_re_keys(self, graph, tmp_path):
        config = RunConfig(seed=SEED, cache=str(tmp_path))
        with Session.open(graph, config) as session:
            key = session.cache_key
            u = 0
            v = int(graph.indices[graph.indptr[0]])
            session.apply_update(edges_removed=[(u, v)])
            assert session.cache_key != key

    def test_repair_levels_charge_under_serve(self):
        """A repair that re-embeds edges books one ``serve/`` charge per
        level, in level order, and nothing under ``recovery/``."""
        graph = random_regular(64, 6, derive_rng(0, 64))
        config = RunConfig(seed=0, cache="off", beta=2)
        with Session.open(graph, config) as session:
            start = len(session.context.ledger)
            report = session.apply_update(nodes_down=[5])
            booked = session.context.ledger.slice_from(start)
        assert not report.rebuilt
        assert sorted(report.repaired) == [1, 2, 3]
        levels = [
            c for c in booked.charges
            if c.label.startswith("serve/repair-level-")
        ]
        assert [c.label for c in levels] == [
            f"serve/repair-level-{level}" for level in (1, 2, 3)
        ]
        for level, charge in zip((1, 2, 3), levels):
            assert charge.rounds > 0
            assert charge.detail == {
                "replaced": report.repaired[level],
                "dropped": report.dropped.get(level, 0),
            }
        assert "serve/reelect" in booked.by_label()
        assert not any(
            label.startswith("recovery/") for label in booked.by_label()
        )
        assert booked.total() == pytest.approx(report.cost_rounds)

    def test_repair_walks_the_level_walk_length(self):
        """A repair charges each re-embedded edge one forward and one
        reverse walk of the session's ``Params.level_walk_length`` over
        the virtual nodes, not of a hard-coded ``3 log2 N``."""
        from repro.params import Params

        graph = random_regular(64, 6, derive_rng(0, 64))
        params = Params.default().with_overrides(level_walk_length_factor=2.0)
        config = RunConfig(seed=0, cache="off", beta=2, params=params)
        with Session.open(graph, config) as session:
            hierarchy = session.backend.hierarchy
            length = params.level_walk_length(hierarchy.g0.virtual.count)
            start = len(session.context.ledger)
            report = session.apply_update(nodes_down=[5])
            booked = session.context.ledger.slice_from(start).by_label()
        assert length != Params.default().level_walk_length(
            hierarchy.g0.virtual.count
        )
        assert report.repaired
        for level, replaced in report.repaired.items():
            assert booked[f"serve/repair-level-{level}"] == (
                2.0 * replaced * length * hierarchy.emulation_to_g(level - 1)
            )

    def test_weighted_update_keeps_weights_aligned(self):
        base = random_regular(32, 6, derive_rng(0, 32))
        weights = np.arange(1.0, base.num_edges + 1.0)
        graph = WeightedGraph(base.num_nodes, base.edge_array, weights)
        u, v = (int(x) for x in graph.edge_array[5])
        with Session.open(graph, RunConfig(seed=1)) as session:
            with pytest.raises(ValueError, match="weight"):
                session.apply_update(edges_added=[(2, 9)])
            session.apply_update(
                edges_removed=[(v, u)], edges_added=[(2, 9, 0.5)]
            )
            updated = session.graph
        keep = [eid for eid in range(graph.num_edges) if eid != 5]
        assert isinstance(updated, WeightedGraph)
        assert updated.edge_array.tolist() == (
            graph.edge_array[keep].tolist() + [[2, 9]]
        )
        assert updated.weights.tolist() == weights[keep].tolist() + [0.5]

    @pytest.mark.xfail(
        strict=True,
        reason="Session._edge_ids numbers removed edges in the current "
        "graph, not the built one (CHANGES.md, FOUND: Session._edge_ids)",
    )
    def test_later_removal_kills_the_removed_edges_vnodes(
        self, monkeypatch
    ):
        """Each removal kills the virtual nodes of the removed edge, as
        numbered in the graph the hierarchy was built on."""
        import repro.runtime.session as session_module

        graph = random_regular(64, 6, derive_rng(0, 64))
        killed: list[list[int]] = []
        repair = session_module.repair_overlay

        def recording_repair(hierarchy, dead_vnodes, *args, **kwargs):
            killed.append(sorted(int(v) for v in dead_vnodes))
            return repair(hierarchy, dead_vnodes, *args, **kwargs)

        monkeypatch.setattr(session_module, "repair_overlay", recording_repair)
        with Session.open(graph, RunConfig(seed=0)) as session:
            virtual = session.backend.hierarchy.g0.virtual
            first, second = (
                tuple(int(x) for x in graph.edge_array[eid])
                for eid in (3, 100)
            )
            session.apply_update(edges_removed=[first])
            session.apply_update(edges_removed=[second])
        expected = np.flatnonzero(virtual.graph.arc_edge == 100).tolist()
        assert killed[1] == expected


    def test_parallel_edge_removal_kills_the_removed_edge(self, monkeypatch):
        """With a reversed parallel copy of an edge, the edge that leaves
        the graph is the one whose virtual nodes die: the first edge
        joining the two endpoints, in either orientation."""
        import repro.runtime.session as session_module

        base = random_regular(32, 6, derive_rng(0, 32))
        edges = [tuple(int(x) for x in edge) for edge in base.edge_array]
        assert (17, 23) in edges
        edges.insert(3, (23, 17))
        graph = Graph(base.num_nodes, edges)
        killed: list[list[int]] = []
        repair = session_module.repair_overlay

        def recording_repair(hierarchy, dead_vnodes, *args, **kwargs):
            killed.append(sorted(int(v) for v in dead_vnodes))
            return repair(hierarchy, dead_vnodes, *args, **kwargs)

        monkeypatch.setattr(session_module, "repair_overlay", recording_repair)
        with Session.open(graph, RunConfig(seed=1)) as session:
            virtual = session.backend.hierarchy.g0.virtual
            report = session.apply_update(edges_removed=[(17, 23)])
            remaining = session.graph.edge_array.tolist()
        assert not report.rebuilt
        assert remaining == [list(e) for i, e in enumerate(edges) if i != 3]
        expected = np.flatnonzero(virtual.graph.arc_edge == 3).tolist()
        assert expected and killed == [expected]


class TestJournalOwnership:
    """A failed ``Session.open`` or ``Session.recover`` closes a journal
    it opened from a path, and leaves a caller's :class:`Journal` open."""

    @staticmethod
    def _disconnected():
        return Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])

    def test_failed_open_closes_the_journal_it_opened(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ValueError, match="connected"):
                Session.open(
                    self._disconnected(), RunConfig(seed=SEED), journal=path
                )
            gc.collect()
        leaks = [
            str(w.message)
            for w in caught
            if issubclass(w.category, ResourceWarning)
        ]
        assert not leaks, leaks

    def test_failed_open_leaves_a_callers_journal_open(self, tmp_path):
        with Journal(str(tmp_path / "j.jsonl")) as journal:
            with pytest.raises(ValueError, match="connected"):
                Session.open(
                    self._disconnected(), RunConfig(seed=SEED),
                    journal=journal,
                )
            journal.mark_served(0, record=0)

    def test_failed_recover_closes_the_journal_it_opened(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ValueError, match="connected"):
                Session.recover(
                    self._disconnected(), RunConfig(seed=SEED), journal=path
                )
            gc.collect()
        leaks = [
            str(w.message)
            for w in caught
            if issubclass(w.category, ResourceWarning)
        ]
        assert not leaks, leaks

    def test_failed_recover_leaves_a_callers_journal_open(self, tmp_path):
        with Journal(str(tmp_path / "j.jsonl")) as journal:
            with pytest.raises(ValueError, match="connected"):
                Session.recover(
                    self._disconnected(), RunConfig(seed=SEED),
                    journal=journal,
                )
            journal.mark_served(0, record=0)

    def test_failed_replay_closes_the_session_and_journal(
        self, graph, tmp_path, monkeypatch
    ):
        """An update replay that raises what recover does not absorb (a
        ``RuntimeError``, like ``BackendMismatch``) closes the session
        recover opened and the journal it opened, then re-raises."""
        path = str(tmp_path / "j.jsonl")
        config = RunConfig(
            seed=SEED, cache="off", trace=str(tmp_path / "trace.jsonl")
        )
        edge = tuple(int(x) for x in graph.edge_array[0])
        with Session.open(graph, config, journal=path) as session:
            session.apply_update(edges_removed=[edge])

        def diverge(self, **_update):
            raise RuntimeError("replay diverged")

        closed = []
        close = Session.close

        def spy_close(self):
            closed.append(self)
            close(self)

        monkeypatch.setattr(Session, "apply_update", diverge)
        monkeypatch.setattr(Session, "close", spy_close)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(RuntimeError, match="replay diverged"):
                Session.recover(graph, config, journal=path)
            gc.collect()
        assert len(closed) == 1 and closed[0]._closed
        leaks = [
            str(w.message)
            for w in caught
            if issubclass(w.category, ResourceWarning)
        ]
        assert not leaks, leaks


class TestServeJsonl:
    def test_stream_with_errors_keeps_serving(self, oracle_session):
        records = [
            {"op": "route", "id": "ok-1"},
            {"op": "frobnicate", "id": "bad"},
            {"op": "route", "args": {"bogus": 1}, "id": "bad-args"},
            {"op": "route", "id": "ok-2"},
        ]
        responses = list(serve_jsonl(oracle_session, records))
        assert len(responses) == 4
        assert responses[0]["id"] == "ok-1"
        assert "error" in responses[1]
        assert "error" in responses[2]
        assert responses[3]["id"] == "ok-2"
        assert responses[0]["rounds"] == responses[3]["rounds"]

    def test_batching_groups_explicit_routes(self, graph, oracle_session):
        n = graph.num_nodes
        record = {
            "op": "route",
            "args": {
                "sources": list(range(n)),
                "destinations": list(np.roll(np.arange(n), 3)),
            },
        }
        records = [dict(record, id=f"r{i}") for i in range(4)]
        served = oracle_session.served
        responses = list(
            serve_jsonl(oracle_session, records, batch=2)
        )
        assert len(responses) == 4
        assert not any("error" in r for r in responses)
        assert all(r["batch_size"] == 2 for r in responses)
        assert all(r["rounds"] > 0 for r in responses)
        assert oracle_session.served == served + 4

    @staticmethod
    def _route_record(record_id, **args):
        return {
            "op": "route",
            "args": args or {"sources": [0, 1], "destinations": [5, 9]},
            "id": record_id,
        }

    @pytest.mark.parametrize(
        "bad_args",
        [
            {"sources": [0], "destinations": [1], "packets": 1},
            {"sources": [0, 1], "destinations": [1]},
            {"sources": [[0], [1, 2]], "destinations": [1, 2]},
        ],
        ids=["extra-arg", "misaligned", "ragged"],
    )
    def test_ineligible_record_is_served_alone(
        self, oracle_session, bad_args
    ):
        """A route that is not plain aligned explicit demands is not
        grouped: it fails on its own and its neighbours are served."""
        records = [
            self._route_record("ok1"),
            self._route_record("bad", **bad_args),
            self._route_record("ok2"),
        ]
        batched = list(serve_jsonl(oracle_session, records, batch=4))
        plain = list(serve_jsonl(oracle_session, records))
        assert [r.get("id") for r in batched] == ["ok1", "bad", "ok2"]
        assert "error" in batched[1] and "error" in plain[1]
        for response, reference in zip(batched[::2], plain[::2]):
            assert "error" not in response
            assert response["result"] == reference["result"]

    def test_batched_responses_follow_record_order(self, oracle_session):
        records = [
            self._route_record("ok1"),
            dict(self._route_record("bad"), args={"bogus": 1}),
            self._route_record("ok2"),
            {"op": "route", "id": "random"},
            self._route_record("ok3"),
            self._route_record("ok4"),
        ]
        responses = list(serve_jsonl(oracle_session, records, batch=4))
        assert [r.get("id") for r in responses] == [
            "ok1", "bad", "ok2", "random", "ok3", "ok4",
        ]
        assert [("error" in r) for r in responses] == [
            False, True, False, False, False, False,
        ]
        assert responses[-1]["batch_size"] == 2
