"""Tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import measure  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# -- percentiles ---------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.tail_percentile(list(range(19))) is None
    assert measure.tail_percentile(list(range(20)))[0] == 50.0
    assert measure.tail_percentile(list(range(100)))[0] == 90.0
    assert measure.tail_percentile(list(range(999)))[0] == 95.0
    percentile, value = measure.tail_percentile(list(range(1000)))
    assert percentile == 99.0
    # Nearest rank: the 990th smallest value, with 10 samples above it.
    assert value == 989
    assert sum(v > value for v in range(1000)) == 10


def test_tail_percentile_ignores_input_order():
    values = list(np.random.default_rng(0).permutation(200))
    assert measure.tail_percentile(values) == (95.0, 189)


# -- self time -----------------------------------------------------------------


def span(id, start, end, parent=None):
    return tracing.Span(id, f"s{id}", start, end, parent, None, "timed")


def test_self_time_subtracts_children_once():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 5.0, 9.0, parent=0),
        span(3, 6.0, 7.0, parent=2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_uses_union_of_overlapping_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 2.0, 6.0, parent=0),
        span(2, 4.0, 8.0, parent=0),
        span(3, 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_nests_and_aggregates():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.open("a")      # 0
    inner = tracer.open("b")      # 1
    tracer.close(inner)           # 2
    tracer.close(outer)           # 3
    stats = tracing.layer_stats(tracer)
    assert stats["a"] == {"self_s": 2.0, "calls": 1.0}
    assert stats["b"] == {"self_s": 1.0, "calls": 1.0}
    assert tracer.spans[1].parent == tracer.spans[0].id


# -- correctness checks --------------------------------------------------------


def small_weighted():
    from repro.graphs.generators import random_regular
    from repro.graphs.graph import WeightedGraph

    rng = np.random.default_rng(5)
    graph = random_regular(16, 3, rng)
    return WeightedGraph(16, list(graph.edges()), rng.random(graph.num_edges))


def test_planted_wrong_mst_weight_is_a_failure():
    from repro.baselines.centralized_mst import (
        is_spanning_tree,
        kruskal,
        mst_weight,
    )

    weighted = small_weighted()
    edges = kruskal(weighted)
    kw = dict(is_spanning_tree=is_spanning_tree, mst_weight=mst_weight)
    tally = measure.Tally()
    right = SimpleNamespace(edge_ids=edges,
                            total_weight=weighted.total_weight(edges))
    assert measure.check_mst(tally, weighted, right, "right", **kw)
    wrong_weight = SimpleNamespace(edge_ids=edges,
                                   total_weight=mst_weight(weighted) + 0.5)
    assert not measure.check_mst(tally, weighted, wrong_weight, "w", **kw)
    not_a_tree = SimpleNamespace(edge_ids=edges[:-1],
                                 total_weight=mst_weight(weighted))
    assert not measure.check_mst(tally, weighted, not_a_tree, "t", **kw)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_undelivered_route_is_a_failure():
    tally = measure.Tally()
    delivered = SimpleNamespace(result=SimpleNamespace(delivered=True))
    lost = SimpleNamespace(result=SimpleNamespace(delivered=False))
    assert measure.check_route(tally, delivered, "ok")
    assert not measure.check_route(tally, lost, "lost")
    assert not measure.check_record(
        tally, {"op": "route", "result": {"delivered": False}}, "rec"
    )
    assert not measure.check_record(tally, {"error": "boom"}, "err")
    assert measure.check_record(tally, {"update": {"rounds": 1.0}}, "upd")
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.error_rate == pytest.approx(0.6)


# -- metric names --------------------------------------------------------------


def test_declared_names_are_well_formed_and_unique():
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert {"setup_s"} <= {m["name"] for m in spec["end_to_end"]}
    assert set(worker.CLAIMS) == {w["name"] for w in spec["workloads"]}


def test_end_to_end_names_come_out_of_every_workload_kind():
    spec = load_spec()
    run = SimpleNamespace(
        samples={"setup_s": [1.0, 2.0, 3.0], "route_ms": [5.0] * 30},
        serve_records=30, serve_s=0.15, rounds_total=7.0,
        tally=measure.Tally(),
    )
    emitted = worker.end_to_end(run, peak_rss_mb=100.0)
    for metric in spec["end_to_end"]:
        assert metric["name"] in emitted
        assert emitted[metric["name"]]["unit"] == metric["unit"]
        assert emitted[metric["name"]]["value"] > 0


def test_traced_run_emits_every_declared_per_layer_name(tmp_path):
    """A tiny traced session touching every hooked layer produces each
    declared per-layer name (overhead figures come from run.py)."""
    from repro.graphs.generators import random_regular
    from repro.runtime.config import RunConfig
    from repro.runtime.session import Session, serve_jsonl
    from repro.runtime.store import HierarchyStore

    spec = load_spec()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        import workloads

        run = workloads.Run(str(tmp_path), tracer)
        graph = random_regular(32, 4, np.random.default_rng(1))
        store = HierarchyStore(str(tmp_path / "store"))
        journal = str(tmp_path / "journal.jsonl")
        config = RunConfig(seed=1)
        session = Session.open(graph, config, store=store, journal=journal)
        u, v = next(iter(graph.edges()))
        list(serve_jsonl(session, [
            {"op": "route", "args": {}},
            {"update": {"edges_removed": [[u, v]]}},
        ]))
        session.request("mst")
        run.add_ledger(session.context.ledger)
        session.close()
        Session.recover(graph, config, journal=journal, store=store).close()
        native = Session.open(graph, RunConfig(seed=1, backend="native"))
        native.request("route")
        native.close()
        metrics, table = worker.per_layer(
            run, tracer, "churn-recover", wall_s=1.0
        )
    finally:
        installed.restore()
    produced = set(metrics) | {
        f"trace.overhead.{name}" for name in bench_run.OVERHEAD_OF
    }
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in produced]
    # The path scheduler and the standalone native builders are not
    # reachable through Session; their counters exist, at zero.
    assert missing == []
    assert "runtime.session.Session.open" in table
