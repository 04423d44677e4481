"""Run one workload in this process and write its result as JSON.

Started by ``run.py`` in a fresh process per workload (so peak memory
and warm caches belong to one workload), with ``PYTHONPATH`` pointing
at the checkout's ``src`` and thread counts pinned.  Usage::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --out RESULT.json [--spans SPANS.jsonl]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import median, percentile_label, tail_percentile  # noqa: E402

#: Layers each workload must exercise (nonzero calls in the traced
#: run) and bypass (zero calls).  ``timed`` bypasses are checked only
#: over the workload's timed phase.
CLAIMS = {
    "cold-oracle": {
        "exercises": (
            "graphs.", "walks.", "core.embedding.", "core.partition.",
            "core.hierarchy.build_hierarchy", "core.portals.build_portals",
            "core.router.", "core.mst.", "runtime.backends.",
            "runtime.session.Session.open", "runtime.session.Session.request",
        ),
        "bypasses": (
            "congest.", "baselines.routing_baselines.schedule_paths_csr",
            "runtime.store.", "runtime.journal.",
            "core.hierarchy.repair_overlay",
        ),
        "timed_bypasses": (),
    },
    "warm-serve": {
        "exercises": (
            "walks.run_lazy_walks", "core.router.",
            "runtime.session.serve_jsonl", "runtime.session.Session.submit",
        ),
        "bypasses": (
            "congest.", "baselines.routing_baselines.schedule_paths_csr",
            "runtime.store.", "runtime.journal.",
        ),
        "timed_bypasses": (
            "graphs.", "walks.estimate_mixing_time", "core.embedding.",
            "core.partition.", "core.hierarchy.", "core.portals.",
        ),
    },
    "churn-recover": {
        "exercises": (
            "core.hierarchy.repair_overlay", "core.portals.PortalTable.reelect",
            "runtime.store.HierarchyStore.load",
            "runtime.store.HierarchyStore.save",
            "runtime.journal.Journal.append_update",
            "runtime.journal.Journal.mark_served",
            "runtime.session.Session.recover",
            "runtime.session.Session.apply_update", "hashing.",
        ),
        "bypasses": (
            "congest.", "baselines.routing_baselines.schedule_paths_csr",
            "core.mst.",
        ),
        "timed_bypasses": (),
    },
    "native-sim": {
        "exercises": (
            "congest.Network.run", "congest.replay_walk_run",
            "core.router.", "runtime.session.serve_jsonl",
        ),
        "bypasses": ("core.mst.", "runtime.store.", "runtime.journal."),
        "timed_bypasses": (),
    },
}


def timing_summary(values):
    """Median and the highest percentile with ten samples beyond it."""
    row = {"p50": median(values)}
    tail = tail_percentile(values)
    if tail is not None and tail[0] > 50.0:
        row[percentile_label(tail[0])] = tail[1]
    return row


def end_to_end(run, peak_rss_mb):
    """Every end-to-end figure this workload measured, by name."""
    figures = {}
    units = {
        "setup_s": "s", "cold_run_s": "s", "mst_s": "s", "route_ms": "ms",
        "update_ms": "ms", "recover_s": "s", "cache_open_ms": "ms",
    }
    for name, unit in units.items():
        values = run.samples.get(name)
        if not values:
            continue
        row = timing_summary(values)
        if name == "setup_s":
            figures[name] = {"value": row["p50"], "unit": unit,
                             "n": len(values)}
            continue
        for stat, value in row.items():
            figures[f"{name}_{stat}"] = {
                "value": value, "unit": unit, "n": len(values),
            }
    if run.serve_s > 0:
        figures["serve_rps"] = {
            "value": run.serve_records / run.serve_s, "unit": "1/s",
            "n": run.serve_records,
        }
    figures["rounds_total"] = {"value": run.rounds_total,
                               "unit": "rounds", "n": 1}
    figures["error_rate"] = {"value": run.tally.error_rate,
                             "unit": "ratio", "n": run.tally.attempted}
    figures["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "n": 1}
    return figures


def per_layer(run, tracer, workload, wall_s):
    """Per-layer metrics and the claim checks of a traced run."""
    import tracing

    kept = [span for span in tracer.spans if span.phase != "inputs"]
    tracer.spans = kept
    stats = tracing.layer_stats(tracer)
    metrics = {}
    for name, row in stats.items():
        metrics[f"{name}.self_s"] = row["self_s"]
        metrics[f"{name}.calls"] = row["calls"]
    for name, value in tracer.counters.items():
        metrics[name] = value
    lookups = tracer.counters.get("runtime.store.lookups", 0.0)
    metrics["runtime.store.hit_ratio"] = (
        tracer.counters.get("runtime.store.hits", 0.0) / lookups
        if lookups else 0.0
    )
    for label, value in run.rounds_by_label.items():
        metrics[label] = value
    metrics["ledger.rounds_total"] = run.rounds_total
    metrics["trace.spans"] = float(len(kept))
    metrics["trace.wall_s"] = wall_s
    claims = CLAIMS[workload]
    for prefix in claims["exercises"]:
        run.tally.check(tracing.calls(tracer, prefix) > 0,
                        f"traced: {prefix}* never called")
    for prefix in claims["bypasses"]:
        count = tracing.calls(tracer, prefix)
        run.tally.check(count == 0, f"traced: {prefix}* called {count}x")
    for prefix in claims["timed_bypasses"]:
        count = tracing.calls(tracer, prefix, phase="timed")
        run.tally.check(
            count == 0, f"traced: {prefix}* called {count}x while timed"
        )
    table = tracing.format_table(stats, wall_s, dict(run.rounds_by_label))
    return metrics, table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        # Before the workloads import, so names they import from the
        # program are already the wrapped ones.
        tracing.install(tracer)
    import workloads

    run = workloads.Run(args.workdir, tracer)
    began = time.perf_counter()
    error = None
    try:
        workloads.WORKLOADS[args.workload](run, args.seed, args.seconds)
    except Exception:  # reported as a failed run, never a crash
        error = traceback.format_exc()
        run.tally.check(False, "workload raised")
    wall_s = time.perf_counter() - began
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": wall_s,
        "notes": run.notes,
        "error": error,
        "numpy": __import__("numpy").__version__,
    }
    if tracer is not None:
        result["per_layer"], result["table"] = per_layer(
            run, tracer, args.workload, wall_s
        )
        if args.spans:
            tracer.write(args.spans)
    result["end_to_end"] = end_to_end(run, peak_rss_mb)
    result["attempted"] = run.tally.attempted
    result["failed"] = run.tally.failed
    result["failures"] = run.tally.failures
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
