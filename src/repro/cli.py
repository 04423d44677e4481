"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — write a graph from a named family to JSON.
* ``info`` — print a graph's size, expansion, and mixing statistics.
* ``route`` — build the routing structure and route a random demand.
* ``mst`` — run the distributed MST (random weights if none stored).
* ``serve`` — open a warm session and answer JSONL requests; with
  ``--deadline-rounds/--retry-budget/--max-inflight`` the stream is
  governed by a :class:`~repro.runtime.ResiliencePolicy`, with
  ``--journal PATH`` every applied update is journaled crash-safely,
  and ``--recover`` reopens from that journal (replaying updates and
  skipping already-served records).
* ``bench`` — run registry benchmark suites / gate them against
  committed baselines (``repro bench SUITE [--check] [--quick]``).
* ``report`` — render EXPERIMENTS.md from the committed ``paper`` bench
  record (``repro bench paper`` re-runs the experiments).

Pipeline commands (``route``/``mst``/``mincut``/``clique``) construct
one :class:`~repro.runtime.RunConfig` from their flags and execute
through :func:`repro.run`:

* ``--backend {oracle,native}`` — vectorized engines vs. real message
  passing (native covers build + routing, and on a clean wire cross-runs
  sampled walk steps on the per-node simulator; elsewhere it exits with
  a clear error).
* ``--trace out.jsonl`` — write the structured trace-event stream.
* ``--faults SPEC`` — seeded fault injection, e.g.
  ``drop=0.01,dup=0.001,crash=3@rounds:10-20`` (see
  ``docs/robustness.md`` for the grammar).  Delivery is still
  all-or-nothing: retries are paid and charged under ``faults/``, or a
  ``DeliveryTimeout`` diagnoses what was lost.
* ``--recovery {fail-fast,self-heal}`` — with ``self-heal``, crash
  windows are detected and survived (waited out, failed over, or
  re-homed) with the cost charged under ``recovery/``; the default
  ``fail-fast`` reproduces pre-recovery runs bit-identically.
* ``--cache {off,auto,PATH}`` — content-addressed hierarchy cache; a
  hit restores the built structure and skips the build phase (see
  ``docs/service.md``), so re-running with the same ``--cache`` is how
  a run restarts after a crash.

Every random decision draws from a *named* stream of the context, so
e.g. ``--packets`` changes only the ``"workload"`` stream and never
perturbs the routing structure itself — and ``--faults`` draws only
from the ``"faults"`` stream.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .analysis.report import build_report
from .baselines import kruskal
from .congest.faults import DeliveryTimeout
from .graphs import (
    FAMILIES,
    WeightedGraph,
    load_graph,
    save_graph,
    spectral_gap,
    with_random_weights,
)
from .runtime import (
    ResiliencePolicy,
    RunConfig,
    RunContext,
    RunOutcome,
    Session,
    UnsupportedOnBackend,
    run,
    serve_jsonl,
)
from .walks import estimate_mixing_time

__all__ = ["main"]


def _add_runtime_flags(sub: argparse.ArgumentParser) -> None:
    """Flags shared by every command that executes the pipeline."""
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--backend", choices=("oracle", "native"), default="oracle",
        help="oracle: vectorized engines (default); native: walk batches "
        "executed as real CONGEST message passing",
    )
    sub.add_argument(
        "--trace", metavar="OUT.JSONL", default=None,
        help="write structured trace events (JSONL) to this file",
    )
    sub.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject seeded faults, e.g. "
        "'drop=0.01,dup=0.001,crash=3@rounds:10-20'; retry overhead is "
        "charged under the faults/ ledger category",
    )
    sub.add_argument(
        "--recovery", choices=("fail-fast", "self-heal"),
        default="fail-fast",
        help="fail-fast: crash windows that defeat delivery raise "
        "(default); self-heal: detect crashes, wait out / route around "
        "them, charging the recovery/ ledger category",
    )
    sub.add_argument(
        "--cache", metavar="MODE", default="off",
        help="content-addressed hierarchy cache: 'off' (default), "
        "'auto' ($REPRO_CACHE_DIR or the XDG cache dir), or a "
        "directory path; a hit skips the build phase",
    )


def _make_config(args) -> RunConfig:
    """One RunConfig per command invocation, built from the flags."""
    return RunConfig(
        seed=args.seed,
        backend=args.backend,
        trace=getattr(args, "trace", None),
        faults=getattr(args, "faults", None),
        recovery=getattr(args, "recovery", "fail-fast"),
        cache=getattr(args, "cache", "off"),
    )


def _finish(outcome: RunOutcome, args) -> None:
    """Shared epilogue: fault accounting and trace-file notice."""
    if outcome.config.faults is not None:
        print(f"fault rounds {outcome.fault_rounds():,.0f}")
    if outcome.config.recovery == "self-heal":
        print(f"recovery     {outcome.recovery_rounds():,.0f} rounds")
    if getattr(args, "trace", None):
        print(f"trace        {args.trace}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Distributed MST and routing in almost mixing time "
            "(Ghaffari-Kuhn-Su, PODC 2017) — reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a graph to JSON")
    generate.add_argument("family", choices=sorted(FAMILIES))
    generate.add_argument("n", type=int)
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--weighted", action="store_true",
        help="attach i.i.d. uniform edge weights",
    )

    info = sub.add_parser("info", help="print graph statistics")
    info.add_argument("graph")

    route = sub.add_parser("route", help="route a random demand")
    route.add_argument("graph")
    route.add_argument(
        "--packets", type=int, default=0,
        help="number of packets (default: one per node, a permutation)",
    )
    _add_runtime_flags(route)

    mst = sub.add_parser("mst", help="distributed MST")
    mst.add_argument("graph")
    _add_runtime_flags(mst)

    mincut = sub.add_parser("mincut", help="approximate minimum cut")
    mincut.add_argument("graph")
    mincut.add_argument("--trees", type=int, default=None)
    mincut.add_argument("--eps", type=float, default=0.5)
    _add_runtime_flags(mincut)

    clique = sub.add_parser("clique", help="emulate a congested-clique round")
    clique.add_argument("graph")
    clique.add_argument("--sample", type=float, default=1.0)
    _add_runtime_flags(clique)

    serve = sub.add_parser(
        "serve",
        help="open a warm session and answer JSONL requests",
    )
    serve.add_argument("graph")
    serve.add_argument(
        "--requests", metavar="IN.JSONL", default="-",
        help="JSONL request file ('-' = stdin); each line is "
        '{"op": ..., "args": {...}, "id": ...} or '
        '{"update": {"edges_added": [...], "edges_removed": [...], '
        '"nodes_down": [...]}}',
    )
    serve.add_argument(
        "-o", "--output", metavar="OUT.JSONL", default="-",
        help="JSONL response file ('-' = stdout); one response per "
        "request with per-request rounds and wall latency",
    )
    serve.add_argument(
        "--batch", type=int, default=0,
        help="group up to N consecutive explicit-demand route requests "
        "into one routing instance (batched admission; default off)",
    )
    serve.add_argument(
        "--deadline-rounds", type=float, default=None,
        help="per-request delivery-round budget; exceeding it yields a "
        "structured deadline_exceeded error record",
    )
    serve.add_argument(
        "--deadline-wall", type=float, default=None, metavar="SECONDS",
        help="per-request wall-clock budget in seconds "
        "(machine-dependent; never gated)",
    )
    serve.add_argument(
        "--retry-budget", type=int, default=0,
        help="retries (with exponential backoff) for DeliveryTimeout-"
        "recoverable requests before the error record is emitted",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=0,
        help="admission bound: requests arriving while this many are "
        "in flight are shed with a structured record (0 = unlimited)",
    )
    serve.add_argument(
        "--breaker-failures", type=int, default=0,
        help="consecutive failures that trip the circuit breaker "
        "(fast-fail circuit_open records while repair completes)",
    )
    serve.add_argument(
        "--journal", metavar="PATH", default=None,
        help="crash-safe write-ahead journal: applied updates and the "
        "served high-water mark are fsync'd here so --recover can "
        "rebuild the session after a crash",
    )
    serve.add_argument(
        "--recover", action="store_true",
        help="recover from --journal: warm snapshot + deterministic "
        "update replay, then serve the remaining (unserved) records",
    )
    _add_runtime_flags(serve)

    bench = sub.add_parser(
        "bench",
        help="run benchmark suites from the registry / gate them "
        "against committed baselines",
    )
    bench.add_argument(
        "suites", nargs="*", metavar="SUITE",
        help="registry suites to run (default: all; see --list)",
    )
    bench.add_argument(
        "--list", action="store_true", dest="list_suites",
        help="list the registered suites and exit",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="run each suite's quick tier and gate it against the "
        "committed benchmarks/results/<suite>.quick.json baseline; "
        "exit 1 on any regression",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="run the small quick-tier sizes and write the "
        "<suite>.quick.json baseline instead of <suite>.json",
    )
    bench.add_argument(
        "--seed", type=int, default=None,
        help="seed to record at (default 0; not with --check, which "
        "runs at each baseline's own seed)",
    )
    bench.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the record here instead of the results directory "
        "(single suite only; not with --check)",
    )
    bench.add_argument(
        "--results", metavar="DIR", default=None,
        help="baseline/results directory "
        "(default: benchmarks/results under the cwd)",
    )

    report = sub.add_parser(
        "report",
        help="render EXPERIMENTS.md from benchmarks/results/paper.json",
    )
    report.add_argument("-o", "--output", default="EXPERIMENTS.md")
    return parser


def _cmd_generate(args) -> int:
    context = RunContext(seed=args.seed)
    rng = context.stream("generate")
    graph = FAMILIES[args.family](args.n, rng)
    if args.weighted:
        graph = with_random_weights(graph, context.stream("weights"))
    save_graph(graph, args.output)
    print(f"wrote {args.output}: {graph!r}")
    return 0


def _cmd_info(args) -> int:
    graph = load_graph(args.graph)
    print(f"{graph!r}")
    print(f"max degree        {graph.max_degree}")
    print(f"connected         {graph.is_connected()}")
    if graph.is_connected():
        gap = spectral_gap(graph)
        print(f"lazy spectral gap {gap:.5f}")
        print(f"tau_mix estimate  {estimate_mixing_time(graph)}")
        if graph.num_nodes <= 512:
            print(f"diameter          {graph.diameter()}")
    if isinstance(graph, WeightedGraph):
        print(
            f"weights           [{graph.weights.min():.4f}, "
            f"{graph.weights.max():.4f}]"
        )
    return 0


def _cmd_route(args) -> int:
    graph = load_graph(args.graph)
    outcome = run(
        "route",
        graph,
        config=_make_config(args),
        packets=args.packets if args.packets > 0 else None,
    )
    result = outcome.result
    hierarchy = outcome.backend.hierarchy
    print(f"tau_mix      {hierarchy.g0.tau_mix}")
    print(f"beta/depth   {hierarchy.beta}/{hierarchy.depth}")
    print(f"packets      {result.num_packets}")
    print(f"phases       {result.num_phases}")
    print(f"delivered    {result.delivered}")
    print(f"rounds       {result.cost_rounds:,.0f}")
    print(
        f"rounds/tau   {result.cost_rounds / hierarchy.g0.tau_mix:,.1f}"
    )
    _finish(outcome, args)
    return 0 if result.delivered else 1


def _cmd_mst(args) -> int:
    graph = load_graph(args.graph)
    if not isinstance(graph, WeightedGraph):
        print("graph has no weights; attaching i.i.d. uniform weights")
        # Same "weights" stream run("mst") would use, materialized here
        # so the Kruskal cross-check below sees the same weights.
        graph = with_random_weights(
            graph, RunContext(seed=args.seed).stream("weights")
        )
    outcome = run("mst", graph, config=_make_config(args))
    result = outcome.result
    matches = result.edge_ids == kruskal(graph)
    print(f"mst weight   {result.total_weight:.6f}")
    print(f"iterations   {result.num_iterations}")
    print(f"rounds       {result.rounds:,.0f}")
    print(f"construction {result.construction_rounds:,.0f}")
    print(f"verified     {matches} (vs centralized Kruskal)")
    _finish(outcome, args)
    return 0 if matches else 1


def _cmd_report(args) -> int:
    from .bench import baseline_path, load_record

    path = baseline_path("paper", quick=False)
    if not os.path.exists(path):
        raise ValueError(
            f"no paper record at {path}; record one with "
            "`repro bench paper`"
        )
    report = build_report(load_record(path))
    with open(args.output, "w") as handle:
        handle.write(report)
    print(f"wrote {args.output} ({len(report.splitlines())} lines)")
    return 0


def _cmd_mincut(args) -> int:
    graph = load_graph(args.graph)
    outcome = run(
        "mincut",
        graph,
        config=_make_config(args),
        eps=args.eps,
        num_trees=args.trees,
        two_respecting=graph.num_nodes <= 256,
    )
    result = outcome.result
    side = int(result.cut_side.sum())
    print(f"cut value    {result.cut_value}")
    print(f"side sizes   {side} / {graph.num_nodes - side}")
    print(f"trees packed {result.num_trees}")
    print(f"rounds       {result.rounds:,.0f}")
    _finish(outcome, args)
    return 0


def _cmd_clique(args) -> int:
    graph = load_graph(args.graph)
    outcome = run(
        "clique",
        graph,
        config=_make_config(args),
        sample_fraction=args.sample,
    )
    result = outcome.result
    print(f"messages     {result.num_messages}")
    print(f"phases       {result.num_phases}")
    print(f"delivered    {result.delivered}")
    print(f"rounds       {result.rounds:,.0f}")
    _finish(outcome, args)
    return 0 if result.delivered else 1


def _serve_policy(args) -> "ResiliencePolicy | None":
    """A ResiliencePolicy from the serve flags, or None if all unset."""
    policy = ResiliencePolicy(
        deadline_rounds=args.deadline_rounds,
        deadline_wall_s=args.deadline_wall,
        retry_budget=args.retry_budget,
        max_inflight=args.max_inflight,
        breaker_failures=args.breaker_failures,
    )
    return None if policy.is_null else policy


def _cmd_serve(args) -> int:
    import json

    graph = load_graph(args.graph)
    config = replace(_make_config(args), resilience=_serve_policy(args))
    if args.recover and args.journal is None:
        raise ValueError("--recover needs --journal PATH")

    def records(handle, skip: int):
        # The journal's record mark counts *parsed* records consumed by
        # serve_jsonl, so only non-blank lines may count against the
        # resume skip — blank input lines must not shift the point.
        parsed = 0
        for line in handle:
            line = line.strip()
            if not line:
                continue
            parsed += 1
            if parsed > skip:
                yield json.loads(line)

    in_handle = (
        sys.stdin if args.requests == "-" else open(args.requests)
    )
    out_handle = (
        sys.stdout if args.output == "-" else open(args.output, "w")
    )
    served = 0
    skip = 0
    try:
        if args.recover:
            session = Session.recover(graph, config, journal=args.journal)
            assert session.journal is not None
            skip = session.journal.record_mark
            print(
                f"recovered: replayed {session.updates_applied} "
                f"update(s), resuming at record {skip}",
                file=sys.stderr,
            )
        else:
            session = Session.open(graph, config, journal=args.journal)
        with session:
            print(
                f"session ready: n={graph.num_nodes} "
                f"backend={config.backend} "
                f"cached={session.from_cache}",
                file=sys.stderr,
            )
            for response in serve_jsonl(
                session, records(in_handle, skip), batch=args.batch
            ):
                out_handle.write(json.dumps(response) + "\n")
                out_handle.flush()
                served += 1
    finally:
        if in_handle is not sys.stdin:
            in_handle.close()
        if out_handle is not sys.stdout:
            out_handle.close()
    print(f"served {served} response(s)", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    from .bench import (
        SUITES,
        baseline_path,
        check_suite,
        default_results_dir,
        run_suite,
        write_record,
    )

    if args.list_suites:
        width = max(len(name) for name in SUITES)
        for name in sorted(SUITES):
            print(f"{name:<{width}}  {SUITES[name].title}")
        return 0

    names = args.suites or sorted(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(
                f"unknown bench suite {name!r}; choose from "
                f"{tuple(sorted(SUITES))}"
            )
    if args.out is not None and len(names) != 1:
        raise ValueError("--out needs exactly one SUITE")

    if args.check:
        for flag, value in (("--seed", args.seed), ("--out", args.out)):
            if value is not None:
                raise ValueError(
                    f"{flag} cannot be combined with --check: the gate "
                    "runs at each committed baseline's seed and writes "
                    "nothing"
                )
        failed = False
        for name in names:
            result = check_suite(name, results_dir=args.results)
            print(result.describe())
            failed = failed or not result.ok
        return 1 if failed else 0

    results_dir = (
        args.results
        if args.results is not None
        else default_results_dir()
    )
    for name in names:
        record = run_suite(name, seed=args.seed or 0, quick=args.quick)
        path = args.out or baseline_path(
            name, quick=args.quick, results_dir=results_dir
        )
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        write_record(record, path)
        tier = "quick" if args.quick else "full"
        print(
            f"{name}: wrote {len(record['rows'])} rows ({tier} tier) "
            f"to {path}"
        )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "route": _cmd_route,
    "mst": _cmd_mst,
    "mincut": _cmd_mincut,
    "clique": _cmd_clique,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UnsupportedOnBackend, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except DeliveryTimeout as error:
        print(f"delivery failed: {error}", file=sys.stderr)
        for node, target, attempts in error.culprits[:8]:
            print(
                f"  exhausted: {node}->{target} after "
                f"{attempts} attempt(s)",
                file=sys.stderr,
            )
        return 3


if __name__ == "__main__":
    sys.exit(main())
