"""The four workloads: inputs from the seed, a timed closed loop, checks.

Every workload is one client in one process with no threads: it sends
its next request only after the last one was answered.  The benchmark
generates every graph and request from ``--seed``; the program only
receives those inputs.  Correctness checks run between timed regions,
never inside one.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional

import numpy as np

from measure import Tally, check_mst, check_record, check_route

from repro.baselines.centralized_mst import is_spanning_tree, mst_weight
from repro.graphs.generators import hypercube, random_regular
from repro.graphs.graph import WeightedGraph
from repro.runtime.chaos import kill_session
from repro.runtime.config import RunConfig
from repro.runtime.session import Session, serve_jsonl
from repro.runtime.store import HierarchyStore

clock = time.perf_counter

#: Ledger label prefix -> per-layer rounds metric.
ROUND_LABELS = {
    "g0": "core.embedding.rounds.g0",
    "partition": "core.partition.rounds.partition",
    "hierarchy": "core.hierarchy.rounds.hierarchy",
    "route": "core.router.rounds.route",
    "mst": "core.mst.rounds.mst",
    "serve": "runtime.session.rounds.serve",
}


class Run:
    """What one workload run accumulates: timing samples, the
    correctness tally, rounds, and (traced runs only) the tracer."""

    def __init__(self, workdir: str, tracer: Any = None) -> None:
        self.workdir = workdir
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.tally = Tally()
        self.rounds_total = 0.0
        self.rounds_by_label: dict[str, float] = defaultdict(float)
        self.serve_records = 0
        self.serve_s = 0.0
        self.notes: dict[str, Any] = {}

    def request(self, request_id: Optional[str]) -> None:
        if self.tracer is not None:
            self.tracer.request = request_id

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Mark spans opened inside as belonging to workload phase
        ``name`` (``inputs`` spans are the benchmark's own work)."""
        if self.tracer is None:
            yield
            return
        saved, self.tracer.phase = self.tracer.phase, name
        try:
            yield
        finally:
            self.tracer.phase = saved

    def served(self, metric: str, seconds: float) -> None:
        """One request or update answered by the serving loop, recorded
        under ``metric`` in that metric's unit (``_ms`` or seconds)."""
        scale = 1e3 if metric.endswith("_ms") else 1.0
        self.samples[metric].append(seconds * scale)
        self.serve_records += 1
        self.serve_s += seconds

    def add_ledger(self, ledger: Any) -> None:
        """Fold a finished session's ledger into the per-label rounds."""
        for charge in ledger.charges:
            prefix = charge.label.split("/", 1)[0]
            label = ROUND_LABELS.get(prefix, f"ledger.rounds.{prefix}")
            self.rounds_by_label[label] += charge.rounds


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    began = clock()
    result = fn()
    return result, clock() - began


def derived_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# -- request streams ---------------------------------------------------------


def small_batch(
    rng: np.random.Generator,
    popularity: np.ndarray,
    max_batch: int,
    zipf: float = 1.3,
) -> tuple[np.ndarray, np.ndarray]:
    """1..max_batch packets; sources Zipf-skewed over ``popularity``
    (most popular first), destinations uniform over the same nodes."""
    size = int(rng.integers(1, max_batch + 1))
    ranks = np.minimum(rng.zipf(zipf, size=size), popularity.size) - 1
    return popularity[ranks], rng.choice(popularity, size=size)


def route_record(
    sources: np.ndarray, destinations: np.ndarray, request_id: str
) -> dict[str, Any]:
    return {
        "op": "route",
        "args": {
            "sources": sources.tolist(),
            "destinations": destinations.tolist(),
        },
        "id": request_id,
    }


def route_stream(
    rng: np.random.Generator,
    num_nodes: int,
    *,
    max_batch: int = 32,
    permutation_every: int = 4,
) -> Iterator[dict[str, Any]]:
    """Endless route records: in every block of ``permutation_every``
    records exactly one (at a seed-drawn position) is a full
    permutation, the rest are small explicit-demand batches."""
    nodes = np.arange(num_nodes)
    popularity = rng.permutation(nodes)
    index = 0
    while True:
        permutation_at = int(rng.integers(0, permutation_every))
        for slot in range(permutation_every):
            if slot == permutation_at:
                sources, destinations = nodes, rng.permutation(nodes)
            else:
                sources, destinations = small_batch(
                    rng, popularity, max_batch
                )
            yield route_record(sources, destinations, f"r{index}")
            index += 1


def _connected(num_nodes: int, edges: Iterable[tuple[int, int]]) -> bool:
    parent = list(range(num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = num_nodes
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components == 1


def churn_records(
    rng: np.random.Generator,
    graph: Any,
    count: int,
    update_every: int,
) -> list[dict[str, Any]]:
    """Route records with an update every ``update_every`` records.

    Updates alternate between removing one or two edges and taking one
    node down.  Every removal keeps the graph connected, and routes
    only use nodes that are still up, so every update and every route
    is valid."""
    n = graph.num_nodes
    edges = [(int(u), int(v)) for u, v in graph.edges()]
    down: set[int] = set()
    popularity = rng.permutation(n)
    records: list[dict[str, Any]] = []
    updates = 0
    for index in range(count):
        if (index + 1) % update_every == 0:
            if updates % 2 == 0:
                removed = []
                for _ in range(int(rng.integers(1, 3))):
                    while True:
                        pick = edges[int(rng.integers(0, len(edges)))]
                        rest = [e for e in edges if e != pick]
                        if _connected(n, rest):
                            break
                    edges = rest
                    removed.append(list(pick))
                update = {"edges_removed": removed}
            else:
                node = int(rng.choice(sorted(set(range(n)) - down)))
                down.add(node)
                update = {"nodes_down": [node]}
            updates += 1
            records.append({"update": update})
            continue
        live = popularity[~np.isin(popularity, sorted(down))]
        sources, destinations = small_batch(rng, live, 16)
        records.append(route_record(sources, destinations, f"c{index}"))
    return records


def strip(record: dict) -> dict:
    """A response without its wall-clock field (for comparison)."""
    return {key: value for key, value in record.items() if key != "wall_s"}


def serve_stream(
    run: Run,
    session: Session,
    records: Iterable[dict],
    what: str,
    stop: Callable[[int], bool] = lambda served: False,
) -> list[dict]:
    """Serve ``records`` through ``serve_jsonl`` until they run out or
    ``stop(records served)`` holds; each answer is timed from the pull
    of its record to its yield (the loop pulls a record only after
    answering the last), then checked.  Returns the answers."""
    stamp = [0.0]
    pulled: list[dict] = []
    answers: list[dict] = []

    def feed() -> Iterator[dict]:
        for record in records:
            if stop(len(answers)):
                return
            run.request(record.get("id", f"u{len(pulled)}"))
            pulled.append(record)
            stamp[0] = clock()
            yield record

    for answer in serve_jsonl(session, feed()):
        elapsed = clock() - stamp[0]
        record = pulled[len(answers)]
        run.served(
            "update_ms" if "update" in record else "route_ms", elapsed
        )
        check_record(run.tally, answer, f"{what} record {len(answers)}")
        answers.append(answer)
    run.request(None)
    run.tally.check(
        len(answers) == len(pulled),
        f"{what}: {len(answers)} answers for {len(pulled)} records",
    )
    return answers


def open_cold(run: Run, graph: Any, config: RunConfig, what: str,
              **kwargs: Any) -> Session:
    """A cold ``Session.open``, timed as one ``setup_s`` sample."""
    session, seconds = timed(lambda: Session.open(graph, config, **kwargs))
    run.samples["setup_s"].append(seconds)
    run.tally.check(not session.from_cache, f"{what}: cold open hit a cache")
    return session


# -- the workloads -----------------------------------------------------------


def cold_oracle(run: Run, seed: int, seconds: float) -> None:
    """Distinct random_regular(512, 6) graphs, each cold-opened with the
    cache off, then serving route requests and MST requests."""
    n, degree, routes, msts, min_graphs = 512, 6, 8, 2, 3
    deadline = clock() + seconds
    index = 0
    while index < min_graphs or clock() < deadline:
        with run.phase("inputs"):
            rng = np.random.default_rng([seed, 1, index])
            graph = random_regular(n, degree, rng)
            perms = [rng.permutation(n) for _ in range(routes)]
            weighted = [
                WeightedGraph(
                    n, list(graph.edges()), rng.random(graph.num_edges)
                )
                for _ in range(msts)
            ]
            config = RunConfig(seed=derived_seed(rng), cache="off")
        what = f"cold-oracle graph {index}"
        run.request(f"g{index}/open")
        began = clock()
        session = open_cold(run, graph, config, what)
        answers = []
        for number, perm in enumerate(perms):
            run.request(f"g{index}/route{number}")
            answer, elapsed = timed(
                lambda: session.request(
                    "route", sources=np.arange(n), destinations=perm
                )
            )
            run.served("route_ms", elapsed)
            answers.append(answer)
        trees = []
        for number, weights in enumerate(weighted):
            run.request(f"g{index}/mst{number}")
            tree, elapsed = timed(
                lambda: session.request("mst", weights=weights.weights)
            )
            run.served("mst_s", elapsed)
            trees.append(tree)
        run.request(None)
        ledger = session.context.ledger
        session.close()
        run.samples["cold_run_s"].append(clock() - began)
        for number, answer in enumerate(answers):
            check_route(run.tally, answer, f"{what} route {number}")
        for number, tree in enumerate(trees):
            check_mst(
                run.tally, weighted[number], tree.result,
                f"{what} mst {number}",
                is_spanning_tree=is_spanning_tree, mst_weight=mst_weight,
            )
        if index < min_graphs:
            run.rounds_total += ledger.total()
        run.add_ledger(ledger)
        index += 1
    run.notes["graphs"] = index


def _open_several(
    run: Run, graph: Any, config: RunConfig, what: str, opens: int
) -> Session:
    """``opens`` cold opens of the same (graph, config); the build
    rounds must agree; the last session is kept."""
    session = None
    build_rounds = set()
    for number in range(opens):
        if session is not None:
            session.close()
            session = None
        run.request(f"open{number}")
        session = open_cold(run, graph, config, f"{what} open {number}")
        build_rounds.add(session.context.ledger.total())
    run.tally.check(
        len(build_rounds) == 1,
        f"{what}: cold opens charged different rounds {build_rounds}",
    )
    run.request(None)
    return session


def _serve_for(
    run: Run, session: Session, stream: Iterator[dict], what: str,
    seconds: float, prefix: int,
) -> float:
    """Serve the stream for ``seconds`` (and at least ``prefix``
    records).  Returns the rounds of the first ``prefix`` answers, the
    part every run serves, so it repeats exactly for a seed."""
    deadline = clock() + seconds
    with run.phase("timed"):
        answers = serve_stream(
            run, session, stream, what,
            stop=lambda served: served >= prefix and clock() >= deadline,
        )
    run.notes["records"] = run.notes.get("records", 0) + len(answers)
    return float(sum(answer["rounds"] for answer in answers[:prefix]))


def warm_serve(run: Run, seed: int, seconds: float) -> None:
    """One oracle session on hypercube(9) serving a long route stream."""
    with run.phase("inputs"):
        rng = np.random.default_rng([seed, 2])
        graph = hypercube(9)
        config = RunConfig(seed=derived_seed(rng), cache="off")
        stream = route_stream(rng, graph.num_nodes)
    session = _open_several(run, graph, config, "warm-serve", 3)
    build = session.context.ledger.total()
    served = _serve_for(run, session, stream, "warm-serve", seconds, 64)
    run.rounds_total = build + served
    run.add_ledger(session.context.ledger)
    session.close()


def native_sim(run: Run, seed: int, seconds: float) -> None:
    """random_regular(128, 6) graphs on the native backend, serving
    routes: three seed-derived graphs, each cold-opened once and served
    for a third of ``seconds``, so one graph's structure does not set
    the run's figures."""
    graphs = 3
    for index in range(graphs):
        with run.phase("inputs"):
            rng = np.random.default_rng([seed, 4, index])
            graph = random_regular(128, 6, rng)
            config = RunConfig(
                seed=derived_seed(rng), backend="native", cache="off"
            )
            stream = route_stream(rng, graph.num_nodes)
        what = f"native-sim graph {index}"
        run.request(f"g{index}/open")
        session = open_cold(run, graph, config, what)
        build = session.context.ledger.total()
        served = _serve_for(
            run, session, stream, what, seconds / graphs, prefix=4
        )
        run.rounds_total += build + served
        run.add_ledger(session.context.ledger)
        session.close()


def _rounds_of(answers: list[dict]) -> float:
    total = 0.0
    for answer in answers:
        if "update" in answer:
            total += float(answer["update"]["rounds"])
        else:
            total += float(answer.get("rounds", 0.0))
    return total


def churn_recover(run: Run, seed: int, seconds: float) -> None:
    """A journaled session on random_regular(256, 6) over a store,
    serving routes and updates, crashed and recovered mid-stream."""
    n, count, update_every, min_epochs = 256, 72, 8, 2
    crash_points = (24, 48)
    with run.phase("inputs"):
        rng = np.random.default_rng([seed, 3])
        graph = random_regular(n, 6, rng)
        records = churn_records(rng, graph, count, update_every)
        config = RunConfig(seed=derived_seed(rng), cache="off")

    def fresh(tag: str) -> tuple[HierarchyStore, str]:
        root = os.path.join(run.workdir, tag)
        os.makedirs(root)
        store = HierarchyStore(os.path.join(root, "store"), max_entries=64)
        return store, os.path.join(root, "journal.jsonl")

    # The uninterrupted reference run: made once; only its cold open
    # is timed (as a set-up sample), its answers are not.
    with run.phase("reference"):
        store, journal = fresh("reference")
        session = open_cold(run, graph, config, "churn reference",
                            store=store, journal=journal)
        build = session.context.ledger.total()
        reference = [
            strip(answer)
            for answer in serve_jsonl(session, records)
        ]
        session.close()
    for position, answer in enumerate(reference):
        check_record(run.tally, answer, f"churn reference record {position}")
    run.rounds_total = build + _rounds_of(reference)

    deadline = clock() + seconds
    epoch = 0
    while epoch < min_epochs or clock() < deadline:
        what = f"churn epoch {epoch}"
        store, journal = fresh(f"epoch{epoch}")
        run.request(f"e{epoch}/open")
        session = open_cold(run, graph, config, what, store=store,
                            journal=journal)
        position = 0
        with run.phase("timed"):
            for stop in crash_points + (len(records),):
                segment = records[position:stop]
                answers = serve_stream(run, session, segment, what)
                run.tally.check(
                    [strip(a) for a in answers]
                    == reference[position:stop],
                    f"{what}: records {position}..{stop} differ from the "
                    "uninterrupted reference",
                )
                position = stop
                if stop == len(records):
                    break
                kill_session(session)
                run.request(f"e{epoch}/cache-open@{stop}")
                hit, elapsed = timed(
                    lambda: Session.open(graph, config, store=store)
                )
                run.samples["cache_open_ms"].append(elapsed * 1e3)
                run.tally.check(hit.from_cache,
                                f"{what}: open after crash missed the store")
                hit.close()
                run.request(f"e{epoch}/recover@{stop}")
                session, elapsed = timed(
                    lambda: Session.recover(
                        graph, config, journal=journal, store=store
                    )
                )
                run.samples["recover_s"].append(elapsed)
                run.tally.check(
                    session.journal.record_mark == stop,
                    f"{what}: recovered at record "
                    f"{session.journal.record_mark}, crashed at {stop}",
                )
        run.request(None)
        run.add_ledger(session.context.ledger)
        session.close()
        epoch += 1
    run.notes["epochs"] = epoch


WORKLOADS: dict[str, Callable[[Run, int, float], None]] = {
    "cold-oracle": cold_oracle,
    "warm-serve": warm_serve,
    "churn-recover": churn_recover,
    "native-sim": native_sim,
}
