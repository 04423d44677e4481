"""Bit-identity of the vectorized build kernels against their loop forms.

The oracles below are the straightforward per-step / per-edge loops the
kernels replaced.  They live here only to pin the kernels: same
positions, congestion and node loads, same RNG consumption (the
generator's next draw), same CSR arrays, same dict key and set
iteration order, same edge-row order, and the same error for the first
bad edge.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import _clique_edges
from repro.core.portals import _boundary_nodes, _sampled_portals
from repro.core.sampling import group_select, sample_within_parts
from repro.graphs import Graph, hypercube, random_regular, ring_graph
from repro.walks import engine, run_correlated_walks, run_parallel_walks
from repro.walks.engine import StepTable, keyed_step

kernel_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- oracles -------------------------------------------------------------


def _oracle_advance(positions, move, choice_u, indptr, indices, degrees,
                    num_arcs):
    offsets = (choice_u * degrees[positions]).astype(np.int64)
    chosen_arcs = indptr[positions] + offsets
    chosen_arcs = np.minimum(chosen_arcs, max(0, num_arcs - 1))
    if num_arcs:
        positions = np.where(move, indices[chosen_arcs], positions)
    return positions, chosen_arcs


def _oracle_step_stats(graph, positions, chosen_arcs, moved):
    if moved.any():
        arc_counts = np.bincount(chosen_arcs[moved], minlength=graph.num_arcs)
        edge_congestion = int(arc_counts.max())
    else:
        edge_congestion = 0
    node_counts = np.bincount(positions, minlength=graph.num_nodes)
    return edge_congestion, int(node_counts.max())


def _oracle_lazy(graph, starts, steps, rng):
    positions = np.asarray(starts, dtype=np.int64).copy()
    congestion, loads = [], []
    for _ in range(steps):
        move = rng.random(positions.shape[0]) < 0.5
        move &= graph.degrees[positions] > 0
        positions, chosen = _oracle_advance(
            positions, move, rng.random(positions.shape[0]),
            graph.indptr, graph.indices, graph.degrees, graph.num_arcs,
        )
        c, load = _oracle_step_stats(graph, positions, chosen, move)
        congestion.append(c)
        loads.append(load)
    return positions, congestion, loads


def _oracle_trajectory(oracle, graph, starts, steps, seed):
    rng = np.random.default_rng(seed)
    rows = [starts]
    for _ in range(steps):
        rows.append(oracle(graph, rows[-1], 1, rng)[0])
    return np.stack(rows)


def _oracle_lazy_trajectory(graph, starts, steps, seed):
    return _oracle_trajectory(_oracle_lazy, graph, starts, steps, seed)


def _oracle_regular(graph, starts, steps, rng):
    positions = np.asarray(starts, dtype=np.int64).copy()
    degrees = graph.degrees
    delta = max(1, graph.max_degree)
    congestion, loads = [], []
    for _ in range(steps):
        move = rng.random(positions.shape[0]) < (
            degrees[positions] / (2.0 * delta)
        )
        offsets = (
            rng.random(positions.shape[0]) * degrees[positions]
        ).astype(np.int64)
        offsets = np.minimum(offsets, np.maximum(degrees[positions] - 1, 0))
        chosen = graph.indptr[positions] + offsets
        chosen = np.minimum(chosen, max(0, graph.num_arcs - 1))
        if graph.num_arcs:
            positions = np.where(move, graph.indices[chosen], positions)
        c, load = _oracle_step_stats(graph, positions, chosen, move)
        congestion.append(c)
        loads.append(load)
    return positions, congestion, loads


def _oracle_graph(num_nodes, edges):
    """Validation and CSR arrays of the per-edge construction."""
    edge_list = [(int(u), int(v)) for u, v in edges]
    for u, v in edge_list:
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(
                f"edge ({u}, {v}) out of range for {num_nodes} nodes"
            )
        if u == v:
            raise ValueError(f"self-loop at node {u} is not supported")
    m = len(edge_list)
    degree = np.zeros(num_nodes, dtype=np.int64)
    for u, v in edge_list:
        degree[u] += 1
        degree[v] += 1
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    indices = np.empty(2 * m, dtype=np.int64)
    arc_twin = np.empty(2 * m, dtype=np.int64)
    arc_edge = np.empty(2 * m, dtype=np.int64)
    cursor = indptr[:-1].copy()
    for eid, (u, v) in enumerate(edge_list):
        a = cursor[u]
        cursor[u] += 1
        b = cursor[v]
        cursor[v] += 1
        indices[a] = v
        indices[b] = u
        arc_twin[a] = b
        arc_twin[b] = a
        arc_edge[a] = eid
        arc_edge[b] = eid
    return indptr, indices, arc_twin, arc_edge, degree


def _oracle_boundary(graph, parts, beta):
    edges = graph.edge_array
    if edges.size == 0:
        return {}
    result = {}
    tail_parts = parts[edges[:, 0]]
    head_parts = parts[edges[:, 1]]
    crossing = (tail_parts != head_parts) & (
        tail_parts // beta == head_parts // beta
    )
    for u, v, a, b in zip(
        edges[crossing, 0], edges[crossing, 1],
        tail_parts[crossing], head_parts[crossing],
    ):
        result.setdefault((int(a), int(b % beta)), set()).add(int(u))
        result.setdefault((int(b), int(a % beta)), set()).add(int(v))
    return {
        key: np.fromiter(nodes, dtype=np.int64, count=len(nodes))
        for key, nodes in result.items()
    }


def _oracle_group_select(owners, targets, num_owners, cap, rng):
    order = np.argsort(owners, kind="stable")
    owners_sorted = owners[order]
    targets_sorted = targets[order]
    boundaries = np.searchsorted(
        owners_sorted, np.arange(num_owners + 1), side="left"
    )
    edges = []
    for owner in range(num_owners):
        chunk = targets_sorted[boundaries[owner]: boundaries[owner + 1]]
        chunk = np.unique(chunk)
        chunk = chunk[chunk != owner]
        if chunk.shape[0] > cap:
            chunk = rng.choice(chunk, size=cap, replace=False)
        for target in chunk:
            edges.append((owner, int(target)))
    return edges


def _oracle_sampled_portals(parts, boundary, beta, num_vnodes, rng):
    table = np.full((num_vnodes, beta), -1, dtype=np.int64)
    order = np.argsort(parts, kind="stable")
    sorted_parts = parts[order]
    cuts = np.flatnonzero(np.diff(np.concatenate(([-1], sorted_parts, [-1]))))
    for start, end in zip(cuts[:-1], cuts[1:]):
        members = order[start:end]
        part = int(sorted_parts[start])
        for sibling in range(beta):
            if sibling == part % beta:
                continue
            candidates = boundary.get((part, sibling))
            if candidates is None or candidates.shape[0] == 0:
                continue
            table[members, sibling] = candidates[
                rng.integers(0, candidates.shape[0], size=members.shape[0])
            ]
    return table


def _oracle_sample_within_parts(parts, degree, rng):
    order = np.argsort(parts, kind="stable")
    sorted_parts = parts[order]
    boundaries = np.flatnonzero(
        np.diff(np.concatenate(([-1], sorted_parts, [-1])))
    )
    edges = []
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        members = order[start:end]
        if members.shape[0] < 2:
            continue
        draws = members[
            rng.integers(0, members.shape[0], size=(members.shape[0], degree))
        ]
        for node, row in zip(members, draws):
            for target in np.unique(row):
                if target != node:
                    edges.append((int(node), int(target)))
    return edges


def _oracle_clique_edges(parts):
    order = np.argsort(parts, kind="stable")
    sorted_parts = parts[order]
    boundaries = np.flatnonzero(
        np.diff(np.concatenate(([-1], sorted_parts, [-1])))
    )
    edges = []
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        members = order[start:end]
        for i in range(members.shape[0]):
            for j in range(i + 1, members.shape[0]):
                edges.append((int(members[i]), int(members[j])))
    return edges


def _rows(edges: np.ndarray) -> list[tuple[int, int]]:
    assert edges.ndim == 2 and edges.shape[1] == 2
    return [tuple(row) for row in edges.tolist()]


# -- strategies ----------------------------------------------------------


@st.composite
def multigraphs(draw, max_nodes=12, max_edges=30):
    """Loop-free multigraphs, often with isolated nodes or no edges."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        ),
        max_size=max_edges,
    ))
    return Graph(n, [(u, v) for u, v in pairs if u != v])


@st.composite
def regular_graphs(draw):
    """Constant-degree graphs: the gather-free step's tables."""
    kind = draw(st.sampled_from(["ring", "hypercube", "random", "parallel"]))
    if kind == "ring":
        return ring_graph(draw(st.integers(min_value=3, max_value=12)))
    if kind == "hypercube":
        return hypercube(draw(st.integers(min_value=2, max_value=5)))
    if kind == "random":
        n = draw(st.integers(min_value=5, max_value=16))
        d = draw(st.integers(min_value=3, max_value=4))
        if n * d % 2:
            n += 1
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        return random_regular(n, d, np.random.default_rng(seed))
    # A ring with every edge repeated: parallel arcs in each row.
    n = draw(st.integers(min_value=3, max_value=8))
    copies = draw(st.integers(min_value=2, max_value=3))
    return Graph(n, [(i, (i + 1) % n) for i in range(n)] * copies)


@st.composite
def walk_cases(draw):
    graph = draw(st.one_of(multigraphs(), regular_graphs()))
    num_walks = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    starts = np.random.default_rng(seed).integers(
        0, graph.num_nodes, size=num_walks
    )
    steps = draw(st.integers(min_value=0, max_value=12))
    # Small draw blocks make short runs span several blocks.
    block_bytes = draw(st.sampled_from([16, 100, 1000, engine._BLOCK_BYTES]))
    # 0 draws every next block on the helper thread, the default
    # (above every case's walk count) draws them all in line.
    overlap_walks = draw(st.sampled_from([0, engine._OVERLAP_WALKS]))
    return graph, starts, steps, seed, block_bytes, overlap_walks


# -- walk kernels --------------------------------------------------------


class _Recorder:
    """A step hook that records the trajectory and per-step node loads."""

    def __init__(self, graph, starts):
        self.num_nodes = graph.num_nodes
        self.rows = [np.asarray(starts)]
        self.loads = []

    def __call__(self, before, after):
        assert np.array_equal(before, self.rows[-1])
        self.rows.append(after)
        counts = np.bincount(after, minlength=self.num_nodes)
        self.loads.append(int(counts.max()))

    def trajectory(self):
        return np.stack(self.rows)


def _assert_walks_match(runner, oracle, graph, starts, steps, seed):
    rng_new = np.random.default_rng(seed)
    rng_old = np.random.default_rng(seed)
    positions, congestion, loads = oracle(graph, starts, steps, rng_old)
    if runner is engine.run_regular_walks:
        # The regular engine takes no step hook; its steps run through
        # the same `_run_walks` loop whose hook the lazy cases check.
        run = runner(graph, starts, steps, rng_new)
    else:
        recorder = _Recorder(graph, starts)
        run = runner(graph, starts, steps, rng_new, on_step=recorder)
        assert recorder.loads == loads
    assert np.array_equal(run.positions, positions)
    assert run.edge_congestion == congestion
    assert rng_new.random() == rng_old.random()


_RUNNERS = [
    (engine.run_lazy_walks, _oracle_lazy),
    (engine.run_regular_walks, _oracle_regular),
]


def _patched_engine(block_bytes, overlap_walks):
    return mock.patch.multiple(
        engine,
        _BLOCK_BYTES=block_bytes,
        _OVERLAP_WALKS=overlap_walks,
        _SPARE_CORE=True,
    )


class _RaiseAt:
    """A step hook that raises on its ``step``-th call."""

    def __init__(self, step):
        self.step = step
        self.calls = 0

    def __call__(self, before, after):
        if self.calls == self.step:
            raise RuntimeError(f"hook failed at step {self.step}")
        self.calls += 1


class _FailingFill:
    """A generator whose ``fail_at``-th ``random(out=...)`` call raises.

    Every other call fills from a real generator, whose bit generator
    it shares, and each call records the thread it ran on.
    """

    def __init__(self, seed, fail_at):
        self.inner = np.random.default_rng(seed)
        self.bit_generator = self.inner.bit_generator
        self.fail_at = fail_at
        self.threads = []

    def random(self, *, out):
        self.threads.append(threading.current_thread())
        if len(self.threads) == self.fail_at:
            raise FloatingPointError(f"fill {self.fail_at} failed")
        return self.inner.random(out=out)


class TestWalkKernels:
    @kernel_settings
    @given(walk_cases())
    def test_lazy_walks_match_oracle(self, case):
        graph, starts, steps, seed, block_bytes, overlap_walks = case
        with _patched_engine(block_bytes, overlap_walks):
            _assert_walks_match(
                engine.run_lazy_walks, _oracle_lazy,
                graph, starts, steps, seed,
            )

    @kernel_settings
    @given(walk_cases())
    def test_regular_walks_match_oracle(self, case):
        graph, starts, steps, seed, block_bytes, overlap_walks = case
        with _patched_engine(block_bytes, overlap_walks):
            _assert_walks_match(
                engine.run_regular_walks, _oracle_regular,
                graph, starts, steps, seed,
            )

    @pytest.mark.parametrize("fail_at", [0, 2, 3, 7, 11])
    def test_raising_hook_rewinds_the_generator(self, fail_at):
        # 25 walks in 1000-byte blocks: blocks of 2 steps, so step 2
        # opens a block and step 3 ends one, with the next block being
        # drawn on the helper thread (forced on) when the hook raises.
        graph = hypercube(3)
        starts = np.random.default_rng(2).integers(0, 8, size=25)
        next_draws = []
        for overlap_walks in (0, engine._OVERLAP_WALKS):
            rng = np.random.default_rng(6)
            threads = len(threading.enumerate())
            with _patched_engine(1000, overlap_walks):
                with pytest.raises(RuntimeError, match=f"step {fail_at}"):
                    engine.run_lazy_walks(
                        graph, starts, 12, rng, on_step=_RaiseAt(fail_at)
                    )
            assert len(threading.enumerate()) == threads
            next_draws.append(rng.random())
        # The sequential engine drew every block up to the failing one.
        expected = np.random.default_rng(6)
        expected.random((fail_at // 2 + 1) * 2 * 2 * 25)
        assert next_draws == [expected.random()] * 2

    @pytest.mark.parametrize("fail_at", [1, 2, 3, 6])
    def test_raising_fill_rewinds_the_generator(self, fail_at):
        # Blocks of 2 steps as above, 6 blocks: fill 1 is drawn in line,
        # fills 2-6 on the helper (forced on) while the block before
        # them steps.
        graph = hypercube(3)
        starts = np.random.default_rng(2).integers(0, 8, size=25)
        for overlap_walks in (0, engine._OVERLAP_WALKS):
            rng = _FailingFill(6, fail_at)
            stepped = []
            threads = threading.enumerate()
            with _patched_engine(1000, overlap_walks):
                with pytest.raises(
                    FloatingPointError, match=f"fill {fail_at} failed"
                ):
                    engine.run_lazy_walks(
                        graph, starts, 12, rng,
                        on_step=lambda before, after: stepped.append(after),
                    )
            assert threading.enumerate() == threads
            # Every block before the failing one stepped, none after.
            assert len(stepped) == (fail_at - 1) * 2
            # The generator sits at the failing block's snapshot.
            expected = np.random.default_rng(6)
            expected.random((fail_at - 1) * 2 * 2 * 25)
            assert rng.bit_generator.state == expected.bit_generator.state
            helper_fills = sum(
                thread is not threading.current_thread()
                for thread in rng.threads
            )
            assert helper_fills == (fail_at - 1 if overlap_walks == 0 else 0)

    @pytest.mark.parametrize(
        "overlap_walks, helpers", [(0, 1), (engine._OVERLAP_WALKS, 0)]
    )
    def test_one_helper_per_batch(self, overlap_walks, helpers):
        # 32 walks in 100-byte blocks: one step per block, 9 blocks.
        graph = hypercube(3)
        starts = np.repeat(np.arange(8), 4)
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            if thread.name == "walk-uniforms":
                started.append(thread)
            start(thread)

        with _patched_engine(100, overlap_walks), mock.patch.object(
            threading.Thread, "start", counted_start
        ):
            _assert_walks_match(
                engine.run_lazy_walks, _oracle_lazy, graph, starts, 9, 3
            )
        assert len(started) == helpers

    def test_concurrent_batches_under_fast_switching(self):
        # Four overlapped batches on four threads (more than the cores),
        # each with its own helper, switching every microsecond: each
        # still meets the oracle and leaves no helper behind.
        graph = hypercube(4)
        starts = np.repeat(np.arange(16), 3)
        threads = threading.enumerate()
        errors = []

        def batch(seed):
            try:
                _assert_walks_match(
                    engine.run_lazy_walks, _oracle_lazy,
                    graph, starts, 30, seed,
                )
            except BaseException as error:
                errors.append(error)

        workers = [
            threading.Thread(target=batch, args=(seed,)) for seed in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _patched_engine(100, 0):
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert threading.enumerate() == threads

    def test_one_core_keeps_the_sequential_fill(self):
        graph = hypercube(3)
        starts = np.repeat(np.arange(8), 4)
        with _patched_engine(100, 0), mock.patch.multiple(
            engine, _SPARE_CORE=False, _Fill=mock.DEFAULT
        ) as patched:
            _assert_walks_match(
                engine.run_lazy_walks, _oracle_lazy, graph, starts, 9, 3
            )
        patched["_Fill"].assert_not_called()

    @pytest.mark.parametrize("overlap_walks", [0, engine._OVERLAP_WALKS])
    def test_no_helper_thread_outlives_a_run(self, overlap_walks):
        graph = hypercube(3)
        starts = np.repeat(np.arange(8), 4)
        threads = threading.enumerate()
        with _patched_engine(100, overlap_walks):
            run = engine.run_lazy_walks(
                graph, starts, 9, np.random.default_rng(0)
            )
        assert threading.enumerate() == threads
        assert len(run.edge_congestion) == 9

    @pytest.mark.parametrize("block_bytes", [16, 100, engine._BLOCK_BYTES])
    def test_scalar_coin_with_gathered_keys(self, block_bytes):
        # Mixed degrees and no isolated node: the lazy walk compares the
        # coin against one scalar, yet the keys are gathered per walk.
        graph = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)])
        assert StepTable.of(graph).degree == 0
        starts = np.random.default_rng(1).integers(0, 6, size=25)
        with mock.patch.object(engine, "_BLOCK_BYTES", block_bytes):
            _assert_walks_match(
                engine.run_lazy_walks, _oracle_lazy, graph, starts, 9, seed=4
            )

    @pytest.mark.parametrize("runner, oracle", _RUNNERS)
    def test_default_blocks_span_many_steps(self, runner, oracle):
        # 10000 walks -> 6 steps per 1 MiB block -> blocks of 6, 6, 6, 2.
        graph = Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0),
                          (0, 5), (5, 1)])
        starts = np.random.default_rng(3).integers(0, 7, size=10000)
        _assert_walks_match(runner, oracle, graph, starts, 20, seed=9)

    def test_node_loads_off_by_default(self):
        # The engine keeps only the per-step arc congestion Lemma 2.5
        # charges; node loads and positions are the step hook's to see.
        graph = Graph(3, [(0, 1), (1, 2)])
        run = engine.run_lazy_walks(
            graph, np.arange(3), 4, np.random.default_rng(0)
        )
        assert {f.name for f in dataclasses.fields(run)} == {
            "starts", "positions", "steps", "edge_congestion",
        }
        assert len(run.edge_congestion) == 4

    def test_trajectory_matches_positions(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 3)])
        starts = np.array([0, 1, 2, 3, 4, 4])
        seed = 5
        recorder = _Recorder(graph, starts)
        engine.run_lazy_walks(
            graph, starts, 6, np.random.default_rng(seed), on_step=recorder
        )
        expected = _oracle_lazy_trajectory(graph, starts, 6, seed)
        assert np.array_equal(recorder.trajectory(), expected)

    def test_trajectory_and_hook_on_regular_graph(self):
        graph = hypercube(3)
        starts = np.repeat(np.arange(8), 3)
        seen = []
        engine.run_lazy_walks(
            graph, starts, 7, np.random.default_rng(11),
            on_step=lambda before, after: seen.append((before, after)),
        )
        expected = _oracle_lazy_trajectory(graph, starts, 7, 11)
        assert len(seen) == 7
        for step, (before, after) in enumerate(seen):
            assert np.array_equal(before, expected[step])
            assert np.array_equal(after, expected[step + 1])

    @kernel_settings
    @given(multigraphs(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_keyed_step_matches_oracle_on_live_subgraph(self, graph, seed):
        # A CSR filtered to a random subset of arcs, where filtering
        # can leave nodes with no arcs (the has_isolated path).
        rng = np.random.default_rng(seed)
        keep = rng.random(graph.num_arcs) < 0.7
        tails = graph.arc_tails[keep]
        indices = graph.indices[keep]
        degrees = np.bincount(tails, minlength=graph.num_nodes)
        indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        table = StepTable.build(indptr, indices, degrees, tails)
        positions = rng.integers(0, graph.num_nodes, size=30)
        move = (rng.random(30) < 0.5) & (degrees[positions] > 0)
        choice_u = rng.random(30)
        new, keys = keyed_step(table, positions, move, choice_u)
        old, _ = _oracle_advance(
            positions, move, choice_u, indptr, indices, degrees,
            int(indices.shape[0]),
        )
        assert np.array_equal(new, old)
        if table.num_arcs:
            assert np.array_equal(keys >= table.num_arcs, move)

    @kernel_settings
    @given(regular_graphs(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_keyed_step_matches_oracle_on_regular_table(self, graph, seed):
        rng = np.random.default_rng(seed)
        table = StepTable.build(
            graph.indptr, graph.indices, graph.degrees, graph.arc_tails
        )
        assert table.degree == graph.degrees[0]
        positions = rng.integers(0, graph.num_nodes, size=30)
        move = rng.random(30) < 0.5
        choice_u = rng.random(30)
        new, keys = keyed_step(table, positions, move, choice_u)
        old, _ = _oracle_advance(
            positions, move, choice_u, graph.indptr, graph.indices,
            graph.degrees, graph.num_arcs,
        )
        assert np.array_equal(new, old)
        # The gathered branch computes the very same keys.
        gathered = keyed_step(table._replace(degree=0), positions, move,
                              choice_u)
        assert np.array_equal(keys, gathered[1])
        assert np.array_equal(new, gathered[0])

    @pytest.mark.parametrize(
        "graph, degree",
        [
            (ring_graph(5), 2),
            (hypercube(4), 4),
            (random_regular(10, 3, np.random.default_rng(2)), 3),
            (Graph(2, [(0, 1)] * 3), 3),
            (Graph(4, [(0, 1), (1, 2), (2, 0)]), 0),  # node 3 isolated
            (Graph(4, [(0, 1), (1, 2), (2, 3)]), 0),  # mixed degrees
            (Graph(3, []), 0),
            (Graph(0, []), 0),
        ],
    )
    def test_step_table_degree(self, graph, degree):
        assert StepTable.of(graph).degree == degree


# -- CSR build -----------------------------------------------------------


@st.composite
def raw_edge_lists(draw):
    """Edge lists that may hold out-of-range endpoints and self-loops."""
    n = draw(st.integers(min_value=0, max_value=10))
    endpoint = st.integers(min_value=-2, max_value=n + 1)
    return n, draw(st.lists(st.tuples(endpoint, endpoint), max_size=25))


class TestGraphBuild:
    @kernel_settings
    @given(raw_edge_lists())
    def test_csr_and_errors_match_oracle(self, case):
        n, edges = case
        try:
            expected = _oracle_graph(n, edges)
        except ValueError as error:
            for form in (edges, np.array(edges, dtype=np.int64)):
                with pytest.raises(ValueError) as raised:
                    Graph(n, form)
                assert str(raised.value) == str(error)
            return
        for form in (
            edges,
            iter(edges),
            np.array(edges, dtype=np.int64).reshape(-1, 2),
        ):
            graph = Graph(n, form)
            indptr, indices, arc_twin, arc_edge, degree = expected
            assert np.array_equal(graph.indptr, indptr)
            assert np.array_equal(graph.indices, indices)
            assert np.array_equal(graph.arc_twin, arc_twin)
            assert np.array_equal(graph.arc_edge, arc_edge)
            assert np.array_equal(graph.degrees, degree)
            assert np.array_equal(
                graph.arc_tails, np.repeat(np.arange(n), degree)
            )
            assert _rows(graph.edge_array) == [
                (int(u), int(v)) for u, v in edges
            ]

    def test_input_array_is_copied(self):
        edges = np.array([[0, 1], [1, 2]])
        graph = Graph(3, edges)
        edges[0] = [2, 0]
        assert _rows(graph.edge_array) == [(0, 1), (1, 2)]

    def test_arc_tails_is_a_fresh_array(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        graph.arc_tails[0] = 2
        assert graph.arc_tails.tolist() == [0, 1, 1, 2]


class TestStepHook:
    @pytest.mark.parametrize(
        "runner, oracle",
        [_RUNNERS[0], (run_correlated_walks, None)],
        ids=["lazy", "correlated"],
    )
    def test_hook_observes_every_step(self, runner, oracle):
        graph = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                          (1, 4)])
        starts = np.random.default_rng(7).integers(0, 6, size=30)
        recorder = _Recorder(graph, starts)
        run = runner(
            graph, starts, 9, np.random.default_rng(8), on_step=recorder
        )
        # Once per step and in order: the recorder checks that each
        # step's `before` is the previous step's `after`.
        assert len(recorder.rows) == run.steps + 1 == 10
        assert np.array_equal(recorder.rows[-1], run.positions)
        trajectory = recorder.trajectory()
        if oracle is None:
            for before, after in zip(trajectory, trajectory[1:]):
                for u, v in zip(before.tolist(), after.tolist()):
                    assert u == v or graph.has_edge(u, v)
            return
        expected = _oracle_trajectory(oracle, graph, starts, 9, seed=8)
        assert np.array_equal(trajectory, expected)
        report = run_parallel_walks(graph, starts, 9, np.random.default_rng(8))
        assert report.measured_peak_load == max(recorder.loads)
        assert np.array_equal(report.run.positions, run.positions)


# -- edge-list builders --------------------------------------------------


class TestEdgeBuilders:
    @kernel_settings
    @given(
        multigraphs(max_nodes=14, max_edges=40),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_boundary_nodes_match_oracle(self, graph, beta, seed):
        parts = np.random.default_rng(seed).integers(
            0, 2 * beta, size=graph.num_nodes
        )
        new = _boundary_nodes(graph, parts, beta)
        old = _oracle_boundary(graph, parts, beta)
        assert list(new) == list(old)
        for key in old:
            assert new[key].dtype == old[key].dtype
            assert new[key].tolist() == old[key].tolist()

    def test_boundary_set_order_beyond_small_ints(self):
        # Node ids large enough that set iteration order differs from
        # insertion order, so the kernel must rebuild the same sets.
        nodes = 64
        rng = np.random.default_rng(4)
        pairs = rng.integers(0, nodes, size=(400, 2))
        graph = Graph(nodes, pairs[pairs[:, 0] != pairs[:, 1]])
        parts = rng.integers(0, 4, size=nodes)
        new = _boundary_nodes(graph, parts, 2)
        old = _oracle_boundary(graph, parts, 2)
        assert list(new) == list(old)
        assert all(new[k].tolist() == old[k].tolist() for k in old)

    @kernel_settings
    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_group_select_matches_oracle(self, num_owners, size, cap, seed):
        data = np.random.default_rng(seed)
        owners = data.integers(0, max(1, num_owners), size=size)
        if num_owners == 0:
            owners = owners[:0]
        targets = data.integers(0, 12, size=owners.shape[0])
        rng_new = np.random.default_rng(seed + 1)
        rng_old = np.random.default_rng(seed + 1)
        edges = group_select(owners, targets, num_owners, cap, rng_new)
        expected = _oracle_group_select(
            owners, targets, num_owners, cap, rng_old
        )
        assert _rows(edges) == expected
        assert rng_new.random() == rng_old.random()

    @kernel_settings
    @given(st.data())
    def test_sampled_portals_match_oracle(self, data):
        beta = data.draw(st.integers(min_value=2, max_value=5))
        parts = np.array(
            data.draw(st.lists(
                st.integers(min_value=0, max_value=3 * beta - 1),
                min_size=1, max_size=30,
            )),
            dtype=np.int64,
        )
        num_vnodes = parts.shape[0]
        # Per (part, sibling): a missing key, an empty array, or up to
        # 20 candidates (repeats allowed).
        boundary = {}
        for part in np.unique(parts).tolist():
            for sibling in range(beta):
                size = data.draw(st.integers(min_value=-1, max_value=20))
                if size >= 0:
                    boundary[(part, sibling)] = np.array(
                        data.draw(st.lists(
                            st.integers(0, num_vnodes - 1),
                            min_size=size, max_size=size,
                        )),
                        dtype=np.int64,
                    )
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng_new = np.random.default_rng(seed)
        rng_old = np.random.default_rng(seed)
        table = _sampled_portals(parts, boundary, beta, num_vnodes, rng_new)
        expected = _oracle_sampled_portals(
            parts, boundary, beta, num_vnodes, rng_old
        )
        assert np.array_equal(table, expected)
        assert rng_new.random() == rng_old.random()

    @kernel_settings
    @given(
        st.lists(st.integers(min_value=0, max_value=5), max_size=30),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_sample_within_parts_matches_oracle(self, parts, degree, seed):
        parts = np.array(parts, dtype=np.int64)
        rng_new = np.random.default_rng(seed)
        rng_old = np.random.default_rng(seed)
        edges = sample_within_parts(parts, degree, rng_new)
        expected = _oracle_sample_within_parts(parts, degree, rng_old)
        assert _rows(edges) == expected
        assert rng_new.random() == rng_old.random()

    @kernel_settings
    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=30))
    def test_clique_edges_match_oracle(self, parts):
        parts = np.array(parts, dtype=np.int64)
        assert _rows(_clique_edges(parts)) == _oracle_clique_edges(parts)
