"""Naive routing baseline for the E1 comparison.

**BFS store-and-forward** is the contrast point for the hierarchical
router: each packet follows a shortest path; edges carry one packet per
direction per round (FIFO with random priorities).  Simple and good when
congestion is low, but hot edges serialize — no load-balancing
structure.

The scheduler here is the *vectorized* implementation (packets as CSR
arrays, per-round winner selection with numpy); the original scalar
dict-and-deque implementation lives on as the semantic oracle in
:mod:`repro.baselines.routing_baselines_ref` and the equivalence suite
proves the two produce identical results seed for seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..graphs.graph import Graph
from ..rng import resolve_rng

__all__ = [
    "MAX_SCHEDULE_ROUNDS",
    "StoreAndForwardResult",
    "bfs_store_and_forward",
    "schedule_paths",
    "schedule_paths_csr",
]

#: Round budget of one store-and-forward schedule; a schedule still
#: running past it is wedged, and raises instead of spinning.
MAX_SCHEDULE_ROUNDS = 1_000_000


@dataclass
class StoreAndForwardResult:
    """Outcome of the store-and-forward schedule.

    Attributes:
        rounds: rounds until the last packet arrived.
        delivered: whether every packet arrived (always True on success).
        max_queue: worst per-edge queue length observed.
        total_hops: sum of path lengths.
    """

    rounds: int
    delivered: bool
    max_queue: int
    total_hops: int


def bfs_store_and_forward(
    graph: Graph,
    sources: np.ndarray,
    destinations: np.ndarray,
    rng: np.random.Generator | None = None,
) -> StoreAndForwardResult:
    """Route packets along BFS shortest paths with unit edge capacity.

    Each directed edge forwards at most one packet per round; contended
    packets queue FIFO (arrival order randomized by ``rng``).
    """
    rng = resolve_rng(rng)
    sources = np.asarray(sources, dtype=np.int64)
    destinations = np.asarray(destinations, dtype=np.int64)
    paths = _shortest_paths(graph, sources, destinations)
    return schedule_paths(paths, rng=rng)


def schedule_paths(
    paths: list[list[int]],
    rng: np.random.Generator | None = None,
) -> StoreAndForwardResult:
    """Store-and-forward scheduling of *explicit* packet paths.

    Each directed edge (consecutive path pair) forwards one packet per
    round; contended packets queue FIFO in randomized arrival order.
    Used both for shortest-path routing and for delivering overlay
    messages along their embedded walk paths (``repro.congest.native``).

    This is the vectorized scheduler: paths live in CSR arrays and every
    directed-edge queue is an array-backed linked list, so one round
    costs a handful of numpy ops over the *busy queues* (no per-packet
    Python).  It replicates the reference discipline of
    :func:`..routing_baselines_ref.schedule_paths_ref`
    packet-for-packet — including the dict-insertion drain order — so
    ``rounds``/``delivered``/``max_queue``/``total_hops`` are identical
    on the same seed (one ``rng.permutation`` is the entire randomness
    of both implementations).
    """
    rng = resolve_rng(rng)
    num_packets = len(paths)
    lengths = np.fromiter(map(len, paths), dtype=np.int64, count=num_packets)
    offsets = np.zeros(num_packets + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    nodes = np.fromiter(
        chain.from_iterable(paths), dtype=np.int64, count=int(offsets[-1])
    )
    return schedule_paths_csr(nodes, offsets, rng=rng)


def schedule_paths_csr(
    nodes: np.ndarray,
    offsets: np.ndarray,
    rng: np.random.Generator | None = None,
) -> StoreAndForwardResult:
    """:func:`schedule_paths` on paths already in CSR form.

    Packet ``i``'s path is ``nodes[offsets[i]:offsets[i + 1]]``.  The
    native pipeline assembles its embedded-path systems as flat arrays
    (:mod:`repro.congest.native`); this entry point schedules them
    without a list-of-lists round trip.  Semantics are *identical* to
    :func:`schedule_paths` on the inflated lists — including the single
    ``rng.permutation(num_packets)`` draw — so both entries produce the
    same result on the same packet set and seed.
    """
    rng = resolve_rng(rng)
    nodes = np.asarray(nodes)
    offsets = np.asarray(offsets, dtype=np.int64)
    num_packets = int(offsets.shape[0]) - 1
    lengths = np.diff(offsets)
    total_hops = int((lengths - 1).sum()) if num_packets else 0
    order = rng.permutation(num_packets)
    entered = lengths > 1
    if not entered.any():
        return StoreAndForwardResult(
            rounds=0, delivered=True, max_queue=0, total_hops=total_hops
        )
    # A hop starts at every node that is not the last of its path.
    starts_hop = np.ones(nodes.shape[0], dtype=bool)
    starts_hop[offsets[1:] - 1] = False
    hop_positions = np.flatnonzero(starts_hop)
    # Dense directed-edge ids for the (src, dst) hop keys — dense so
    # the per-edge queue arrays stay small and cache-resident.
    low = int(nodes.min())
    span = int(nodes.max()) - low + 1
    # int64 keys regardless of the caller's node dtype: span**2 can
    # overflow int32 for large node-id ranges.
    keys = (nodes[hop_positions].astype(np.int64) - low) * span + (
        nodes[hop_positions + 1] - low
    )
    if span * span <= 4_194_304:
        # Presence table + scatter: same dense ids as
        # np.unique(return_inverse=True) without sorting every hop.
        seen = np.zeros(span * span, dtype=bool)
        seen[keys] = True
        uniq = np.flatnonzero(seen)
        num_edges = int(uniq.shape[0])
        lut = np.empty(span * span, dtype=np.int64)
        lut[uniq] = np.arange(num_edges, dtype=np.int64)
        hop_edge = lut[keys]
    else:
        uniq_keys, hop_edge = np.unique(keys, return_inverse=True)
        num_edges = int(uniq_keys.shape[0])
    if num_edges * num_packets < 2**31:
        # int32 sort keys in append() are measurably faster; safe since
        # every combined key fits (edge * k + position < edges * packets).
        hop_edge = hop_edge.astype(np.int32)

    state = _SchedulerState(num_packets, num_edges, hop_edge.dtype)
    # Per-packet pointer into hop_edge; a packet is delivered once its
    # pointer reaches the start of the next packet's hop range.
    hop_offsets = np.zeros(num_packets + 1, dtype=np.int64)
    np.cumsum(np.maximum(lengths - 1, 0), out=hop_offsets[1:])
    ptr = hop_offsets[:-1].copy()
    end_ptr = hop_offsets[1:]
    initial = order[entered[order]]  # packets entering, permutation order
    max_queue = state.append(initial, hop_edge[ptr[initial]])
    state.end_round()
    pending = int(initial.shape[0])
    rounds = 0
    while pending:
        rounds += 1
        if rounds > MAX_SCHEDULE_ROUNDS:
            raise RuntimeError("store-and-forward exceeded the round budget")
        movers = state.pop_heads()  # dict-insertion (drain) order
        moved_to = ptr[movers] + 1
        ptr[movers] = moved_to
        alive = moved_to != end_ptr[movers]
        cont = movers[alive]  # still in drain order
        pending -= movers.shape[0] - cont.shape[0]
        if cont.shape[0]:
            peak = state.append(cont, hop_edge[moved_to[alive]])
            if peak > max_queue:
                max_queue = peak
        # End-of-round cleanup: queues that emptied lose their key.
        state.end_round()
    return StoreAndForwardResult(
        rounds=rounds,
        delivered=True,
        max_queue=max_queue,
        total_hops=total_hops,
    )


class _SchedulerState:
    """Array-backed FIFO queues for the vectorized scheduler.

    One queue per directed edge, as a linked list over packet ids
    (``next_packet``); ``queue_head``/``queue_tail``/``counts`` index it
    per edge.  ``busy`` holds the nonempty queues' keys as an explicit
    array in *dict insertion order*, replaying the reference
    implementation's dict semantics structurally: at the end of a round
    survivors keep their relative order and queues keyed for the first
    time are appended in first-append order — exactly the reference's
    ``dict.setdefault`` plus end-of-round rebuild.  ``live`` marks which
    edges currently hold a key.
    """

    def __init__(self, num_packets: int, num_edges: int, edge_dtype):
        self.next_packet = np.full(num_packets, -1, dtype=np.int64)
        self._iota = np.arange(num_packets, dtype=edge_dtype)
        self.queue_head = np.full(num_edges, -1, dtype=np.int64)
        self.queue_tail = np.full(num_edges, -1, dtype=np.int64)
        self.counts = np.zeros(num_edges, dtype=np.int64)
        self.live = np.zeros(num_edges, dtype=bool)
        self.busy = np.empty(0, dtype=np.int64)
        self._fresh: np.ndarray | None = None
        self._mark = np.zeros(num_packets, dtype=bool)  # scratch

    def pop_heads(self) -> np.ndarray:
        """Dequeue the FIFO head of every busy queue, in drain order."""
        busy = self.busy
        movers = self.queue_head[busy]
        self.queue_head[busy] = self.next_packet[movers]
        self.counts[busy] -= 1
        return movers

    def append(self, packets: np.ndarray, edges: np.ndarray) -> int:
        """Enqueue ``packets`` onto ``edges`` (parallel arrays, append
        order = drain order), returning the peak queue length touched."""
        k = edges.shape[0]
        # Group by edge while preserving append order within each group:
        # the combined key (edge, position) is unique, so an *unstable*
        # quicksort argsort yields the stable-grouped order at a
        # fraction of a stable sort's cost.
        grouped = np.argsort(edges * k + self._iota[:k])
        run = packets[grouped]
        run_edge = edges[grouped]
        boundary = np.empty(k, dtype=bool)
        boundary[0] = True
        np.not_equal(run_edge[1:], run_edge[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        firsts = run[starts]
        first_edges = run_edge[starts]
        last_at = np.empty(starts.shape[0], dtype=np.int64)
        last_at[:-1] = starts[1:] - 1
        last_at[-1] = k - 1
        # One scatter wires every link: each packet points at the next
        # of its group, and each group's last packet gets the -1 tail.
        link = np.empty(k, dtype=np.int64)
        link[: k - 1] = run[1:]
        link[last_at] = -1
        self.next_packet[run] = link
        lasts = run[last_at]
        was_empty = self.counts[first_edges] == 0
        self.queue_head[first_edges[was_empty]] = firsts[was_empty]
        self.next_packet[self.queue_tail[first_edges[~was_empty]]] = firsts[
            ~was_empty
        ]
        self.queue_tail[first_edges] = lasts
        sizes = np.empty(starts.shape[0], dtype=np.int64)
        sizes[:-1] = starts[1:] - starts[:-1]
        sizes[-1] = k - starts[-1]
        new_counts = self.counts[first_edges] + sizes
        self.counts[first_edges] = new_counts
        # Queues keyed for the first time, in first-append order (the
        # dict key-insertion order): a group's first append happens at
        # its earliest *original* position.
        fresh = ~self.live[first_edges]
        if fresh.any():
            pos = grouped[starts[fresh]]
            mark = self._mark
            mark[pos] = True
            new_edges = edges[np.flatnonzero(mark[:k])]
            mark[pos] = False
            self.live[new_edges] = True
            self._fresh = new_edges
        else:
            self._fresh = None
        return int(new_counts.max())

    def end_round(self) -> None:
        """End-of-round dict rebuild: emptied queues lose their key and
        queues keyed during the round join at the end, in order."""
        busy = self.busy
        keep = self.counts[busy] > 0
        self.live[busy] = keep
        survivors = busy[keep]
        if self._fresh is None:
            self.busy = survivors
        else:
            self.busy = np.concatenate([survivors, self._fresh])
            self._fresh = None


def _shortest_paths(
    graph: Graph, sources: np.ndarray, destinations: np.ndarray
) -> list[list[int]]:
    """One shortest path per packet, via BFS parents from each source."""
    parents_cache: dict[int, np.ndarray] = {}
    paths: list[list[int]] = []
    for src, dst in zip(sources, destinations):
        src, dst = int(src), int(dst)
        if src not in parents_cache:
            parents_cache[src] = _bfs_parents(graph, src)
        parents = parents_cache[src]
        if parents[dst] < 0 and dst != src:
            raise ValueError(f"{dst} unreachable from {src}")
        path = [dst]
        while path[-1] != src:
            path.append(int(parents[path[-1]]))
        path.reverse()
        paths.append(path)
    return paths


def _bfs_parents(graph: Graph, source: int) -> np.ndarray:
    parents = np.full(graph.num_nodes, -1, dtype=np.int64)
    parents[source] = source
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                neighbor = int(neighbor)
                if parents[neighbor] < 0:
                    parents[neighbor] = node
                    nxt.append(neighbor)
        frontier = nxt
    parents[source] = source
    return parents
