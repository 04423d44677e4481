"""The hierarchical embedding of random graphs (Section 3.1.2).

Level ``i`` (for ``i = 1..k``) is an overlay ``G_i`` on the virtual
nodes, a disjoint union of one random graph per level-``i`` part: each
node picks ``Theta(log n)`` uniform neighbours from its own part, sampled
by ``2*Delta``-regular random walks on ``G_{i-1}`` (which mix inside the
node's level-``(i-1)`` part).  The last level's parts have ``O(log n)``
nodes and use the complete graph.

Each level records a *measured* emulation cost: the Lemma 2.5 schedule
length of replaying one walk per overlay edge on the previous overlay
(forward + reverse), which is what one communication round of ``G_i``
costs in ``G_{i-1}`` rounds (Lemma 3.1: ``O(log^2 n)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import Graph
from ..params import Params
from ..rng import resolve_rng
from ..walks.engine import run_regular_walks
from .embedding import G0Embedding, build_g0
from .ledger import RoundLedger
from .partition import HierarchicalPartition, build_partition
from .sampling import group_select, sample_within_parts

__all__ = [
    "Level",
    "Hierarchy",
    "build_hierarchy",
    "RepairReport",
    "repair_overlay",
]


@dataclass
class Level:
    """One level of the hierarchical embedding.

    Attributes:
        index: level number (1-based; level 0 is ``G0`` itself).
        parts: level-``index`` part id of every virtual node.
        overlay: the level overlay graph ``G_index`` (disjoint union of
            per-part random graphs, or per-part cliques at the bottom).
        emulation_cost: measured ``G_{index-1}`` rounds per round of this
            overlay (Lemma 3.1).
        build_cost: ``G_{index-1}`` rounds spent constructing the overlay
            (Lemma 3.2's per-level term).
        is_clique: whether this is the bottom (complete-graph) level.
    """

    index: int
    parts: np.ndarray
    overlay: Graph
    emulation_cost: float
    build_cost: float
    is_clique: bool


@dataclass
class Hierarchy:
    """The full routing structure: ``G0`` + levels + partition.

    Attributes:
        g0: the level-zero embedding.
        partition: the hash-based hierarchical partition.
        levels: levels ``1..depth`` (``levels[i-1]`` is level ``i``).
        ledger: the construction's round ledger (base-graph rounds).
    """

    g0: G0Embedding
    partition: HierarchicalPartition
    levels: list[Level] = field(default_factory=list)
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def depth(self) -> int:
        """Number of levels above ``G0``."""
        return len(self.levels)

    @property
    def beta(self) -> int:
        """Branching factor of the partition."""
        return self.partition.beta

    def overlay_at(self, level: int) -> Graph:
        """Overlay graph of ``level`` (level 0 = ``G0``)."""
        if level == 0:
            return self.g0.overlay
        return self.levels[level - 1].overlay

    def parts_at(self, level: int) -> np.ndarray:
        """Part id of every virtual node at ``level`` (level 0 = all 0)."""
        if level == 0:
            return np.zeros(self.g0.virtual.count, dtype=np.int64)
        return self.levels[level - 1].parts

    def emulation_to_g0(self, level: int) -> float:
        """Measured ``G0`` rounds per one round of the ``level`` overlay."""
        factor = 1.0
        for lvl in self.levels[:level]:
            factor *= lvl.emulation_cost
        return factor

    def emulation_to_g(self, level: int) -> float:
        """Measured base-graph rounds per one round of the ``level`` overlay."""
        return self.emulation_to_g0(level) * self.g0.round_cost

    def construction_rounds(self) -> float:
        """Total base-graph rounds charged for the construction."""
        return self.ledger.total()

    def describe(self) -> str:
        """Multi-line summary of the structure (sizes, costs, factors)."""
        lines = [
            f"Hierarchy on {self.g0.base_graph!r}: beta={self.beta}, "
            f"depth={self.depth}, tau_mix~{self.g0.tau_mix}",
            f"  G0: {self.g0.virtual.count} virtual nodes, "
            f"round cost {self.g0.round_cost:,.0f} G-rounds",
        ]
        import numpy as _np

        for level in self.levels:
            sizes = _np.bincount(level.parts)
            kind = "cliques" if level.is_clique else "random graphs"
            lines.append(
                f"  level {level.index}: {int(sizes.shape[0])} parts "
                f"({int(sizes.min())}..{int(sizes.max())} nodes, {kind}), "
                f"emulation x{level.emulation_cost:,.0f}"
            )
        lines.append(
            f"  construction total: {self.construction_rounds():,.0f} G-rounds"
        )
        return "\n".join(lines)


def build_hierarchy(
    graph: Graph,
    params: Params | None = None,
    rng: np.random.Generator | None = None,
    beta: int | None = None,
    depth: int | None = None,
    context=None,
    walk_runner=None,
) -> Hierarchy:
    """Construct the full hierarchical routing structure on ``graph``.

    Args:
        graph: connected base graph.
        params: construction constants (default :meth:`Params.default`).
        rng: randomness source (else the context's ``"hierarchy"``
            stream, else :data:`~repro.rng.DEFAULT_SEED`).
        beta: branching-factor override.
        depth: level-count override.
        context: optional :class:`repro.runtime.RunContext`.  Supplies
            default ``params`` and the ``"hierarchy"`` RNG stream, and
            absorbs the construction ledger (one ``ledger_charge`` trace
            event per charge) once the build completes.
        walk_runner: optional walk-execution override forwarded to
            :func:`~repro.core.embedding.build_g0` (backends inject the
            native message-passing runner here).

    Returns:
        The constructed :class:`Hierarchy`, with all build costs charged
        to its ledger in base-graph rounds.
    """
    if context is not None:
        params = params or context.params
        if rng is None:
            rng = context.stream("hierarchy")
    params = params or Params.default()
    rng = resolve_rng(rng)
    ledger = RoundLedger()
    g0 = build_g0(graph, params, rng, ledger=ledger, walk_runner=walk_runner)
    partition = build_partition(
        g0.virtual, params, rng, beta=beta, depth=depth
    )
    # Disseminating the Theta(log^2 n) shared hash-seed bits costs
    # O(D log n) <= O(tau_mix log n) base-graph rounds.
    seed_words = max(1, partition.hash_fn.seed_bits() // 31)
    hierarchy = Hierarchy(g0=g0, partition=partition, ledger=ledger)
    ledger.charge(
        "partition/seed-broadcast",
        float(g0.tau_mix + seed_words),
        seed_bits=partition.hash_fn.seed_bits(),
    )
    n = graph.num_nodes
    degree = params.level_degree(n)
    walk_length = params.level_walk_length(n)
    bottom = params.bottom_size(n)
    previous_overlay = g0.overlay
    for level_index in range(1, partition.depth + 1):
        parts = partition.all_parts_at_level(level_index)
        sizes = np.bincount(parts)
        is_clique = int(sizes.max()) <= bottom or level_index == partition.depth
        if is_clique:
            edges = _clique_edges(parts)
            build_cost_prev = _gossip_cost(sizes, walk_length)
        elif params.use_walk_overlays:
            edges, build_cost_prev = _walk_overlay_edges(
                previous_overlay, parts, partition.beta, degree,
                walk_length, params, rng,
            )
        else:
            edges = sample_within_parts(parts, degree, rng)
            # The faithful construction starts beta * degree walks per
            # node; charge its analytic Lemma 2.5 schedule.
            build_cost_prev = float(
                (partition.beta * degree + np.log2(max(2, previous_overlay.num_nodes)))
                * walk_length * 2.0
            )
        overlay = Graph(previous_overlay.num_nodes, edges)
        emulation_cost = _measure_emulation_cost(
            previous_overlay, overlay, walk_length, rng
        )
        level = Level(
            index=level_index,
            parts=parts,
            overlay=overlay,
            emulation_cost=emulation_cost,
            build_cost=build_cost_prev,
            is_clique=is_clique,
        )
        hierarchy.levels.append(level)
        ledger.charge(
            f"hierarchy/build-level-{level_index}",
            build_cost_prev * hierarchy.emulation_to_g(level_index - 1),
            parts=int(sizes.shape[0]),
            max_part=int(sizes.max()),
            clique=is_clique,
        )
        previous_overlay = overlay
        if is_clique:
            break
    if context is not None:
        context.absorb_ledger(ledger)
        context.emit(
            "walk_batch",
            "hierarchy/construction",
            depth=hierarchy.depth,
            tau_mix=g0.tau_mix,
            build_rounds=float(ledger.total()),
        )
    return hierarchy


def _walk_overlay_edges(
    previous_overlay: Graph,
    parts: np.ndarray,
    beta: int,
    degree: int,
    walk_length: int,
    params: Params,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Faithful walk-based neighbour sampling for one level.

    Starts ``~level_walks_factor * beta * degree / level_degree_factor``
    regular walks per node on the previous overlay; a walk is *successful*
    if it ends inside the walker's new (level-``i``) part.  Keeps up to
    ``degree`` distinct successful endpoints per node.
    """
    num_nodes = previous_overlay.num_nodes
    walks_per_node = max(beta, int(round(2.0 * beta * degree
                                         * params.level_walks_factor
                                         / max(1.0, params.level_degree_factor))))
    starts = np.repeat(np.arange(num_nodes), walks_per_node)
    run = run_regular_walks(previous_overlay, starts, walk_length, rng)
    owners = starts
    successful = parts[run.positions] == parts[owners]
    edges = group_select(
        owners[successful], run.positions[successful], num_nodes, degree, rng
    )
    # Forward + reverse traversal of all walks.
    build_cost = 2.0 * run.schedule_rounds()
    return edges, build_cost


def _clique_edges(parts: np.ndarray) -> np.ndarray:
    """Complete graph inside every part (the bottom level).

    Returns an ``(m, 2)`` array: by part, then pairs ``i < j`` of member
    positions in row-major order.
    """
    order = np.argsort(parts, kind="stable")
    sorted_parts = parts[order]
    boundaries = np.flatnonzero(
        np.diff(np.concatenate(([-1], sorted_parts, [-1])))
    )
    blocks = [np.empty((0, 2), dtype=np.int64)]
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        first, second = np.triu_indices(int(end - start), 1)
        blocks.append(np.stack((first, second), axis=1) + start)
    return order[np.concatenate(blocks)]


def _gossip_cost(sizes: np.ndarray, walk_length: int) -> float:
    """Cost (prev-overlay rounds) of learning all part members at the bottom.

    Every node broadcasts its id inside its ``O(log n)``-node part over
    the previous overlay: ``O(part_size)`` messages per node, scheduled in
    ``O(part_size + walk_length)`` overlay rounds.
    """
    return float(int(sizes.max()) + walk_length)


def _measure_emulation_cost(
    previous_overlay: Graph,
    overlay: Graph,
    walk_length: int,
    rng: np.random.Generator,
) -> float:
    """Measured prev-overlay rounds per one round of ``overlay``.

    One ``G_i`` round delivers one message along every ``G_i`` edge (both
    directions); each such edge is a walk of length ``walk_length`` on
    ``G_{i-1}``.  We replay one walk per overlay arc endpoint and take
    twice the Lemma 2.5 schedule length (forward + reverse).
    """
    if overlay.num_edges == 0:
        return 1.0
    out_degrees = np.bincount(
        overlay.edge_array[:, 0], minlength=overlay.num_nodes
    )
    starts = np.repeat(np.arange(overlay.num_nodes), out_degrees)
    if starts.size == 0:
        return 1.0
    replay = run_regular_walks(previous_overlay, starts, walk_length, rng)
    return 2.0 * replay.schedule_rounds()


@dataclass(frozen=True)
class RepairReport:
    """Outcome of :func:`repair_overlay`.

    Attributes:
        dead: the virtual nodes repaired around.
        replaced: per level (1-based index keys), overlay edges that
            were re-embedded with a fresh live same-part neighbour.
        dropped: per level, dead-incident edges removed without a
            replacement (no live non-adjacent candidate, or a clique
            level where live members stay complete anyway).
        costs: per level, in level order, the base-graph rounds of the
            re-embedding walks (levels that replaced no edge are
            absent).  The repair charges no ledger; its caller books
            these costs.
    """

    dead: tuple[int, ...]
    replaced: dict[int, int]
    dropped: dict[int, int]
    costs: dict[int, float]


def repair_overlay(
    hierarchy: Hierarchy,
    dead_vnodes,
    rng: np.random.Generator,
    params: Params,
) -> RepairReport:
    """Re-embed overlay edges incident to dead virtual nodes, in place.

    Only the affected parts are touched: every live node that lost an
    overlay edge to a dead neighbour samples a replacement neighbour
    uniformly from the live, not-yet-adjacent members of its own part
    at that level — the same distribution the original construction
    used — and only those edges are rebuilt.  Untouched parts keep
    their overlay arrays bit-identical (no global rebuild).

    Each replacement edge costs one walk of
    ``params.level_walk_length(N)`` steps on the previous overlay
    (forward + reverse), ``N`` the number of virtual nodes, as for the
    router's portal re-election; the per-level cost is returned in
    :attr:`RepairReport.costs`, not charged.
    """
    dead = frozenset(int(v) for v in dead_vnodes)
    replaced: dict[int, int] = {}
    dropped: dict[int, int] = {}
    costs: dict[int, float] = {}
    if not dead:
        return RepairReport((), replaced, dropped, costs)
    num_vnodes = hierarchy.g0.virtual.count
    walk_length = params.level_walk_length(num_vnodes)
    for level in hierarchy.levels:
        edges = level.overlay.edge_array
        if edges.size == 0:
            continue
        tails = edges[:, 0]
        heads = edges[:, 1]
        hit = np.fromiter(
            (
                int(u) in dead or int(v) in dead
                for u, v in zip(tails, heads)
            ),
            dtype=bool,
            count=edges.shape[0],
        )
        if not hit.any():
            continue
        kept = [
            (int(u), int(v))
            for u, v in zip(tails[~hit], heads[~hit])
        ]
        adjacency: dict[int, set[int]] = {}
        for u, v in kept:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        parts = level.parts
        members_of: dict[int, list[int]] = {}
        for part in {int(parts[u]) for u in dead if u < parts.shape[0]}:
            members_of[part] = [
                int(w)
                for w in np.flatnonzero(parts == part).tolist()
                if int(w) not in dead
            ]
        n_replaced = 0
        n_dropped = 0
        for u, v in zip(tails[hit], heads[hit]):
            u, v = int(u), int(v)
            live_end = None
            if u not in dead and v in dead:
                live_end = u
            elif v not in dead and u in dead:
                live_end = v
            if live_end is None or level.is_clique:
                # Both endpoints dead, or a clique level (live members
                # are still pairwise connected): just drop the edge.
                n_dropped += 1
                continue
            part = int(parts[live_end])
            pool = members_of.get(part)
            if pool is None:
                pool = [
                    int(w)
                    for w in np.flatnonzero(parts == part).tolist()
                    if int(w) not in dead
                ]
                members_of[part] = pool
            taken = adjacency.get(live_end, set())
            candidates = [
                w for w in pool if w != live_end and w not in taken
            ]
            if not candidates:
                n_dropped += 1
                continue
            w = candidates[int(rng.integers(0, len(candidates)))]
            kept.append((live_end, w))
            adjacency.setdefault(live_end, set()).add(w)
            adjacency.setdefault(w, set()).add(live_end)
            n_replaced += 1
        level.overlay = Graph(level.overlay.num_nodes, kept)
        if n_replaced:
            replaced[level.index] = n_replaced
        if n_dropped:
            dropped[level.index] = n_dropped
        # One re-embedding walk per replaced edge on the previous
        # overlay, forward + reverse, converted to base-graph rounds.
        cost = (
            2.0
            * n_replaced
            * walk_length
            * hierarchy.emulation_to_g(level.index - 1)
        )
        if cost > 0.0:
            costs[level.index] = cost
    return RepairReport(tuple(sorted(dead)), replaced, dropped, costs)
