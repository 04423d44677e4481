"""Portal discovery (Section 3.1.2, "Adding Portals"; Lemma 3.3).

A packet residing in part ``A_i`` but destined for a sibling part ``A_j``
is first routed to a *portal*: a node of ``A_i`` with a ``G_{i-1}``-overlay
edge into ``A_j``.  Every node of ``A_i`` holds, for each sibling ``j``, a
uniformly random such portal (independent across nodes).

Two implementations:

* **walk-based** (faithful): each node runs ``Theta(beta)`` regular walks
  on its part's overlay per target sibling; walks ending on a boundary
  node are successful, and a random successful endpoint becomes the
  portal.  Cost is measured from the walk schedules.
* **sampled** (fast path): a mixed walk on the part's expander ends at a
  uniform part node, so conditioning on success gives a uniform boundary
  node — which we sample directly, charging Lemma 3.3's analytic
  ``O(beta^2 log n)`` rounds per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..params import Params
from ..walks.engine import run_regular_walks
from .hierarchy import Hierarchy

__all__ = ["PortalTable", "build_portals"]


@dataclass
class PortalTable:
    """Portals for every level of a hierarchy.

    Attributes:
        hierarchy: the routing structure the portals belong to.
        tables: per level ``i`` (1-based, ``tables[i-1]``), an int array of
            shape ``(num_vnodes, beta)``: ``tables[i-1][x, j]`` is the
            portal of virtual node ``x`` towards the ``j``-th sibling of
            its level-``i`` part (-1 for the own part or if no boundary
            edge exists).
        boundary_counts: per level, dict ``(part, sibling_index) -> count``
            of boundary nodes — used by tests/benchmarks to check the
            ``Theta(m log n / beta^2)`` density claim of Lemma 3.4.
        redundant: optional per-level arrays of shape
            ``(num_vnodes, beta, k)`` holding ``k`` independent uniform
            portals per (node, sibling); slot 0 is the primary (equal to
            ``tables``), slots 1.. are failover candidates sampled from
            a *separate* stream so building them never perturbs the
            primary draw sequence.  ``None`` unless built with
            ``redundancy_rng`` (self-heal mode).
        boundary_sets: per level, the full boundary-node arrays keyed by
            ``(part, sibling_index)`` — the electorate used when all
            ``k`` redundant portals are dead and a new portal must be
            re-elected from the part's overlay.
    """

    hierarchy: Hierarchy
    tables: list[np.ndarray]
    boundary_counts: list[dict[tuple[int, int], int]]
    redundant: list[np.ndarray] | None = None
    boundary_sets: list[dict[tuple[int, int], np.ndarray]] | None = None

    @property
    def redundancy(self) -> int:
        """Portals held per (node, sibling): ``k``, or 1 when only the
        primary table was built."""
        if not self.redundant:
            return 1
        return int(self.redundant[0].shape[2])

    def portal(self, level: int, vnode: int, sibling_index: int) -> int:
        """Portal of ``vnode`` towards sibling ``sibling_index`` at ``level``."""
        return int(self.tables[level - 1][vnode, sibling_index])

    def portals_for(
        self, level: int, vnodes: np.ndarray, sibling_indices: np.ndarray
    ) -> np.ndarray:
        """Vectorized portal lookup."""
        return self.tables[level - 1][vnodes, sibling_indices]

    def redundant_portals_for(
        self, level: int, vnodes: np.ndarray, sibling_indices: np.ndarray
    ) -> np.ndarray:
        """Vectorized ``(len(vnodes), k)`` lookup of all k candidates."""
        if self.redundant is None:
            return self.portals_for(level, vnodes, sibling_indices)[
                :, np.newaxis
            ]
        return self.redundant[level - 1][vnodes, sibling_indices, :]

    def reelect(
        self,
        level: int,
        part: int,
        sibling_index: int,
        is_dead,
        rng: np.random.Generator,
    ) -> int:
        """Elect a live boundary node for ``(part, sibling_index)``.

        ``is_dead`` maps a virtual node to liveness (callable); returns
        -1 when the whole electorate is dead or unknown.
        """
        if self.boundary_sets is None:
            return -1
        candidates = self.boundary_sets[level - 1].get(
            (part, sibling_index)
        )
        if candidates is None or candidates.shape[0] == 0:
            return -1
        live = np.asarray(
            [c for c in candidates.tolist() if not is_dead(c)],
            dtype=np.int64,
        )
        if live.shape[0] == 0:
            return -1
        return int(live[int(rng.integers(0, live.shape[0]))])


def build_portals(
    hierarchy: Hierarchy,
    params: Params,
    rng: np.random.Generator,
    redundancy_rng: np.random.Generator | None = None,
) -> PortalTable:
    """Build portal tables for all levels of ``hierarchy``.

    The discovery rounds are charged to the hierarchy's construction
    ledger (:attr:`Hierarchy.ledger`).

    Args:
        hierarchy: a constructed :class:`Hierarchy`.
        params: construction constants.
        rng: randomness source.
        redundancy_rng: separate randomness source for the extra
            ``k - 1`` failover portals per (node, sibling); when given,
            :attr:`PortalTable.redundant` is populated and the extra
            discovery rounds are charged to ``recovery/portal-redundancy``.
            Kept out of ``rng`` so turning redundancy on cannot shift
            the primary portal draws (or anything sampled after them).
            There are ``k = params.portal_redundancy(num_vnodes)``
            portals per (node, sibling) in all.

    Returns:
        The :class:`PortalTable`.
    """
    tables: list[np.ndarray] = []
    boundary_counts: list[dict[tuple[int, int], int]] = []
    boundary_sets: list[dict[tuple[int, int], np.ndarray]] = []
    redundant: list[np.ndarray] = []
    beta = hierarchy.beta
    num_vnodes = hierarchy.g0.virtual.count
    redundancy = params.portal_redundancy(num_vnodes)
    for level in range(1, hierarchy.depth + 1):
        parts = hierarchy.parts_at(level)
        boundary = _boundary_nodes(
            hierarchy.overlay_at(level - 1), parts, beta
        )
        boundary_counts.append(
            {key: value.shape[0] for key, value in boundary.items()}
        )
        boundary_sets.append(boundary)
        if params.use_walk_portals:
            table, cost_level = _walk_portals(
                hierarchy.overlay_at(level), parts, boundary, beta,
                params, rng,
            )
        else:
            table = _sampled_portals(parts, boundary, beta, num_vnodes, rng)
            # Lemma 3.3: Theta(beta) rounds of the level overlay per
            # target part; beta targets; log n walk steps each.
            log_n = math.log2(max(2, num_vnodes))
            cost_level = float(beta * beta * log_n)
        hierarchy.ledger.charge(
            f"portals/level-{level}",
            cost_level * hierarchy.emulation_to_g(level),
            beta=beta,
        )
        tables.append(table)
        if redundancy_rng is not None:
            extra = np.full(
                (num_vnodes, beta, redundancy), -1, dtype=np.int64
            )
            extra[:, :, 0] = table
            for slot in range(1, redundancy):
                extra[:, :, slot] = _sampled_portals(
                    parts, boundary, beta, num_vnodes, redundancy_rng
                )
            redundant.append(extra)
            # Each extra portal repeats the Lemma 3.3 discovery.
            hierarchy.ledger.charge(
                f"recovery/portal-redundancy-level-{level}",
                (redundancy - 1)
                * cost_level
                * hierarchy.emulation_to_g(level),
                redundancy=redundancy,
            )
    return PortalTable(
        hierarchy=hierarchy,
        tables=tables,
        boundary_counts=boundary_counts,
        redundant=redundant if redundancy_rng is not None else None,
        boundary_sets=boundary_sets,
    )


def _boundary_nodes(
    previous_overlay: Graph, parts: np.ndarray, beta: int
) -> dict[tuple[int, int], np.ndarray]:
    """Nodes of each part with a prev-overlay edge into each sibling.

    Returns a dict ``(part, sibling_index) -> array of boundary nodes``
    where ``sibling_index`` is the target part's index within its parent
    (``target_part % beta``).
    """
    edges = previous_overlay.edge_array
    if edges.size == 0:
        return {}
    tail_parts = parts[edges[:, 0]]
    head_parts = parts[edges[:, 1]]
    crossing = (tail_parts != head_parts) & (
        tail_parts // beta == head_parts // beta
    )
    if not crossing.any():
        return {}
    a = tail_parts[crossing]
    b = head_parts[crossing]
    # Each crossing edge (u, v) files u under (a, b % beta), then v under
    # (b, a % beta): one interleaved sequence of (key, node) insertions.
    keys = np.stack((a * beta + b % beta, b * beta + a % beta), axis=1)
    keys = keys.reshape(-1)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    nodes = edges[crossing].reshape(-1)[order].tolist()
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    ends = np.append(starts[1:], keys.shape[0])
    result: dict[tuple[int, int], np.ndarray] = {}
    # Keys in order of first insertion; each set built from its nodes in
    # insertion order, so set iteration order matches incremental adds.
    for group in np.argsort(order[starts], kind="stable").tolist():
        start, end = int(starts[group]), int(ends[group])
        part, sibling = divmod(int(sorted_keys[start]), beta)
        members = set(nodes[start:end])
        result[(part, sibling)] = np.fromiter(
            members, dtype=np.int64, count=len(members)
        )
    return result


def _sampled_portals(
    parts: np.ndarray,
    boundary: dict[tuple[int, int], np.ndarray],
    beta: int,
    num_vnodes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform boundary-node portals, sampled directly (fast path).

    Every member of a part draws one uniform index into the part's
    candidates per sibling, in part-then-sibling order.  All the draws
    are one ``rng.integers`` call over per-draw bounds, which consumes
    the same stream as one sized call per (part, sibling).
    """
    table = np.full((num_vnodes, beta), -1, dtype=np.int64)
    order = np.argsort(parts, kind="stable")
    sorted_parts = parts[order]
    cuts = np.flatnonzero(np.diff(np.concatenate(([-1], sorted_parts, [-1]))))
    rows, columns, pools = [], [], []
    for start, end in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        part = int(sorted_parts[start])
        own_index = part % beta
        for sibling in range(beta):
            if sibling == own_index:
                continue
            candidates = boundary.get((part, sibling))
            if candidates is None or candidates.shape[0] == 0:
                continue
            rows.append(order[start:end])
            columns.append(sibling)
            pools.append(candidates)
    if not rows:
        return table
    counts = [members.shape[0] for members in rows]
    sizes = np.array([pool.shape[0] for pool in pools], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    picks = rng.integers(0, np.repeat(sizes, counts))
    picks += np.repeat(offsets, counts)
    table[np.concatenate(rows), np.repeat(columns, counts)] = (
        np.concatenate(pools)[picks]
    )
    return table


def _walk_portals(
    level_overlay: Graph,
    parts: np.ndarray,
    boundary: dict[tuple[int, int], np.ndarray],
    beta: int,
    params: Params,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Walk-based portal discovery (Lemma 3.3), with measured cost.

    For each target sibling index ``j``, every node runs
    ``portal_walks_factor * beta`` regular walks on the level overlay
    (walks stay inside the node's part); a walk is successful if it ends
    on a node with a boundary edge towards the ``j``-th sibling of the
    walker's part.  The portal is a uniformly random successful endpoint.
    """
    num_vnodes = parts.shape[0]
    table = np.full((num_vnodes, beta), -1, dtype=np.int64)
    walks_per_node = max(2, int(round(params.portal_walks_factor * beta)))
    length = params.level_walk_length(max(2, num_vnodes))
    total_cost = 0.0
    is_boundary = np.zeros((num_vnodes,), dtype=bool)
    for sibling in range(beta):
        # Mark nodes that have a boundary edge towards sibling `sibling`
        # of their own part.
        is_boundary[:] = False
        for (part, sib), nodes in boundary.items():
            if sib == sibling:
                is_boundary[nodes] = True
        starts = np.repeat(np.arange(num_vnodes), walks_per_node)
        run = run_regular_walks(level_overlay, starts, length, rng)
        total_cost += 2.0 * run.schedule_rounds()
        ends = run.positions
        successful = is_boundary[ends] & (parts[ends] == parts[starts]) & (
            parts[starts] % beta != sibling
        )
        # Pick one random successful endpoint per walker: shuffle walk
        # order, then let the last successful write win.
        success_idx = np.flatnonzero(successful)
        rng.shuffle(success_idx)
        table[starts[success_idx], sibling] = ends[success_idx]
    return table, total_cost
