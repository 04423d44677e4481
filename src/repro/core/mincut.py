"""Approximate minimum cut via greedy tree packing (Section 4 corollary).

The paper states that combining its MST machinery with the techniques of
Ghaffari–Kuhn [32], Nanongkai–Su [57] and Ghaffari–Haeupler [31] gives a
``(1 + eps)``-approximate min cut in almost mixing time, deferring
details.  We implement the standard tree-packing reduction those works
build on (Karger/Thorup):

1. greedily pack ``T = O(log n / eps^2)`` spanning trees, each a minimum
   spanning tree under edge weights equal to current packing loads —
   computed by this library's distributed MST;
2. the minimum cut 2-respects one of the packed trees w.h.p., so the
   minimum over all packed trees of all 1- and 2-respecting cuts is a
   ``(1 + eps)``-approximation (exact on every family we test).

Rounds charged: ``T`` distributed-MST executions plus the cut-evaluation
upcasts (same order as one MST iteration per tree).  This is a
*simplified variant* of the deferred algorithm — see DESIGN.md §4.6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph, WeightedGraph
from ..params import Params
from ..rng import resolve_rng
from .hierarchy import Hierarchy, build_hierarchy
from .mst import MstRunner

__all__ = ["MinCutResult", "approximate_min_cut", "tree_respecting_min_cut"]


@dataclass
class MinCutResult:
    """Output of the approximate min-cut computation.

    Attributes:
        cut_value: the best (smallest) cut found.
        cut_side: boolean membership mask of one side of that cut.
        num_trees: packed trees inspected.
        rounds: total base-graph rounds of the packed MST runs.
    """

    cut_value: int
    cut_side: np.ndarray
    num_trees: int
    rounds: float = 0.0


def approximate_min_cut(
    graph: Graph,
    eps: float = 0.5,
    params: Params | None = None,
    rng: np.random.Generator | None = None,
    hierarchy: Hierarchy | None = None,
    num_trees: int | None = None,
    two_respecting: bool = True,
    use_weights: bool = False,
    context=None,
) -> MinCutResult:
    """Approximate the minimum cut of ``graph``.

    Args:
        graph: connected base graph.
        eps: approximation slack; drives the default tree count
            ``ceil(3 ln n / eps^2)``.
        params: construction constants.
        rng: randomness source.
        hierarchy: optional prebuilt routing structure (topology-only, so
            it is reused across all packed trees).
        num_trees: tree-count override (tests use small values).
        two_respecting: also evaluate 2-respecting cuts (``O(n^2)`` pairs
            per tree; exact but intended for ``n <= ~256``).
        use_weights: treat a :class:`WeightedGraph`'s weights as edge
            capacities (minimum *weighted* cut).  The packing then greedily
            minimizes load/capacity, the fractional-packing rule of
            Thorup's weighted tree packing.
        context: optional :class:`repro.runtime.RunContext`; supplies
            defaults (params, the ``"mincut"`` stream) and receives the
            per-tree round charges as trace events.

    Returns:
        A :class:`MinCutResult` (``cut_value`` is a float when weighted).
    """
    if context is not None:
        params = params or context.params
        if rng is None:
            rng = context.stream("mincut")
    params = params or Params.default()
    rng = resolve_rng(rng)
    n = graph.num_nodes
    capacities = None
    if use_weights:
        if not isinstance(graph, WeightedGraph):
            raise TypeError("use_weights requires a WeightedGraph")
        capacities = graph.weights
    if num_trees is None:
        num_trees = max(2, int(math.ceil(3.0 * math.log(max(2, n)) / eps**2)))
    if hierarchy is None:
        if context is not None:
            hierarchy = build_hierarchy(graph, context=context)
        else:
            hierarchy = build_hierarchy(graph, params, rng)
    loads = np.zeros(graph.num_edges, dtype=np.float64)
    edge_list = list(graph.edges())
    best_value = None
    best_side = np.zeros(n, dtype=bool)
    rounds = 0.0
    for tree_index in range(num_trees):
        if capacities is None:
            packing_weights = loads
        else:
            packing_weights = loads / np.maximum(capacities, 1e-12)
        weighted = WeightedGraph(n, edge_list, packing_weights)
        runner = MstRunner(weighted, hierarchy=hierarchy, params=params, rng=rng)
        mst = runner.run()
        rounds += mst.rounds
        if context is not None:
            context.charge(
                f"mincut/tree-{tree_index}", mst.rounds,
                edges=len(mst.edge_ids),
            )
        loads[mst.edge_ids] += 1.0
        value, side = tree_respecting_min_cut(
            graph, mst.edge_ids, two_respecting=two_respecting,
            capacities=capacities,
        )
        if best_value is None or value < best_value:
            best_value = value
            best_side = side
    return MinCutResult(
        cut_value=best_value if capacities is not None else int(best_value),
        cut_side=best_side,
        num_trees=num_trees,
        rounds=rounds,
    )


def tree_respecting_min_cut(
    graph: Graph,
    tree_edge_ids: list[int],
    two_respecting: bool = True,
    capacities: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Best cut sharing at most 2 edges with the given spanning tree.

    Evaluates every 1-respecting cut (one subtree vs. the rest) and,
    optionally, every 2-respecting cut (symmetric difference / union of
    two subtrees).

    Args:
        graph: the graph whose cuts are evaluated.
        tree_edge_ids: a spanning tree of ``graph``.
        two_respecting: also scan subtree pairs.
        capacities: per-edge capacities (default: all ones — cardinality
            cuts).

    Returns:
        ``(cut value, membership mask of one side)``; the value is an
        ``int``-valued float for unit capacities.
    """
    n = graph.num_nodes
    edges = graph.edge_array
    if capacities is None:
        capacities = np.ones(graph.num_edges)
    subtree = _subtree_masks(n, [tuple(edges[e]) for e in tree_edge_ids])
    heads = edges[:, 0]
    tails = edges[:, 1]

    def cut_value(side: np.ndarray) -> float:
        return float(np.sum(capacities[side[heads] != side[tails]]))

    # 1-respecting cuts: each non-root subtree vs. the rest.
    best_value = None
    best_side = None
    candidates = [v for v in range(n) if 0 < subtree[v].sum() < n]
    for v in candidates:
        side = subtree[v]
        value = cut_value(side)
        if best_value is None or value < best_value:
            best_value, best_side = value, side
    if two_respecting:
        for i, u in enumerate(candidates):
            mask_u = subtree[u]
            for v in candidates[i + 1:]:
                mask_v = subtree[v]
                if mask_u[v] or mask_v[u]:
                    side = mask_u ^ mask_v  # nested: the annulus
                else:
                    side = mask_u | mask_v  # disjoint: the union
                size = side.sum()
                if not 0 < size < n:
                    continue
                value = cut_value(side)
                if value < best_value:
                    best_value, best_side = value, side
    if best_value is None:
        raise ValueError("graph too small for a nontrivial cut")
    return best_value, best_side.copy()


def _subtree_masks(
    n: int, tree_edges: list[tuple[int, int]]
) -> np.ndarray:
    """Boolean subtree membership per node, for the tree rooted at 0."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in tree_edges:
        adjacency[int(u)].append(int(v))
        adjacency[int(v)].append(int(u))
    parent = np.full(n, -1, dtype=np.int64)
    order = [0]
    parent[0] = 0
    for node in order:
        for neighbor in adjacency[node]:
            if parent[neighbor] < 0:
                parent[neighbor] = node
                order.append(neighbor)
    masks = np.zeros((n, n), dtype=bool)
    for node in reversed(order):
        masks[node, node] = True
        if node != 0:
            masks[parent[node]] |= masks[node]
    return masks
