"""Distributed MST in almost mixing time (Section 4, Theorem 1.1).

Boruvka's approach with two modifications from the paper:

* **Head/tail coins**: each component flips a fair coin per iteration;
  only minimum-weight outgoing edges from *tail* components to *head*
  components are added, making every merge star-shaped (a head centre
  with tail components attaching), which keeps component bookkeeping to
  constant distance.
* **Virtual-tree upcasts**: the min-weight outgoing edge of each
  component is computed by ``O(max depth)`` repetitions of one routing
  instance in which every node sends its current best to its virtual-tree
  parent; the result is downcast the same way.  Each repetition is one
  permutation-routing instance on the hierarchical structure (every
  component's tree upcasts in the same instance, in parallel).

Edge weights are made distinct by ``(weight, edge_id)`` tie-breaking, so
the MST is unique and equals Kruskal's output exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import WeightedGraph
from ..params import Params
from ..rng import resolve_rng
from .hierarchy import Hierarchy, build_hierarchy
from .router import Router
from .virtual_tree import VirtualTree

__all__ = ["IterationStats", "MstResult", "MstRunner", "minimum_spanning_tree"]


@dataclass
class IterationStats:
    """Per-Boruvka-iteration measurements (feeds experiment E8).

    Attributes:
        iteration: iteration number (0-based).
        components_before: component count at iteration start.
        components_after: component count after the merges.
        edges_added: MST edges added this iteration.
        max_tree_depth: deepest virtual tree at iteration start.
        max_tree_degree_ratio: max over nodes of
            ``tree_children(v) / d_G(v)`` (Lemma 4.1 predicts
            ``O(log n)``).
        upcast_steps: upcast+downcast routing repetitions charged.
        routing_rounds: base-graph rounds of one routing repetition.
        rounds: total base-graph rounds charged to this iteration.
    """

    iteration: int
    components_before: int
    components_after: int
    edges_added: int
    max_tree_depth: int
    max_tree_degree_ratio: float
    upcast_steps: int
    routing_rounds: float
    rounds: float


@dataclass
class MstResult:
    """Output of the distributed MST computation.

    Attributes:
        edge_ids: ids of the MST edges (n - 1 of them).
        total_weight: sum of MST edge weights.
        iterations: per-iteration statistics.
        rounds: total base-graph rounds (construction excluded).
        construction_rounds: rounds spent building the routing structure.
    """

    edge_ids: list[int]
    total_weight: float
    iterations: list[IterationStats] = field(default_factory=list)
    rounds: float = 0.0
    construction_rounds: float = 0.0

    @property
    def num_iterations(self) -> int:
        """Boruvka iterations used."""
        return len(self.iterations)


class MstRunner:
    """Runs the distributed MST algorithm over a prebuilt hierarchy."""

    def __init__(
        self,
        graph: WeightedGraph,
        hierarchy: Hierarchy | None = None,
        params: Params | None = None,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        context=None,
    ):
        if not isinstance(graph, WeightedGraph):
            raise TypeError("MST needs a WeightedGraph")
        self.graph = graph
        self._context = context
        if context is not None:
            params = params or context.params
            if rng is None and seed is None:
                rng = context.stream("mst")
        self.params = params or Params.default()
        self.rng = resolve_rng(rng, seed)
        self.hierarchy = hierarchy or build_hierarchy(
            graph, self.params, self.rng
        )
        self.router = Router(
            self.hierarchy,
            params=self.params,
            rng=self.rng,
            faults=context.fault_plan if context is not None else None,
        )

    def run(self) -> MstResult:
        """Compute the MST; verified-unique via (weight, id) tie-breaks."""
        graph = self.graph
        n = graph.num_nodes
        component = np.arange(n, dtype=np.int64)
        trees: dict[int, VirtualTree] = {
            v: VirtualTree.singleton(v) for v in range(n)
        }
        result = MstResult(
            edge_ids=[],
            total_weight=0.0,
            construction_rounds=self.hierarchy.construction_rounds(),
        )
        max_iterations = max(8, int(8 * math.log2(max(2, n))))
        edges = graph.edge_array
        for iteration in range(max_iterations):
            num_components = len(trees)
            if num_components == 1:
                break
            stats = self._one_iteration(iteration, component, trees, edges)
            result.iterations.append(stats)
            result.rounds += stats.rounds
            if stats.edges_added:
                for eid in self._added_this_round:
                    result.edge_ids.append(eid)
        else:
            if len(trees) > 1:
                raise RuntimeError(
                    "Boruvka did not converge within the iteration budget"
                )
        result.edge_ids = sorted(set(result.edge_ids))
        result.total_weight = graph.total_weight(result.edge_ids)
        if len(result.edge_ids) != n - 1:
            raise RuntimeError(
                f"MST has {len(result.edge_ids)} edges, expected {n - 1}"
            )
        return result

    # -- one Boruvka iteration ------------------------------------------------

    def _one_iteration(
        self,
        iteration: int,
        component: np.ndarray,
        trees: dict[int, VirtualTree],
        edges: np.ndarray,
    ) -> IterationStats:
        graph = self.graph
        components_before = len(trees)
        # 1. Per-component minimum-weight outgoing edge (computed logically;
        #    the communication cost is charged via the upcast below).
        mwoe = self._component_mwoe(component, edges)
        # 2. Charge the upcast/downcast: (2 * max_depth) repetitions of the
        #    all-pairs-to-parent routing instance.
        max_depth = max(tree.max_depth() for tree in trees.values())
        pairs = [
            pair for tree in trees.values() for pair in tree.pairs_to_parent()
        ]
        routing_rounds = 0.0
        fault_per_route = 0.0
        if pairs and max_depth > 0:
            arr = np.array(pairs, dtype=np.int64)
            sample = self.router.route(arr[:, 0], arr[:, 1])
            if not sample.delivered:
                raise RuntimeError("upcast routing failed to deliver")
            routing_rounds = sample.cost_rounds
            fault_per_route = sample.fault_rounds
        upcast_steps = 2 * max(1, max_depth)
        iteration_rounds = routing_rounds * upcast_steps
        # 3. Coins and star merges.
        heads = {
            comp: bool(self.rng.integers(0, 2)) for comp in trees.keys()
        }
        merges: dict[int, list[tuple[int, int, int]]] = {}
        self._added_this_round: list[int] = []
        for comp, eid in mwoe.items():
            if eid < 0 or heads[comp]:
                continue  # heads keep still; tails push their MWOE.
            u, v = int(edges[eid, 0]), int(edges[eid, 1])
            if component[u] != comp:
                u, v = v, u
            target = int(component[v])
            if not heads[target]:
                continue  # tail-to-tail edges wait for a later iteration.
            merges.setdefault(target, []).append((comp, eid, v))
        # 4. Apply merges: attach tail trees under head attach points, then
        #    rebalance with the token pass; charge its upcast steps.
        rebalance_steps = 0
        for head_comp, attachments in merges.items():
            head_tree = trees[head_comp]
            attach_points = []
            for tail_comp, eid, head_endpoint in attachments:
                tail_tree = trees.pop(tail_comp)
                head_tree.absorb(tail_tree, head_endpoint)
                attach_points.append(head_endpoint)
                self._added_this_round.append(eid)
                member_mask = component == tail_comp
                component[member_mask] = head_comp
            report = head_tree.rebalance(attach_points)
            rebalance_steps = max(rebalance_steps, report.upcast_steps)
        iteration_rounds += routing_rounds * rebalance_steps
        # 5. Every node tells neighbours its (possibly new) component id.
        iteration_rounds += 1.0
        max_ratio = 0.0
        for tree in trees.values():
            for node in tree.nodes:
                ratio = tree.in_degree(node) / max(1, graph.degree(node))
                max_ratio = max(max_ratio, ratio)
        if self._context is not None:
            # The upcast repeats the routing instance, so its fault
            # surcharge repeats with it; split it out under faults/.
            fault_rounds = fault_per_route * (upcast_steps + rebalance_steps)
            self._context.charge(
                f"mst/iteration-{iteration}",
                iteration_rounds - fault_rounds,
                components=components_before,
                merged=len(self._added_this_round),
            )
            if fault_rounds > 0:
                self._context.charge(
                    "faults/retry-rounds",
                    fault_rounds,
                    stage=f"mst/iteration-{iteration}",
                )
        return IterationStats(
            iteration=iteration,
            components_before=components_before,
            components_after=len(trees),
            edges_added=len(self._added_this_round),
            max_tree_depth=max_depth,
            max_tree_degree_ratio=max_ratio,
            upcast_steps=upcast_steps + rebalance_steps,
            routing_rounds=routing_rounds,
            rounds=iteration_rounds,
        )

    def _component_mwoe(
        self, component: np.ndarray, edges: np.ndarray
    ) -> dict[int, int]:
        """Min-weight outgoing edge id per component (-1 if none).

        Ties broken by ``(weight, edge_id)``, making the MST unique.
        """
        weights = self.graph.weights
        comp_u = component[edges[:, 0]]
        comp_v = component[edges[:, 1]]
        outgoing = comp_u != comp_v
        best: dict[int, tuple[float, int]] = {}
        for eid in np.flatnonzero(outgoing):
            key = (float(weights[eid]), int(eid))
            for comp in (int(comp_u[eid]), int(comp_v[eid])):
                if comp not in best or key < best[comp]:
                    best[comp] = key
        return {comp: key[1] for comp, key in best.items()}


def minimum_spanning_tree(
    graph: WeightedGraph,
    params: Params | None = None,
    rng: np.random.Generator | None = None,
    hierarchy: Hierarchy | None = None,
) -> MstResult:
    """Convenience wrapper: build the structure and run the MST."""
    runner = MstRunner(graph, hierarchy=hierarchy, params=params, rng=rng)
    return runner.run()
