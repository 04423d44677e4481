"""Virtual nodes and the level-zero random overlay ``G0`` (Section 3.1.1).

Every real node ``v`` simulates ``d(v)`` *virtual nodes*, one per incident
edge endpoint (arc), for ``2m`` virtual nodes in total.  ``G0`` is an
approximate Erdős–Rényi random graph on the virtual nodes, built by
running ``Theta(log n)`` lazy random walks of length ``~tau_mix`` from
every virtual node and keeping (half of) the endpoints as out-neighbours.

The walk endpoint of a mixed lazy walk is degree-proportional over real
nodes; assigning it to a uniformly random virtual node of the endpoint
makes it uniform over virtual nodes — exactly the trick the paper uses to
run ``O(log n)`` walks per virtual node with only logarithmic slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..params import Params
from ..walks.correlated import run_correlated_walks
from ..walks.engine import run_lazy_walks
from ..walks.mixing import estimate_mixing_time
from .ledger import RoundLedger
from .sampling import group_select

__all__ = ["VirtualNodes", "G0Embedding", "build_g0"]


@dataclass(frozen=True)
class VirtualNodes:
    """The virtual-node layer: one virtual node per arc of ``G``.

    Virtual node ``x`` lives at real node ``host[x]``; its *local index*
    is ``x - indptr[host[x]]`` in ``0..d(host)-1``.  The *canonical*
    virtual node of real node ``v`` (local index 0) is the addressing
    target for packets destined to ``v`` — its UID is computable from
    ``v`` alone, so any source can hash it (property P2 of the partition).

    Attributes:
        graph: the base graph.
        host: real node of each virtual node, shape ``(2m,)``.
    """

    graph: Graph
    host: np.ndarray

    @property
    def count(self) -> int:
        """Number of virtual nodes, ``2m``."""
        return int(self.host.shape[0])

    def canonical(self, real_node) -> np.ndarray:
        """Canonical (local index 0) virtual node of each real node given."""
        return self.graph.indptr[np.asarray(real_node, dtype=np.int64)]

    def uid(self, vnode) -> np.ndarray:
        """Globally computable UID of a virtual node: ``host * n + local``.

        Any node that knows a real node's ID can compute the UID of its
        canonical virtual node (``local = 0``), which is all the routing
        layer needs.
        """
        vnode = np.asarray(vnode, dtype=np.int64)
        host = self.host[vnode]
        local = vnode - self.graph.indptr[host]
        return host * self.graph.num_nodes + local

    def random_vnode_of(
        self, real_nodes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """A uniformly random virtual node of each given real node."""
        real_nodes = np.asarray(real_nodes, dtype=np.int64)
        degrees = self.graph.degrees[real_nodes]
        offsets = (rng.random(real_nodes.shape[0]) * degrees).astype(np.int64)
        return self.graph.indptr[real_nodes] + offsets


@dataclass
class G0Embedding:
    """The constructed level-zero overlay.

    Attributes:
        virtual: the virtual-node layer.
        overlay: ``G0`` as a :class:`Graph` over virtual-node ids.
        walk_length: length of the construction walks (``~2 tau_mix``).
        tau_mix: the mixing-time estimate used.
        round_cost: measured base-graph rounds to emulate ONE round of
            ``G0`` (forward + reverse replay of one walk per overlay edge
            endpoint, scheduled per Lemma 2.5).
        build_rounds: base-graph rounds spent on the construction.
    """

    virtual: VirtualNodes
    overlay: Graph
    walk_length: int
    tau_mix: int
    round_cost: float
    build_rounds: float

    @property
    def base_graph(self) -> Graph:
        """The underlying network graph ``G``."""
        return self.virtual.graph


def build_g0(
    graph: Graph,
    params: Params,
    rng: np.random.Generator,
    ledger: RoundLedger | None = None,
    tau_mix: int | None = None,
    walk_runner=None,
) -> G0Embedding:
    """Build the ``G0`` overlay per Section 3.1.1.

    Args:
        graph: connected base graph ``G``.
        params: construction constants.
        rng: randomness source.
        ledger: optional ledger to charge the build cost to.
        tau_mix: externally supplied mixing time (else estimated).
        walk_runner: optional override for how the construction walk
            batches *execute* — same signature as
            :func:`repro.walks.run_lazy_walks`.  Backends inject this to
            run the identical random process through a different engine
            (e.g. real message passing); it must consume ``rng`` exactly
            like the default runner so the built structure is
            backend-independent.

    Returns:
        The :class:`G0Embedding`.

    Raises:
        ValueError: if the graph is disconnected or trivially small.
    """
    if graph.num_nodes < 2 or graph.num_edges < 1:
        raise ValueError("G0 needs a graph with at least one edge")
    if not graph.is_connected():
        raise ValueError("G0 construction requires a connected graph")
    n = graph.num_nodes
    virtual = VirtualNodes(graph=graph, host=graph.arc_tails)
    if tau_mix is None:
        tau_mix = estimate_mixing_time(graph)
    walk_length = max(1, int(round(params.mixing_slack * tau_mix)))

    walks_per_vnode = params.g0_walks_per_vnode(n)
    degree = min(params.g0_degree(n), walks_per_vnode)
    starts = np.repeat(virtual.host, walks_per_vnode)
    owners = np.repeat(np.arange(virtual.count), walks_per_vnode)
    runner = walk_runner or (
        run_correlated_walks if params.use_correlated_walks
        else run_lazy_walks
    )
    run = runner(graph, starts, walk_length, rng)
    # Walk endpoints land degree-proportionally on real nodes; a uniform
    # virtual node of the endpoint is then uniform over all virtual nodes.
    targets = virtual.random_vnode_of(run.positions, rng)

    edges = group_select(owners, targets, virtual.count, degree, rng)
    overlay = Graph(virtual.count, edges)

    # Forward + reverse traversal to tell both endpoints about the edge.
    build_rounds = 2.0 * run.schedule_rounds()
    # Emulating one G0 round replays one walk per out-edge, forward and
    # back; measure that schedule on a fresh batch of `degree` walks per
    # virtual node.
    replay = runner(
        graph, np.repeat(virtual.host, degree), walk_length, rng
    )
    round_cost = 2.0 * replay.schedule_rounds()
    if ledger is not None:
        ledger.charge(
            "g0/build",
            build_rounds,
            walks=int(starts.shape[0]),
            walk_length=walk_length,
        )
    return G0Embedding(
        virtual=virtual,
        overlay=overlay,
        walk_length=walk_length,
        tau_mix=int(tau_mix),
        round_cost=round_cost,
        build_rounds=build_rounds,
    )
