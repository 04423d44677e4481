"""Static undirected graphs backed by CSR adjacency arrays.

The whole library operates on :class:`Graph`: an immutable, undirected
(multi-)graph over nodes ``0..n-1``, stored in compressed-sparse-row form
so random-walk steps and congestion counts vectorize with numpy.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Graph", "WeightedGraph"]


class Graph:
    """An immutable undirected multigraph in CSR form.

    Each undirected edge ``{u, v}`` is stored as two directed *arcs*
    ``u -> v`` and ``v -> u``.  Arc ``a`` has a *twin* arc (the reverse
    direction) and an *edge id* ``a // 1`` shared with its twin via
    :attr:`arc_edge`.  Virtual nodes in the routing construction are
    identified with arcs (2m of them), which is why arcs are first-class
    here.

    Attributes:
        num_nodes: number of nodes ``n``.
        num_edges: number of undirected edges ``m`` (self-loops count once).
        indptr: CSR row pointer, shape ``(n + 1,)``.
        indices: CSR column indices (arc heads), shape ``(2m,)``.
        arc_twin: for each arc, the index of the reverse arc (built on
            first use).
        arc_edge: for each arc, the undirected edge id in ``0..m-1``
            (built on first use).
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
    ):
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        edge_array = np.array(edges, dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValueError(
                f"edges must be (u, v) pairs, got shape {edge_array.shape}"
            )
        u, v = edge_array[:, 0], edge_array[:, 1]
        out_of_range = (u < 0) | (u >= num_nodes) | (v < 0) | (v >= num_nodes)
        bad = out_of_range | (u == v)
        if bad.any():
            first = int(np.argmax(bad))
            a, b = int(u[first]), int(v[first])
            if out_of_range[first]:
                raise ValueError(
                    f"edge ({a}, {b}) out of range for {num_nodes} nodes"
                )
            raise ValueError(f"self-loop at node {a} is not supported")
        self._num_nodes = int(num_nodes)
        self._num_edges = int(edge_array.shape[0])
        self._edge_array = edge_array
        self._build_csr()

    def _build_csr(self) -> None:
        """CSR arrays, each node's arcs in edge-id order."""
        n = self._num_nodes
        edge_array = self._edge_array
        degree = np.bincount(edge_array.reshape(-1), minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        self.indptr = indptr
        self.indices = edge_array[:, ::-1].reshape(-1)[self._arc_order()]
        self._degree = degree

    def _arc_order(self) -> np.ndarray:
        """Interleaved-arc index of every CSR arc.

        In the interleaved tail list ``u0 v0 u1 v1 ...``, entry ``2 * eid``
        is the arc leaving ``u`` and ``2 * eid + 1`` the one leaving ``v``:
        a stable sort by tail gives the CSR order, and the twin of
        interleaved arc ``i`` is ``i ^ 1``.
        """
        return np.argsort(self._edge_array.reshape(-1), kind="stable")

    # The two per-arc maps below are built on first use, not in the
    # constructor: the overlays a session keeps alive never read them,
    # and each is a ``2m`` int64 array per overlay.

    @cached_property
    def arc_twin(self) -> np.ndarray:
        """For each arc, the index of the reverse arc."""
        order = self._arc_order()
        position = np.empty_like(order)
        position[order] = np.arange(order.shape[0])
        return position[order ^ 1]

    @cached_property
    def arc_edge(self) -> np.ndarray:
        """For each arc, the undirected edge id in ``0..m-1``."""
        return self._arc_order() // 2

    # -- basic accessors ----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._num_edges

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs ``2m``."""
        return 2 * self._num_edges

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node, shape ``(n,)``."""
        return self._degree

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return int(self._degree[v])

    @property
    def max_degree(self) -> int:
        """Maximum degree ``Delta``."""
        return int(self._degree.max()) if self._num_nodes else 0

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbours of ``v`` (with multiplicity), as an array view."""
        return self.indices[self.indptr[v]: self.indptr[v + 1]]

    def arcs_of(self, v: int) -> range:
        """Arc ids leaving node ``v``."""
        return range(int(self.indptr[v]), int(self.indptr[v + 1]))

    def arc_tail(self, arc: int) -> int:
        """Tail node of an arc (the node it leaves)."""
        return int(np.searchsorted(self.indptr, arc, side="right") - 1)

    @property
    def arc_tails(self) -> np.ndarray:
        """Tail node of every arc, shape ``(2m,)``.

        Rebuilt per access (one ``np.repeat``) rather than stored: a
        session keeps several hierarchies' overlays alive, and an extra
        ``2m`` array on each costs more memory than the repeat costs time.
        """
        return np.repeat(np.arange(self._num_nodes), self._degree)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected edges as ``(u, v)`` pairs."""
        for u, v in self._edge_array:
            yield int(u), int(v)

    @property
    def edge_array(self) -> np.ndarray:
        """Undirected edges as an ``(m, 2)`` array."""
        return self._edge_array

    def has_edge(self, u: int, v: int) -> bool:
        """Whether an edge ``{u, v}`` exists."""
        return bool(np.any(self.neighbors(u) == v))

    # -- structure ----------------------------------------------------------

    def is_connected(self) -> bool:
        """Whether the graph is connected (empty graphs count as connected)."""
        if self._num_nodes <= 1:
            return True
        return len(self.bfs_order(0)) == self._num_nodes

    def bfs_order(self, source: int) -> list[int]:
        """Nodes reachable from ``source`` in BFS order."""
        seen = np.zeros(self._num_nodes, dtype=bool)
        seen[source] = True
        order = [source]
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for w in self.neighbors(u):
                    w = int(w)
                    if not seen[w]:
                        seen[w] = True
                        order.append(w)
                        nxt.append(w)
            frontier = nxt
        return order

    def bfs_distances(self, source: int) -> np.ndarray:
        """Hop distance from ``source`` to every node (-1 if unreachable)."""
        dist = np.full(self._num_nodes, -1, dtype=np.int64)
        dist[source] = 0
        frontier = [source]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in self.neighbors(u):
                    w = int(w)
                    if dist[w] < 0:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist

    def diameter(self) -> int:
        """Exact hop diameter (O(n m); intended for small graphs)."""
        best = 0
        for v in range(self._num_nodes):
            dist = self.bfs_distances(v)
            if np.any(dist < 0):
                raise ValueError("diameter of a disconnected graph")
            best = max(best, int(dist.max()))
        return best

    def __repr__(self) -> str:
        return f"Graph(n={self._num_nodes}, m={self._num_edges})"


class WeightedGraph(Graph):
    """An undirected graph with a weight per edge.

    Weights may repeat; algorithms break ties by ``(weight, edge_id)``,
    which makes the MST unique (the standard perturbation argument the
    paper invokes by assuming distinct weights).
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[tuple[int, int]],
        weights: Sequence[float],
    ):
        super().__init__(num_nodes, edges)
        weights = np.asarray(list(weights), dtype=np.float64)
        if weights.shape != (self.num_edges,):
            raise ValueError(
                f"expected {self.num_edges} weights, got {weights.shape}"
            )
        self.weights = weights

    def total_weight(self, edge_ids: Iterable[int]) -> float:
        """Sum of weights over the given edge ids."""
        ids = np.fromiter((int(e) for e in edge_ids), dtype=np.int64)
        return float(self.weights[ids].sum()) if ids.size else 0.0

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.num_nodes}, m={self.num_edges})"
