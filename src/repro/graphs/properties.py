"""Expansion, spectra, and exact mixing times.

Implements the quantities of Section 2 of the paper:

* edge expansion ``h(G) = min_{|S| <= n/2} e(S, V-S) / |S|``,
* the spectral gap of the lazy and the ``2*Delta``-regular walks,
* the exact mixing time of Definition 2.1 for lazy walks,
* the ``2*Delta``-regular walk of Definition 2.2 and its mixing time.

Exact ``h`` enumerates all cuts and is exponential; it is only for
graphs with ``n <= ~20``.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .graph import Graph

__all__ = [
    "edge_expansion_exact",
    "spectral_gap",
    "lazy_transition_matrix",
    "regular_transition_matrix",
    "mixing_time",
    "regular_mixing_time",
    "cut_size",
]

_EXACT_LIMIT = 22


def cut_size(graph: Graph, side: np.ndarray) -> int:
    """Number of edges crossing the cut given by boolean mask ``side``."""
    edges = graph.edge_array
    if edges.size == 0:
        return 0
    return int(np.sum(side[edges[:, 0]] != side[edges[:, 1]]))


def _all_cuts(graph: Graph):
    n = graph.num_nodes
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            mask = np.zeros(n, dtype=bool)
            mask[list(subset)] = True
            yield mask


def edge_expansion_exact(graph: Graph) -> float:
    """Exact ``h(G)`` by cut enumeration (only for ``n <= 22``)."""
    n = graph.num_nodes
    if n > _EXACT_LIMIT:
        raise ValueError(
            f"exact edge expansion is exponential; n={n} > {_EXACT_LIMIT}"
        )
    best = np.inf
    for mask in _all_cuts(graph):
        best = min(best, cut_size(graph, mask) / mask.sum())
    return float(best)


def lazy_transition_matrix(graph: Graph) -> np.ndarray:
    """Transition matrix of the lazy walk: stay w.p. 1/2, else uniform edge."""
    n = graph.num_nodes
    matrix = np.zeros((n, n))
    for v in range(n):
        neighbors = graph.neighbors(v)
        d = len(neighbors)
        if d:
            np.add.at(matrix[v], neighbors, 0.5 / d)
        matrix[v, v] += 0.5
    return matrix


def regular_transition_matrix(graph: Graph) -> np.ndarray:
    """Transition matrix of the ``2*Delta``-regular walk (Definition 2.2).

    Move to each neighbour w.p. ``1/(2*Delta)``; stay otherwise.  This is
    the lazy walk on the graph padded with ``Delta - d(v)`` self-loops.
    """
    n = graph.num_nodes
    delta = graph.max_degree
    matrix = np.zeros((n, n))
    for v in range(n):
        neighbors = graph.neighbors(v)
        np.add.at(matrix[v], neighbors, 1.0 / (2.0 * delta))
        matrix[v, v] += 1.0 - len(neighbors) / (2.0 * delta)
    return matrix


#: Above this many nodes :func:`spectral_gap` takes the sparse path.
SPARSE_THRESHOLD = 800


def spectral_gap(graph: Graph, regular: bool = False) -> float:
    """Spectral gap ``1 - lambda_2`` of the (lazy or regular) walk matrix.

    The lazy/regular walk matrices are similar to symmetric matrices, so
    the spectrum is real.  Above :data:`SPARSE_THRESHOLD` nodes, a sparse
    Lanczos solve (scipy) replaces the dense eigendecomposition when
    scipy is available.
    """
    if graph.num_nodes > SPARSE_THRESHOLD:
        try:
            return _spectral_gap_sparse(graph, regular)
        except ImportError:
            pass  # fall through to the dense path
    if regular:
        matrix = regular_transition_matrix(graph)
        eigenvalues = np.linalg.eigvalsh(matrix)
    else:
        # Symmetrize: D^{-1/2} A D^{-1/2} has the same spectrum as D^{-1} A.
        matrix = lazy_transition_matrix(graph)
        d = graph.degrees.astype(float)
        scale = np.sqrt(d)
        sym = matrix * scale[:, None] / scale[None, :]
        eigenvalues = np.linalg.eigvalsh(sym)
    eigenvalues.sort()
    return float(1.0 - eigenvalues[-2])


def _spectral_gap_sparse(graph: Graph, regular: bool) -> float:
    """Lanczos spectral gap via scipy.sparse (for large graphs)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = graph.num_nodes
    edges = graph.edge_array
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adjacency = sp.coo_matrix(
        (np.ones(rows.shape[0]), (rows, cols)), shape=(n, n)
    ).tocsr()
    if regular:
        delta = max(1, graph.max_degree)
        diagonal = 1.0 - graph.degrees / (2.0 * delta)
        matrix = adjacency / (2.0 * delta) + sp.diags(diagonal)
    else:
        inv_sqrt = 1.0 / np.sqrt(np.maximum(graph.degrees, 1))
        scale = sp.diags(inv_sqrt)
        matrix = 0.5 * sp.eye(n) + 0.5 * (scale @ adjacency @ scale)
    eigenvalues = spla.eigsh(
        matrix, k=2, which="LA", return_eigenvectors=False, maxiter=5000
    )
    eigenvalues.sort()
    return float(1.0 - eigenvalues[0])


#: Steps after which an exact mixing-time search gives up.
_MAX_MIX_STEPS = 1 << 22


def _mixing_time_from_matrix(
    matrix: np.ndarray, stationary: np.ndarray, tolerance: np.ndarray
) -> int:
    """Smallest ``t`` with ``|P_v^t(u) - pi(u)| <= tol(u)`` for all ``v, u``.

    Doubles ``t`` until ``P^t`` is mixed, then binary-lifts over the
    stored powers ``P^(2^j)``: ``O(n^3 log t)`` in all — fine for ``n``
    up to a couple of thousand.  The lift is exact because each
    column's deviation ``max_v |P^t(v, u) - pi(u)|`` never grows with
    ``t`` (a row of ``P^(t+1)`` averages rows of ``P^t``), so "mixed"
    holds from the answer on and fails before it.
    """

    def mixed(power: np.ndarray) -> bool:
        deviation = np.abs(power - stationary[None, :]).max(axis=0)
        return bool(np.all(deviation <= tolerance))

    power = matrix.copy()
    step = 1
    history = [(1, matrix)]
    # Double until mixed.
    while step < _MAX_MIX_STEPS:
        if mixed(power):
            break
        power = power @ power
        step *= 2
        history.append((step, power))
    else:
        raise RuntimeError(
            f"walk did not mix within {_MAX_MIX_STEPS} steps"
        )
    if step == 1:
        return 1
    # P^base is not mixed and P^(2 base) is: add each smaller power,
    # largest first, whenever the sum is still not mixed.
    base_step, base = history[-2]
    for jump, jump_power in reversed(history[:-2]):
        candidate = base @ jump_power
        if not mixed(candidate):
            base, base_step = candidate, base_step + jump
    return base_step + 1


def mixing_time(graph: Graph) -> int:
    """Exact ``tau_mix(G)`` per Definition 2.1 for the lazy walk.

    The minimum ``t`` such that for all ``v, u``:
    ``|P_v^t(u) - d(u)/2m| <= d(u)/(2 m n)``.

    (The paper's definition writes ``d(v)/2m``; the stationary probability
    of *ending* at ``u`` is ``d(u)/2m``, which is the standard reading.)
    """
    if not graph.is_connected():
        raise ValueError("mixing time of a disconnected graph is infinite")
    n = graph.num_nodes
    if n == 1:
        return 1
    matrix = lazy_transition_matrix(graph)
    stationary = graph.degrees / (2.0 * graph.num_edges)
    tolerance = stationary / n
    return _mixing_time_from_matrix(matrix, stationary, tolerance)


def regular_mixing_time(graph: Graph) -> int:
    """Exact ``tau_bar_mix(G)`` of the ``2*Delta``-regular walk.

    The stationary distribution is uniform; Lemma 2.3 upper-bounds this by
    ``8 Delta^2 ln(n) / h(G)^2``.
    """
    if not graph.is_connected():
        raise ValueError("mixing time of a disconnected graph is infinite")
    n = graph.num_nodes
    if n == 1:
        return 1
    matrix = regular_transition_matrix(graph)
    stationary = np.full(n, 1.0 / n)
    tolerance = stationary / n
    return _mixing_time_from_matrix(matrix, stationary, tolerance)
