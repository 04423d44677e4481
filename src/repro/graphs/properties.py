"""Expansion, conductance, spectra, and exact mixing times.

Implements the quantities of Section 2 of the paper:

* edge expansion ``h(G) = min_{|S| <= n/2} e(S, V-S) / |S|``,
* conductance ``phi(G) = min_{vol(S) <= m} e(S, V-S) / vol(S)``,
* the exact mixing time of Definition 2.1 for lazy walks,
* the ``2*Delta``-regular walk of Definition 2.2 and its mixing time,
* the Cheeger upper bound of Lemma 2.3.

Exact ``h``/``phi`` enumerate all cuts and are exponential; they are only
for graphs with ``n <= ~20``.  For larger graphs use the spectral
(Cheeger-inequality) estimates.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .graph import Graph

__all__ = [
    "edge_expansion_exact",
    "fiedler_cut",
    "conductance_exact",
    "spectral_gap",
    "conductance_spectral_bounds",
    "edge_expansion_spectral_lower",
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


def conductance_exact(graph: Graph) -> float:
    """Exact ``phi(G)`` by cut enumeration (only for ``n <= 22``)."""
    n = graph.num_nodes
    if n > _EXACT_LIMIT:
        raise ValueError(
            f"exact conductance is exponential; n={n} > {_EXACT_LIMIT}"
        )
    degrees = graph.degrees
    m = graph.num_edges
    best = np.inf
    for mask in _all_cuts(graph):
        volume = degrees[mask].sum()
        volume = min(volume, 2 * m - volume)
        if volume > 0:
            best = min(best, cut_size(graph, mask) / volume)
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


def spectral_gap(
    graph: Graph, regular: bool = False, sparse_threshold: int = 800
) -> float:
    """Spectral gap ``1 - lambda_2`` of the (lazy or regular) walk matrix.

    The lazy/regular walk matrices are similar to symmetric matrices, so
    the spectrum is real.  Above ``sparse_threshold`` nodes, a sparse
    Lanczos solve (scipy) replaces the dense eigendecomposition when
    scipy is available.
    """
    if graph.num_nodes > sparse_threshold:
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


def conductance_spectral_bounds(graph: Graph) -> tuple[float, float]:
    """Cheeger sandwich ``gap/2 <= phi <= sqrt(2 gap)`` for the lazy walk.

    The returned pair ``(low, high)`` brackets ``phi(G)``; the gap here is
    that of the *non-lazy* normalized walk, i.e. twice the lazy gap.
    """
    gap = 2.0 * spectral_gap(graph)
    return gap / 2.0, float(np.sqrt(2.0 * gap))


def edge_expansion_spectral_lower(graph: Graph) -> float:
    """A Cheeger-type lower bound on ``h(G)``: ``phi_low * min_degree``.

    Uses ``e(S, V-S)/|S| >= e(S, V-S)/vol(S) * min_deg``.
    """
    low, _ = conductance_spectral_bounds(graph)
    return float(low * graph.degrees.min())


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


def fiedler_cut(graph: Graph) -> tuple[np.ndarray, float]:
    """A low-conductance cut from the spectral sweep (Cheeger rounding).

    Sorts nodes by the lazy walk matrix's second eigenvector and scans
    all prefix cuts, returning the one with the best conductance — the
    constructive half of Cheeger's inequality, guaranteeing conductance
    at most ``sqrt(2 * gap)``.

    Returns:
        ``(membership mask of one side, its conductance)``.
    """
    n = graph.num_nodes
    if n < 2:
        raise ValueError("need at least two nodes to cut")
    matrix = lazy_transition_matrix(graph)
    degrees = graph.degrees.astype(float)
    scale = np.sqrt(np.maximum(degrees, 1e-12))
    sym = matrix * scale[:, None] / scale[None, :]
    eigenvalues, eigenvectors = np.linalg.eigh(sym)
    fiedler = eigenvectors[:, -2] / scale
    order = np.argsort(fiedler)
    total_volume = float(degrees.sum())
    best_mask = None
    best_conductance = np.inf
    side = np.zeros(n, dtype=bool)
    volume = 0.0
    edges = graph.edge_array
    for node in order[:-1]:
        side[node] = True
        volume += degrees[node]
        crossing = int(np.sum(side[edges[:, 0]] != side[edges[:, 1]]))
        denominator = min(volume, total_volume - volume)
        if denominator <= 0:
            continue
        conductance = crossing / denominator
        if conductance < best_conductance:
            best_conductance = conductance
            best_mask = side.copy()
    assert best_mask is not None
    return best_mask, float(best_conductance)
