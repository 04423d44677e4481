"""Closed-form bounds and parameter choices from the paper.

Every function here is a direct transcription of a formula stated in the
paper (or a baseline it cites), used by the benchmark harness to print the
"paper claim" column next to measured values.  A bound stated as
``O(f)`` is evaluated as ``f`` (hidden constant 1); the benchmark
columns report measured/bound ratios, which carry the constant.
"""

from __future__ import annotations

import math

#: Largest ``beta`` :func:`optimal_beta` returns.
BETA_CAP = 64

#: :func:`crossover_n` searches ``n = 2^4 .. 2^MAX_CROSSOVER_LOG_N``.
MAX_CROSSOVER_LOG_N = 400


def subpolynomial_envelope(n: int, c: float = 1.0) -> float:
    """The paper's ``2^{c * sqrt(log n * log log n)}`` factor.

    This is the stretch/overhead envelope appearing in Theorems 1.1 and
    1.2.  ``log`` is base 2 here; the constant ``c`` absorbs the paper's
    big-O.
    """
    if n < 4:
        return 2.0**c
    log_n = math.log2(n)
    log_log_n = max(1.0, math.log2(log_n))
    return 2.0 ** (c * math.sqrt(log_n * log_log_n))


def optimal_beta(n: int) -> int:
    """The paper's branching factor ``beta = 2^{O(sqrt(log n log log n))}``.

    We take ``beta = 2^{ceil(sqrt(log2 n * log2 log2 n))}``, capped at
    :data:`BETA_CAP` (a large ``beta`` blows up the ``O(beta^2)``
    portal-construction term at simulable sizes without improving
    anything measurable).
    """
    if n < 4:
        return 2
    log_n = math.log2(n)
    log_log_n = max(1.0, math.log2(log_n))
    beta = 2 ** math.ceil(math.sqrt(log_n * log_log_n))
    return max(2, int(min(beta, BETA_CAP)))


def num_levels(num_overlay_nodes: int, beta: int, bottom_size: int) -> int:
    """Number of recursion levels until parts shrink to ``~bottom_size``.

    The paper's ``k = O(log_beta (m / log m))``: each level divides part
    sizes by ``beta``.  We take ``k = floor(log_beta(N / bottom))`` so
    leaf parts have size in ``[bottom, bottom * beta)`` — never *below*
    the bottom size, which would leave near-empty parts with no boundary
    edges between siblings.
    """
    if num_overlay_nodes <= bottom_size * beta:
        return 1
    ratio = num_overlay_nodes / bottom_size
    return max(1, int(math.floor(math.log(ratio) / math.log(beta))))


def cheeger_mixing_bound(max_degree: int, edge_expansion: float, n: int) -> float:
    """Lemma 2.3: ``tau_bar_mix <= 8 * Delta^2 / h(G)^2 * ln n``."""
    if edge_expansion <= 0:
        return math.inf
    return 8.0 * (max_degree / edge_expansion) ** 2 * math.log(max(2, n))


def conductance_mixing_bound(conductance: float, n: int) -> float:
    """Lazy-walk mixing bound ``8 ln n / phi(G)^2`` used in Lemma 2.3's proof."""
    if conductance <= 0:
        return math.inf
    return 8.0 * math.log(max(2, n)) / conductance**2


def parallel_walk_load_bound(k: float, degree: int, n: int) -> float:
    """Lemma 2.4: per-step walk load at a node is ``O(k d(v) + log n)``."""
    return k * degree + math.log2(max(2, n))


def parallel_walk_rounds_bound(k: float, steps: int, n: int) -> float:
    """Lemma 2.5: ``T`` walk steps schedule in ``O((k + log n) * T)`` rounds."""
    return (k + math.log2(max(2, n))) * steps


def routing_recursion_bound(
    m: int, beta: int, bottom_size: int, log_n: float
) -> float:
    """Lemma 3.4's recursion ``T(m) = 2 T(m/beta) * O(log^2 n) + O(log n)``.

    Evaluated exactly (not just its asymptotic solution) so benchmarks can
    compare the measured per-level decomposition against it.
    """
    if m <= bottom_size:
        return log_n
    return (
        2.0 * routing_recursion_bound(m // beta, beta, bottom_size, log_n)
        * log_n**2
        + log_n
    )


def clique_emulation_bound(
    n: int, edge_expansion: float, max_degree: int
) -> float:
    """Theorem 1.3's general clique-emulation upper bound.

    ``O(n/h * (1 + Delta/n * Delta/h * log n) * log n * log* n)``.
    """
    if edge_expansion <= 0:
        return math.inf
    log_n = math.log2(max(2, n))
    base = n / edge_expansion
    inner = 1.0 + (max_degree / n) * (max_degree / edge_expansion) * log_n
    return base * inner * log_n * log_star(n)


def clique_emulation_er_bound(n: int, p: float) -> float:
    """Theorem 1.3 corollary for ``G(n,p)``: ``O(1/p + log n)`` rounds."""
    if p <= 0:
        return math.inf
    return 1.0 / p + math.log2(max(2, n))


def balliu_emulation_bound(n: int, p: float) -> float:
    """Balliu et al. clique emulation: ``O(min{1/p^2, n p})`` rounds."""
    if p <= 0:
        return math.inf
    return min(1.0 / p**2, n * p)


def das_sarma_lower_bound(n: int, diameter: int) -> float:
    """Das Sarma et al. general-graph barrier ``Omega(D + sqrt(n / log n))``."""
    return diameter + math.sqrt(n / math.log2(max(2, n)))


def gkp_upper_bound(n: int, diameter: int) -> float:
    """Garay–Kutten–Peleg MST bound ``O(D + sqrt(n) log* n)``."""
    return diameter + math.sqrt(n) * log_star(n)


def virtual_tree_depth_bound(n: int) -> float:
    """Lemma 4.1: virtual tree depth stays ``O(log^2 n)``."""
    return math.log2(max(2, n)) ** 2


def virtual_tree_degree_bound(degree: int, n: int) -> float:
    """Lemma 4.1: virtual in-degree of node ``v`` stays ``d(v) * O(log n)``."""
    return degree * math.log2(max(2, n))


def fitted_envelope_constant(n: int, normalized_cost: float) -> float:
    """Solve ``normalized_cost = 2^{c sqrt(log n loglog n)}`` for ``c``.

    Turns a measured ``rounds / tau_mix`` value into the paper's envelope
    constant, so measured constants can be extrapolated (see
    :func:`crossover_n`).
    """
    if normalized_cost <= 1 or n < 4:
        return 0.0
    log_n = math.log2(n)
    log_log_n = max(1.0, math.log2(log_n))
    return math.log2(normalized_cost) / math.sqrt(log_n * log_log_n)


def crossover_n(envelope_c: float) -> float | None:
    """Estimated ``n`` where the paper's bound beats ``D + sqrt(n)``.

    Compares ``2^{envelope_c sqrt(log n loglog n)}`` (our cost on a
    polylog-mixing expander, where ``tau_mix`` adds no power of ``n``)
    against ``sqrt(n)`` (the ``tilde-Theta(D + sqrt n)`` algorithms on
    low-diameter graphs).

    Returns:
        The smallest power of two where ours wins, or ``None`` if no
        crossover occurs below ``2^MAX_CROSSOVER_LOG_N``.  With measured
        ``envelope_c`` around 14 (this simulator's constants), the
        crossover sits far beyond practical sizes — quantifying just how
        asymptotic the paper's advantage is.
    """
    for log_n in range(4, MAX_CROSSOVER_LOG_N + 1):
        log_log_n = max(1.0, math.log2(log_n))
        ours_log2 = envelope_c * math.sqrt(log_n * log_log_n)
        general_log2 = 0.5 * log_n
        if ours_log2 < general_log2:
            return 2.0**log_n
    return None


def log_star(n) -> int:
    """Iterated logarithm (base 2); handles arbitrarily large integers."""
    count = 0
    value = n
    # Reduce huge integers via bit_length (== ceil(log2) up to 1) to avoid
    # float overflow; the off-by-<1 error cannot change log*.
    while isinstance(value, int) and value > 2**53:
        value = value.bit_length() - 1  # floor(log2), exact on powers of 2
        count += 1
    value = float(value)
    while value > 1.0:
        value = math.log2(value)
        count += 1
    return max(1, count)
