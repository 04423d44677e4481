"""Scaling-curve fits for experiment series.

Benchmarks assert growth *shapes* (polynomial exponents, subpolynomial
envelopes); these helpers turn measured series into comparable numbers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["power_law_exponent", "is_subpolynomial_consistent"]


def power_law_exponent(
    xs: Sequence[float], ys: Sequence[float]
) -> tuple[float, float]:
    """Least-squares fit of ``y = c * x^alpha`` in log-log space.

    Args:
        xs: strictly positive inputs (e.g. ``n`` values).
        ys: strictly positive measurements.

    Returns:
        ``(alpha, c)``.

    Raises:
        ValueError: on fewer than 2 points or non-positive data.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape[0] < 2 or xs.shape != ys.shape:
        raise ValueError("need at least two (x, y) pairs")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit needs positive data")
    log_x = np.log(xs)
    log_y = np.log(ys)
    alpha, log_c = np.polyfit(log_x, log_y, 1)
    return float(alpha), float(math.exp(log_c))


def is_subpolynomial_consistent(
    ns: Sequence[float],
    ys: Sequence[float],
) -> bool:
    """Whether a series is consistent with the paper's envelope.

    Checks that every normalized value sits below
    ``2^{4 sqrt(log n log log n)}`` —
    a loose necessary condition, useful as a bench smoke test (a truly
    polynomial ``n^eps`` series escapes any fixed envelope as ``n``
    grows, but at bench sizes this is a sanity check, not a proof).
    """
    from ..theory import subpolynomial_envelope

    for n, y in zip(ns, ys):
        if y > subpolynomial_envelope(int(n), c=4.0):
            return False
    return True
