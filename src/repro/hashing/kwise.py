"""``Theta(log n)``-wise independent hash functions over a prime field.

The hierarchical partition (Section 3.1.2, "Pseudo-Random Partitions")
assigns every node ID to a leaf of the ``beta``-ary partition tree with a
``W``-wise independent hash function for ``W = Theta(log n)``.  The
classic construction [Alon–Spencer]: a uniformly random polynomial of
degree ``W - 1`` over ``GF(p)``; the seed is its ``W`` coefficients,
``Theta(W log n) = Theta(log^2 n)`` shared random bits, which the paper
disseminates from a leader in ``O(D log n)`` rounds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KWiseHash", "PRIME"]

#: Mersenne prime 2^31 - 1; products of two residues fit in int64.
PRIME = (1 << 31) - 1


class KWiseHash:
    """A ``wise``-wise independent hash ``{0..p-1} -> {0..range-1}``.

    Evaluates a random degree-``wise - 1`` polynomial over ``GF(PRIME)``
    and reduces the value modulo ``range_size``.  The modular reduction
    introduces a bias of at most ``range_size / PRIME`` per point, which is
    negligible for the ranges used here (``range_size <= beta^k << 2^31``).

    Attributes:
        wise: the independence parameter ``W``.
        range_size: size of the output range.
        coefficients: the ``W`` seed coefficients (the shared random bits).
    """

    def __init__(self, wise: int, range_size: int, rng: np.random.Generator):
        if wise < 1:
            raise ValueError("independence must be at least 1")
        if not (1 <= range_size < PRIME):
            raise ValueError(f"range_size must be in [1, {PRIME})")
        self.wise = int(wise)
        self.range_size = int(range_size)
        coefficients = rng.integers(0, PRIME, size=self.wise, dtype=np.int64)
        # A zero leading coefficient only lowers the degree; keep it — the
        # family stays W-wise independent because all W coefficients are
        # uniform.
        self.coefficients = coefficients

    def seed_bits(self) -> int:
        """Number of shared random bits in the seed (``W * 31``)."""
        return self.wise * 31

    def __call__(self, keys) -> np.ndarray:
        """Hash an array of keys; returns values in ``[0, range_size)``."""
        keys = np.asarray(keys, dtype=np.int64) % PRIME
        acc = np.zeros_like(keys)
        for coefficient in self.coefficients:
            acc = (acc * keys + int(coefficient)) % PRIME
        return acc % self.range_size
