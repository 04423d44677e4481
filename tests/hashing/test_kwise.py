"""Tests for the k-wise independent hash family."""

import numpy as np
import pytest

from repro.hashing import PRIME, KWiseHash


@pytest.fixture()
def rng():
    return np.random.default_rng(31)


class TestBasics:
    def test_range(self, rng):
        h = KWiseHash(4, 17, rng)
        values = h(np.arange(5000))
        assert values.min() >= 0
        assert values.max() < 17

    def test_deterministic(self, rng):
        h = KWiseHash(4, 64, rng)
        keys = np.arange(100)
        assert np.array_equal(h(keys), h(keys))

    def test_different_seeds_differ(self):
        h1 = KWiseHash(6, 1024, np.random.default_rng(0))
        h2 = KWiseHash(6, 1024, np.random.default_rng(1))
        keys = np.arange(200)
        assert not np.array_equal(h1(keys), h2(keys))

    def test_seed_bits(self, rng):
        h = KWiseHash(8, 64, rng)
        assert h.seed_bits() == 8 * 31

    def test_invalid_wise(self, rng):
        with pytest.raises(ValueError):
            KWiseHash(0, 16, rng)

    def test_invalid_range(self, rng):
        with pytest.raises(ValueError):
            KWiseHash(4, 0, rng)
        with pytest.raises(ValueError):
            KWiseHash(4, PRIME, rng)

    def test_prime_is_mersenne(self):
        assert PRIME == 2**31 - 1

    def test_keys_beyond_prime_wrap(self, rng):
        h = KWiseHash(4, 100, rng)
        wrapped, plain = h(np.array([PRIME + 5, 5]))
        assert wrapped == plain


class TestDistribution:
    def test_roughly_uniform(self, rng):
        h = KWiseHash(8, 16, rng)
        values = h(np.arange(16000))
        counts = np.bincount(values, minlength=16)
        # Chi-square-ish check: each bucket within 25% of the mean.
        assert counts.min() > 0.75 * 1000
        assert counts.max() < 1.25 * 1000

    def test_pairwise_independence_empirical(self):
        """Over many seeds, P[h(a)=x and h(b)=y] ~ 1/R^2."""
        hits = 0
        trials = 3000
        for seed in range(trials):
            h = KWiseHash(2, 4, np.random.default_rng(seed))
            first, second = h(np.array([12345, 67890]))
            if first == 1 and second == 2:
                hits += 1
        expected = trials / 16
        assert abs(hits - expected) < 4 * np.sqrt(expected) + 5

    def test_wise_one_is_constant(self, rng):
        # Degree-0 polynomial: every key maps to the same value.
        h = KWiseHash(1, 97, rng)
        values = h(np.arange(50))
        assert len(set(values.tolist())) == 1
