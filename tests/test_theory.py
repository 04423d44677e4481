"""Tests for the closed-form bounds in repro.theory."""

import math

import pytest

from repro import theory


class TestEnvelope:
    def test_grows_with_n(self):
        values = [theory.subpolynomial_envelope(n) for n in (16, 256, 4096)]
        assert values[0] < values[1] < values[2]

    def test_subpolynomial(self):
        """2^sqrt(log n loglog n) is o(n^eps): exponent ratio shrinks."""

        def exponent_ratio(log_n: float) -> float:
            log_log = max(1.0, __import__("math").log2(log_n))
            return (log_n * log_log) ** 0.5 / log_n

        assert exponent_ratio(1000) < 0.11
        assert exponent_ratio(10**6) < 0.005
        assert exponent_ratio(10**6) < exponent_ratio(1000)

    def test_super_polylog(self):
        """...but grows faster than any fixed power of log n, eventually."""
        n = 2**400
        assert theory.subpolynomial_envelope(n) > math.log2(n) ** 3

    def test_constant_scales(self):
        assert theory.subpolynomial_envelope(
            1024, c=2.0
        ) == pytest.approx(theory.subpolynomial_envelope(1024, c=1.0) ** 2)

    def test_small_n(self):
        assert theory.subpolynomial_envelope(2) >= 1.0


class TestOptimalBeta:
    def test_power_of_two(self):
        for n in (64, 256, 1024, 4096):
            beta = theory.optimal_beta(n)
            assert beta & (beta - 1) == 0

    def test_monotone(self):
        assert theory.optimal_beta(1024) > theory.optimal_beta(64)
        assert theory.optimal_beta(4096) >= theory.optimal_beta(1024)

    def test_cap(self):
        assert theory.optimal_beta(2**30) == theory.BETA_CAP

    def test_minimum_two(self):
        assert theory.optimal_beta(2) >= 2


class TestNumLevels:
    def test_single_level_when_small(self):
        assert theory.num_levels(100, 16, 50) == 1

    def test_leaf_size_at_least_bottom(self):
        for N in (500, 5000, 50000):
            for beta in (4, 8, 16):
                k = theory.num_levels(N, beta, 32)
                assert N / beta**k >= 32 or k == 1

    def test_grows_with_n(self):
        assert theory.num_levels(10**6, 4, 32) > theory.num_levels(
            10**3, 4, 32
        )


class TestBounds:
    def test_cheeger_bound_matches_formula(self):
        assert theory.cheeger_mixing_bound(4, 0.5, 100) == pytest.approx(
            8 * (4 / 0.5) ** 2 * math.log(100)
        )

    def test_conductance_bound(self):
        assert theory.conductance_mixing_bound(0.25, 100) == pytest.approx(
            8 * math.log(100) / 0.25**2
        )

    def test_parallel_walk_bounds(self):
        assert theory.parallel_walk_load_bound(2, 5, 1024) == pytest.approx(
            2 * 5 + 10
        )
        assert theory.parallel_walk_rounds_bound(2, 7, 1024) == pytest.approx(
            (2 + 10) * 7
        )

    def test_routing_recursion_base(self):
        log_n = 8.0
        assert theory.routing_recursion_bound(10, 4, 32, log_n) == log_n

    def test_routing_recursion_one_level(self):
        log_n = 8.0
        inner = theory.routing_recursion_bound(10, 4, 32, log_n)
        outer = theory.routing_recursion_bound(40 * 4, 4, 32, log_n)
        # T(m) = 2 T(m/beta) log^2 + log
        assert outer > 2 * inner * log_n**2

    def test_clique_er_bound(self):
        assert theory.clique_emulation_er_bound(1024, 0.1) == pytest.approx(
            10 + 10
        )

    def test_balliu_bound_branches(self):
        # Small p: 1/p^2 branch loses to np.
        assert theory.balliu_emulation_bound(10**6, 1e-3) == pytest.approx(
            1000.0
        )
        # Large p: 1/p^2 branch wins.
        assert theory.balliu_emulation_bound(100, 0.5) == pytest.approx(4.0)

    def test_clique_general_bound_infinite_at_zero_expansion(self):
        assert theory.clique_emulation_bound(100, 0.0, 10) == math.inf

    def test_das_sarma_bound(self):
        value = theory.das_sarma_lower_bound(1024, 10)
        assert value == pytest.approx(10 + math.sqrt(1024 / 10))

    def test_gkp_upper_bound(self):
        assert theory.gkp_upper_bound(256, 8) > 8 + 16

    def test_virtual_tree_bounds(self):
        assert theory.virtual_tree_depth_bound(256) == pytest.approx(64.0)
        assert theory.virtual_tree_degree_bound(6, 256) == pytest.approx(48.0)


class TestLogStar:
    def test_values(self):
        assert theory.log_star(2) == 1
        assert theory.log_star(16) == 3
        assert theory.log_star(2**16) == 4
        assert theory.log_star(2**65536) == 5

    def test_minimum_one(self):
        assert theory.log_star(1) == 1


class TestCrossover:
    def test_fitted_constant_inverts_envelope(self):
        n = 1024
        c = 2.5
        cost = theory.subpolynomial_envelope(n, c=c)
        assert theory.fitted_envelope_constant(n, cost) == pytest.approx(c)

    def test_fitted_constant_degenerate(self):
        assert theory.fitted_envelope_constant(1024, 0.5) == 0.0
        assert theory.fitted_envelope_constant(2, 100.0) == 0.0

    def test_crossover_monotone_in_c(self):
        a = theory.crossover_n(1.0)
        b = theory.crossover_n(2.0)
        assert a is not None and b is not None
        assert a < b

    def test_crossover_none_when_too_costly(self):
        assert theory.crossover_n(6.0) is None

    def test_crossover_verifies_inequality(self):
        c = 1.5
        n = theory.crossover_n(c)
        assert n is not None
        assert theory.subpolynomial_envelope(int(n), c=c) < n**0.5
