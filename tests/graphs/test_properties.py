"""Tests for expansion, conductance, spectra, and mixing times.

Includes the Lemma 2.3 check: the ``2*Delta``-regular walk mixes within
``8 Delta^2 ln(n) / h(G)^2`` steps on every tested family.
"""

import math

import numpy as np
import pytest

from repro.graphs import (
    FAMILIES,
    barbell_graph,
    complete_graph,
    conductance_exact,
    conductance_spectral_bounds,
    cut_size,
    edge_expansion_exact,
    edge_expansion_spectral_lower,
    grid_torus,
    hypercube,
    lazy_transition_matrix,
    mixing_time,
    path_graph,
    random_regular,
    regular_mixing_time,
    regular_transition_matrix,
    ring_graph,
    spectral_gap,
    star_graph,
)
from repro.graphs.properties import _mixing_time_from_matrix
from repro.theory import cheeger_mixing_bound


class TestCuts:
    def test_cut_size_ring(self):
        g = ring_graph(8)
        side = np.zeros(8, dtype=bool)
        side[:4] = True
        assert cut_size(g, side) == 2

    def test_cut_size_empty_side(self):
        g = ring_graph(8)
        assert cut_size(g, np.zeros(8, dtype=bool)) == 0

    def test_edge_expansion_complete(self):
        # K_n: cut of |S|=k has k(n-k) edges; min at k = n/2 -> h = n/2.
        assert edge_expansion_exact(complete_graph(6)) == pytest.approx(3.0)

    def test_edge_expansion_ring(self):
        # Ring: best cut is a contiguous half, 2 edges / (n/2) nodes.
        assert edge_expansion_exact(ring_graph(12)) == pytest.approx(2 / 6)

    def test_edge_expansion_star(self):
        # Star: leaves-only sets have cut = |S|, so h = 1.
        assert edge_expansion_exact(star_graph(9)) == pytest.approx(1.0)

    def test_edge_expansion_barbell_small(self):
        g = barbell_graph(4)
        # The bridge cut separates one clique: 1 edge / 4 nodes.
        assert edge_expansion_exact(g) == pytest.approx(0.25)

    def test_conductance_ring(self):
        # Ring: 2 crossing edges / volume n (half the ring).
        assert conductance_exact(ring_graph(12)) == pytest.approx(2 / 12)

    def test_conductance_complete(self):
        g = complete_graph(6)
        # K_6: |S|=3 gives 9 / (3*5) = 0.6.
        assert conductance_exact(g) == pytest.approx(0.6)

    def test_exact_rejects_large(self):
        with pytest.raises(ValueError, match="exponential"):
            edge_expansion_exact(ring_graph(40))
        with pytest.raises(ValueError, match="exponential"):
            conductance_exact(ring_graph(40))


class TestTransitionMatrices:
    @pytest.mark.parametrize(
        "factory", [lambda: ring_graph(9), lambda: star_graph(7),
                    lambda: hypercube(3)]
    )
    def test_lazy_rows_stochastic(self, factory):
        matrix = lazy_transition_matrix(factory())
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert np.all(matrix >= 0)

    def test_lazy_self_probability(self):
        matrix = lazy_transition_matrix(ring_graph(6))
        assert np.allclose(np.diag(matrix), 0.5)

    def test_regular_rows_stochastic(self):
        matrix = regular_transition_matrix(star_graph(7))
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_regular_moves_uniformly(self):
        g = star_graph(5)  # Delta = 4
        matrix = regular_transition_matrix(g)
        # A leaf moves to the hub w.p. 1/(2*4) and stays otherwise.
        assert matrix[1, 0] == pytest.approx(1 / 8)
        assert matrix[1, 1] == pytest.approx(7 / 8)

    def test_regular_stationary_uniform(self):
        g = star_graph(6)
        matrix = regular_transition_matrix(g)
        uniform = np.full(6, 1 / 6)
        assert np.allclose(uniform @ matrix, uniform)

    def test_lazy_stationary_degree_proportional(self):
        g = star_graph(6)
        matrix = lazy_transition_matrix(g)
        pi = g.degrees / (2 * g.num_edges)
        assert np.allclose(pi @ matrix, pi)


class TestSpectralGap:
    def test_gap_positive_connected(self):
        assert spectral_gap(hypercube(4)) > 0

    def test_gap_zero_disconnected(self):
        from repro.graphs import Graph

        g = Graph(4, [(0, 1), (2, 3)])
        assert spectral_gap(g) == pytest.approx(0.0, abs=1e-9)

    def test_complete_gap_large(self):
        assert spectral_gap(complete_graph(16)) > 0.4

    def test_ring_gap_small(self):
        assert spectral_gap(ring_graph(64)) < 0.01

    def test_cheeger_sandwich(self):
        for g in (ring_graph(10), hypercube(3), complete_graph(8)):
            low, high = conductance_spectral_bounds(g)
            phi = conductance_exact(g)
            assert low <= phi + 1e-9
            assert phi <= high + 1e-9

    def test_expansion_spectral_lower(self):
        g = hypercube(3)
        assert edge_expansion_spectral_lower(g) <= edge_expansion_exact(g) + 1e-9


class TestMixingTime:
    def test_complete_mixes_fast(self):
        assert mixing_time(complete_graph(16)) <= 8

    def test_ring_mixes_slowly(self):
        # Theta(n^2): the 16-ring needs far more steps than the clique.
        assert mixing_time(ring_graph(16)) > 50

    def test_mixing_definition_tight(self):
        """tau_mix is minimal: at tau-1 some deviation exceeds tolerance."""
        g = hypercube(3)
        tau = mixing_time(g)
        matrix = lazy_transition_matrix(g)
        stationary = g.degrees / (2 * g.num_edges)
        tolerance = stationary / g.num_nodes
        power = np.linalg.matrix_power(matrix, tau)
        assert np.all(np.abs(power - stationary) <= tolerance + 1e-12)
        if tau > 1:
            power = np.linalg.matrix_power(matrix, tau - 1)
            assert np.any(np.abs(power - stationary) > tolerance)

    def test_regular_mixing_definition(self):
        g = star_graph(8)
        tau = regular_mixing_time(g)
        matrix = regular_transition_matrix(g)
        n = g.num_nodes
        power = np.linalg.matrix_power(matrix, tau)
        assert np.all(np.abs(power - 1 / n) <= 1 / n**2 + 1e-12)

    def test_disconnected_raises(self):
        from repro.graphs import Graph

        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="disconnected"):
            mixing_time(g)
        with pytest.raises(ValueError, match="disconnected"):
            regular_mixing_time(g)

    def test_single_node(self):
        from repro.graphs import Graph

        assert mixing_time(Graph(1, [])) == 1

    def test_monotone_in_connectivity(self):
        # Denser regular graphs mix no slower (same n).
        rng = np.random.default_rng(0)
        sparse = random_regular(32, 4, rng)
        dense = random_regular(32, 10, rng)
        assert mixing_time(dense) <= mixing_time(sparse) + 5


def _scan_mixing_time(matrix, stationary, tolerance):
    """The doubling-then-scan search the binary lift replaced: after
    doubling, one product with ``P`` per step until mixed."""
    def mixed(power):
        return np.all(np.abs(power - stationary).max(axis=0) <= tolerance)

    power, step, previous = matrix, 1, None
    while not mixed(power):
        previous, power, step = power, power @ power, 2 * step
    if previous is None:
        return 1
    base, base_step = previous, step // 2
    while True:
        base, base_step = base @ matrix, base_step + 1
        if mixed(base):
            return base_step


def _family_graphs():
    for name, factory in sorted(FAMILIES.items()):
        for n in (16, 32, 64):
            for seed in (0, 1):
                graph = factory(n, np.random.default_rng(seed))
                if graph.is_connected():
                    yield pytest.param(graph, id=f"{name}-{n}-{seed}")
    yield pytest.param(
        random_regular(128, 6, np.random.default_rng(0)),
        id="random_regular-128-0",
    )


class TestMixingSearch:
    """The binary lift over stored powers returns the scan's integer
    ``tau`` on every committed graph family, for both walks."""

    @pytest.mark.parametrize("graph", list(_family_graphs()))
    def test_lift_matches_scan(self, graph):
        n = graph.num_nodes
        for matrix, stationary in (
            (lazy_transition_matrix(graph),
             graph.degrees / (2.0 * graph.num_edges)),
            (regular_transition_matrix(graph), np.full(n, 1.0 / n)),
        ):
            tolerance = stationary / n
            assert _mixing_time_from_matrix(
                matrix, stationary, tolerance
            ) == _scan_mixing_time(matrix, stationary, tolerance)


class TestLemma23:
    """Lemma 2.3: tau_bar_mix <= 8 Delta^2 ln(n) / h(G)^2."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ring_graph(12),
            lambda: star_graph(10),
            lambda: complete_graph(10),
            lambda: hypercube(3),
            lambda: barbell_graph(5),
            lambda: grid_torus(3, 4),
        ],
    )
    def test_bound_holds(self, factory):
        g = factory()
        h = edge_expansion_exact(g)
        bound = cheeger_mixing_bound(g.max_degree, h, g.num_nodes)
        measured = regular_mixing_time(g)
        assert measured <= bound

    def test_bound_uses_conductance_form(self):
        # The proof rewrites the bound as 8 ln n / phi(G')^2 with
        # phi(G') = h / Delta; check the two forms agree.
        g = hypercube(3)
        h = edge_expansion_exact(g)
        direct = cheeger_mixing_bound(g.max_degree, h, g.num_nodes)
        phi_prime = h / g.max_degree
        rewritten = 8 * math.log(g.num_nodes) / phi_prime**2
        assert direct == pytest.approx(rewritten)

    def test_zero_expansion_infinite(self):
        assert cheeger_mixing_bound(4, 0.0, 16) == math.inf


class TestFiedlerCut:
    def test_barbell_finds_the_bridge(self):
        from repro.graphs import barbell_graph, fiedler_cut

        g = barbell_graph(8)
        mask, phi = fiedler_cut(g)
        # The sweep must isolate one clique.
        assert mask.sum() in (8,)
        assert phi == pytest.approx(conductance_exact(g))

    def test_cheeger_guarantee(self):
        from repro.graphs import fiedler_cut

        for g in (hypercube(4), ring_graph(14), grid_torus(3, 4)):
            __, phi = fiedler_cut(g)
            gap = 2.0 * spectral_gap(g)
            assert phi <= np.sqrt(2.0 * gap) + 1e-9
            assert phi >= conductance_exact(g) - 1e-9

    def test_single_node_rejected(self):
        from repro.graphs import Graph, fiedler_cut

        with pytest.raises(ValueError):
            fiedler_cut(Graph(1, []))

    def test_mask_nontrivial(self):
        from repro.graphs import fiedler_cut

        g = ring_graph(10)
        mask, __ = fiedler_cut(g)
        assert 0 < mask.sum() < 10
