"""Tests for the distributed MST (Theorem 1.1 behaviour)."""

import math

import numpy as np
import pytest

from repro.baselines import kruskal
from repro.core import MstRunner, minimum_spanning_tree
from repro.graphs import (
    grid_torus,
    hypercube,
    random_regular,
    ring_graph,
    with_random_weights,
    with_weights,
)
from repro.rng import derive_rng
from repro.runtime import RunConfig, RunContext, run


@pytest.fixture(scope="module")
def mst64(weighted64, hierarchy64, params):
    runner = MstRunner(
        weighted64,
        hierarchy=hierarchy64,
        params=params,
        rng=np.random.default_rng(100),
    )
    return runner.run()


class TestCorrectness:
    def test_matches_kruskal(self, mst64, weighted64):
        assert mst64.edge_ids == kruskal(weighted64)

    def test_edge_count(self, mst64, weighted64):
        assert len(mst64.edge_ids) == weighted64.num_nodes - 1

    def test_total_weight(self, mst64, weighted64):
        assert mst64.total_weight == pytest.approx(
            weighted64.total_weight(kruskal(weighted64))
        )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_various_seeds(self, expander64, hierarchy64, params, seed):
        rng = np.random.default_rng(seed)
        weighted = with_random_weights(expander64, rng)
        result = minimum_spanning_tree(
            weighted, params, rng, hierarchy=hierarchy64
        )
        assert result.edge_ids == kruskal(weighted)

    def test_duplicate_weights_tiebreak(self, expander64, hierarchy64, params):
        """All-equal weights: the unique MST is defined by edge ids."""
        weighted = with_weights(
            expander64, np.ones(expander64.num_edges)
        )
        rng = np.random.default_rng(101)
        result = minimum_spanning_tree(
            weighted, params, rng, hierarchy=hierarchy64
        )
        assert result.edge_ids == kruskal(weighted)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda rng: with_random_weights(hypercube(5), rng),
            lambda rng: with_random_weights(grid_torus(6, 6), rng),
            lambda rng: with_random_weights(
                random_regular(48, 4, rng), rng
            ),
        ],
    )
    def test_other_topologies(self, factory, params):
        rng = np.random.default_rng(102)
        weighted = factory(rng)
        result = minimum_spanning_tree(weighted, params, rng)
        assert result.edge_ids == kruskal(weighted)

    def test_ring_topology(self, params):
        """Slow-mixing graph: algorithm still correct (just expensive)."""
        rng = np.random.default_rng(103)
        weighted = with_random_weights(ring_graph(24), rng)
        result = minimum_spanning_tree(weighted, params, rng)
        assert result.edge_ids == kruskal(weighted)

    def test_unweighted_rejected(self, expander64):
        with pytest.raises(TypeError, match="WeightedGraph"):
            MstRunner(expander64)


class TestLemma41Invariants:
    def test_depth_bounded_by_polylog(self, mst64, weighted64):
        """Virtual tree depth stays O(log^2 n)."""
        n = weighted64.num_nodes
        bound = 4.0 * math.log2(n) ** 2
        for stats in mst64.iterations:
            assert stats.max_tree_depth <= bound

    def test_degree_ratio_bounded(self, mst64, weighted64):
        """Virtual degree stays d(v) * O(log n)."""
        n = weighted64.num_nodes
        for stats in mst64.iterations:
            assert stats.max_tree_degree_ratio <= 4.0 * math.log2(n)

    def test_iterations_logarithmic(self, mst64, weighted64):
        n = weighted64.num_nodes
        assert mst64.num_iterations <= 8 * math.log2(n)

    def test_components_non_increasing(self, mst64):
        for stats in mst64.iterations:
            assert stats.components_after <= stats.components_before

    def test_rounds_positive(self, mst64):
        assert mst64.rounds > 0
        assert mst64.construction_rounds > 0
        for stats in mst64.iterations:
            assert stats.rounds >= 1

    def test_ledger_has_iterations(self, weighted64, hierarchy64, params):
        context = RunContext(seed=100, params=params)
        MstRunner(weighted64, hierarchy=hierarchy64, context=context).run()
        assert "mst" in context.ledger.by_prefix()
        assert "g0" in hierarchy64.ledger.by_prefix()


class TestRunLedger:
    def test_iteration_charges_sum_to_iteration_rounds(self):
        """Each iteration books its rounds once on the run ledger: the
        ``mst/iteration-i`` charge plus the retry surcharge split out
        under ``faults/retry-rounds`` make up ``IterationStats.rounds``."""
        graph = random_regular(48, 6, derive_rng(0, 48))
        outcome = run(
            "mst", graph, config=RunConfig(seed=3, faults="drop=0.05")
        )
        charges = outcome.ledger.charges
        surcharged = 0
        for stats in outcome.result.iterations:
            label = f"mst/iteration-{stats.iteration}"
            booked = [c.rounds for c in charges if c.label == label]
            retries = [
                c.rounds
                for c in charges
                if c.label == "faults/retry-rounds"
                and c.detail.get("stage") == label
            ]
            assert len(booked) == 1
            surcharged += bool(retries)
            assert sum(booked) + sum(retries) == pytest.approx(
                stats.rounds, rel=1e-12
            )
        assert surcharged > 0
