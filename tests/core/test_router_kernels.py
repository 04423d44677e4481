"""Bit-identity of the router's array kernels against their loop forms.

The oracles below are the per-node load-promise list and the per-packet
portal-hop loop that :meth:`Router._required_phases` and
:meth:`Router._hop` replaced.  They live here only to pin the kernels:
same phase count, same landed vnodes and congestion, the same
``RoutingError`` for the first stranded packet, and the same RNG
consumption (the generator's next draw).
"""

from __future__ import annotations

import copy
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.detector import CrashView
from repro.core import Router, RoutingError, build_hierarchy
from repro.core.router import _max_multiplicity
from repro.graphs import grid_torus, hypercube, random_regular
from repro.params import Params
from repro.runtime import RunContext

kernel_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FAMILIES = {
    "regular": lambda: random_regular(64, 6, np.random.default_rng(1)),
    "hypercube": lambda: hypercube(6),
    "torus": lambda: grid_torus(8, 8),
}


# -- oracles -------------------------------------------------------------


def _oracle_promise(params, n, degree):
    log2n = max(1.0, math.log2(max(2, n)))
    return max(1, int(round(params.packets_per_node_factor * degree * log2n)))


def _oracle_required_phases(router, sources, destinations):
    graph = router.hierarchy.g0.base_graph
    load = np.bincount(sources, minlength=graph.num_nodes) + np.bincount(
        destinations, minlength=graph.num_nodes
    )
    allowed = np.array(
        [
            _oracle_promise(router.params, graph.num_nodes, d)
            for d in graph.degrees
        ],
        dtype=np.int64,
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = load / np.maximum(allowed, 1)
    return max(1, int(np.ceil(ratio.max()))) if load.size else 1


def _oracle_hop(router, level, portals, target_parts):
    overlay = router.hierarchy.overlay_at(level)
    parts_next = router.hierarchy.parts_at(level + 1)
    landed = np.empty_like(portals)
    chosen_arcs = np.empty_like(portals)
    for i, (portal, part) in enumerate(zip(portals, target_parts)):
        arcs = np.arange(overlay.indptr[portal], overlay.indptr[portal + 1])
        heads = overlay.indices[arcs]
        valid = arcs[parts_next[heads] == part]
        if router._self_heal and valid.size:
            live = valid[~router._dead_vnode[overlay.indices[valid]]]
            if live.size:
                valid = live
        if valid.size == 0:
            raise RoutingError(
                f"portal {int(portal)} lost its boundary edge to part "
                f"{int(part)} at level {level + 1}"
            )
        arc = int(valid[router.rng.integers(0, valid.size)])
        landed[i] = overlay.indices[arc]
        chosen_arcs[i] = arc
    congestion = np.bincount(chosen_arcs).max() if portals.size else 0
    return landed, float(congestion)


# -- shared structures ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _hierarchy(family):
    return build_hierarchy(
        FAMILIES[family](), Params.default(), np.random.default_rng(5),
        beta=4,
    )


@functools.lru_cache(maxsize=None)
def _fail_fast_router(family):
    return Router(
        _hierarchy(family), params=Params.default(),
        rng=np.random.default_rng(6),
    )


class _CrashedContext(RunContext):
    """A self-healing run whose detector reports ``view``."""

    def __init__(self, view):
        super().__init__(recovery="self-heal")
        self._view = view

    def crash_view_for(self, num_nodes):
        return self._view


def _router(family, seed, victims=frozenset()):
    """A router over the cached structure; self-heal when ``victims``
    (real nodes crashed for the whole run) is non-empty."""
    hierarchy = _hierarchy(family)
    if not victims:
        # A copy of one cached router, so the portal table is built once
        # per family; only its generator is fresh.
        router = copy.copy(_fail_fast_router(family))
        router.rng = np.random.default_rng(seed)
        return router
    n = hierarchy.g0.base_graph.num_nodes
    return Router(
        hierarchy,
        params=Params.default(),
        rng=np.random.default_rng(seed),
        context=_CrashedContext(
            CrashView(n, ((1, 10**6, frozenset(victims)),), 1.0)
        ),
    )


def _rewind(router, rng_state, warm):
    router.rng.bit_generator.state = rng_state
    router.restore_warm_state(warm)


# -- the load promise ----------------------------------------------------


class TestLoadPromise:
    @kernel_settings
    @given(
        n=st.integers(1, 5000),
        factor=st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.5, 2.5, 3.0]),
        degrees=st.lists(st.integers(0, 300), min_size=1, max_size=50),
    )
    def test_array_matches_scalar_formula(self, n, factor, degrees):
        params = Params.default().with_overrides(
            packets_per_node_factor=factor
        )
        allowed = params.packets_per_node(n, np.array(degrees))
        assert allowed.dtype == np.int64
        expected = [_oracle_promise(params, n, d) for d in degrees]
        assert allowed.tolist() == expected
        assert [params.packets_per_node(n, d) for d in degrees] == expected

    @pytest.mark.parametrize(
        "factor,n,expected",
        [
            # log2(2) = 1: products 0.5, 1.5, 2.5, 3.5 round half to even.
            (0.5, 2, [1, 2, 2, 4]),
            # log2(4) = 2: products 0.5, 1.5, 2.5, 3.5 again.
            (0.25, 4, [1, 2, 2, 4]),
            # log2(16) = 4: products 4.5, 13.5, 22.5, 31.5.
            (1.125, 16, [4, 14, 22, 32]),
        ],
    )
    def test_exact_halves_round_to_even(self, factor, n, expected):
        params = Params.default().with_overrides(
            packets_per_node_factor=factor
        )
        degrees = [1, 3, 5, 7]
        assert params.packets_per_node(n, np.array(degrees)).tolist() == (
            expected
        )
        assert [params.packets_per_node(n, d) for d in degrees] == expected

    @kernel_settings
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        seed=st.integers(0, 2**16),
        packets=st.integers(1, 800),
        hot=st.integers(1, 64),
    )
    def test_required_phases_matches_loop(self, family, seed, packets, hot):
        router = _router(family, 0)
        rng = np.random.default_rng(seed)
        sources = rng.integers(0, hot, size=packets)
        destinations = rng.integers(0, 64, size=packets)
        assert router._required_phases(sources, destinations) == (
            _oracle_required_phases(router, sources, destinations)
        )


# -- the portal hop ------------------------------------------------------


def _hop_instance(family, level, seed, packets, stranded):
    """Packets parked on tails of random overlay arcs, each bound for
    its arc head's part; the first ``stranded`` packets instead target
    a part their portal has no arc into."""
    hierarchy = _hierarchy(family)
    overlay = hierarchy.overlay_at(level)
    parts_next = hierarchy.parts_at(level + 1)
    rng = np.random.default_rng(seed)
    arcs = rng.integers(0, overlay.num_arcs, size=packets)
    portals = np.searchsorted(overlay.indptr, arcs, side="right") - 1
    target_parts = parts_next[overlay.indices[arcs]]
    num_parts = int(parts_next.max()) + 1
    for i in range(min(stranded, packets)):
        reachable = set(
            parts_next[overlay.neighbors(int(portals[i]))].tolist()
        )
        missing = sorted(set(range(num_parts + 1)) - reachable)
        target_parts[i] = missing[0]
    return portals, target_parts


def _assert_hops_agree(router, level, portals, target_parts):
    rng_state = router.rng.bit_generator.state
    warm = router.warm_state()
    try:
        expected = _oracle_hop(router, level, portals, target_parts)
    except RoutingError as error:
        _rewind(router, rng_state, warm)
        with pytest.raises(RoutingError) as raised:
            router._hop(level, portals, target_parts)
        assert str(raised.value) == str(error)
        return None
    expected_next = router.rng.random()
    _rewind(router, rng_state, warm)
    landed, congestion = router._hop(level, portals, target_parts)
    assert landed.tolist() == expected[0].tolist()
    assert congestion == expected[1]
    assert router.rng.random() == expected_next
    return landed


class TestHopKernel:
    @kernel_settings
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        level=st.integers(0, 1),
        seed=st.integers(0, 2**16),
        packets=st.integers(1, 400),
        stranded=st.sampled_from([0, 0, 1, 3]),
    )
    def test_fail_fast_matches_loop(
        self, family, level, seed, packets, stranded
    ):
        if level >= _hierarchy(family).depth:
            level = 0
        portals, target_parts = _hop_instance(
            family, level, seed, packets, stranded
        )
        _assert_hops_agree(
            _router(family, seed), level, portals, target_parts
        )

    @kernel_settings
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        level=st.integers(0, 1),
        seed=st.integers(0, 2**16),
        packets=st.integers(1, 300),
        doomed=st.integers(1, 8),
        stranded=st.sampled_from([0, 0, 1]),
    )
    def test_self_heal_matches_loop(
        self, family, level, seed, packets, doomed, stranded
    ):
        """Crash the hosts of every boundary head of the first
        ``doomed`` packets, so those packets fall back to dead heads
        while others keep live arcs."""
        hierarchy = _hierarchy(family)
        if level >= hierarchy.depth:
            level = 0
        portals, target_parts = _hop_instance(
            family, level, seed, packets, stranded
        )
        overlay = hierarchy.overlay_at(level)
        parts_next = hierarchy.parts_at(level + 1)
        host = hierarchy.g0.virtual.host
        victims = set()
        for portal, part in zip(
            portals[:doomed].tolist(), target_parts[:doomed].tolist()
        ):
            heads = overlay.neighbors(portal)
            victims.update(host[heads[parts_next[heads] == part]].tolist())
        router = _router(family, seed, frozenset(victims) or {0})
        _assert_hops_agree(router, level, portals, target_parts)

    def test_self_heal_falls_back_to_dead_heads(self):
        """The fallback branch is reached: a packet whose only boundary
        heads are dead still hops, onto a dead head."""
        hierarchy = _hierarchy("regular")
        overlay = hierarchy.overlay_at(0)
        parts_next = hierarchy.parts_at(1)
        host = hierarchy.g0.virtual.host
        portals, target_parts = _hop_instance("regular", 0, 3, 40, 0)
        heads = overlay.neighbors(int(portals[0]))
        boundary = heads[parts_next[heads] == target_parts[0]]
        router = _router("regular", 3, frozenset(host[boundary].tolist()))
        assert router._dead_vnode[boundary].all()
        landed = _assert_hops_agree(router, 0, portals, target_parts)
        assert router._dead_vnode[landed[0]]

    def test_stranded_packet_draws_nothing(self):
        portals, target_parts = _hop_instance("regular", 0, 4, 20, 5)
        router = _router("regular", 4)
        state = router.rng.bit_generator.state
        with pytest.raises(RoutingError, match="lost its boundary edge"):
            router._hop(0, portals, target_parts)
        assert router.rng.bit_generator.state == state


class TestMaxMultiplicity:
    """The hop's congestion count against the ``bincount`` it replaced,
    which allocated ``max(arcs) + 1`` counters per hop."""

    @kernel_settings
    @given(
        st.lists(st.integers(0, 10**6), max_size=50),
        st.integers(1, 4),
    )
    def test_matches_bincount_max(self, arcs, repeats):
        arcs = np.array(arcs * repeats, dtype=np.int64)
        expected = np.bincount(arcs).max() if arcs.size else 0
        assert _max_multiplicity(arcs) == expected

    def test_empty(self):
        assert _max_multiplicity(np.array([], dtype=np.int64)) == 0


# -- whole routes --------------------------------------------------------


class TestRouteBitIdentity:
    @kernel_settings
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        seed=st.integers(0, 2**16),
        packets=st.integers(1, 800),
        hot=st.integers(1, 64),
        self_heal=st.booleans(),
    )
    def test_route_matches_loop_kernels(
        self, family, seed, packets, hot, self_heal
    ):
        """One packet up to multi-phase loads; fail-fast and self-heal
        (crashed nodes neither send nor receive)."""
        rng = np.random.default_rng(seed)
        victims = frozenset()
        live = np.arange(64)
        if self_heal:
            victims = frozenset(rng.choice(64, size=4, replace=False).tolist())
            live = np.array([v for v in range(64) if v not in victims])
        sources = live[rng.integers(0, min(hot, live.size), size=packets)]
        destinations = live[rng.integers(0, live.size, size=packets)]
        router = _router(family, seed, victims)
        rng_state = router.rng.bit_generator.state
        warm = router.warm_state()
        with mock.patch.object(
            router, "_hop", functools.partial(_oracle_hop, router)
        ), mock.patch.object(
            router, "_required_phases",
            functools.partial(_oracle_required_phases, router),
        ):
            expected = router.route(sources, destinations)
        expected_next = router.rng.random()
        _rewind(router, rng_state, warm)
        result = router.route(sources, destinations)
        assert result.num_phases == expected.num_phases
        assert result.final_vnodes.tolist() == expected.final_vnodes.tolist()
        assert result.delivered == expected.delivered
        assert result.cost_rounds == expected.cost_rounds
        assert result.recovery_rounds == expected.recovery_rounds
        assert {
            level: cost.hop_rounds
            for level, cost in result.level_costs.items()
        } == {
            level: cost.hop_rounds
            for level, cost in expected.level_costs.items()
        }
        assert router.rng.random() == expected_next
