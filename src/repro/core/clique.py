"""Clique emulation on a general graph (Theorem 1.3).

Every node must deliver one distinct ``O(log n)``-bit message to every
other node — emulating one round of the congested clique.  The paper
defers its specialized algorithm to the full version; we implement the
natural reduction onto the routing structure it sketches: the ``n(n-1)``
demands are split into phases respecting the per-node load promise
(``d(v) * O(log n)`` per phase, footnote 3), and each phase is one
permutation-routing instance.  On ``G(n, p)`` this yields the
``~ (1/p) * subpolynomial`` shape of the corollary (each node has
``Theta(np)`` bandwidth and must receive ``n - 1`` messages, so
``Omega(1/p)`` phases are unavoidable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..params import Params
from ..rng import resolve_rng
from .hierarchy import Hierarchy
from .router import Router, RoutingResult

__all__ = ["CliqueEmulationResult", "emulate_clique", "all_pairs_demand"]


@dataclass
class CliqueEmulationResult:
    """Outcome of one clique emulation.

    Attributes:
        delivered: whether all ``n(n-1)`` messages arrived.
        num_messages: total messages delivered.
        num_phases: routing phases used.
        rounds: total base-graph rounds.
        routing: the underlying routing result.
    """

    delivered: bool
    num_messages: int
    num_phases: int
    rounds: float
    routing: RoutingResult


def all_pairs_demand(num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The clique demand: one packet per ordered pair ``(u, v), u != v``."""
    sources = np.repeat(np.arange(num_nodes), num_nodes - 1)
    offsets = np.concatenate(
        [np.delete(np.arange(num_nodes), u) for u in range(num_nodes)]
    )
    return sources, offsets


def emulate_clique(
    hierarchy: Hierarchy,
    params: Params | None = None,
    rng: np.random.Generator | None = None,
    router: Router | None = None,
    sample_fraction: float = 1.0,
    context=None,
) -> CliqueEmulationResult:
    """Emulate one congested-clique round on the hierarchy's base graph.

    Args:
        hierarchy: a built routing structure.
        params: routing constants.
        rng: randomness source.
        router: optional prebuilt router (else built here).
        sample_fraction: route only this fraction of the ``n(n-1)``
            demands (uniformly sampled) and extrapolate the phase count —
            used by benchmarks at larger ``n``; the returned ``rounds``
            scales the measured per-phase cost by the full phase count.

        context: optional :class:`repro.runtime.RunContext`; supplies
            defaults (params, the ``"clique"`` stream) and receives the
            emulation's round charge as a trace event.

    Returns:
        A :class:`CliqueEmulationResult` (``delivered`` verified on the
        routed subset).
    """
    if context is not None:
        params = params or context.params
        if rng is None:
            rng = context.stream("clique")
    params = params or Params.default()
    rng = resolve_rng(rng)
    if router is None:
        router = Router(
            hierarchy,
            params=params,
            rng=rng,
            faults=context.fault_plan if context is not None else None,
        )
    graph = hierarchy.g0.base_graph
    n = graph.num_nodes
    sources, destinations = all_pairs_demand(n)
    full_count = sources.shape[0]
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must be in (0, 1]")
    if sample_fraction < 1.0:
        keep = rng.random(full_count) < sample_fraction
        sources, destinations = sources[keep], destinations[keep]
    routing = router.route(sources, destinations)
    rounds = routing.cost_rounds
    num_phases = routing.num_phases
    if sample_fraction < 1.0 and routing.num_phases > 0:
        # Extrapolate: phases scale ~1/sample_fraction; per-phase cost is
        # what we measured.
        full_phases = max(
            routing.num_phases,
            int(np.ceil(routing.num_phases / sample_fraction)),
        )
        rounds = rounds * full_phases / routing.num_phases
        num_phases = full_phases
    # The emulation's fault surcharge scales with the same extrapolation
    # factor as the rounds it is part of.
    fault_rounds = routing.fault_rounds
    if routing.cost_rounds > 0:
        fault_rounds *= rounds / routing.cost_rounds
    if context is not None:
        context.charge(
            "clique/emulation",
            rounds - fault_rounds,
            messages=int(sources.shape[0]),
            phases=num_phases,
        )
        if fault_rounds > 0:
            context.charge(
                "faults/retry-rounds",
                fault_rounds,
                stage="clique/emulation",
                messages=int(sources.shape[0]),
            )
    return CliqueEmulationResult(
        delivered=routing.delivered,
        num_messages=int(sources.shape[0]),
        num_phases=num_phases,
        rounds=rounds,
        routing=routing,
    )
