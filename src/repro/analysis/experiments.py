"""Experiment runners for the E1–E16 reproduction suite (see DESIGN.md §5).

Each function returns a list of row dicts, one per table row.  The
section table :data:`repro.analysis.report.SECTIONS` lists them with
their full and quick arguments; the ``paper`` bench suite runs them and
EXPERIMENTS.md is rendered from its record.  The paper is a theory
paper, so every experiment reproduces a theorem/lemma-shaped claim
rather than a testbed number.
"""

from __future__ import annotations

import math

import numpy as np

from .. import theory
from ..baselines import (
    bfs_store_and_forward,
    ghs_mst,
    gkp_mst,
    kruskal,
    two_hop_relay_emulation,
)
from ..core import (
    MstRunner,
    Router,
    build_hierarchy,
    dense_clique_emulation,
    emulate_clique,
)
from ..graphs import (
    barbell_graph,
    erdos_renyi,
    grid_torus,
    hypercube,
    random_regular,
    ring_graph,
    with_random_weights,
)
from ..graphs.properties import edge_expansion_exact, regular_mixing_time
from ..params import Params
from ..rng import derive_rng
from ..walks import (
    degree_proportional_starts,
    run_correlated_walks,
    run_parallel_walks,
)

__all__ = [
    "routing_scaling",
    "mst_scaling",
    "clique_emulation_sweep",
    "dense_regime_sweep",
    "mixing_bound_survey",
    "mixing_scaling",
    "parallel_walk_sweep",
    "beta_ablation",
    "recursion_decomposition",
    "virtual_tree_trace",
    "partition_structure",
    "portal_uniformity",
    "correlated_ablation",
    "stretch_profile",
    "crossover_analysis",
    "native_fidelity",
    "preset_ablation",
]


def _expander(n: int, rng: np.random.Generator):
    degree = 6 if n <= 256 else 8
    return random_regular(n, degree, rng)


def routing_scaling(
    sizes=(64, 128, 256),
    params: Params | None = None,
    seed: int = 1,
    include_baseline: bool = True,
) -> list[dict]:
    """E1: permutation-routing rounds vs. n on expanders (Theorem 1.2)."""
    params = params or Params.default()
    rows = []
    for n in sizes:
        rng = derive_rng(seed + n)
        graph = _expander(n, rng)
        hierarchy = build_hierarchy(graph, params, rng)
        router = Router(hierarchy, params=params, rng=rng)
        perm = rng.permutation(n)
        result = router.route(np.arange(n), perm)
        row = {
            "n": n,
            "tau_mix": hierarchy.g0.tau_mix,
            "beta": hierarchy.beta,
            "depth": hierarchy.depth,
            "delivered": result.delivered,
            "rounds": result.cost_rounds,
            "rounds/tau": result.cost_rounds / hierarchy.g0.tau_mix,
            "envelope(c=3)": theory.subpolynomial_envelope(n, c=3.0),
        }
        if include_baseline:
            baseline = bfs_store_and_forward(graph, np.arange(n), perm, rng)
            row["bfs_fwd_rounds"] = baseline.rounds
        rows.append(row)
    return rows


def mst_scaling(
    sizes=(64, 128, 256),
    params: Params | None = None,
    seed: int = 2,
) -> list[dict]:
    """E2 + E11: MST rounds vs. n, against GHS / GKP / the barrier curve."""
    params = params or Params.default()
    rows = []
    for n in sizes:
        rng = derive_rng(seed + n)
        graph = with_random_weights(_expander(n, rng), rng)
        hierarchy = build_hierarchy(graph, params, rng)
        runner = MstRunner(graph, hierarchy=hierarchy, params=params, rng=rng)
        result = runner.run()
        correct = result.edge_ids == kruskal(graph)
        diameter = graph.diameter()
        rows.append(
            {
                "n": n,
                "tau_mix": hierarchy.g0.tau_mix,
                "correct": correct,
                "iterations": result.num_iterations,
                "rounds": result.rounds,
                "rounds/tau": result.rounds / hierarchy.g0.tau_mix,
                "ghs_rounds": ghs_mst(graph).rounds,
                "gkp_rounds": gkp_mst(graph).rounds,
                "D+sqrt(n)": theory.das_sarma_lower_bound(n, diameter),
            }
        )
    return rows


def clique_emulation_sweep(
    n: int = 48,
    probabilities=(0.2, 0.3, 0.45, 0.65),
    params: Params | None = None,
    seed: int = 3,
) -> list[dict]:
    """E3: clique emulation on G(n, p) vs. the Balliu baseline."""
    params = params or Params.default()
    rows = []
    for p in probabilities:
        rng = derive_rng(seed)
        graph = erdos_renyi(n, p, rng)
        hierarchy = build_hierarchy(graph, params, rng)
        ours = emulate_clique(hierarchy, params, rng)
        baseline = two_hop_relay_emulation(graph, rng)
        rows.append(
            {
                "p": p,
                "n": n,
                "delivered": ours.delivered,
                "phases": ours.num_phases,
                "rounds": ours.rounds,
                "phases*tau": ours.num_phases * hierarchy.g0.tau_mix,
                "balliu_rounds": baseline.rounds
                if baseline.delivered
                else float("inf"),
                "theory 1/p+logn": theory.clique_emulation_er_bound(n, p),
                "balliu min{1/p^2,np}": theory.balliu_emulation_bound(n, p),
            }
        )
    return rows


def dense_regime_sweep(
    n: int = 64,
    probabilities=(0.35, 0.5, 0.65, 0.8),
    seed: int = 11,
) -> list[dict]:
    """E3b: the dense-regime emulation (Theorem 1.3, second clause)."""
    rows = []
    for p in probabilities:
        rng = derive_rng(seed)
        graph = erdos_renyi(n, p, rng)
        result = dense_clique_emulation(graph, rng)
        baseline = two_hop_relay_emulation(graph, rng)
        h_estimate = n * p / 2.0  # h = Theta(np) w.h.p. in this regime
        rows.append(
            {
                "p": p,
                "n": n,
                "Delta": graph.max_degree,
                "delivered": result.delivered,
                "rounds": result.rounds,
                "retries": result.retries,
                "theory n/h*logn*log*n": theory.clique_emulation_bound(
                    n, h_estimate, graph.max_degree
                ),
                "balliu_rounds": baseline.rounds
                if baseline.delivered
                else float("inf"),
            }
        )
    return rows


def mixing_bound_survey(seed: int = 4) -> list[dict]:
    """E4: exact regular-walk mixing time vs. the Lemma 2.3 bound."""
    rng = derive_rng(seed)
    families = {
        "ring(16)": ring_graph(16),
        "torus(4x4)": grid_torus(4, 4),
        "hypercube(4)": hypercube(4),
        "expander(16,4)": random_regular(16, 4, rng),
        "barbell(8)": barbell_graph(8),
    }
    rows = []
    for name, graph in families.items():
        h = edge_expansion_exact(graph)
        measured = regular_mixing_time(graph)
        bound = theory.cheeger_mixing_bound(
            graph.max_degree, h, graph.num_nodes
        )
        rows.append(
            {
                "family": name,
                "n": graph.num_nodes,
                "h(G)": h,
                "Delta": graph.max_degree,
                "tau_bar measured": measured,
                "lemma2.3 bound": bound,
                "bound/measured": bound / measured,
            }
        )
    return rows


def mixing_scaling(
    sizes=(32, 64, 128, 256),
    seed: int = 15,
) -> list[dict]:
    """E4b: mixing-time scaling per family, with fitted exponents.

    The families bracket the paper's regime: rings mix in ``Theta(n^2)``,
    tori in ``Theta(n)``, expanders in ``O(log n)`` — the fitted exponent
    of ``tau_mix ~ n^alpha`` separates them cleanly and identifies where
    ``tau_mix``-parameterized algorithms are worthwhile.
    """
    from ..graphs import grid_torus, mixing_time, random_regular, ring_graph
    from .fits import power_law_exponent

    rng = derive_rng(seed)
    families = {
        "ring": lambda n: ring_graph(n),
        "torus": lambda n: grid_torus(
            int(round(math.sqrt(n))), int(round(math.sqrt(n)))
        ),
        "expander": lambda n: random_regular(n, 6, rng),
    }
    rows = []
    for name, factory in families.items():
        ns, taus = [], []
        for n in sizes:
            graph = factory(n)
            ns.append(graph.num_nodes)
            taus.append(mixing_time(graph))
        alpha, __ = power_law_exponent(ns, taus)
        rows.append(
            {
                "family": name,
                "n_small": ns[0],
                "tau_small": taus[0],
                "n_large": ns[-1],
                "tau_large": taus[-1],
                "fitted alpha": alpha,
                "theory alpha": {"ring": 2.0, "torus": 1.0,
                                 "expander": 0.0}[name],
            }
        )
    return rows


def parallel_walk_sweep(
    n: int = 128,
    ks=(1, 2, 4, 8),
    steps: int = 20,
    seed: int = 5,
) -> list[dict]:
    """E5: measured parallel-walk load and schedule vs. Lemmas 2.4 / 2.5."""
    rng = derive_rng(seed)
    graph = random_regular(n, 6, rng)
    rows = []
    for k in ks:
        starts = degree_proportional_starts(graph, k)
        report = run_parallel_walks(graph, starts, steps, rng)
        correlated = run_correlated_walks(graph, starts, steps, rng)
        rows.append(
            {
                "k": k,
                "walks": report.run.num_walks,
                "steps": steps,
                "peak_load": report.measured_peak_load,
                "lemma2.4 bound": report.predicted_peak_load,
                "load_ratio": report.load_ratio,
                "rounds": report.measured_rounds,
                "lemma2.5 bound": report.predicted_rounds,
                "rounds_ratio": report.rounds_ratio,
                "correlated_rounds": correlated.schedule_rounds(),
                "kT lower bound": k * steps,
            }
        )
    return rows


def beta_ablation(
    n: int = 128,
    betas=(2, 4, 8, 16, 32),
    params: Params | None = None,
    seed: int = 6,
) -> list[dict]:
    """E6: the beta trade-off (Lemma 3.2) — construction vs. routing cost."""
    params = params or Params.default()
    base_rng = derive_rng(seed)
    graph = _expander(n, base_rng)
    rows = []
    for beta in betas:
        rng = derive_rng(seed + beta)
        hierarchy = build_hierarchy(graph, params, rng, beta=beta)
        router = Router(hierarchy, params=params, rng=rng)
        perm = rng.permutation(n)
        result = router.route(np.arange(n), perm)
        rows.append(
            {
                "beta": beta,
                "depth": hierarchy.depth,
                "build_rounds": hierarchy.construction_rounds(),
                "route_rounds": result.cost_rounds,
                "route_g0_rounds": result.cost_g0_rounds,
                "delivered": result.delivered,
                "beta*(n)": theory.optimal_beta(n),
            }
        )
    return rows


def recursion_decomposition(
    n: int = 128,
    beta: int = 4,
    params: Params | None = None,
    seed: int = 7,
) -> list[dict]:
    """E7: per-level cost decomposition of one routing instance (Lemma 3.4)."""
    params = params or Params.default()
    rng = derive_rng(seed)
    graph = _expander(n, rng)
    hierarchy = build_hierarchy(graph, params, rng, beta=beta)
    router = Router(hierarchy, params=params, rng=rng)
    perm = rng.permutation(n)
    result = router.route(np.arange(n), perm)
    log_n = math.log2(n)
    rows = []
    for level in sorted(result.level_costs):
        cost = result.level_costs[level]
        emulation = (
            hierarchy.levels[level - 1].emulation_cost if level >= 1 else
            hierarchy.g0.round_cost
        )
        rows.append(
            {
                "level": level,
                "invocations": cost.invocations,
                "2^level": 2**level,
                "hop_rounds": cost.hop_rounds,
                "bottom_rounds": cost.bottom_rounds,
                "packets_crossing": cost.packets_crossing,
                "emul_cost": emulation,
                "log^2 n": log_n**2,
            }
        )
    return rows


def virtual_tree_trace(
    n: int = 64,
    params: Params | None = None,
    seed: int = 8,
) -> list[dict]:
    """E8: Lemma 4.1 invariants (depth, degree) over Boruvka iterations."""
    params = params or Params.default()
    rng = derive_rng(seed)
    graph = with_random_weights(_expander(n, rng), rng)
    runner = MstRunner(graph, params=params, rng=rng)
    result = runner.run()
    log_n = math.log2(n)
    rows = []
    for stats in result.iterations:
        rows.append(
            {
                "iteration": stats.iteration,
                "components": stats.components_before,
                "max_depth": stats.max_tree_depth,
                "depth_bound log^2 n": log_n**2,
                "degree_ratio": stats.max_tree_degree_ratio,
                "degree_bound log n": log_n,
                "upcast_steps": stats.upcast_steps,
            }
        )
    return rows


def partition_structure(
    n: int = 128,
    beta: int = 4,
    params: Params | None = None,
    seed: int = 9,
) -> list[dict]:
    """E9: Figure 1's structure — balance (P1) and portal coverage per level."""
    params = params or Params.default()
    rng = derive_rng(seed)
    graph = _expander(n, rng)
    hierarchy = build_hierarchy(graph, params, rng, beta=beta)
    from ..core import build_portals

    portals = build_portals(hierarchy, params, rng)
    rows = []
    for level in range(1, hierarchy.depth + 1):
        sizes = hierarchy.partition.part_sizes(level)
        table = portals.tables[level - 1]
        parts = hierarchy.parts_at(level)
        own = parts % hierarchy.beta
        needed = covered = 0
        for j in range(hierarchy.beta):
            mask = own != j
            needed += int(mask.sum())
            covered += int((table[mask, j] >= 0).sum())
        rows.append(
            {
                "level": level,
                "parts": int(sizes.shape[0]),
                "min_part": int(sizes.min()),
                "max_part": int(sizes.max()),
                "balance": hierarchy.partition.balance_ratio(level),
                "portal_coverage": covered / max(1, needed),
                "clique": hierarchy.levels[level - 1].is_clique,
            }
        )
    return rows


def portal_uniformity(
    n: int = 64,
    params: Params | None = None,
    seed: int = 10,
) -> list[dict]:
    """E10: portals are ~uniform over boundary nodes (walk vs. sampled)."""
    base_params = params or Params.default()
    rng = derive_rng(seed)
    graph = _expander(n, rng)
    hierarchy = build_hierarchy(graph, base_params, rng, beta=4)
    from ..core import build_portals

    rows = []
    for variant, overrides in (
        ("sampled", {}),
        ("walk", {"use_walk_portals": True, "portal_walks_factor": 6.0}),
    ):
        portals = build_portals(
            hierarchy, base_params.with_overrides(**overrides), rng
        )
        table = portals.tables[0]
        parts = hierarchy.parts_at(1)
        part0 = int(parts[0])
        members = np.flatnonzero(parts == part0)
        target = (part0 % hierarchy.beta + 1) % hierarchy.beta
        choices = table[members, target]
        choices = choices[choices >= 0]
        values, counts = np.unique(choices, return_counts=True)
        expected = choices.shape[0] / max(1, values.shape[0])
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        rows.append(
            {
                "variant": variant,
                "samples": int(choices.shape[0]),
                "support": int(values.shape[0]),
                "max_count": int(counts.max()),
                "chi2_per_dof": chi2 / max(1, values.shape[0] - 1),
            }
        )
    return rows


def correlated_ablation(
    n: int = 96,
    params: Params | None = None,
    seed: int = 12,
) -> list[dict]:
    """E12: independent vs. correlated walk scheduling, end to end.

    The paper's deferred ``k = o(log n)`` refinement: running the
    construction and preparation walks token-balanced removes the
    additive ``log n`` from every Lemma 2.5 schedule.
    """
    base = params or Params.default()
    rng = derive_rng(seed)
    graph = _expander(n, rng)
    rows = []
    for variant, correlated in (("independent", False), ("correlated", True)):
        local_params = base.with_overrides(use_correlated_walks=correlated)
        hierarchy = build_hierarchy(
            graph, local_params, derive_rng(seed + 1)
        )
        router = Router(
            hierarchy, params=local_params, rng=derive_rng(seed + 2)
        )
        perm = derive_rng(seed + 3).permutation(n)
        result = router.route(np.arange(n), perm)
        rows.append(
            {
                "variant": variant,
                "g0_build": hierarchy.g0.build_rounds,
                "g0_round_cost": hierarchy.g0.round_cost,
                "route_rounds": result.cost_rounds,
                "delivered": result.delivered,
            }
        )
    return rows


def stretch_profile(
    n: int = 128,
    betas=(4, 8, 32),
    params: Params | None = None,
    seed: int = 13,
) -> list[dict]:
    """E13: per-packet hop counts (routing stretch) vs. the depth bound.

    A packet's journey uses at most one portal hop per level per stage
    plus one bottom delivery per visited leaf: ``2^{depth+1} - 1`` hops
    in the worst case (the ``2 T(m/beta)`` branching of Lemma 3.4).
    """
    params = params or Params.default()
    rng = derive_rng(seed)
    graph = _expander(n, rng)
    rows = []
    for beta in betas:
        local_rng = derive_rng(seed + beta)
        hierarchy = build_hierarchy(graph, params, local_rng, beta=beta)
        router = Router(hierarchy, params=params, rng=local_rng)
        perm = local_rng.permutation(n)
        result = router.route(np.arange(n), perm, trace=True)
        hops = result.packet_hops
        rows.append(
            {
                "beta": beta,
                "depth": hierarchy.depth,
                "delivered": result.delivered,
                "mean_hops": float(hops.mean()),
                "max_hops": int(hops.max()),
                "bound 2^(d+1)-1": 2 ** (hierarchy.depth + 1) - 1,
            }
        )
    return rows


def crossover_analysis(
    sizes=(64, 128, 256),
    params: Params | None = None,
    seed: int = 14,
) -> list[dict]:
    """E14: where would the paper's algorithm overtake D + sqrt(n)?

    Fits the envelope constant ``c`` in ``rounds/tau = 2^{c sqrt(log n
    loglog n)}`` from measured routing runs, then solves for the smallest
    ``n`` where ``2^{c sqrt(log n loglog n)}`` drops below ``sqrt(n)`` —
    the crossover against the ``tilde-Theta(D + sqrt n)`` general-graph
    algorithms on polylog-mixing expanders.  Also reports idealized
    constants for context.
    """
    rows_measured = routing_scaling(
        sizes=sizes, params=params, seed=seed, include_baseline=False
    )
    rows = []
    for row in rows_measured:
        c = theory.fitted_envelope_constant(row["n"], row["rounds/tau"])
        crossover = theory.crossover_n(c)
        rows.append(
            {
                "source": f"measured n={row['n']}",
                "envelope_c": c,
                "crossover_n": crossover
                if crossover is not None
                else float("inf"),
            }
        )
    for c in (1.0, 2.0, 3.0):
        crossover = theory.crossover_n(c)
        rows.append(
            {
                "source": f"idealized c={c:g}",
                "envelope_c": c,
                "crossover_n": crossover
                if crossover is not None
                else float("inf"),
            }
        )
    return rows


def native_fidelity(
    sizes=(16, 20, 24),
    seed: int = 16,
) -> list[dict]:
    """E15: CONGEST-native G0 vs. the vectorized calibration.

    Builds the level-zero overlay twice at toy scale from the same
    seed: once natively (``repro.congest.build_native_g0``: the walk
    batch executed as messages forward and back, overlay edges kept as
    embedded paths), once through the vectorized pipeline.
    ``native_build`` is the executed Lemma 2.5 schedule of both passes,
    ``charged_build`` what ``build_g0`` charges for them;
    ``native_round`` is one store-and-forward delivery along the
    embedded paths, ``charged_round`` the per-step-barrier charge.
    """
    from ..congest.native import build_native_g0
    from ..graphs import mixing_time, random_regular
    from .. import core

    rows = []
    for n in sizes:
        rng = derive_rng(seed + n)
        graph = random_regular(n, 4, rng)
        tau = mixing_time(graph)
        walks = max(8, int(round(3 * math.log2(n))))
        degree = max(4, int(round(1.5 * math.log2(n))))
        native = build_native_g0(
            graph, walks_per_vnode=walks, degree=degree,
            length=2 * tau, seed=seed + n,
        )
        params = Params.default().with_overrides(
            g0_walks_per_vnode_factor=walks / math.log2(n),
            g0_degree_factor=degree / math.log2(n),
        )
        reference = core.build_g0(
            graph, params, derive_rng(seed + n), tau_mix=tau
        )
        rows.append(
            {
                "n": n,
                "tau_mix": tau,
                "native_round": native.round_rounds,
                "charged_round": reference.round_cost,
                "ratio": native.round_rounds / reference.round_cost,
                "native_build": native.build_rounds,
                "charged_build": reference.build_rounds,
                "native_connected": native.overlay.is_connected(),
            }
        )
    return rows


def preset_ablation(
    n: int = 64,
    seed: int = 17,
) -> list[dict]:
    """E16: the Params presets, end to end on one graph.

    ``paper()`` uses the literal constants (feasible only at toy n),
    ``default()`` the calibrated ones, ``fast()`` the benchmark-sweep
    ones, and ``correlated`` adds the deferred walk refinement.  All must
    deliver; the cost spread quantifies what the constants buy.
    """
    rng = derive_rng(seed)
    graph = _expander(n, rng)
    presets = [
        ("fast", Params.fast()),
        ("default", Params.default()),
        ("default+correlated",
         Params.default().with_overrides(use_correlated_walks=True)),
        ("paper", Params.paper()),
    ]
    rows = []
    for name, preset in presets:
        local = derive_rng(seed + 1)
        hierarchy = build_hierarchy(graph, preset, local)
        router = Router(hierarchy, params=preset, rng=local)
        perm = derive_rng(seed + 2).permutation(n)
        result = router.route(np.arange(n), perm)
        rows.append(
            {
                "preset": name,
                "g0_degree": float(hierarchy.g0.overlay.degrees.mean()),
                "build_rounds": hierarchy.construction_rounds(),
                "route_rounds": result.cost_rounds,
                "delivered": result.delivered,
            }
        )
    return rows
