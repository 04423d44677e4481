"""Render EXPERIMENTS.md from the committed ``paper`` bench record.

:data:`SECTIONS` is the one table of the paper's experiments (DESIGN.md
§5).  Each entry names its runner in :mod:`repro.analysis.experiments`,
the arguments of its full and quick tiers, its table's column order, and
the claim and outcome text around the table.  The ``paper`` bench suite
(:func:`repro.bench.suites.paper`) runs every entry and records one row
per table row; :func:`build_report` renders that record back into
EXPERIMENTS.md without running anything::

    python -m repro bench paper   # re-run; writes benchmarks/results/paper.json
    python -m repro report        # render EXPERIMENTS.md from that record
"""

from __future__ import annotations

from typing import Any, Mapping

from . import experiments
from .tables import format_table

__all__ = ["SECTIONS", "build_report", "kernel_prefix"]

_HEADER = """\
# EXPERIMENTS — paper claims vs. measured behaviour

Generated by ``python -m repro report`` from ``benchmarks/results/paper.json``.  The paper (Ghaffari,
Kuhn, Su; PODC 2017) is a theory paper with no empirical tables — its
"results" are Theorems 1.1–1.3 and Lemmas 2.3–2.5 / 3.1–3.4 / 4.1, plus
the Figure 1 schematic.  Each experiment below reproduces one of those
claims as a measured quantity; the mapping and bench targets are in
DESIGN.md §5.

**Reading the absolute numbers.** All round counts are *honest* counts of
CONGEST rounds under the paper's own scheduling analysis, with congestion
*measured* on the real random processes (see DESIGN.md §4).  The
hierarchical algorithm's ``2^{O(sqrt(log n log log n))}`` factor hides
``(log n)^{Theta(k)}`` constants that dominate at simulable ``n``
(10^4–10^7 x tau_mix); its advantage over ``Omega(D + sqrt n)``
algorithms is asymptotic.  What is checkable at this scale — and checked
below — is every *structural* claim: delivery under the stated load
promise, the recursion shape, the lemma bounds with small constants, the
beta trade-off, and who wins/loses among the baselines on the families
where the paper predicts it.

Service-level behaviour — sustained open-loop workloads against a warm
session, latency percentiles, throughput-vs-fault-rate and
throughput-vs-offered-load curves — is recorded separately by the
benchmark registry (``python -m repro bench``, records under
``benchmarks/results/``); see docs/workloads.md.
"""

#: The paper's experiments, in report order.  ``experiment`` runs at
#: the keyword arguments of its ``full`` or ``quick`` tier (plus the
#: bench seed offset) and returns rows whose keys are ``columns``, in
#: order; ``claim`` and ``commentary`` frame its table.
SECTIONS: list[dict[str, Any]] = [
    {
        "id": "E1",
        "title": "Theorem 1.2 — permutation routing in almost mixing time",
        "experiment": experiments.routing_scaling,
        "full": {"sizes": (64, 128, 256)},
        "quick": {"sizes": (32, 64)},
        "columns": (
            "n", "tau_mix", "beta", "depth", "delivered", "rounds",
            "rounds/tau", "envelope(c=3)", "bfs_fwd_rounds",
        ),
        "claim": (
            "All packets delivered when each node is source/destination of "
            "at most ``d(v) * O(log n)`` packets, in "
            "``tau_mix * 2^{O(sqrt(log n log log n))}`` rounds."
        ),
        "commentary": (
            "Delivery holds on every instance. ``rounds/tau`` grows far "
            "slower than ``n`` (cf. the ``envelope`` column): doubling "
            "``n`` roughly doubles raw rounds while ``tau_mix`` also "
            "grows, keeping the normalized cost within the subpolynomial "
            "envelope's growth. The BFS store-and-forward baseline wins "
            "outright at these sizes — expected: the hierarchical "
            "scheme's polylog constants need large ``n`` to amortize, "
            "and the baseline needs global topology knowledge the "
            "CONGEST model does not grant."
        ),
    },
    {
        "id": "E2/E11",
        "title": "Theorem 1.1 — MST in almost mixing time, vs. the barrier",
        "experiment": experiments.mst_scaling,
        "full": {"sizes": (64, 128, 256)},
        "quick": {"sizes": (32, 64)},
        "columns": (
            "n", "tau_mix", "correct", "iterations", "rounds", "rounds/tau",
            "ghs_rounds", "gkp_rounds", "D+sqrt(n)",
        ),
        "claim": (
            "A Las Vegas MST in ``tau_mix * 2^{O(sqrt(log n log log n))}`` "
            "rounds; general-graph algorithms face the Das Sarma et al. "
            "``Omega(D + sqrt(n/log n))`` barrier."
        ),
        "commentary": (
            "The distributed MST equals Kruskal's on every instance and "
            "converges in ``O(log n)`` Boruvka iterations (coin-flip "
            "merging). Absolute rounds are constant-dominated as "
            "discussed above; the baselines' rounds grow with fragment "
            "diameters (GHS) and ``D + sqrt(n)`` (GKP), which are the "
            "curves the paper's asymptotic separation is measured "
            "against."
        ),
    },
    {
        "id": "E3",
        "title": "Theorem 1.3 corollary — clique emulation on G(n, p)",
        "experiment": experiments.clique_emulation_sweep,
        "full": {},
        "quick": {"n": 32},
        "columns": (
            "p", "n", "delivered", "phases", "rounds", "phases*tau",
            "balliu_rounds", "theory 1/p+logn", "balliu min{1/p^2,np}",
        ),
        "claim": (
            "``G(n, p)`` above the connectivity threshold emulates the "
            "congested clique in ``O(1/p + log n)`` rounds, improving "
            "Balliu et al.'s ``O(min{1/p^2, np})``."
        ),
        "commentary": (
            "The phase count (``phases`` column) tracks the ``1/p`` shape "
            "— halving ``p`` roughly doubles it — and all ``n(n-1)`` "
            "messages are always delivered. The two-hop-relay baseline "
            "matches its ``min{1/p^2, np}`` theory where it works but "
            "*fails outright* at the lower densities (no common "
            "neighbour for some pair), exactly the regime where the "
            "paper's routing-based emulation is needed."
        ),
    },
    {
        "id": "E3b",
        "title": "Theorem 1.3, second clause — the dense regime",
        "experiment": experiments.dense_regime_sweep,
        "full": {},
        "quick": {"n": 32},
        "columns": (
            "p", "n", "Delta", "delivered", "rounds", "retries",
            "theory n/h*logn*log*n", "balliu_rounds",
        ),
        "claim": (
            "When ``h(G) = Omega(Delta)`` and ``Delta >= n^{1/2+eps}``, "
            "clique emulation improves to ``O(n/h * log n * log* n)``."
        ),
        "commentary": (
            "The two-phase Valiant-style balancer delivers everything, "
            "with rounds dropping as density grows (the ``n/h`` term) "
            "and sitting far below the theory ceiling. Here the simple "
            "two-hop baseline is competitive — in the dense regime both "
            "approaches are near-optimal, which is exactly why the "
            "paper's hierarchy targets the sparse/expander regime."
        ),
    },
    {
        "id": "E4",
        "title": "Lemma 2.3 — Cheeger bound on the regular walk's mixing",
        "experiment": experiments.mixing_bound_survey,
        "full": {},
        "quick": {},
        "columns": (
            "family", "n", "h(G)", "Delta", "tau_bar measured",
            "lemma2.3 bound", "bound/measured",
        ),
        "claim": "``tau_bar_mix <= 8 * Delta^2 / h(G)^2 * ln n``.",
        "commentary": (
            "The bound holds on all five families, with slack growing as "
            "expansion worsens (loosest on the barbell, whose "
            "bottleneck drives ``h -> 0``) — the expected behaviour of a "
            "Cheeger-type square bound."
        ),
    },
    {
        "id": "E4b",
        "title": "Mixing-time scaling across families",
        "experiment": experiments.mixing_scaling,
        "full": {},
        "quick": {"sizes": (32, 64)},
        "columns": (
            "family", "n_small", "tau_small", "n_large", "tau_large",
            "fitted alpha", "theory alpha",
        ),
        "claim": (
            "``tau_mix`` is ``Theta(n^2)`` on rings, ``Theta(n)`` on "
            "tori, and polylog on expanders — the parameter regime that "
            "decides when mixing-time algorithms win."
        ),
        "commentary": (
            "Fitted exponents of ``tau_mix ~ n^alpha`` land at ~2.2 "
            "(ring), ~1.15 (torus), and ~0.4 (expander; a pure "
            "``log n`` looks like a small positive exponent at these "
            "sizes) — matching the theory columns and confirming the "
            "exact Definition 2.1 computation behaves across regimes."
        ),
    },
    {
        "id": "E5",
        "title": "Lemmas 2.4/2.5 — parallel walk load and scheduling",
        "experiment": experiments.parallel_walk_sweep,
        "full": {},
        "quick": {"n": 64},
        "columns": (
            "k", "walks", "steps", "peak_load", "lemma2.4 bound", "load_ratio",
            "rounds", "lemma2.5 bound", "rounds_ratio", "correlated_rounds",
            "kT lower bound",
        ),
        "claim": (
            "With ``k d(v)`` walks per node: per-step node load "
            "``O(k d(v) + log n)`` w.h.p., and ``T`` steps schedule in "
            "``O((k + log n) T)`` rounds."
        ),
        "commentary": (
            "Both measured/bound ratios stay ``O(1)`` (load within 1.5x, "
            "schedule *below* the bound with constant 1) across the "
            "``k`` sweep — the lemmas hold with small constants, which "
            "is what every other component's round accounting relies "
            "on."
        ),
    },
    {
        "id": "E6",
        "title": "Lemma 3.2 — hierarchy cost and the beta trade-off",
        "experiment": experiments.beta_ablation,
        "full": {"betas": (2, 4, 8, 16, 32)},
        "quick": {"n": 64},
        "columns": (
            "beta", "depth", "build_rounds", "route_rounds", "route_g0_rounds",
            "delivered", "beta*(n)",
        ),
        "claim": (
            "``k = log n / log beta`` levels, each level's round "
            "emulating in ``(log n)^{O(1)}`` lower-level rounds; total "
            "cost minimized at ``beta* = 2^{Theta(sqrt(log n log log "
            "n))}``."
        ),
        "commentary": (
            "The ablation is the clearest reproduction of the paper's "
            "parameter choice: ``beta = 2`` (4 levels) pays the "
            "compounding ``(log n)^{O(k)}`` emulation stack and is "
            "*orders of magnitude* worse than ``beta`` near the optimum "
            "(1 level at this ``n``), while oversized ``beta`` starts "
            "paying the ``beta^2`` portal term (visible in "
            "``build_rounds`` between 16 and 32)."
        ),
    },
    {
        "id": "E7",
        "title": "Lemma 3.4 — the routing recursion decomposition",
        "experiment": experiments.recursion_decomposition,
        "full": {},
        "quick": {"n": 64},
        "columns": (
            "level", "invocations", "2^level", "hop_rounds", "bottom_rounds",
            "packets_crossing", "emul_cost", "log^2 n",
        ),
        "claim": (
            "``T(m) = 2 T(m/beta) * O(log^2 n) + O(log n)``: invocations "
            "double per level, emulation multiplies by ``O(log^2 n)``, "
            "hops add ``O(log n)``."
        ),
        "commentary": (
            "Invocation counts are at most ``2^level`` (packets whose "
            "endpoints share a part skip the second recursion), hop "
            "phases cost only a few rounds each (the boundary-edge "
            "density argument of Lemma 3.4), and per-level emulation "
            "factors sit at a small multiple of ``log^2 n``."
        ),
    },
    {
        "id": "E8",
        "title": "Lemma 4.1 — virtual-tree invariants across Boruvka",
        "experiment": experiments.virtual_tree_trace,
        "full": {},
        "quick": {"n": 32},
        "columns": (
            "iteration", "components", "max_depth", "depth_bound log^2 n",
            "degree_ratio", "degree_bound log n", "upcast_steps",
        ),
        "claim": (
            "Across all merges: tree depth ``O(log^2 n)``, virtual degree "
            "``d(v) * O(log n)``, parents always known."
        ),
        "commentary": (
            "Depth stays well under ``log^2 n`` for the whole run (the "
            "token-balancing pass caps the growth at ``O(log n)`` per "
            "iteration) and the worst degree ratio stays below 1 — far "
            "inside the ``O(log n)`` budget."
        ),
    },
    {
        "id": "E9",
        "title": "Figure 1 — structure of the hierarchical partition",
        "experiment": experiments.partition_structure,
        "full": {},
        "quick": {"n": 64},
        "columns": (
            "level", "parts", "min_part", "max_part", "balance",
            "portal_coverage", "clique",
        ),
        "claim": (
            "Nested ``beta``-ary parts of near-equal size (P1) whose "
            "labels any node can compute (P2), with portals between all "
            "sibling pairs."
        ),
        "commentary": (
            "Balance ratios stay below 2 at every level (the "
            "``Theta(log n)``-wise hash behaves like a fully random "
            "one), portal coverage is 100%, and the bottom level is the "
            "complete graph per part — Figure 1, measured."
        ),
    },
    {
        "id": "E10",
        "title": "Lemma 3.3 — portal discovery cost and uniformity",
        "experiment": experiments.portal_uniformity,
        "full": {},
        "quick": {"n": 32},
        "columns": (
            "variant", "samples", "support", "max_count", "chi2_per_dof",
        ),
        "claim": (
            "Portals added in ``O(beta^2 log n)`` rounds per level, each "
            "uniform over the boundary nodes towards the target part."
        ),
        "commentary": (
            "The faithful walk-based discovery and the sampling fast "
            "path produce statistically indistinguishable portal "
            "distributions (``chi2/dof`` near 1 for both), validating "
            "the fast path used by default (DESIGN.md §4.3)."
        ),
    },
    {
        "id": "E13",
        "title": "Routing stretch — per-packet hop counts",
        "experiment": experiments.stretch_profile,
        "full": {},
        "quick": {"n": 64},
        "columns": (
            "beta", "depth", "delivered", "mean_hops", "max_hops",
            "bound 2^(d+1)-1",
        ),
        "claim": (
            "Each recursion level adds at most one portal hop per stage; "
            "a packet's overlay journey is bounded by ``2^{depth+1} - 1`` "
            "hops (the branching of Lemma 3.4's recursion)."
        ),
        "commentary": (
            "Measured maxima sit exactly at or below the bound at every "
            "beta/depth, and mean hops stay close to the max — packets "
            "crossing at the top level really do pay the full doubling, "
            "which is where the ``2^{O(sqrt(log n log log n))}`` stretch "
            "comes from."
        ),
    },
    {
        "id": "E14",
        "title": "Crossover analysis — how asymptotic is the advantage?",
        "experiment": experiments.crossover_analysis,
        "full": {},
        "quick": {"sizes": (32, 64)},
        "columns": (
            "source", "envelope_c", "crossover_n",
        ),
        "claim": (
            "On polylog-mixing expanders the paper's bound "
            "``tau_mix * 2^{c sqrt(log n loglog n)}`` eventually "
            "undercuts the general-graph ``tilde-Theta(D + sqrt n)``; "
            "the crossover point is set by the constant ``c``."
        ),
        "commentary": (
            "Fitting ``c`` from the measured runs gives ``c ~ 3.3`` for "
            "this implementation's constants, putting the crossover near "
            "``n ~ 10^{111}`` — while an idealized ``c = 1`` would cross "
            "at ``n ~ 1.3 * 10^5``. This quantifies exactly how much of "
            "the theorem's value is asymptotic and how sensitive the "
            "practical story is to the hidden constants, which is the "
            "honest headline of this reproduction."
        ),
    },
    {
        "id": "E12",
        "title": "Correlated walks — the deferred k = o(log n) refinement",
        "experiment": experiments.correlated_ablation,
        "full": {},
        "quick": {"n": 64},
        "columns": (
            "variant", "g0_build", "g0_round_cost", "route_rounds",
            "delivered",
        ),
        "claim": (
            "For ``k = o(log n)`` walks per degree, correlated scheduling "
            "removes the additive ``log n`` of Lemma 2.5 (details "
            "deferred to the paper's full version)."
        ),
        "commentary": (
            "Token-balanced dealing (see repro.walks.correlated) keeps "
            "each token's marginal law a lazy walk while making per-edge "
            "loads near-deterministic: the measured G0 emulation cost "
            "and the end-to-end routing cost both drop by roughly 1.5-2x "
            "at these sizes, with delivery unaffected."
        ),
    },
    {
        "id": "E15",
        "title": "Native execution vs. charged rounds (fidelity closure)",
        "experiment": experiments.native_fidelity,
        "full": {},
        "quick": {"sizes": (16, 20)},
        "columns": (
            "n", "tau_mix", "native_round", "charged_round", "ratio",
            "native_build", "charged_build", "native_connected",
        ),
        "claim": (
            "The library's charged G0-round costs stand in for a real "
            "distributed execution: messages travel the embedded walk "
            "paths under per-edge capacity."
        ),
        "commentary": (
            "``native_build`` is executed, not modelled: the "
            "construction walks are replayed as messages, forward and "
            "then back to their origins, by the same walk executor the "
            "native backend runs. Both builds sample the same walk batch "
            "from the same seed, so the executed build equals the "
            "Lemma 2.5 charge (forward plus reverse) exactly. One native "
            "G0 round (store-and-forward along the kept edges' embedded "
            "paths) costs 0.43-0.50 of the charged round: the native "
            "round pipelines packets across hops, while the charge puts "
            "a barrier after every walk step. The charge is a "
            "consistent upper bound of the same order, which is what "
            "licenses the accounting at sizes where the native "
            "pipeline is too slow."
        ),
    },
    {
        "id": "E16",
        "title": "Constants presets — what the paper's literal values cost",
        "experiment": experiments.preset_ablation,
        "full": {},
        "quick": {"n": 32},
        "columns": (
            "preset", "g0_degree", "build_rounds", "route_rounds", "delivered",
        ),
        "claim": (
            "The paper's constants (200 log n walks per virtual node, "
            "100 log n overlay degree, ...) are sized for asymptotic "
            "w.h.p. guarantees; any faithful implementation must scale "
            "them to run at finite n (DESIGN.md §4.4)."
        ),
        "commentary": (
            "All four presets deliver every packet. The literal paper "
            "constants cost ~8-10x the calibrated defaults at n = 64 "
            "(and grow worse with n), while the fast preset and the "
            "correlated refinement each roughly halve the default's "
            "cost — the whole spread is constants, not correctness, "
            "which is precisely why the defaults are legitimate."
        ),
    },
]


def kernel_prefix(section: Mapping[str, Any]) -> str:
    """The kernel prefix of a section's bench rows.

    A table row is recorded under ``<id>/<first column>=<value>``, e.g.
    ``E6/beta=8``; every table's first column tells its rows apart.
    """
    return f"{section['id']}/{section['columns'][0]}="


def build_report(record: Mapping[str, Any]) -> str:
    """EXPERIMENTS.md rendered from a ``paper`` bench record.

    Raises ``ValueError`` if a section has no rows in ``record`` or a
    row belongs to no section: the record and :data:`SECTIONS` must
    describe the same experiments.
    """
    rows = record["rows"]
    parts = [_HEADER]
    rendered = 0
    for section in SECTIONS:
        prefix = kernel_prefix(section)
        table = [
            row["metrics"] for row in rows if row["kernel"].startswith(prefix)
        ]
        if not table:
            raise ValueError(
                f"the paper record has no {section['id']} rows; re-record "
                "it with `repro bench paper`"
            )
        rendered += len(table)
        parts.append(f"## {section['id']}: {section['title']}\n")
        parts.append(f"**Paper claim.** {section['claim']}\n")
        parts.append("```")
        parts.append(format_table(table, columns=section["columns"]))
        parts.append("```\n")
        parts.append(f"**Outcome.** {section['commentary']}\n")
    if rendered != len(rows):
        raise ValueError(
            f"the paper record holds {len(rows) - rendered} row(s) of no "
            "section in repro.analysis.report.SECTIONS"
        )
    return "\n".join(parts)
