"""The paper's claims, checked against the committed EXPERIMENTS.md tables.

Each case reads one experiment's rows from the full ``paper`` bench
record (``benchmarks/results/paper.json``, the record EXPERIMENTS.md is
rendered from) and asserts the shape the paper predicts: delivery,
lemma bounds with small constants, and who wins where.  Nothing is
re-run here.  Every claim also holds at the quick sizes, so the same
checks run on ``paper.quick.json`` — the record ``repro bench --check``
re-runs — and both tiers must come from the same commit, so neither
can be re-recorded without the other.
"""

import math
import os

import pytest

from repro.analysis.report import SECTIONS, kernel_prefix
from repro.bench import baseline_path, load_record

_RESULTS = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "results"
)


def _record(quick):
    return load_record(
        baseline_path("paper", quick=quick, results_dir=_RESULTS)
    )


def _tables(quick):
    """Each experiment's table: its rows' metrics, in table order."""
    rows = _record(quick)["rows"]
    return {
        section["id"]: [
            row["metrics"]
            for row in rows
            if row["kernel"].startswith(kernel_prefix(section))
        ]
        for section in SECTIONS
    }


@pytest.fixture(scope="module")
def tables():
    return _tables(quick=False)


@pytest.fixture(scope="module")
def quick_tables():
    return _tables(quick=True)


def _by(rows, column):
    return {row[column]: row for row in rows}


def _delivered(rows, column="delivered"):
    assert all(row[column] == "yes" for row in rows)


def check_e1(rows):
    """Theorem 1.2: delivery everywhere; rounds grow slower than n^2.5."""
    _delivered(rows)
    first, last = rows[0], rows[-1]
    assert last["rounds"] / first["rounds"] < (last["n"] / first["n"]) ** 2.5


def check_e2(rows):
    """Theorem 1.1: MST equals Kruskal's in O(log n) Boruvka iterations."""
    _delivered(rows, "correct")
    for row in rows:
        assert row["iterations"] <= 8 * math.log2(row["n"])


def check_e3(rows):
    """Theorem 1.3 corollary: delivery; phases fall as p grows (1/p)."""
    _delivered(rows)
    phases = [row["phases"] for row in rows]
    assert phases == sorted(phases, reverse=True)


def check_e3b(rows):
    """Theorem 1.3, dense regime: rounds fall with density, under theory."""
    _delivered(rows)
    rounds = [row["rounds"] for row in rows]
    assert rounds == sorted(rounds, reverse=True)
    for row in rows:
        assert row["rounds"] <= row["theory n/h*logn*log*n"]


def check_e4(rows):
    """Lemma 2.3 holds on every family, loosest on the barbell."""
    for row in rows:
        assert 1 <= row["tau_bar measured"] <= row["lemma2.3 bound"]
    ratios = {row["family"]: row["bound/measured"] for row in rows}
    assert ratios["barbell(8)"] == max(ratios.values())


def check_e4b(rows):
    """tau_mix ~ n^alpha: ~2 on rings, ~1 on tori, near 0 on expanders."""
    alpha = {row["family"]: row["fitted alpha"] for row in rows}
    assert 1.7 < alpha["ring"] < 2.5
    assert 0.8 < alpha["torus"] < 1.5
    assert alpha["expander"] < 0.8
    assert alpha["expander"] < alpha["torus"] < alpha["ring"]


def check_e5(rows):
    """Lemmas 2.4/2.5 hold with O(1) constants; rounds grow with k."""
    for row in rows:
        assert row["rounds"] > 0
        assert row["load_ratio"] < 4.0
        assert row["rounds_ratio"] < 2.0
    assert rows[-1]["rounds"] > rows[0]["rounds"]


def check_e6(rows):
    """Lemma 3.2: depth shrinks with beta; beta = 2 costs >= 100x the
    best beta near beta*."""
    _delivered(rows)
    depths = [row["depth"] for row in rows]
    assert depths == sorted(depths, reverse=True)
    route = {row["beta"]: row["route_rounds"] for row in rows}
    near_optimum = min(
        cost
        for beta, cost in route.items()
        if beta >= rows[0]["beta*(n)"] // 4
    )
    assert near_optimum * 100 < route[2]


def check_e7(rows):
    """Lemma 3.4: <= 2^level invocations, O(log n) hops per invocation,
    O(log^2 n) emulation per level."""
    for row in rows:
        log_n = row["log^2 n"] ** 0.5
        assert row["invocations"] <= row["2^level"]
        if row["invocations"]:
            assert row["hop_rounds"] / row["invocations"] <= 2 * log_n
        if row["level"] > 0:
            assert row["emul_cost"] <= 150 * row["log^2 n"]


def check_e8(rows):
    """Lemma 4.1: tree depth O(log^2 n) and degree ratio O(log n)."""
    for row in rows:
        assert row["max_depth"] <= 2 * row["depth_bound log^2 n"]
        assert row["degree_ratio"] <= 2 * row["degree_bound log n"]


def check_e9(rows):
    """Figure 1: balanced parts (P1), full portal coverage, clique leaves."""
    for row in rows:
        assert row["balance"] < 6.0
        assert row["portal_coverage"] == 1.0
    assert rows[-1]["clique"] == "yes"


def check_e10(rows):
    """Lemma 3.3: portals near-uniform over the boundary (chi2/dof ~ 1)."""
    for row in rows:
        assert row["chi2_per_dof"] < 3.0
        assert row["support"] > 1


def check_e12(rows):
    """Correlated walks: same delivery, strictly cheaper schedules."""
    _delivered(rows)
    variant = _by(rows, "variant")
    correlated, independent = variant["correlated"], variant["independent"]
    assert correlated["g0_round_cost"] < independent["g0_round_cost"]
    assert correlated["route_rounds"] < independent["route_rounds"]


def check_e13(rows):
    """Stretch: max hops within 2^(d+1) - 1; deeper stretches more."""
    _delivered(rows)
    for row in rows:
        assert row["max_hops"] <= row["bound 2^(d+1)-1"]
        assert row["mean_hops"] >= 1.0
    by_depth = sorted(rows, key=lambda row: row["depth"])
    assert by_depth[0]["max_hops"] <= by_depth[-1]["max_hops"]


def check_e14(rows):
    """Crossover: measured c in (1, 6) and shrinking with n; c = 1
    crosses below 10^7; measured constants cross beyond 10^50."""
    measured = [r for r in rows if r["source"].startswith("measured")]
    constants = [row["envelope_c"] for row in measured]
    assert all(1.0 < value < 6.0 for value in constants)
    assert constants[-1] <= constants[0]
    ideal = _by(
        [r for r in rows if r["source"].startswith("idealized")],
        "envelope_c",
    )
    assert ideal[1.0]["crossover_n"] < 10**7
    for row in measured:
        assert row["crossover_n"] == "inf" or row["crossover_n"] > 10**50


def check_e15(rows):
    """Native vs charged: connected overlays, the charge a consistent
    upper bound of the same order."""
    _delivered(rows, "native_connected")
    ratios = [row["ratio"] for row in rows]
    assert all(0.1 < ratio <= 1.5 for ratio in ratios)
    assert max(ratios) - min(ratios) < 0.5


def check_e16(rows):
    """Presets: all deliver; the paper's constants cost > 3x the
    defaults; fast and correlated are cheaper than the defaults."""
    _delivered(rows)
    route = {row["preset"]: row["route_rounds"] for row in rows}
    assert route["paper"] > 3 * route["default"]
    assert route["fast"] < route["default"]
    assert route["default+correlated"] < route["default"]


CLAIMS = {
    "E1": check_e1,
    "E2/E11": check_e2,
    "E3": check_e3,
    "E3b": check_e3b,
    "E4": check_e4,
    "E4b": check_e4b,
    "E5": check_e5,
    "E6": check_e6,
    "E7": check_e7,
    "E8": check_e8,
    "E9": check_e9,
    "E10": check_e10,
    "E12": check_e12,
    "E13": check_e13,
    "E14": check_e14,
    "E15": check_e15,
    "E16": check_e16,
}


@pytest.mark.parametrize("experiment", [s["id"] for s in SECTIONS])
def test_paper_claim_holds(experiment, tables):
    assert experiment in CLAIMS, f"no claim check for {experiment}"
    assert tables[experiment], f"no {experiment} rows in paper.json"
    CLAIMS[experiment](tables[experiment])


@pytest.mark.parametrize("experiment", [s["id"] for s in SECTIONS])
def test_paper_claim_holds_at_quick_sizes(experiment, quick_tables):
    assert quick_tables[experiment], (
        f"no {experiment} rows in paper.quick.json"
    )
    CLAIMS[experiment](quick_tables[experiment])


def test_both_tiers_recorded_at_one_commit():
    # The quick tier is the one the bench gate re-runs; tying the full
    # tier to its commit keeps EXPERIMENTS.md's record from going stale
    # when only the quick tier is re-recorded.
    full, quick = (
        _record(tier)["meta"]["provenance"]["commit"]
        for tier in (False, True)
    )
    assert full == quick
