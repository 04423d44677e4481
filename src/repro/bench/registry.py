"""The suite table: every benchmark behind one front door.

Each :class:`Suite` pairs a runner from :mod:`repro.bench.suites` with
the :class:`~repro.bench.gate.GatePolicy` its committed baselines are
compared under.  Baselines live at ``benchmarks/results/<suite>.json``
(full tier) and ``benchmarks/results/<suite>.quick.json`` (the quick
tier ``repro bench --check`` gates against).  ``repro bench``
dispatches purely through :data:`SUITES`, so adding a benchmark means
adding a runner and a table entry — not a new script, flag, or
tripwire.

:func:`run_suite` is the one way to run a suite: it stamps the record
with its provenance (commit, python, numpy, core count).
:func:`check_suite` re-runs a quick tier at its baseline's own seed and
gates the two.
"""

from __future__ import annotations

import os
import platform
import subprocess
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from ..analysis.report import SECTIONS
from . import suites
from .gate import GatePolicy, GateResult, compare_records
from .schema import load_record, make_record

__all__ = [
    "SUITES",
    "Suite",
    "baseline_path",
    "check_suite",
    "default_results_dir",
    "get_suite",
    "run_suite",
]

#: Where committed baselines live, relative to the repo root.
RESULTS_DIR = os.path.join("benchmarks", "results")

#: The native embedded-build tripwire budget: 20% of the
#: pre-vectorization 27 s.
TRIPWIRE_BUDGET_S = 5.4

#: The native-open tripwire budget: about twice the array replay's
#: measured open, well below the ~4 s of the per-node simulator replay.
NATIVE_OPEN_BUDGET_S = 2.0

#: The warm-route tripwire budget: about twice the array router's
#: measured p50 request (2.1–3.3 ms on a shared 2-core host).
WARM_ROUTE_BUDGET_S = 0.006

#: Deterministic workload metrics the gate compares exactly (wall-clock
#: metrics are reported but never gated).
_WORKLOAD_EXACT_METRICS = (
    "requests",
    "served",
    "errors",
    "updates",
    "rebuilds",
    "total_rounds",
    "rounds_p50",
    "rounds_p95",
    "rounds_p99",
    "fault_rate",
    "offered_rate",
    "scenario",
    "mode",
)


@dataclass(frozen=True)
class Suite:
    """One registry entry.

    Attributes:
        name: registry key (the ``repro bench`` argument).
        title: one-line human description.
        runner: ``(seed, quick) -> serialized rows`` (dicts in the
            unified row shape).
        gate: the comparison policy for this suite's baselines.
    """

    name: str
    title: str
    runner: Callable[[int, bool], list[dict]]
    gate: GatePolicy = GatePolicy()


_WORKLOAD_GATE = GatePolicy(
    exact=("rounds",), exact_metrics=_WORKLOAD_EXACT_METRICS
)

#: The chaos suite additionally gates the governed/chaos counters —
#: all seed-deterministic under the virtual clock.  Time-to-recover
#: percentiles (``recover_s_p*``) are wall-clock: reported, never
#: gated.
_CHAOS_EXACT_METRICS = _WORKLOAD_EXACT_METRICS + (
    "goodput",
    "deadline_miss",
    "shed",
    "circuit_open",
    "timeouts",
    "retries",
    "breaker_trips",
    "kills",
    "recoveries",
    "corruptions",
    "truncations",
    "fault_windows",
)

_CHAOS_GATE = GatePolicy(
    exact=("rounds",), exact_metrics=_CHAOS_EXACT_METRICS
)


#: Every cell of every EXPERIMENTS.md table is seed-deterministic.
_PAPER_GATE = GatePolicy(
    exact=("rounds",),
    exact_metrics=tuple(
        sorted({column for s in SECTIONS for column in s["columns"]})
    ),
)


SUITES: dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            name="kernels",
            title="pinned kernel suite (walks, scheduler, simulator, "
            "native embedded build, end-to-end)",
            runner=suites.kernels,
        ),
        Suite(
            name="faults",
            title="fault-injection suite (clean vs drop=0.01 reliable "
            "forwarding)",
            runner=suites.faults,
        ),
        Suite(
            name="recovery",
            title="self-healing suite (detection, parking, re-homing, "
            "portal failover)",
            runner=suites.recovery,
        ),
        Suite(
            name="engine",
            title="large-n suite (embedded-path native G0 + level-1 "
            "builds)",
            runner=suites.engine,
        ),
        Suite(
            name="serve",
            title="session-layer suite (cold vs warm serving, build, "
            "cache-hit re-open)",
            runner=suites.serve,
        ),
        Suite(
            name="tripwire",
            title="wall-budget canaries (native embedded build n=256, "
            f"{TRIPWIRE_BUDGET_S}s; native open n=128, "
            f"{NATIVE_OPEN_BUDGET_S}s; warm route p50 n=512, "
            f"{WARM_ROUTE_BUDGET_S}s)",
            runner=suites.tripwire,
            gate=GatePolicy(
                exact=("rounds",),
                exact_metrics=("executed_rounds",),
                wall_budget_s={
                    "native_embedded_build": TRIPWIRE_BUDGET_S,
                    "native_open": NATIVE_OPEN_BUDGET_S,
                    "warm_route": WARM_ROUTE_BUDGET_S,
                },
            ),
        ),
        Suite(
            name="serve-soak",
            title="sustained open-loop soak with churn+faults over a "
            "warm session, both serving modes, fault-rate curve",
            runner=suites.soak,
            gate=_WORKLOAD_GATE,
        ),
        Suite(
            name="load-curve",
            title="throughput and sojourn latency vs offered load "
            "(open-loop hockey stick)",
            runner=suites.load_curve,
            gate=_WORKLOAD_GATE,
        ),
        Suite(
            name="chaos",
            title="resilience gate: kill/corrupt/truncate recovery, "
            "governed burst, mid-stream fault windows",
            runner=suites.chaos,
            gate=_CHAOS_GATE,
        ),
        Suite(
            name="paper",
            title="every EXPERIMENTS.md table (experiments E1-E16), one "
            "row per table row",
            runner=suites.paper,
            gate=_PAPER_GATE,
        ),
    )
}


def get_suite(name: str) -> Suite:
    """The registry entry for ``name``, or ``ValueError`` listing all."""
    try:
        return SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown bench suite {name!r}; choose from "
            f"{tuple(sorted(SUITES))}"
        ) from None


def default_results_dir(root: Optional[str] = None) -> str:
    """``<root>/benchmarks/results`` (root defaults to the cwd)."""
    return os.path.join(root or os.getcwd(), RESULTS_DIR)


def baseline_path(
    name: str, *, quick: bool, results_dir: Optional[str] = None
) -> str:
    """Where the committed baseline record for ``name`` lives."""
    get_suite(name)
    directory = (
        results_dir
        if results_dir is not None
        else default_results_dir()
    )
    stem = f"{name}.quick.json" if quick else f"{name}.json"
    return os.path.join(directory, stem)


def _provenance() -> dict[str, Any]:
    """Where a record was measured: commit, python, numpy, core count."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def run_suite(
    name: str, *, seed: int = 0, quick: bool = False
) -> dict[str, Any]:
    """Run one suite; return its v1 record, stamped with provenance."""
    suite = get_suite(name)
    return make_record(
        name,
        suite.runner(seed, quick),
        seed=seed,
        quick=quick,
        meta={"title": suite.title, "provenance": _provenance()},
    )


def check_suite(
    name: str, *, results_dir: Optional[str] = None
) -> GateResult:
    """Run ``name``'s quick tier and gate it against its baseline.

    The run uses the baseline record's own ``seed``, so the rows line
    up by construction.  A missing baseline is itself a failure (the
    gate cannot vouch for a suite nothing was committed for) — refresh
    with ``repro bench <suite> --quick``.
    """
    suite = get_suite(name)
    path = baseline_path(name, quick=True, results_dir=results_dir)
    if not os.path.exists(path):
        result = GateResult(suite=name)
        result.failures.append(
            f"no committed baseline at {path} — run "
            f"`repro bench {name} --quick` and commit the record"
        )
        return result
    baseline = load_record(path)
    current = run_suite(name, seed=baseline["seed"], quick=True)
    return compare_records(baseline, current, suite.gate)
