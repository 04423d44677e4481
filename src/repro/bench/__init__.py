"""Unified benchmark registry, record schema, and regression gate.

One front door for every benchmark in the repo:

* :mod:`repro.bench.schema` — the versioned ``repro-bench/v1`` JSON
  record every suite writes and the loader that validates it;
* :mod:`repro.bench.gate` — the uniform regression gate: exact
  comparison of seed-deterministic columns, row coverage, and absolute
  wall budgets;
* :mod:`repro.bench.suites` — every suite runner, each returning v1
  rows (kernels, faults, recovery, engine, serve, tripwire, serve-soak,
  load-curve, chaos);
* :mod:`repro.bench.registry` — the suite table behind
  ``repro bench SUITE [--check] [--quick]``, and :func:`run_suite`,
  the one way to run a suite.

Committed baselines live under ``benchmarks/results/`` — ``<suite>.json``
for the full tier, ``<suite>.quick.json`` for the quick tier CI gates
against.  Every record ``run_suite`` writes carries ``meta.provenance``
(commit, python, numpy, core count).  See ``docs/performance.md`` and
``docs/workloads.md``.
"""

from .gate import GatePolicy, GateResult, compare_records
from .registry import (
    SUITES,
    TRIPWIRE_BUDGET_S,
    Suite,
    baseline_path,
    check_suite,
    default_results_dir,
    get_suite,
    run_suite,
)
from .schema import (
    ROW_KEYS,
    SCHEMA_VERSION,
    load_record,
    make_record,
    validate_record,
    write_record,
)

__all__ = [
    "ROW_KEYS",
    "SCHEMA_VERSION",
    "SUITES",
    "TRIPWIRE_BUDGET_S",
    "GatePolicy",
    "GateResult",
    "Suite",
    "baseline_path",
    "check_suite",
    "compare_records",
    "default_results_dir",
    "get_suite",
    "load_record",
    "make_record",
    "run_suite",
    "validate_record",
    "write_record",
]
