"""Open-loop workload engine over the session layer.

The paper's economics — one ``2^O(sqrt(log n))``-round embedding
amortized across an unbounded stream of routing instances — only means
something under *load*.  This package turns the PR 8
:class:`~repro.runtime.Session` into a measured service:

* :mod:`repro.workloads.generator` — a deterministic open-loop request
  generator.  Every draw comes from a named, seed-derived RNG stream,
  so the same ``(graph, spec, seed)`` always produces the identical
  request stream — arrival times, key skew, and churn schedule included
  — regardless of backend or of what else ran in the process.
* :mod:`repro.workloads.scenarios` — the scenario catalogue: named
  combinations of key skew (uniform / Zipf / hotspot / adversarial
  permutations), load curve (constant / diurnal / burst), churn, and
  fault injection.  See ``docs/workloads.md``.
* :mod:`repro.workloads.engine` — drives a generated stream against a
  warm session (request-by-request, batched, or through the
  :func:`~repro.runtime.serve_jsonl` wire path) over sustained
  multi-epoch runs and reports p50/p95/p99 delivery rounds and wall
  latency, plus throughput-vs-fault-rate and throughput-vs-offered-load
  curves.
"""

from .engine import (
    PERCENTILES,
    WorkloadReport,
    fault_rate_curve,
    offered_load_curve,
    percentile_summary,
    run_workload,
)
from .generator import (
    ChurnSpec,
    Workload,
    WorkloadSpec,
    adversarial_permutation,
    generate_workload,
    sample_destinations,
)
from .scenarios import SCENARIOS, Scenario, get_scenario

__all__ = [
    "PERCENTILES",
    "SCENARIOS",
    "ChurnSpec",
    "Scenario",
    "Workload",
    "WorkloadReport",
    "WorkloadSpec",
    "adversarial_permutation",
    "fault_rate_curve",
    "generate_workload",
    "get_scenario",
    "offered_load_curve",
    "percentile_summary",
    "run_workload",
    "sample_destinations",
]
