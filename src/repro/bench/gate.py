"""The uniform regression gate: one comparison policy for every suite.

Every suite is compared under the same rules:

* **exact columns** — seed-deterministic values (``rounds`` and any
  listed deterministic metrics) must match the committed baseline
  bit-for-bit.  Rounds are the paper's currency; they may only change
  when a PR *means* to change them, in which case the baseline is
  refreshed in the same commit.
* **coverage** — every baseline row must appear in the current run and
  vice versa, keyed by ``(kernel, n, seed)``.  A silently vanishing
  kernel is a regression, not a cleanup.
* **wall budgets** — optional absolute ceilings on machine-dependent
  wall time per kernel (the old tripwire, generalized).  Budgets are
  the only wall-clock comparison; everything else ignores ``wall_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Number
from typing import Any, Mapping

from .schema import keyed_rows

__all__ = ["GatePolicy", "GateResult", "compare_records"]

#: Relative tolerance for float metric equality (serialization jitter
#: only — deterministic metrics are computed, not measured).
_FLOAT_RTOL = 1e-9


@dataclass(frozen=True)
class GatePolicy:
    """Which parts of a suite's record the gate compares.

    Attributes:
        exact: row columns compared exactly against the baseline.
        exact_metrics: keys under ``row["metrics"]`` compared exactly
            (missing on both sides is fine; missing on one side fails).
        wall_budget_s: absolute wall-second ceilings by kernel name,
            applied to the *current* run only.
    """

    exact: tuple = ("rounds",)
    exact_metrics: tuple = ()
    wall_budget_s: Mapping[str, float] = field(default_factory=dict)


@dataclass
class GateResult:
    """Outcome of one baseline comparison."""

    suite: str
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if self.ok:
            return f"{self.suite}: OK"
        lines = [f"{self.suite}: {len(self.failures)} regression(s)"]
        lines.extend(f"  - {failure}" for failure in self.failures)
        return "\n".join(lines)


def _values_equal(baseline: Any, current: Any) -> bool:
    if isinstance(baseline, Number) and isinstance(current, Number):
        base = float(baseline)
        cur = float(current)
        if base == cur:
            return True
        scale = max(abs(base), abs(cur), 1.0)
        return abs(base - cur) <= _FLOAT_RTOL * scale
    return bool(baseline == current)


def compare_records(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    policy: GatePolicy,
) -> GateResult:
    """Gate ``current`` against the committed ``baseline`` record.

    Raises ``ValueError`` if either record holds two rows under one
    ``(kernel, n, seed)`` key.
    """
    result = GateResult(suite=str(current.get("suite", "?")))
    if baseline.get("suite") != current.get("suite"):
        result.failures.append(
            f"suite mismatch: baseline {baseline.get('suite')!r} vs "
            f"current {current.get('suite')!r}"
        )
    base_rows = keyed_rows(baseline["rows"])
    cur_rows = keyed_rows(current["rows"])

    for key in sorted(base_rows):
        if key not in cur_rows:
            result.failures.append(
                f"row {key} present in baseline but missing from the "
                "current run"
            )
    for key in sorted(cur_rows):
        if key not in base_rows:
            result.failures.append(
                f"row {key} not in the baseline — refresh the committed "
                "record if the new row is intentional"
            )

    for key in sorted(set(base_rows) & set(cur_rows)):
        base = base_rows[key]
        cur = cur_rows[key]
        for column in policy.exact:
            if not _values_equal(base[column], cur[column]):
                result.failures.append(
                    f"row {key}: {column} drifted from baseline "
                    f"{base[column]!r} to {cur[column]!r}"
                )
        if policy.exact_metrics:
            base_metrics = base.get("metrics", {})
            cur_metrics = cur.get("metrics", {})
            for metric in policy.exact_metrics:
                in_base = metric in base_metrics
                in_cur = metric in cur_metrics
                if not in_base and not in_cur:
                    continue
                if in_base != in_cur:
                    side = "baseline" if in_base else "current run"
                    result.failures.append(
                        f"row {key}: metric {metric!r} only present in "
                        f"the {side}"
                    )
                    continue
                if not _values_equal(
                    base_metrics[metric], cur_metrics[metric]
                ):
                    result.failures.append(
                        f"row {key}: metric {metric!r} drifted from "
                        f"baseline {base_metrics[metric]!r} to "
                        f"{cur_metrics[metric]!r}"
                    )

    for key in sorted(cur_rows):
        kernel = key[0]
        budget = policy.wall_budget_s.get(kernel)
        # Written so a NaN wall fails: every comparison with NaN is False.
        if budget is not None and not cur_rows[key]["wall_s"] <= budget:
            result.failures.append(
                f"row {key}: wall_s {cur_rows[key]['wall_s']:.3f}s "
                f"exceeds the {budget:.3f}s budget"
            )
    return result
