"""Sample statistics and the correctness tally every workload shares.

Nothing here imports the program under test, so the helpers can be
unit-tested (and the tests run) without building anything.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Callable, Optional, Sequence

#: Percentiles a tail is reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def nearest_rank(ordered: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of already sorted samples."""
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, percentile: float) -> int:
    """How many of ``count`` samples sit above the nearest-rank
    ``percentile``."""
    return count - max(1, math.ceil(percentile / 100.0 * count))


def tail_percentile(
    values: Sequence[float], beyond: int = MIN_BEYOND
) -> Optional[tuple[float, float]]:
    """``(percentile, value)`` for the highest ladder percentile with at
    least ``beyond`` samples above it, or ``None`` when even the median
    has fewer."""
    ordered = sorted(values)
    best = None
    for percentile in PERCENTILE_LADDER:
        if samples_beyond(len(ordered), percentile) >= beyond:
            best = (percentile, nearest_rank(ordered, percentile))
    return best


def percentile_label(percentile: float) -> str:
    """``99.9`` -> ``"p99.9"``, ``50.0`` -> ``"p50"``."""
    return "p" + f"{percentile:g}"


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


class Tally:
    """Correctness checks: one ``attempted`` per check, one ``failed``
    per check that did not hold (with a note saying which)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return bool(ok)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def route_delivered(response: Any) -> bool:
    """Whether a route answer delivered every packet.

    Accepts a ``SessionResponse``, a routing result, or a serve-loop
    summary record (``{"result": {"delivered": ...}}``)."""
    if isinstance(response, dict):
        result = response.get("result")
        return isinstance(result, dict) and result.get("delivered") is True
    result = getattr(response, "result", response)
    return bool(getattr(result, "delivered", False))


def check_route(tally: Tally, response: Any, what: str) -> bool:
    return tally.check(route_delivered(response), f"{what}: not delivered")


def check_mst(
    tally: Tally,
    weighted: Any,
    result: Any,
    what: str,
    *,
    is_spanning_tree: Callable[[Any, list], bool],
    mst_weight: Callable[[Any], float],
) -> bool:
    """The MST edge set spans ``weighted`` and weighs what the
    centralized reference says (relative tolerance 1e-9)."""
    edge_ids = [int(edge) for edge in result.edge_ids]
    spans = is_spanning_tree(weighted, edge_ids)
    expected = float(mst_weight(weighted))
    total = float(weighted.total_weight(edge_ids)) if spans else math.nan
    reported = float(result.total_weight)
    ok = (
        spans
        and math.isclose(total, expected, rel_tol=1e-9, abs_tol=1e-9)
        and math.isclose(reported, expected, rel_tol=1e-9, abs_tol=1e-9)
    )
    return tally.check(
        ok,
        f"{what}: mst spanning={spans} weight={reported!r} "
        f"expected={expected!r}",
    )


def check_record(tally: Tally, record: dict, what: str) -> bool:
    """A serve-loop answer is not an error record; a route answer also
    delivered."""
    if "error" in record:
        return tally.check(False, f"{what}: error record {record['error']!r}")
    if record.get("op") == "route":
        return check_route(tally, record, what)
    return tally.check("update" in record or "op" in record, f"{what}: "
                       f"unrecognised record {sorted(record)}")
