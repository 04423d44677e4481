"""Random-walk engines, the Lemma 2.5 scheduler, and mixing estimation."""

from .correlated import run_correlated_walks
from .engine import WalkRun, run_lazy_walks, run_regular_walks
from .hitting import (
    expected_hitting_time,
    hitting_time_lower_bound,
    hitting_times,
)
from .mixing import (
    EXACT_LIMIT,
    empirical_tv_distance,
    estimate_mixing_time,
    estimate_regular_mixing_time,
)
from .parallel import (
    ParallelWalkReport,
    degree_proportional_starts,
    run_parallel_walks,
)

__all__ = [
    "WalkRun",
    "run_correlated_walks",
    "run_lazy_walks",
    "run_regular_walks",
    "expected_hitting_time",
    "hitting_time_lower_bound",
    "hitting_times",
    "EXACT_LIMIT",
    "empirical_tv_distance",
    "estimate_mixing_time",
    "estimate_regular_mixing_time",
    "ParallelWalkReport",
    "degree_proportional_starts",
    "run_parallel_walks",
]
