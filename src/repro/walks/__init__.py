"""Random-walk engines, the Lemma 2.5 scheduler, and mixing estimation."""

from .correlated import run_correlated_walks
from .engine import WalkRun, run_lazy_walks, run_regular_walks
from .mixing import EXACT_LIMIT, estimate_mixing_time
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
    "EXACT_LIMIT",
    "estimate_mixing_time",
    "ParallelWalkReport",
    "degree_proportional_starts",
    "run_parallel_walks",
]
