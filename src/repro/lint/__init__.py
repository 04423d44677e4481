"""``reprolint`` — static analysis for the repo's reproducibility contract.

The paper's guarantees hold only under the CONGEST model (one
``O(log n)``-bit message per edge per round) and our experiments are
reproducible only if every random choice flows through a seeded
generator.  The runtime simulator (:mod:`repro.congest.network`) enforces
the first constraint for code that runs through it; this package checks
both constraints *statically*, over the whole tree, so the ledger-based
fast paths (``core/``, ``walks/``) are covered too.

One pass: every file is parsed once into a :class:`Program` (modules,
one import table, symbols and a call graph), and every rule reads it —
R001–R008 one module at a time, R009 (executed rounds reach a charge or
are returned) and R010 (RNG provenance) through the call graph.

Usage::

    python -m repro.lint                 # the [tool.reprolint] paths
    python -m repro.lint --format=json src/repro

The gate is zero findings.  A deliberate exception is suppressed on its
own line with ``# reprolint: disable=R001`` (comma-separated rule ids,
or ``all``) and a comment giving the reason.  See ``docs/linting.md``
for the rule catalogue.
"""

from .engine import Rule, lint_paths, lint_source
from .program import Finding, LintModule, Program, build_program
from .rules import RULES

__all__ = [
    "Finding",
    "LintModule",
    "Program",
    "RULES",
    "Rule",
    "build_program",
    "lint_paths",
    "lint_source",
]
