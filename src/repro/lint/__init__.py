"""``reprolint`` — static analysis for the repo's reproducibility contract.

The paper's guarantees hold only under the CONGEST model (one
``O(log n)``-bit message per edge per round) and our experiments are
reproducible only if every random choice flows through a seeded
generator.  The runtime simulator (:mod:`repro.congest.network`) enforces
the first constraint for code that runs through it; this package checks
both constraints *statically*, over the whole tree, so the ledger-based
fast paths (``core/``, ``walks/``) are covered too.

Two layers of analysis:

* per-file rules (R001–R008, R013) judge one module's AST at a time;
* whole-program rules (R009–R011, :mod:`.program`) build a project-wide
  symbol table and call graph, then check interprocedural contracts —
  ledger coverage, RNG provenance and message-size flow.

Usage::

    python -m repro.lint src/repro tests
    python -m repro.lint --format=json src/repro

The gate is zero findings.  A deliberate exception is suppressed on its
own line with ``# reprolint: disable=R001`` (comma-separated rule ids,
or ``all``) and a comment giving the reason.  See ``docs/linting.md``
for the rule catalogue.
"""

from .engine import Finding, LintModule, Rule, lint_paths, lint_source
from .program import Program, ProgramRule, build_program, lint_program
from .program_rules import PROGRAM_RULES, get_program_rules
from .rules import RULES, get_rules

__all__ = [
    "Finding",
    "LintModule",
    "Program",
    "ProgramRule",
    "PROGRAM_RULES",
    "RULES",
    "Rule",
    "build_program",
    "get_program_rules",
    "get_rules",
    "lint_paths",
    "lint_program",
    "lint_source",
]
