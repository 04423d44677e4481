"""The ``reprolint`` rule base class and the one lint driver.

Every rule is a :class:`Rule` whose ``check`` reads the parsed
:class:`~repro.lint.program.Program`; the registry lives in
:mod:`repro.lint.rules`.  :func:`lint_paths` parses a tree once and runs
every rule over it; :func:`lint_source` does the same for one module.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from .program import Finding, LintModule, Program, build_program

__all__ = ["Rule", "lint_paths", "lint_source"]


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id` / :attr:`name` / :attr:`description`.
    A per-file rule implements :meth:`check_module`; a rule that needs
    the call graph overrides :meth:`check` and walks the program.
    """

    rule_id: str = "R000"
    name: str = "abstract"
    description: str = ""

    def check(self, program: Program) -> Iterator[Finding]:
        for module in program.modules.values():
            yield from self.check_module(program, module)

    def check_module(
        self, program: Program, module: LintModule
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: LintModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _run(program: Program) -> list[Finding]:
    """Parse errors plus every unsuppressed finding of every registered
    rule, sorted by location."""
    from .rules import RULES

    findings = list(program.errors)
    for __, rule in sorted(RULES.items()):
        for finding in rule.check(program):
            if not program.modules[finding.path].is_suppressed(finding):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    return _run(build_program(paths))


def lint_source(source: str, path: str) -> list[Finding]:
    """Lint one source string as a one-module program."""
    program = Program()
    program.add_source(source, path)
    program.build_call_graph()
    return _run(program)
