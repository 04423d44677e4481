"""Core of ``reprolint``: module model, rule base class, lint drivers.

A :class:`LintModule` wraps one parsed source file with the helpers every
rule needs (import-alias resolution, qualified-name rendering, line-level
suppressions).  Rules are small classes with a ``check`` generator; the
registry lives in :mod:`repro.lint.rules`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Finding",
    "LintModule",
    "Rule",
    "lint_paths",
    "lint_source",
    "qualified_name",
]

#: ``# reprolint: disable=R001,R003`` or ``# reprolint: disable=all``
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        """JSON-serialisable form (consumed by ``--format=json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def qualified_name(node: ast.AST) -> Optional[str]:
    """Render a ``Name``/``Attribute`` chain as ``a.b.c`` (else ``None``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class LintModule:
    """One parsed source file plus the context rules need to inspect it."""

    def __init__(self, source: str, path: str = "<string>"):
        self.source = source
        self.path = path
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.aliases = self._collect_aliases(self.tree)
        self.suppressions = self._collect_suppressions(self.lines)

    @staticmethod
    def _collect_aliases(tree: ast.Module) -> dict[str, str]:
        """Map local names to the dotted module/object they import.

        ``import numpy as np`` maps ``np -> numpy``;
        ``from random import randint as ri`` maps ``ri -> random.randint``.
        """
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:  # relative import: not an external module
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    aliases[local] = f"{node.module}.{alias.name}"
        return aliases

    @staticmethod
    def _collect_suppressions(lines: Sequence[str]) -> dict[int, set[str]]:
        suppressions: dict[int, set[str]] = {}
        for number, text in enumerate(lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match:
                rules = {
                    token.strip().upper() if token.strip() != "all" else "all"
                    for token in match.group(1).split(",")
                    if token.strip()
                }
                suppressions[number] = rules
        return suppressions

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Qualified name of ``node`` with the leading import alias expanded.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when the module did
        ``import numpy as np``.  Names that were never imported resolve to
        their literal spelling, so shadowed locals do not masquerade as
        modules unless the module really imported them.
        """
        dotted = qualified_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        resolved_head = self.aliases.get(head)
        if resolved_head is None:
            return dotted
        return f"{resolved_head}.{rest}" if rest else resolved_head

    def resolve_imported(self, node: ast.AST) -> Optional[str]:
        """Like :meth:`resolve`, but only for chains rooted at an import.

        Returns ``None`` when the root name was never imported, so a
        local variable that happens to be called ``random`` or ``time``
        cannot masquerade as the module.
        """
        dotted = qualified_name(node)
        if dotted is None:
            return None
        head = dotted.partition(".")[0]
        if head not in self.aliases:
            return None
        return self.resolve(node)

    def is_suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        if not rules:
            return False
        return "all" in rules or finding.rule in rules


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id` / :attr:`name` / :attr:`description`
    and implement :meth:`check` as a generator of :class:`Finding`.
    """

    rule_id: str = "R000"
    name: str = "abstract"
    description: str = ""

    def check(self, module: LintModule) -> Iterator[Finding]:
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


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Iterable[Rule]] = None,
) -> list[Finding]:
    """Lint one source string; returns unsuppressed findings, sorted."""
    from .rules import get_rules

    try:
        module = LintModule(source, path)
    except SyntaxError as error:
        return [
            Finding(
                rule="E000",
                path=path,
                line=error.lineno or 1,
                col=error.offset or 0,
                message=f"syntax error: {error.msg}",
            )
        ]
    findings: list[Finding] = []
    for rule in rules if rules is not None else get_rules():
        for finding in rule.check(module):
            if not module.is_suppressed(finding):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files beneath them."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Iterable[str | Path],
    rules: Optional[Iterable[Rule]] = None,
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    rules = list(rules) if rules is not None else None
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        try:
            raw = file_path.read_bytes()
        except OSError:
            continue
        source = raw.decode("utf-8", errors="replace")
        findings.extend(lint_source(source, str(file_path), rules))
    return findings
