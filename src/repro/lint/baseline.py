"""Baseline gating: accept today's findings, fail on tomorrow's.

Adopting a new rule over a mature tree surfaces historical findings that
are understood and deliberately deferred; gating CI on "zero findings"
would force either a big-bang fix or disabling the rule.  The baseline
is the third option: a committed ledger of *accepted* findings, so the
gate becomes "no finding that is not in the baseline" — new code is held
to the full rule set while the backlog shrinks on its own schedule.

Findings are keyed by a **structural fingerprint**, not ``(path,
line)``: SHA-256 over the rule id, the file's repo-relative path, the
enclosing ``Class.method`` scope, and the stripped source line, plus an
occurrence index for identical lines in one scope.  Editing an unrelated
part of the file moves line numbers but not fingerprints, so the
baseline does not churn on drift; editing the offending line itself
invalidates its entry — which is exactly when a human should re-look.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path, PurePath
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .engine import Finding

__all__ = [
    "BASELINE_VERSION",
    "fingerprint_findings",
    "load_baseline",
    "partition_findings",
    "write_baseline",
]

BASELINE_VERSION = 1


def _relative_path(path: str, root: Optional[Path]) -> str:
    """``path`` relative to ``root`` when possible, POSIX separators."""
    pure = Path(path)
    if root is not None:
        try:
            pure = pure.resolve().relative_to(Path(root).resolve())
        except ValueError:
            pass
    return PurePath(pure).as_posix()


def fingerprint_findings(
    findings: Sequence[Finding], root: Optional[Path] = None
) -> List[Tuple[Finding, str]]:
    """Pair each finding with its structural fingerprint.

    Duplicate (rule, path, scope, snippet) keys — e.g. two identical
    offending lines in one function — are disambiguated by occurrence
    index, in source order, so the k-th duplicate keeps its identity as
    long as the earlier ones survive.
    """
    ordered = sorted(
        findings, key=lambda f: (f.path, f.line, f.col, f.rule)
    )
    seen: Dict[str, int] = {}
    pairs: List[Tuple[Finding, str]] = []
    by_identity = {id(f): None for f in findings}
    for finding in ordered:
        rel = _relative_path(finding.path, root)
        base = "|".join(
            (finding.rule, rel, finding.scope, finding.snippet)
        )
        occurrence = seen.get(base, 0)
        seen[base] = occurrence + 1
        digest = hashlib.sha256(
            f"{base}|{occurrence}".encode("utf-8")
        ).hexdigest()[:24]
        by_identity[id(finding)] = digest
    for finding in findings:
        pairs.append((finding, by_identity[id(finding)]))
    return pairs


def load_baseline(path: Path) -> Dict[str, dict]:
    """Fingerprint -> baseline entry; {} for a missing file.

    Raises ``ValueError`` on a malformed or wrong-version file — a
    silently ignored baseline would un-gate CI.
    """
    path = Path(path)
    if not path.is_file():
        return {}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ValueError(f"malformed baseline {path}: {error}") from error
    if not isinstance(data, dict) or "findings" not in data:
        raise ValueError(
            f"baseline {path} has no 'findings' key — regenerate it "
            "with --update-baseline"
        )
    version = data.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path} has version {version!r}, expected "
            f"{BASELINE_VERSION} — regenerate it with --update-baseline"
        )
    table: Dict[str, dict] = {}
    for entry in data["findings"]:
        table[entry["fingerprint"]] = entry
    return table


def partition_findings(
    findings: Sequence[Finding],
    baseline: Dict[str, dict],
    root: Optional[Path] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """Split into ``(new, baselined)`` against the accepted set."""
    new: List[Finding] = []
    accepted: List[Finding] = []
    for finding, digest in fingerprint_findings(findings, root):
        if digest in baseline:
            accepted.append(finding)
        else:
            new.append(finding)
    return new, accepted


def write_baseline(
    path: Path,
    findings: Iterable[Finding],
    root: Optional[Path] = None,
) -> int:
    """Write the baseline file for ``findings``; returns the count.

    Entries carry the human-readable context (rule, path, scope,
    snippet, message) alongside the fingerprint so a reviewer can audit
    the accepted set without re-running the linter.
    """
    entries = []
    for finding, digest in fingerprint_findings(list(findings), root):
        entries.append(
            {
                "fingerprint": digest,
                "rule": finding.rule,
                "path": _relative_path(finding.path, root),
                "scope": finding.scope,
                "snippet": finding.snippet,
                "message": finding.message,
            }
        )
    entries.sort(key=lambda e: (e["path"], e["rule"], e["fingerprint"]))
    payload = {
        "version": BASELINE_VERSION,
        "tool": "reprolint",
        "findings": entries,
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return len(entries)
