"""Finding renderers: human text and machine JSON.

The JSON shape is part of the tool's contract: a top-level object with
``count``, ``findings`` (list of ``rule``/``path``/``line``/``col``/
``message``), and ``rules`` (the catalogue the run used).
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .engine import Rule
from .program import Finding

__all__ = ["render_text", "render_json"]


def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: RULE message`` line per finding + summary."""
    lines = [finding.render() for finding in findings]
    if findings:
        lines.append(f"reprolint: {len(findings)} finding(s)")
    else:
        lines.append("reprolint: clean")
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding], rules: Iterable[Rule]
) -> str:
    payload = {
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
        "rules": [
            {
                "id": rule.rule_id,
                "name": rule.name,
                "description": rule.description,
            }
            for rule in rules
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
