"""``reprolint`` command line: ``python -m repro.lint [paths...]``.

Parses every file under the paths once and runs every rule over the
result.  Exit status: 0 when clean, 1 when any finding was reported, 2
on a bad path.  With no path arguments the paths come from
``pyproject.toml``::

    [tool.reprolint]
    paths = ["src/repro", "tests"]

The one way to exempt a site is a ``# reprolint: disable=RULE`` comment
on its line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .engine import lint_paths
from .reporters import render_json, render_text
from .rules import RULES

__all__ = ["main"]


def _load_config(start: Path) -> dict:
    """``[tool.reprolint]`` from the nearest ``pyproject.toml`` upward."""
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        return {}
    for directory in [start, *start.parents]:
        pyproject = directory / "pyproject.toml"
        if pyproject.is_file():
            try:
                with open(pyproject, "rb") as handle:
                    data = tomllib.load(handle)
            except (OSError, tomllib.TOMLDecodeError):
                return {}
            return data.get("tool", {}).get("reprolint", {})
    return {}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "Static checks for the CONGEST-model and seeded-randomness "
            "contract of the repro codebase."
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: [tool.reprolint] "
        "paths from pyproject.toml, else src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    rules = [rule for __, rule in sorted(RULES.items())]

    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id} {rule.name}: {rule.description}")
        return 0

    paths = list(args.paths) or list(
        _load_config(Path.cwd()).get("paths", [])
    )
    if not paths:
        fallback = Path("src/repro")
        paths = [str(fallback)] if fallback.is_dir() else ["."]

    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"reprolint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    findings = lint_paths(paths)
    if args.format == "json":
        print(render_json(findings, rules))
    else:
        print(render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
