"""``reprolint`` command line: ``python -m repro.lint [paths...]``.

Runs the per-file rules (R001–R008, R013) and, unless ``--no-program``
is given, the whole-program rules (R009–R011) over the same tree.  Exit
status: 0 when clean, 1 when any finding was reported, 2 on a bad path.
Defaults can be set in ``pyproject.toml``::

    [tool.reprolint]
    paths = ["src/repro", "tests"]
    disable = []

Command-line arguments override the configuration file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, Optional, Sequence

from .engine import lint_paths
from .program import lint_program
from .program_rules import PROGRAM_RULES, get_program_rules
from .reporters import render_json, render_text
from .rules import RULES, get_rules

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
        "--disable", default="",
        help="comma-separated rule ids to skip, e.g. R003,R010",
    )
    parser.add_argument(
        "--no-program", action="store_true",
        help="skip the whole-program rules (R009–R011); per-file only",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(
    argv: Optional[Sequence[str]] = None,
    stdout: Optional[IO[str]] = None,
) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        catalogue = dict(RULES)
        catalogue.update(PROGRAM_RULES)
        for rule_id, rule in sorted(catalogue.items()):
            print(f"{rule_id} {rule.name}: {rule.description}", file=stdout)
        return 0

    config = _load_config(Path.cwd())
    disable = [
        token.strip() for token in args.disable.split(",") if token.strip()
    ] or list(config.get("disable", []))
    paths = list(args.paths) or list(config.get("paths", []))
    if not paths:
        fallback = Path("src/repro")
        paths = [str(fallback)] if fallback.is_dir() else ["."]

    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"reprolint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    rules = get_rules(disable)
    findings = lint_paths(paths, rules)
    program_rules = [] if args.no_program else get_program_rules(disable)
    if program_rules:
        findings += lint_program(paths, program_rules)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    if args.format == "json":
        all_rules = list(rules) + list(program_rules)
        print(render_json(findings, all_rules), file=stdout)
    else:
        print(render_text(findings), file=stdout)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
