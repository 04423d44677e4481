"""The tutorial's code blocks must run (like the README's), every
``repro`` command line the docs show must parse, and every subcommand
and flag the ``repro.cli`` module docstring names must exist.

Tutorial blocks share one namespace in order, mirroring a reader
following along.  Sizes in the tutorial are moderate, so this is the
slowest doc test — still well under a minute.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
TUTORIAL = ROOT / "docs" / "tutorial.md"


def _blocks() -> list[str]:
    text = TUTORIAL.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestTutorial:
    def test_tutorial_exists(self):
        assert TUTORIAL.exists()
        assert len(_blocks()) >= 5

    def test_blocks_execute_in_order(self):
        namespace: dict = {}
        for index, block in enumerate(_blocks()):
            exec(
                compile(block, f"tutorial block {index}", "exec"),
                namespace,
            )
        # The walkthrough must have produced a delivered routing result.
        assert namespace["result"].delivered
        assert namespace["cut"].cut_value >= 1


def _command_lines() -> list[tuple[str, list[str]]]:
    """``(source, argv)`` of every ``repro`` / ``python -m repro`` line in
    the bash and console blocks of README.md and docs/*.md."""
    found = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = path.read_text()
        for block in re.findall(
            r"```(?:bash|console)\n(.*?)```", text, flags=re.DOTALL
        ):
            for line in block.replace("\\\n", " ").splitlines():
                command = line.strip().removeprefix("$ ")
                words = shlex.split(command, comments=True)
                while words and re.fullmatch(r"\w+=\S*", words[0]):
                    words = words[1:]  # leading VAR=value assignments
                if words[:3] == ["python", "-m", "repro"]:
                    words = words[3:]
                elif words[:1] == ["repro"]:
                    words = words[1:]
                else:
                    continue
                found.append((f"{path.name}: {line.strip()}", words))
    return found


class TestDocumentedCommands:
    def test_every_documented_command_parses(self):
        lines = _command_lines()
        assert len(lines) >= 20
        rejected = []
        for source, argv in lines:
            try:
                _build_parser().parse_args(argv)
            except SystemExit:
                rejected.append(source)
        assert not rejected, "the CLI rejects: " + "; ".join(rejected)


def _docstring_names(doc: str) -> tuple[set[str], set[str]]:
    """``(subcommands, flags)`` a CLI docstring names: its bulleted
    commands, slash-separated command lists, ``repro <command>``
    mentions and every ``--flag``."""
    commands = set(re.findall(r"^\* ``([a-z]+)`` —", doc, flags=re.M))
    commands |= set(re.findall(r"``([a-z]+)``(?=/|\))", doc))
    commands |= set(re.findall(r"``(?:python -m )?repro ([a-z]+)", doc))
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", doc))
    return commands, flags


def _parser_names() -> tuple[set[str], set[str]]:
    """``(subcommands, flags)`` that ``_build_parser()`` accepts."""
    parser = _build_parser()
    (subparsers,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    flags = set()
    for sub in [parser, *subparsers.choices.values()]:
        for action in sub._actions:
            flags.update(
                option
                for option in action.option_strings
                if option.startswith("--")
            )
    return set(subparsers.choices), flags


class TestCliDocstring:
    def test_named_commands_and_flags_exist(self):
        commands, flags = _docstring_names(repro.cli.__doc__)
        assert {"route", "mst", "serve", "bench"} <= commands
        assert {"--cache", "--faults", "--journal"} <= flags
        known_commands, known_flags = _parser_names()
        assert commands - known_commands == set()
        assert flags - known_flags == set()

    def test_stale_names_are_caught(self):
        stale = "* ``resume`` — gone.\n* ``--checkpoint PATH`` — gone."
        commands, flags = _docstring_names(stale)
        known_commands, known_flags = _parser_names()
        assert commands - known_commands == {"resume"}
        assert flags - known_flags == {"--checkpoint"}
