"""The tutorial's code blocks must run (like the README's), every
keyword argument the docs' Python blocks pass to a ``repro`` name must
be one of its parameters, every inline ``repro.`` call in their prose
must bind to its signature, every ``repro`` command line the docs show
must parse, and every subcommand and flag the ``repro.cli`` module
docstring names must exist.

Tutorial blocks share one namespace in order, mirroring a reader
following along.  Sizes in the tutorial are moderate, so this is the
slowest doc test — still well under a minute.
"""

import argparse
import ast
import importlib
import inspect
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


def _doc_paths() -> list[Path]:
    return [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def _python_blocks() -> list[tuple[str, str]]:
    """``(source, code)`` of every Python block in README.md and
    docs/*.md."""
    found = []
    for path in _doc_paths():
        blocks = re.findall(
            r"```python\n(.*?)```", path.read_text(), flags=re.DOTALL
        )
        found += [
            (f"{path.name} block {index}", block)
            for index, block in enumerate(blocks)
        ]
    return found


def _repro_bindings(tree: ast.AST) -> dict:
    """Name -> object for every name a block imports from ``repro``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.module or ""
        ).split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(
                    module, alias.name
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "repro":
                    continue
                if alias.asname:
                    bound[alias.asname] = importlib.import_module(alias.name)
                else:
                    bound["repro"] = importlib.import_module("repro")
    return bound


def _resolve(func: ast.expr, bound: dict):
    """The ``repro`` object a call's function names, or ``None`` (e.g. a
    method of a local variable)."""
    if isinstance(func, ast.Name):
        return bound.get(func.id)
    if isinstance(func, ast.Attribute):
        owner = _resolve(func.value, bound)
        if owner is None:
            return None
        return getattr(owner, func.attr, None)
    return None


def _unknown_keywords(source: str, code: str) -> list[str]:
    """``source: name(keyword=)`` for every keyword argument a block
    passes to a ``repro`` callable that has no such parameter."""
    tree = ast.parse(code, filename=source)
    bound = _repro_bindings(tree)
    unknown = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolve(node.func, bound)
        if target is None or not callable(target):
            continue
        parameters = inspect.signature(target).parameters.values()
        if any(p.kind is p.VAR_KEYWORD for p in parameters):
            continue
        names = {p.name for p in parameters}
        unknown += [
            f"{source}: {ast.unparse(node.func)}({keyword.arg}=)"
            for keyword in node.keywords
            if keyword.arg is not None and keyword.arg not in names
        ]
    return unknown


def _import_dotted(dotted: str):
    """The object a dotted name such as ``repro.rng.resolve_rng`` names:
    its longest importable prefix, then attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(dotted)


def _unbound_inline_calls(source: str, text: str) -> list[str]:
    """Every inline code span of ``text`` outside its fenced blocks that
    calls a dotted ``repro.`` name (`repro.rng.resolve_rng(rng)`) with
    arguments that name's signature cannot bind.  A ``...`` argument
    stands for arguments the prose leaves out."""
    prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    unbound = []
    for span in re.findall(r"`(repro\.[^`\n]*\))`", prose):
        try:
            call = ast.parse(span, mode="eval").body
        except SyntaxError:
            continue
        if not isinstance(call, ast.Call):
            continue
        target = _import_dotted(ast.unparse(call.func))
        args = [
            arg for arg in call.args
            if not (isinstance(arg, ast.Constant) and arg.value is ...)
        ]
        keywords = {k.arg: k.value for k in call.keywords if k.arg}
        try:
            inspect.signature(target).bind_partial(*args, **keywords)
        except TypeError as exc:
            unbound.append(f"{source}: {span} ({exc})")
    return unbound


class TestDocumentedKeywords:
    def test_every_documented_keyword_is_a_parameter(self):
        blocks = _python_blocks()
        assert {source.split()[0] for source, _ in blocks} >= {
            "README.md", "service.md", "tutorial.md", "workloads.md",
        }
        unknown = [
            entry
            for source, code in blocks
            for entry in _unknown_keywords(source, code)
        ]
        assert not unknown, "no such parameter: " + "; ".join(unknown)

    def test_removed_keyword_is_caught(self):
        code = (
            "from repro.walks import run_lazy_walks\n"
            "import repro\n"
            "run_lazy_walks(g, s, 3, rng, record_trajectory=True)\n"
            "repro.walks.run_lazy_walks(g, s, 3, rng, on_step=None)\n"
        )
        assert _unknown_keywords("snippet", code) == [
            "snippet: run_lazy_walks(record_trajectory=)"
        ]

    def test_every_inline_repro_call_binds(self):
        unbound = [
            entry
            for path in _doc_paths()
            for entry in _unbound_inline_calls(path.name, path.read_text())
        ]
        assert not unbound, "; ".join(unbound)

    def test_removed_inline_argument_is_caught(self):
        text = (
            "Use `repro.rng.resolve_rng(rng, seed)`, or "
            "`repro.run(op, graph, ...)`.\n"
            "```python\nrepro.rng.resolve_rng(rng, seed)\n```\n"
        )
        assert len(_unbound_inline_calls("doc", text)) == 1


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
