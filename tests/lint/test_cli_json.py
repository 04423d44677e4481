"""CLI behaviour: exit codes, text output, the JSON contract, and the
call-graph rules in the one pass.

Tooling parses the ``--format=json`` payload, so its shape is pinned
here.
"""

import contextlib
import io
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

DIRTY = textwrap.dedent(
    """
    import random

    def pick(items):
        return random.choice(items)
    """
)

UNCHARGED_RUN = """
def spin(network, steps):
    for _ in range(steps):
        network.run(None, max_rounds=1)
"""

CLEAN = textwrap.dedent(
    """
    def pick(items, rng):
        return items[int(rng.integers(0, len(items)))]
    """
)


@pytest.fixture
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY)
    return path


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN)
    return path


def run_cli(*argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv))
    return code, stdout.getvalue()


class TestExitCodes:
    def test_clean_exits_zero(self, clean_file):
        code, out = run_cli(str(clean_file))
        assert code == 0
        assert "clean" in out

    def test_findings_exit_one(self, dirty_file):
        code, out = run_cli(str(dirty_file))
        assert code == 1
        assert "R001" in out

    def test_missing_path_exits_two(self, tmp_path):
        code, __ = run_cli(str(tmp_path / "nope"))
        assert code == 2

    def test_non_utf8_file_is_a_finding(self, tmp_path):
        """Undecodable bytes fail the parse like any syntax error: an
        E000 finding and exit 1."""
        path = tmp_path / "latin.py"
        path.write_bytes(b"x = 1\n\xff\xfe\n")
        code, out = run_cli(str(path))
        assert code == 1
        assert "E000" in out


class TestJsonFormat:
    def test_payload_shape(self, dirty_file):
        code, out = run_cli(str(dirty_file), "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["count"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "R001"
        assert finding["path"] == str(dirty_file)
        assert finding["line"] == 5
        assert isinstance(finding["col"], int)
        assert "random.choice" in finding["message"]
        rule_ids = {rule["id"] for rule in payload["rules"]}
        assert {"R001", "R002", "R003", "R004", "R005"} <= rule_ids

    def test_clean_payload_parses(self, clean_file):
        code, out = run_cli(str(clean_file), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 0
        assert payload["findings"] == []

    def test_json_round_trips_through_subprocess(self, dirty_file):
        """End-to-end: `python -m repro.lint --format=json` is parseable."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--format=json",
             str(dirty_file)],
            capture_output=True, text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["count"] == 1


class TestListRules:
    def test_catalogue_lists_all_rules(self):
        code, out = run_cli("--list-rules")
        assert code == 0
        for rule_id in ("R001", "R002", "R003", "R004", "R005"):
            assert rule_id in out


class TestProgramPass:
    def test_cli_reports_program_findings(self, make_tree):
        root = make_tree({"proj/congest/mod.py": UNCHARGED_RUN})
        code, out = run_cli(str(root / "proj"))
        assert code == 1
        assert "R009" in out
