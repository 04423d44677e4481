"""Tests for EXPERIMENTS.md: the section table, the committed ``paper``
record it renders from, and the gate that keeps that record honest.

Nothing here re-runs the full experiments: rendering reads the
committed ``benchmarks/results/paper.json``, and the gate test re-runs
only the quick tier (a few seconds).
"""

import json
import os

import pytest

from repro.analysis import report
from repro.bench import baseline_path, check_suite, load_record
from repro.cli import main

_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
_RESULTS = os.path.join(_ROOT, "benchmarks", "results")


def _record(quick):
    return load_record(
        baseline_path("paper", quick=quick, results_dir=_RESULTS)
    )


class TestSectionRegistry:
    def test_ids_unique(self):
        ids = [section["id"] for section in report.SECTIONS]
        assert len(ids) == len(set(ids))

    def test_all_experiments_covered(self):
        ids = {section["id"] for section in report.SECTIONS}
        for required in ("E1", "E2/E11", "E3", "E3b", "E4", "E4b", "E5",
                         "E6", "E7", "E8", "E9", "E10", "E12", "E13",
                         "E14", "E15", "E16"):
            assert required in ids, required

    def test_sections_complete(self):
        for section in report.SECTIONS:
            assert section["title"]
            assert section["claim"]
            assert section["commentary"]
            assert callable(section["experiment"])
            assert section["columns"]
            assert isinstance(section["full"], dict)
            assert isinstance(section["quick"], dict)

    def test_header_mentions_the_paper(self):
        assert "PODC 2017" in report._HEADER
        assert "measured" in report._HEADER

    @pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
    def test_section_ids_match_the_record_both_ways(self, quick):
        sections = {section["id"] for section in report.SECTIONS}
        recorded = {
            row["kernel"].rsplit("/", 1)[0] for row in _record(quick)["rows"]
        }
        assert not recorded - sections, "rows of no section"
        assert not sections - recorded, "sections without rows"


_STUB_SECTIONS = [
    {
        "id": "X1",
        "title": "stub",
        "claim": "stub claim",
        "commentary": "stub commentary",
        "columns": ["a", "b"],
    }
]


def _stub_record():
    """The committed full record cut to one ``X1`` row of ``a``, ``b``."""
    record = _record(quick=False)
    row = dict(record["rows"][0], kernel="X1/a=1", metrics={"a": 1, "b": 2.0})
    return dict(record, rows=[row])


class TestRendering:
    def test_report_shape_with_stub_runs(self, monkeypatch):
        monkeypatch.setattr(report, "SECTIONS", _STUB_SECTIONS)
        text = report.build_report(_stub_record())
        assert "## X1: stub" in text
        assert "stub claim" in text
        assert "stub commentary" in text
        assert "a" in text and "b" in text

    def test_main_writes_file(self, tmp_path, monkeypatch):
        """``repro report`` renders the record under the cwd's
        ``benchmarks/results/`` into the ``-o`` file."""
        monkeypatch.setattr(report, "SECTIONS", _STUB_SECTIONS)
        record = _stub_record()
        results = tmp_path / "benchmarks" / "results"
        results.mkdir(parents=True)
        with open(results / "paper.json", "w") as handle:
            json.dump(record, handle)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "EXP.md"
        assert main(["report", "-o", str(out)]) == 0
        content = out.read_text()
        assert content.startswith("# EXPERIMENTS")
        assert "## X1: stub" in content

    def test_report_cli_renders_experiments_md(self, tmp_path, monkeypatch):
        """``repro report`` reproduces EXPERIMENTS.md byte for byte from
        the committed record alone."""
        monkeypatch.chdir(_ROOT)
        out = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "-o", str(out)]) == 0
        with open(os.path.join(_ROOT, "EXPERIMENTS.md"), "rb") as handle:
            assert out.read_bytes() == handle.read()

    def test_record_and_sections_must_agree(self):
        record = _record(quick=False)
        stray = dict(record["rows"][0], kernel="E99/x=1")
        with pytest.raises(ValueError, match="no section"):
            report.build_report(dict(record, rows=record["rows"] + [stray]))
        first = report.kernel_prefix(report.SECTIONS[0])
        rows = [r for r in record["rows"] if not r["kernel"].startswith(first)]
        with pytest.raises(ValueError, match="no E1 rows"):
            report.build_report(dict(record, rows=rows))


class TestGate:
    def test_edited_exact_value_fails_the_check(self, tmp_path):
        with open(os.path.join(_RESULTS, "paper.quick.json")) as handle:
            record = json.load(handle)
        row = record["rows"][0]
        row["metrics"]["tau_mix"] += 1
        with open(tmp_path / "paper.quick.json", "w") as handle:
            json.dump(record, handle)
        result = check_suite("paper", results_dir=str(tmp_path))
        assert not result.ok
        assert "'tau_mix' drifted" in result.describe()
        assert len(result.failures) == 1
