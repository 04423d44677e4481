"""The repo must pass its own linter — this is the CI contract.

The gate is zero findings, per-file and whole-program rules alike, over
the ``[tool.reprolint] paths`` that ``scripts/check.sh`` lints.  A
deliberate exception (a fixture the simulator tests must reject, say)
carries an inline ``# reprolint: disable=RULE`` with its reason.
"""

from pathlib import Path

from repro.lint import lint_paths, lint_program
from repro.lint.cli import _load_config

REPO_ROOT = Path(__file__).resolve().parents[2]


def _render(findings):
    return "\n".join(finding.render() for finding in findings)


def _gate_paths():
    """The paths the CLI lints when run from the repo root."""
    return [REPO_ROOT / path for path in _load_config(REPO_ROOT)["paths"]]


class TestSelfCheck:
    def test_library_tree_is_clean(self):
        findings = lint_paths([REPO_ROOT / "src" / "repro"])
        assert findings == [], (
            "reprolint findings in src/repro — fix them (or, for a "
            "deliberate exception, add `# reprolint: disable=RULE` with "
            "a justification):\n" + _render(findings)
        )

    def test_test_tree_is_clean(self):
        findings = lint_paths([REPO_ROOT / "tests"])
        assert findings == [], (
            "reprolint findings in tests/:\n" + _render(findings)
        )

    def test_lint_package_lints_itself(self):
        findings = lint_paths([REPO_ROOT / "src" / "repro" / "lint"])
        assert findings == []

    def test_gate_paths_have_no_findings(self):
        """Per-file and whole-program rules (R001–R013) over the paths
        the gate lints, as one tree, exactly as the CLI runs them."""
        paths = _gate_paths()
        assert REPO_ROOT / "src" / "repro" in paths
        findings = lint_paths(paths) + lint_program(paths)
        assert findings == [], (
            "reprolint findings on the gate paths — fix them, or "
            "suppress one line with `# reprolint: disable=RULE` and its "
            "reason:\n" + _render(findings)
        )
