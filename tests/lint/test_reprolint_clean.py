"""The repo must pass its own linter — this is the CI contract.

The gate is zero findings from every rule over the
``[tool.reprolint] paths`` that ``python -m repro.lint`` lints with no
arguments (``scripts/check.sh`` runs it so).  A deliberate exception (a
fixture the simulator tests must reject, say) carries an inline
``# reprolint: disable=RULE`` with its reason.
"""

from pathlib import Path

from repro.lint import lint_paths
from repro.lint.cli import _load_config

REPO_ROOT = Path(__file__).resolve().parents[2]


def _render(findings):
    return "\n".join(finding.render() for finding in findings)


class TestSelfCheck:
    def test_gate_paths_have_no_findings(self):
        """Every rule over the gate's paths (the library, its tests and
        the lint package itself), as one tree, exactly as the CLI runs
        them."""
        paths = [
            REPO_ROOT / path for path in _load_config(REPO_ROOT)["paths"]
        ]
        assert {REPO_ROOT / "src" / "repro", REPO_ROOT / "tests"} <= set(
            paths
        )
        findings = lint_paths(paths)
        assert findings == [], (
            "reprolint findings on the gate paths — fix them, or "
            "suppress one line with `# reprolint: disable=RULE` and its "
            "reason:\n" + _render(findings)
        )
