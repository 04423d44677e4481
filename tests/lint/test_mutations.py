"""Every reprolint rule fires on a one-line mutation of real code.

The gate is zero findings, so a rule that cannot fire looks the same as
one that holds.  Each case here copies the real ``src/repro`` package
into ``tmp_path``, lints the named files, applies one mutation of the
kind the rule exists for, and lints them again: the rule must be silent
before and fire in the mutated file after.  A rule no mutation of
current code can trip has no place in the catalogue.
"""

import shutil
from pathlib import Path

import pytest

from repro.lint import lint_paths

LIBRARY = Path(__file__).resolve().parents[2] / "src" / "repro"

#: (rule id, file the mutation edits, extra files the call graph needs,
#: the line's old text, its new text)
MUTATIONS = {
    "R001-unseeded-default": (
        "R001", "rng.py", (),
        "return np.random.default_rng(DEFAULT_SEED)",
        "return np.random.default_rng()",
    ),
    "R002-token-forwarder-outbox": (
        "R002", "congest/forwarding.py", (),
        'outbox[target] = ("tok",)',
        'outbox[target] = ("tok", 1, 2, 3, 4)',
    ),
    "R002-leader-announce": (
        "R002", "congest/leader.py", (),
        'return {w: ("lead", self.best) for w in self.context.neighbors}',
        'return {w: ("lead", self.best, 0, 0, 0) '
        "for w in self.context.neighbors}",
    ),
    "R002-heartbeat-beat": (
        "R002", "congest/detector.py", (),
        'return {v: ("hb",) for v in self.context.neighbors}',
        'return {v: ("hb", 0, 0, 0, 0) for v in self.context.neighbors}',
    ),
    "R002-ghs-fragment-id": (
        "R002", "baselines/ghs_congest.py", (),
        'w: ("frag", self.state.fragment)',
        'w: ("frag", self.state.fragment, 0, 0, 0)',
    ),
    "R002-global-graph-in-helper": (
        "R002", "congest/leader.py", (),
        'return {w: ("lead", self.best) for w in self.context.neighbors}',
        'return {w: ("lead", self.best) for w in graph.neighbors(0)}',
    ),
    "R003-set-iteration": (
        "R003", "baselines/ghs.py", (),
        "for eid in sorted(added):",
        "for eid in set(added):",
    ),
    "R004-bare-except": (
        "R004", "runtime/store.py", (),
        "except StoreEntryError:",
        "except:",
    ),
    "R005-seed-ignores-inputs": (
        "R005", "rng.py", (),
        "return np.random.default_rng(tuple(int(part) for part in parts))",
        "return np.random.default_rng(0)",
    ),
    "R006-tuple-seed": (
        "R006", "congest/native.py", (),
        "rng = derive_rng(seed, 0)",
        "rng = np.random.default_rng((seed, 0))",
    ),
    "R007-fault-plan-unmanaged": (
        "R007", "bench/suites.py", (),
        "return FaultPlan(spec, rng=derive_rng(seed, n, label))",
        "return FaultPlan(spec, rng=np.random.default_rng(seed))",
    ),
    "R007-chaos-plan-off-the-chaos-stream": (
        "R007", "workloads/engine.py", (),
        'spec, rng=derive_rng(int(config.seed), stream_entropy("chaos"))',
        'spec, rng=derive_rng(int(config.seed), stream_entropy("faults"))',
    ),
    "R008-crashed-outside-congest": (
        "R008", "runtime/context.py", (),
        "view = crash_view(plan, num_nodes)",
        "view = plan.crashed(0, num_nodes)",
    ),
    "R009-leader-drops-its-rounds": (
        "R009", "congest/leader.py", (),
        "return leaders.pop(), stats.rounds",
        "return leaders.pop(), 0",
    ),
    "R009-scalar-forwarder-drops-its-rounds": (
        "R009", "congest/forwarding.py", (),
        "return stats.rounds, stats.messages",
        "return 0, 0",
    ),
    "R010-minted-generator-into-the-walks": (
        "R010", "congest/native.py",
        ("walks/__init__.py", "walks/engine.py"),
        "rng = derive_rng(seed)\n",
        "rng = np.random.default_rng(seed)\n",
    ),
}


def _lint(root, files):
    return lint_paths([root / rel for rel in files])


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_rule_fires_on_a_mutation_of_real_code(tmp_path, case):
    rule, target, extra, old, new = MUTATIONS[case]
    root = tmp_path / "repro"
    shutil.copytree(
        LIBRARY, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    files = [target, *extra]
    assert [f for f in _lint(root, files) if f.rule == rule] == []

    path = root / target
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1, f"{case}: mutation site moved"
    path.write_text(source.replace(old, new), encoding="utf-8")

    fired = [f for f in _lint(root, files) if f.rule == rule]
    assert fired, f"{case}: {rule} missed the mutation"
    assert {finding.path for finding in fired} == {str(path)}


def test_every_rule_has_a_mutation():
    from repro.lint import RULES

    assert {rule for rule, *__ in MUTATIONS.values()} == set(RULES)
