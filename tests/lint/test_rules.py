"""Fixture snippets exercising every reprolint rule, hit and miss.

Each rule gets at least two positive fixtures (the rule fires) and one
negative fixture (idiomatic code the rule must not flag) — the negative
cases are what keep the linter usable on the real tree.
"""

import textwrap

import pytest

from repro.lint import lint_source


def findings_for(source: str):
    return lint_source(textwrap.dedent(source), "fixture.py")


def rule_ids(source: str):
    return sorted({f.rule for f in findings_for(source)})


class TestR001GlobalRng:
    @pytest.mark.parametrize(
        "source",
        [
            # legacy stdlib global sampler
            """
            import random

            def pick(items):
                return random.choice(items)
            """,
            # unseeded numpy constructor
            """
            import numpy as np

            def noise(n):
                rng = np.random.default_rng()
                return rng.random(n)
            """,
            # legacy numpy global sampler
            """
            import numpy as np

            def shuffle_ids(n):
                return np.random.permutation(n)
            """,
            # module-level generator instance (shared mutable state)
            """
            import numpy as np

            RNG = np.random.default_rng(7)
            """,
            # aliased import still resolves
            """
            from random import randint as ri

            def roll():
                return ri(1, 6)
            """,
        ],
    )
    def test_fires(self, source):
        assert "R001" in rule_ids(source)

    @pytest.mark.parametrize(
        "source",
        [
            # injected seeded generator: the idiom the rule enforces
            """
            import numpy as np

            def noise(n, rng):
                return rng.random(n)
            """,
            # seeded constructor from a parameter
            """
            import numpy as np

            def noise(n, seed):
                rng = np.random.default_rng(seed)
                return rng.random(n)
            """,
            # a local object that merely shares the name `random`
            """
            def pick(random, items):
                return random.choice(items)
            """,
        ],
    )
    def test_quiet(self, source):
        assert "R001" not in rule_ids(source)

    def test_suppression_comment_silences(self):
        source = """
        import random

        def pick(items):
            return random.choice(items)  # reprolint: disable=R001
        """
        assert findings_for(source) == []

    def test_suppress_all(self):
        source = """
        import random

        def pick(items):
            return random.choice(items)  # reprolint: disable=all
        """
        assert findings_for(source) == []


class TestR002CongestModel:
    @pytest.mark.parametrize(
        "source",
        [
            # payload tuple wider than MESSAGE_WORD_LIMIT
            """
            from repro.congest.network import NodeAlgorithm

            class Wide(NodeAlgorithm):
                def initialize(self):
                    return {1: (1, 2, 3, 4, 5)}
            """,
            # tuple(range(k)) with constant k over the limit
            """
            from repro.congest.network import NodeAlgorithm

            class RangeWide(NodeAlgorithm):
                def receive(self, round_number, inbox):
                    return {0: tuple(range(9))}
            """,
            # global graph knowledge inside receive
            """
            from repro.congest.network import NodeAlgorithm

            graph = None

            class Peeking(NodeAlgorithm):
                def receive(self, round_number, inbox):
                    return {w: (1,) for w in graph.neighbors(0)}
            """,
            # indirect subclassing is still a node algorithm
            """
            from repro.congest.network import NodeAlgorithm

            class Base(NodeAlgorithm):
                pass

            class Indirect(Base):
                def initialize(self):
                    return {1: (1, 2, 3, 4, 5, 6)}
            """,
        ],
    )
    def test_fires(self, source):
        assert "R002" in rule_ids(source)

    @pytest.mark.parametrize(
        "source",
        [
            # payload within budget; local name `graph` is fine
            """
            from repro.congest.network import NodeAlgorithm

            class Good(NodeAlgorithm):
                def receive(self, round_number, inbox):
                    graph = dict(inbox)
                    return {w: ("id", 3) for w in graph}
            """,
            # wide tuples outside NodeAlgorithm methods are not payloads
            """
            def table():
                return (1, 2, 3, 4, 5, 6, 7)
            """,
        ],
    )
    def test_quiet(self, source):
        assert "R002" not in rule_ids(source)


class TestR003Nondeterminism:
    @pytest.mark.parametrize(
        "source",
        [
            """
            import time

            def stamp():
                return time.time()
            """,
            """
            import os

            def token():
                return os.urandom(8)
            """,
            # direct iteration over a set: hash-order dependent
            """
            def visit(edges):
                for edge in set(edges):
                    print(edge)
            """,
            # set comprehension source in a comprehension
            """
            def labels(xs):
                return [x + 1 for x in {1, 2, 3}]
            """,
        ],
    )
    def test_fires(self, source):
        assert "R003" in rule_ids(source)

    @pytest.mark.parametrize(
        "source",
        [
            # sorting restores determinism
            """
            def visit(edges):
                for edge in sorted(set(edges)):
                    print(edge)
            """,
            # membership tests and set algebra do not iterate
            """
            def member(x, xs):
                return x in set(xs)
            """,
        ],
    )
    def test_quiet(self, source):
        assert "R003" not in rule_ids(source)


class TestR004ExceptionHygiene:
    @pytest.mark.parametrize(
        "source",
        [
            """
            def run(fn):
                try:
                    fn()
                except:
                    return None
            """,
            """
            from repro.congest.network import CongestViolation

            def run(fn):
                try:
                    fn()
                except CongestViolation:
                    pass
            """,
            # swallowing silently via `except Exception: pass`
            """
            def run(fn):
                try:
                    fn()
                except Exception:
                    pass
            """,
        ],
    )
    def test_fires(self, source):
        assert "R004" in rule_ids(source)

    @pytest.mark.parametrize(
        "source",
        [
            # re-raising preserves the model violation
            """
            from repro.congest.network import CongestViolation

            def run(fn):
                try:
                    fn()
                except CongestViolation:
                    raise
            """,
            # specific exception, handled with real logic
            """
            def run(fn):
                try:
                    fn()
                except ValueError as error:
                    return str(error)
            """,
        ],
    )
    def test_quiet(self, source):
        assert "R004" not in rule_ids(source)


class TestR005MissingSeedParam:
    @pytest.mark.parametrize(
        "source",
        [
            # hard-coded seed in a public library function
            """
            import numpy as np

            def sample_nodes(n):
                rng = np.random.default_rng(42)
                return rng.integers(0, n, size=4)
            """,
            # method hiding a constant-seeded stream from callers
            """
            import numpy as np

            class Builder:
                def draw(self, n):
                    rng = np.random.default_rng(1234)
                    return rng.random(n)
            """,
        ],
    )
    def test_fires(self, source):
        assert "R005" in rule_ids(source)

    @pytest.mark.parametrize(
        "source",
        [
            # seed threaded from the signature
            """
            import numpy as np

            def sample_nodes(n, seed=0):
                rng = np.random.default_rng(seed)
                return rng.integers(0, n, size=4)
            """,
            # derives its stream from self (which holds the seed)
            """
            import numpy as np

            class Builder:
                def draw(self, n):
                    rng = np.random.default_rng((self.seed, 1))
                    return rng.random(n)
            """,
            # private helpers inherit the caller's contract
            """
            import numpy as np

            def _scratch(n):
                rng = np.random.default_rng(0)
                return rng.random(n)
            """,
        ],
    )
    def test_quiet(self, source):
        assert "R005" not in rule_ids(source)

    def test_exempt_under_tests_directory(self):
        source = textwrap.dedent(
            """
            import numpy as np

            def fixture_like():
                return np.random.default_rng(3)
            """
        )
        assert any(
            f.rule == "R005"
            for f in lint_source(source, "src/repro/fake.py")
        )
        assert not any(
            f.rule == "R005"
            for f in lint_source(source, "tests/conftest.py")
        )



class TestR006TupleSeed:
    @pytest.mark.parametrize(
        "source",
        [
            # the seed_offset idiom this PR retired from system.py/cli.py
            """
            import numpy as np

            def walk_rng(seed, level):
                return np.random.default_rng((seed, level))
            """,
            # same smell through the Generator/bit-generator spelling
            """
            import numpy as np

            def stream(seed):
                rng = np.random.default_rng((seed, 0, 3))
                return rng
            """,
        ],
    )
    def test_fires(self, source):
        assert "R006" in rule_ids(source)

    @pytest.mark.parametrize(
        "source",
        [
            # the sanctioned replacement
            """
            from repro.rng import derive_rng

            def walk_rng(seed, level):
                return derive_rng(seed, level)
            """,
            # plain integer seeds are fine (R006 is about tuples)
            """
            import numpy as np

            def fixture_rng(seed):
                return np.random.default_rng(seed)
            """,
        ],
    )
    def test_quiet(self, source):
        assert "R006" not in rule_ids(source)

    def test_exempt_in_runtime_and_rng_module(self):
        source = textwrap.dedent(
            """
            import numpy as np

            def derive(seed, k):
                return np.random.default_rng((seed, k))
            """
        )
        assert any(
            f.rule == "R006"
            for f in lint_source(source, "src/repro/system.py")
        )
        for exempt in (
            "src/repro/rng.py",
            "src/repro/runtime/context.py",
            "tests/core/test_rng.py",
        ):
            assert not any(
                f.rule == "R006" for f in lint_source(source, exempt)
            )

class TestR007FaultStream:
    @pytest.mark.parametrize(
        "source",
        [
            # raw constructor-made generator
            """
            import numpy as np
            from repro.congest.faults import FaultPlan, FaultSpec

            def plan(spec):
                return FaultPlan(spec, rng=np.random.default_rng(0))
            """,
            # positional rng, still unmanaged
            """
            import numpy as np
            from repro.congest.faults import FaultPlan

            def plan(spec, seed):
                return FaultPlan(spec, np.random.default_rng(seed))
            """,
            # a generator variable: provenance unknown at the call site
            """
            from repro.congest.faults import FaultPlan

            def plan(spec, rng):
                return FaultPlan(spec, rng=rng)
            """,
            # no rng at all
            """
            from repro.congest.faults import FaultPlan

            def plan(spec):
                return FaultPlan(spec)
            """,
        ],
    )
    def test_fires(self, source):
        assert "R007" in rule_ids(source)

    @pytest.mark.parametrize(
        "source",
        [
            # the sanctioned derivation
            """
            from repro.congest.faults import FaultPlan
            from repro.rng import derive_rng

            def plan(spec, seed):
                return FaultPlan(spec, rng=derive_rng(seed, 99))
            """,
            # the context's named stream (how RunContext builds it)
            """
            from repro.congest.faults import FaultPlan

            def plan(spec, context):
                return FaultPlan(spec, rng=context.stream("faults"))
            """,
            # fresh_stream is a managed stream too
            """
            from repro.congest.faults import FaultPlan

            def plan(spec, context):
                return FaultPlan(spec, context.fresh_stream("faults"))
            """,
            # unrelated call named similarly must not trigger
            """
            def make_fault_plan_description(spec):
                return str(spec)
            """,
        ],
    )
    def test_quiet(self, source):
        assert "R007" not in rule_ids(source)


class TestR008RawCrashState:
    @pytest.mark.parametrize(
        "source",
        [
            # recovery code asking the plan who is down right now
            """
            def reroute(plan, round_number, n):
                down = plan.crashed(round_number, n)
                return down
            """,
            # reaching into the private crash cache
            """
            def peek(plan):
                return plan._crash_sets
            """,
            # deriving from the private crash entropy
            """
            from repro.rng import derive_rng

            def rederive(plan, n):
                return derive_rng(plan._crash_entropy, 0, n)
            """,
        ],
    )
    def test_fires(self, source):
        assert "R008" in rule_ids(source)

    @pytest.mark.parametrize(
        "source",
        [
            # the sanctioned path: consume the failure detector's view
            """
            from repro.congest.detector import crash_view

            def reroute(plan, round_number, n):
                view = crash_view(plan, n)
                return view.down_until(0, round_number)
            """,
            # reading the declarative spec is fine
            """
            def has_crashes(plan):
                return bool(plan.spec.crashes)
            """,
            # unrelated attribute named crashed (not a call) is fine
            """
            def status(report):
                return report.crashed
            """,
        ],
    )
    def test_quiet(self, source):
        assert "R008" not in rule_ids(source)

    def test_congest_modules_exempt(self):
        source = textwrap.dedent(
            """
            def deliver(faults, round_number, n):
                return faults.crashed(round_number, n)
            """
        )
        assert any(
            f.rule == "R008"
            for f in lint_source(source, "src/repro/core/router.py")
        )
        assert not any(
            f.rule == "R008"
            for f in lint_source(source, "src/repro/congest/network.py")
        )


class TestR007ChaosStream:
    @pytest.mark.parametrize(
        "source",
        [
            # raw constructor-made generator
            """
            import numpy as np
            from repro.runtime.chaos import ChaosPlan

            def plan(spec):
                return ChaosPlan(spec, rng=np.random.default_rng(0))
            """,
            # a generator variable: provenance unknown at the call site
            """
            from repro.runtime.chaos import ChaosPlan

            def plan(spec, rng):
                return ChaosPlan(spec, rng)
            """,
            # managed derivation, but not the named "chaos" stream —
            # the campaign would consume another stream's draws
            """
            from repro.runtime.chaos import ChaosPlan
            from repro.rng import derive_rng

            def plan(spec, seed):
                return ChaosPlan(spec, rng=derive_rng(seed, 7))
            """,
            # context stream with the wrong name
            """
            from repro.runtime.chaos import ChaosPlan

            def plan(spec, context):
                return ChaosPlan(spec, context.stream("faults"))
            """,
            # no rng at all
            """
            from repro.runtime.chaos import ChaosPlan

            def plan(spec):
                return ChaosPlan(spec)
            """,
        ],
    )
    def test_fires(self, source):
        assert "R007" in rule_ids(source)

    @pytest.mark.parametrize(
        "source",
        [
            # the sanctioned derivation (how the workload engine mints it)
            """
            from repro.rng import derive_rng, stream_entropy
            from repro.runtime.chaos import ChaosPlan

            def plan(spec, seed):
                return ChaosPlan(
                    spec, rng=derive_rng(seed, stream_entropy("chaos"))
                )
            """,
            # the context's named stream
            """
            from repro.runtime.chaos import ChaosPlan

            def plan(spec, context):
                return ChaosPlan(spec, rng=context.stream("chaos"))
            """,
            # fresh_stream is a managed stream too
            """
            from repro.runtime.chaos import ChaosPlan

            def plan(spec, context):
                return ChaosPlan(spec, context.fresh_stream("chaos"))
            """,
            # unrelated call named similarly must not trigger
            """
            def describe_chaos_plan(spec):
                return str(spec)
            """,
        ],
    )
    def test_quiet(self, source):
        assert "R007" not in rule_ids(source)


class TestEngineMechanics:
    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "bad.py")
        assert [f.rule for f in findings] == ["E000"]

    def test_findings_sorted_and_located(self):
        source = textwrap.dedent(
            """
            import random

            def a():
                return random.random()

            def b():
                return random.random()
            """
        )
        findings = lint_source(source, "fixture.py")
        assert [f.rule for f in findings] == ["R001", "R001"]
        assert findings[0].line < findings[1].line
        assert findings[0].path == "fixture.py"
