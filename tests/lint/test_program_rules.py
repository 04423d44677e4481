"""Positive/negative fixtures for the interprocedural rules R009–R011.

These include the acceptance fixtures from the analyzer's design brief:
an uncharged ``Network.run`` loop (R009) and a generator minted two call
levels above its eventual use (R010).
"""

from repro.lint.program import lint_program


def _rules_of(findings):
    return sorted(finding.rule for finding in findings)


class TestLedgerCoverage:
    """R009: rounds executed under congest/core reach a charge."""

    def test_uncharged_run_loop_is_flagged(self, make_tree):
        root = make_tree({
            "proj/congest/mod.py": """
                def spin(network, steps):
                    for _ in range(steps):
                        network.run(None, max_rounds=1)
            """,
        })
        findings = lint_program([root / "proj"])
        assert _rules_of(findings) == ["R009"]
        assert findings[0].line == 4  # spin's network.run call

    def test_exporting_rounds_passes(self, make_tree):
        root = make_tree({
            "proj/congest/mod.py": """
                def good(network):
                    stats = network.run(None, max_rounds=1)
                    return stats.rounds
            """,
        })
        assert lint_program([root / "proj"]) == []

    def test_charging_a_ledger_passes(self, make_tree):
        root = make_tree({
            "proj/congest/mod.py": """
                def charged(network, ledger):
                    stats = network.run(None, max_rounds=1)
                    ledger.charge("phase", stats.rounds)
            """,
        })
        assert lint_program([root / "proj"]) == []

    def test_caller_discarding_exported_rounds_is_flagged(
        self, make_tree
    ):
        """Two-level case: the helper exports its round count, but the
        caller drops it on the floor — the rounds still go missing."""
        root = make_tree({
            "proj/congest/mod.py": """
                def helper(network):
                    stats = network.run(None, max_rounds=1)
                    return stats.rounds

                def discards(network):
                    helper(network)
                    return 0

                def forwards(network):
                    return helper(network)
            """,
        })
        findings = lint_program([root / "proj"])
        assert _rules_of(findings) == ["R009"]
        assert findings[0].line == 7  # discards' helper call

    def test_dropping_the_array_forwarders_rounds_is_flagged(
        self, make_tree
    ):
        """The clean-wire array executor runs rounds without a
        ``Network``; a caller that drops its count is still flagged."""
        root = make_tree({
            "proj/congest/forwarding.py": """
                def _forward_steps_array(graph, bounds, origins, targets):
                    return [1], [len(origins)]
            """,
            "proj/congest/mod.py": """
                from .forwarding import _forward_steps_array

                def drops(graph, bounds, origins, targets):
                    _forward_steps_array(graph, bounds, origins, targets)
                    return 0

                def forwards(graph, bounds, origins, targets):
                    rounds, messages = _forward_steps_array(
                        graph, bounds, origins, targets
                    )
                    return rounds
            """,
        })
        findings = lint_program([root / "proj"])
        assert _rules_of(findings) == ["R009"]
        assert findings[0].line == 5  # drops' executor call

    def test_transitive_charge_covers_the_caller(self, make_tree):
        root = make_tree({
            "proj/congest/mod.py": """
                def run_and_charge(network, ledger):
                    stats = network.run(None, max_rounds=1)
                    ledger.charge("phase", stats.rounds)

                def driver(network, ledger):
                    run_and_charge(network, ledger)
            """,
        })
        assert lint_program([root / "proj"]) == []

    def test_outside_congest_core_is_not_flagged(self, make_tree):
        root = make_tree({
            "proj/analysis/mod.py": """
                def spin(network):
                    network.run(None, max_rounds=1)
            """,
        })
        assert lint_program([root / "proj"]) == []

    def test_suppression_comment_is_honoured(self, make_tree):
        root = make_tree({
            "proj/congest/mod.py": """
                def spin(network):
                    network.run(None)  # reprolint: disable=R009
            """,
        })
        assert lint_program([root / "proj"]) == []


class TestRngProvenance:
    """R010: generators crossing call boundaries trace to managed
    seeds."""

    def test_mint_two_levels_above_use_is_flagged(self, make_tree):
        """The generator is minted in ``top`` and only *used* two call
        levels down in ``use`` — the flag fires where provenance is
        lost: the minted value entering the call graph."""
        root = make_tree({
            "proj/core/mod.py": """
                import numpy as np

                def use(rng):
                    return rng.integers(10)

                def mid(rng):
                    return use(rng=rng)

                def top(seed):
                    rng = np.random.default_rng(seed)
                    return mid(rng=rng)
            """,
        })
        findings = lint_program([root / "proj"])
        assert _rules_of(findings) == ["R010"]
        assert findings[0].line == 12  # top's default_rng call
        assert "numpy.random.default_rng" in findings[0].message

    def test_direct_mint_in_call_argument_is_flagged(self, make_tree):
        root = make_tree({
            "proj/core/mod.py": """
                import numpy as np

                def use(rng):
                    return rng.integers(10)

                def top(seed):
                    return use(rng=np.random.default_rng(seed))
            """,
        })
        findings = lint_program([root / "proj"])
        assert _rules_of(findings) == ["R010"]

    def test_positional_rng_argument_is_flagged(self, make_tree):
        root = make_tree({
            "proj/core/mod.py": """
                import numpy as np

                def use(graph, rng):
                    return rng.integers(10)

                def top(graph, seed):
                    local = np.random.default_rng(seed)
                    return use(graph, local)
            """,
        })
        findings = lint_program([root / "proj"])
        assert _rules_of(findings) == ["R010"]

    def test_derive_rng_passes(self, make_tree):
        root = make_tree({
            "proj/core/mod.py": """
                from proj.rng import derive_rng

                def use(rng):
                    return rng.integers(10)

                def top(seed):
                    rng = derive_rng(seed)
                    return use(rng=rng)
            """,
            "proj/rng.py": """
                def derive_rng(*parts):
                    return None
            """,
        })
        assert lint_program([root / "proj"]) == []

    def test_parameter_passthrough_passes(self, make_tree):
        root = make_tree({
            "proj/core/mod.py": """
                def use(rng):
                    return rng.integers(10)

                def mid(rng):
                    return use(rng=rng)
            """,
        })
        assert lint_program([root / "proj"]) == []

    def test_runtime_package_is_exempt(self, make_tree):
        root = make_tree({
            "proj/runtime/mod.py": """
                import numpy as np

                def use(rng):
                    return rng.integers(10)

                def top(seed):
                    rng = np.random.default_rng(seed)
                    return use(rng=rng)
            """,
        })
        assert lint_program([root / "proj"]) == []


class TestMessageSizeFlow:
    """R011: over-wide payloads caught across call boundaries."""

    def test_wide_tuple_into_payload_param_is_flagged(self, make_tree):
        root = make_tree({
            "proj/congest/mod.py": """
                def send(payload):
                    return payload

                def caller(u, v):
                    return send(payload=(u, v, 1, 2, 3, 4))
            """,
        })
        findings = lint_program([root / "proj"])
        assert _rules_of(findings) == ["R011"]

    def test_narrow_tuple_passes(self, make_tree):
        root = make_tree({
            "proj/congest/mod.py": """
                def send(payload):
                    return payload

                def caller(u, v):
                    return send(payload=(u, v, 1))
            """,
        })
        assert lint_program([root / "proj"]) == []

    def test_node_algorithm_helper_width_is_flagged(self, make_tree):
        root = make_tree({
            "proj/congest/algo.py": """
                def build_payload(node):
                    return (node, 1, 2, 3, 4, 5)

                class Algo(NodeAlgorithm):
                    def receive(self, node, messages):
                        return build_payload(node)
            """,
        })
        findings = lint_program([root / "proj"])
        assert _rules_of(findings) == ["R011"]
        assert "build_payload" in findings[0].message

    def test_helper_width_outside_node_algorithm_passes(
        self, make_tree
    ):
        root = make_tree({
            "proj/congest/algo.py": """
                def build_payload(node):
                    return (node, 1, 2, 3, 4, 5)

                def plain(node):
                    return build_payload(node)
            """,
        })
        assert lint_program([root / "proj"]) == []
