"""Smoke tests for the experiment runners and table formatting."""

from repro.analysis import (
    format_number,
    format_table,
    mixing_bound_survey,
    parallel_walk_sweep,
    partition_structure,
    portal_uniformity,
    recursion_decomposition,
    routing_scaling,
    virtual_tree_trace,
)


class TestTables:
    def test_format_number_variants(self):
        assert format_number(True) == "yes"
        assert format_number(False) == "no"
        assert format_number(3) == "3"
        assert format_number(123456) == "123,456"
        assert format_number(0.0) == "0"
        assert format_number(1.5e7) == "1.5e+07"
        assert format_number("abc") == "abc"

    def test_format_table_basic(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 30, "b": 0.1}]
        text = format_table(rows, title="T")
        assert text.startswith("T\n")
        assert "a" in text and "b" in text
        assert "30" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "b" in text
        assert "a" not in text.splitlines()[0]


class TestExperimentRunners:
    def test_routing_scaling_small(self):
        rows = routing_scaling(sizes=(32,), include_baseline=False)
        assert len(rows) == 1
        assert rows[0]["delivered"]
        assert rows[0]["rounds"] > 0

    def test_mixing_survey_rows(self):
        rows = mixing_bound_survey()
        assert len(rows) == 5
        assert all(
            row["tau_bar measured"] <= row["lemma2.3 bound"] for row in rows
        )

    def test_parallel_walk_rows(self):
        rows = parallel_walk_sweep(n=64)
        assert [row["k"] for row in rows] == [1, 2, 4, 8]

    def test_recursion_rows_cover_levels(self):
        rows = recursion_decomposition(n=64)
        assert rows[0]["level"] == 0
        assert len(rows) >= 2

    def test_virtual_tree_rows(self):
        rows = virtual_tree_trace(n=32)
        assert rows[0]["iteration"] == 0
        assert all(row["max_depth"] >= 0 for row in rows)

    def test_partition_rows(self):
        rows = partition_structure(n=64)
        assert all(row["portal_coverage"] > 0.9 for row in rows)

    def test_portal_uniformity_rows(self):
        rows = portal_uniformity(n=48)
        variants = {row["variant"] for row in rows}
        assert variants == {"sampled", "walk"}


class TestRunnerOptions:
    def test_beta_ablation_custom_betas(self):
        from repro.analysis import beta_ablation

        rows = beta_ablation(n=64, betas=(4, 8))
        assert [row["beta"] for row in rows] == [4, 8]

    def test_mixing_scaling_custom_sizes(self):
        from repro.analysis import mixing_scaling

        rows = mixing_scaling(sizes=(32, 64))
        assert len(rows) == 3
        assert all(row["n_small"] >= 25 for row in rows)

    def test_stretch_profile_rows(self):
        from repro.analysis import stretch_profile

        rows = stretch_profile(n=64)
        assert [row["beta"] for row in rows] == [4, 8, 32]
        assert all(row["delivered"] for row in rows)

    def test_crossover_rows_have_both_kinds(self):
        from repro.analysis import crossover_analysis

        rows = crossover_analysis(sizes=(64,))
        sources = [row["source"] for row in rows]
        assert any(s.startswith("measured") for s in sources)
        assert any(s.startswith("idealized") for s in sources)

    def test_native_fidelity_rows(self):
        from repro.analysis import native_fidelity

        rows = native_fidelity(sizes=(16,))
        assert len(rows) == 1
        assert rows[0]["native_connected"]
        assert 0.05 < rows[0]["ratio"] < 20

    def test_preset_ablation_rows(self):
        from repro.analysis import preset_ablation

        rows = preset_ablation(n=48)
        presets = [row["preset"] for row in rows]
        assert "paper" in presets and "default" in presets
        assert all(row["delivered"] for row in rows)
