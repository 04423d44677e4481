"""Tests for the unified bench record schema and its loader."""

import json

import pytest

from repro.bench import (
    ROW_KEYS,
    SCHEMA_VERSION,
    load_record,
    make_record,
    validate_record,
    write_record,
)


def _row(**overrides):
    row = {
        "kernel": "walk_engine",
        "n": 64,
        "seed": 0,
        "wall_s": 0.25,
        "rounds": 100,
    }
    row.update(overrides)
    return row


class TestMakeAndValidate:
    def test_well_formed_record(self):
        record = make_record("kernels", [_row()], seed=3, quick=True)
        assert record["schema"] == SCHEMA_VERSION
        assert record["suite"] == "kernels"
        assert record["seed"] == 3
        assert record["quick"] is True
        validate_record(record)

    def test_hand_built_record_accepted(self):
        """A literal record, not produced by make_record, validates."""
        validate_record(
            {
                "schema": SCHEMA_VERSION,
                "suite": "kernels",
                "seed": 0,
                "quick": False,
                "rows": [
                    {"kernel": "k", "n": 8, "seed": 0, "wall_s": 0.1, "rounds": 3}
                ],
                "meta": {},
            }
        )

    def test_row_columns_serialized_in_order(self):
        scrambled = dict(reversed(list(_row().items())))
        record = make_record("kernels", [scrambled])
        assert tuple(record["rows"][0]) == ROW_KEYS

    def test_metrics_sorted_and_kept(self):
        record = make_record(
            "soak", [_row(metrics={"p99": 2.0, "errors": 0})]
        )
        assert list(record["rows"][0]["metrics"]) == ["errors", "p99"]

    def test_fractional_rounds_accepted(self):
        """Amortized batch rounds are fractional by design."""
        validate_record(make_record("soak", [_row(rounds=12.5)]))

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"schema": "repro-bench/v0"}, "schema"),
            ({"suite": ""}, "suite"),
            ({"seed": "0"}, "seed"),
            ({"quick": 1}, "quick"),
            ({"rows": []}, "rows"),
            ({"meta": None}, "meta"),
            ({"rows": {"rows": []}}, "rows"),
            ({"rows": [_row(wall_s=float("nan"))]}, "wall_s"),
        ],
    )
    def test_bad_record_rejected(self, mutation, match):
        record = make_record("kernels", [_row()])
        record.update(mutation)
        with pytest.raises(ValueError, match=match):
            validate_record(record)

    @pytest.mark.parametrize(
        "bad_row, match",
        [
            (_row(kernel=""), "kernel"),
            (_row(n="64"), "n must be an int"),
            (_row(n=0), "n must be > 0"),
            (_row(wall_s=-0.1), "wall_s"),
            (_row(rounds=-1), "rounds"),
            ({**_row(), "extra": 1}, "columns"),
            (_row(metrics={"flag": True}), "number or str"),
            (_row(metrics={"bad": [1]}), "number or str"),
            (_row(rounds="3"), "rounds"),
            (_row(rounds=float("inf")), "rounds"),
            (
                {k: v for k, v in _row().items() if k != "rounds"},
                "columns",
            ),
            (dict(reversed(list(_row().items()))), "columns"),
            (_row(metrics={"p50": float("nan")}), "finite"),
        ],
    )
    def test_bad_row_rejected(self, bad_row, match):
        with pytest.raises(ValueError, match=match):
            validate_record(
                {
                    "schema": SCHEMA_VERSION,
                    "suite": "kernels",
                    "seed": 0,
                    "quick": False,
                    "rows": [bad_row],
                    "meta": {},
                }
            )

    def test_missing_column_rejected(self):
        bad = _row()
        del bad["rounds"]
        with pytest.raises(ValueError, match="columns"):
            make_record("kernels", [bad])


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = str(tmp_path / "kernels.json")
        record = make_record(
            "kernels",
            [_row(metrics={"p50": 1.5})],
            seed=2,
            meta={"title": "t"},
        )
        write_record(record, path)
        assert load_record(path) == record

    def test_non_finite_never_written(self, tmp_path):
        path = tmp_path / "kernels.json"
        record = make_record("kernels", [_row()])
        record["rows"][0]["wall_s"] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            write_record(record, str(path))
        assert not path.exists()

    def test_written_file_is_diffable_json(self, tmp_path):
        path = str(tmp_path / "kernels.json")
        write_record(make_record("kernels", [_row()]), path)
        text = open(path).read()
        assert text.endswith("\n")
        assert json.loads(text)["suite"] == "kernels"


class TestLegacyLoader:
    def test_bare_list_rejected(self, tmp_path):
        path = str(tmp_path / "faults.json")
        with open(path, "w") as handle:
            json.dump([_row(seed=4), _row(n=128, seed=4)], handle)
        with pytest.raises(ValueError, match="must be a dict"):
            load_record(path)

    def test_malformed_legacy_rows_rejected(self, tmp_path):
        path = str(tmp_path / "kernels.json")
        with open(path, "w") as handle:
            json.dump([{"kernel": "k"}], handle)
        with pytest.raises(ValueError):
            load_record(path)
