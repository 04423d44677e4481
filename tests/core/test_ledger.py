"""Tests for the round ledger."""

import numpy as np
import pytest

from repro.core import RoundLedger
from repro.runtime import JsonlSink, RunContext, read_jsonl_trace


class TestLedger:
    def test_empty_total(self):
        assert RoundLedger().total() == 0.0

    def test_charge_accumulates(self):
        ledger = RoundLedger()
        ledger.charge("a", 5)
        ledger.charge("a", 7)
        ledger.charge("b", 1)
        assert ledger.total() == 13
        assert ledger.by_label() == {"a": 12.0, "b": 1.0}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RoundLedger().charge("x", -1)

    def test_detail_stored(self):
        ledger = RoundLedger()
        ledger.charge("x", 1, packets=3)
        assert ledger.charges[0].detail == {"packets": 3}

    def test_by_prefix(self):
        ledger = RoundLedger()
        ledger.charge("route/hop", 2)
        ledger.charge("route/bottom", 3)
        ledger.charge("mst/it0", 4)
        assert ledger.by_prefix() == {"route": 5.0, "mst": 4.0}

    def test_label_order_preserved(self):
        ledger = RoundLedger()
        for label in ("c", "a", "b"):
            ledger.charge(label, 1)
        assert list(ledger.by_label()) == ["c", "a", "b"]

    def test_format_contains_total(self):
        ledger = RoundLedger()
        ledger.charge("x", 2)
        assert "TOTAL" in ledger.format()
        assert "x" in ledger.format()

    def test_repr(self):
        ledger = RoundLedger()
        ledger.charge("x", 2)
        assert "entries=1" in repr(ledger)

    def test_zero_charge_allowed(self):
        ledger = RoundLedger()
        ledger.charge("noop", 0)
        assert ledger.total() == 0.0

    def test_total_equals_sum_of_breakdown(self):
        ledger = RoundLedger()
        for index, label in enumerate(("g0/build", "route/a", "route/b")):
            ledger.charge(label, 2.5 * (index + 1))
        assert ledger.total() == pytest.approx(sum(ledger.by_label().values()))
        assert ledger.total() == pytest.approx(
            sum(charge.rounds for charge in ledger.charges)
        )

    def test_detail_survives_jsonl_round_trip(self, tmp_path):
        """Charge.detail comes back intact from a JSONL event sink."""
        path = str(tmp_path / "trace.jsonl")
        ledger = RoundLedger()
        ledger.charge(
            "route/instance", 7.0,
            packets=np.int64(12), phases=1, note="phase-split",
        )
        with JsonlSink(path) as sink:
            context = RunContext(seed=0, sink=sink)
            context.absorb_ledger(ledger)
        events = list(read_jsonl_trace(path))
        assert len(events) == 1
        (event,) = events
        assert event.kind == "ledger_charge"
        assert event.name == "route/instance"
        assert event.payload["rounds"] == 7.0
        # numpy scalars serialize as plain JSON ints.
        assert event.payload["packets"] == 12
        assert event.payload["phases"] == 1
        assert event.payload["note"] == "phase-split"
