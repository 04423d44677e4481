"""Hierarchical round accounting.

Every phase of the construction/routing charges rounds to a
:class:`RoundLedger`.  Charges are expressed in *base-graph* (``G``)
rounds at charge time — callers convert overlay rounds through the
measured emulation factors (one ``G_i`` round costs a measured number of
``G_{i-1}`` rounds, one ``G0`` round costs a measured number of ``G``
rounds).  The ledger keeps a per-label breakdown so benchmarks can print
the cost decomposition of Lemmas 3.2–3.4.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = ["Charge", "RoundLedger"]


@dataclass
class Charge:
    """One accounting entry.

    Attributes:
        label: phase name, e.g. ``"g0-build"`` or ``"route/hop-level-2"``.
        rounds: cost in base-graph rounds.
        detail: free-form context (level, packet counts, ...).
    """

    label: str
    rounds: float
    detail: dict = field(default_factory=dict)


class RoundLedger:
    """Accumulates round charges with a per-label breakdown."""

    def __init__(self) -> None:
        self._charges: list[Charge] = []

    def charge(self, label: str, rounds: float, **detail) -> None:
        """Charge ``rounds`` base-graph rounds under ``label``."""
        if rounds < 0:
            raise ValueError(f"negative round charge: {rounds}")
        self._charges.append(Charge(label, float(rounds), dict(detail)))

    @property
    def charges(self) -> list[Charge]:
        """All entries, in charge order."""
        return list(self._charges)

    def __len__(self) -> int:
        return len(self._charges)

    def slice_from(self, start: int) -> "RoundLedger":
        """A new ledger holding the entries charged at index >= ``start``.

        The session layer marks ``len(ledger)`` before serving a request
        and slices afterwards, giving each request its own ledger view
        without forking the accounting.
        """
        sliced = RoundLedger()
        sliced._charges = list(self._charges[start:])
        return sliced

    def truncate(self, length: int) -> None:
        """Drop every entry charged at index >= ``length``.

        The warm-state restore: rewinding a component-local ledger (the
        hierarchy's construction ledger, which per-request routers also
        charge) to its post-build position, so one request's charges
        can never leak into the next request's view.
        """
        del self._charges[max(0, int(length)):]

    def total(self) -> float:
        """Total base-graph rounds charged."""
        return sum(charge.rounds for charge in self._charges)

    def by_label(self) -> "OrderedDict[str, float]":
        """Total rounds per label, in first-seen order."""
        table: OrderedDict[str, float] = OrderedDict()
        for charge in self._charges:
            table[charge.label] = table.get(charge.label, 0.0) + charge.rounds
        return table

    def by_prefix(self) -> "OrderedDict[str, float]":
        """Total rounds per top-level label prefix (before the first ``/``)."""
        table: OrderedDict[str, float] = OrderedDict()
        for charge in self._charges:
            prefix = charge.label.split("/", 1)[0]
            table[prefix] = table.get(prefix, 0.0) + charge.rounds
        return table

    def format(self) -> str:
        """Human-readable breakdown."""
        lines = [f"{'label':40s} {'rounds':>12s}"]
        for label, rounds in self.by_label().items():
            lines.append(f"{label:40s} {rounds:12.1f}")
        lines.append(f"{'TOTAL':40s} {self.total():12.1f}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"RoundLedger(total={self.total():.1f}, entries={len(self._charges)})"
