"""Seeded chaos for the serve stack: kills, corruption, fault windows.

The resilience layer (:mod:`repro.runtime.resilience`) and the journal
(:mod:`repro.runtime.journal`) claim to survive the real world; this
module is the adversary that proves it.  A :class:`ChaosSpec` describes
a reproducible failure campaign against a live serve loop:

* **kills** — simulated process death between requests: the session is
  dropped without a graceful close (its journal file handle is severed
  mid-stream) and rebuilt via :meth:`repro.runtime.Session.recover`;
* **store corruption** — a kill may also overwrite bytes in the store
  entry the recovery would warm-start from, forcing the corrupt-entry
  miss path (delete + deterministic rebuild);
* **journal truncation** — a kill may also chop the journal's tail,
  exercising torn-tail tolerance (recovery converges to the intact
  prefix);
* **fault windows** — mid-stream :class:`~repro.congest.faults.FaultSpec`
  windows opened around a span of requests via
  :meth:`repro.runtime.Session.fault_window`.

Determinism contract: a :class:`ChaosPlan` draws **exclusively** from
the named ``"chaos"`` RNG stream (reprolint R007, which also holds
fault plans to a managed stream), and draws a *fixed* number of values
per request — five, regardless of which actions fire — so the decision
at request ``k`` is a pure function of ``(seed, k)``, never of earlier
outcomes.  Enabling chaos therefore cannot perturb any other stream,
and the same seed replays the same campaign bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from ..congest.faults import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import Session
    from .store import HierarchyStore

__all__ = [
    "ChaosAction",
    "ChaosPlan",
    "ChaosSpec",
    "corrupt_store_entry",
    "kill_session",
    "truncate_journal_tail",
]

#: Uniform draws consumed per request (fixed for stream alignment).
_DRAWS_PER_REQUEST = 4


@dataclass(frozen=True)
class ChaosSpec:
    """One reproducible failure campaign, decided once and immutable.

    Attributes:
        kill_rate: per-request probability of a simulated process kill
            *before* serving the request (0 = never).
        max_kills: cap on total kills per run (recovery is expensive;
            the cap keeps campaigns bounded).
        corrupt_store: probability, given a kill, that the store entry
            recovery would warm-start from is corrupted first.
        truncate_journal: probability, given a kill, that the journal
            tail is truncated first.
        truncate_bytes: bytes chopped off the journal tail.
        fault_rate: per-request probability that a fault window opens
            at this request (requires ``fault_spec``).
        fault_spec: the :class:`FaultSpec` (or spec string) injected
            inside fault windows.
        fault_window: consecutive requests each window covers.
    """

    kill_rate: float = 0.0
    max_kills: int = 2
    corrupt_store: float = 0.0
    truncate_journal: float = 0.0
    truncate_bytes: int = 64
    fault_rate: float = 0.0
    fault_spec: Union[None, str, FaultSpec] = None
    fault_window: int = 1

    def __post_init__(self) -> None:
        for name in (
            "kill_rate",
            "corrupt_store",
            "truncate_journal",
            "fault_rate",
        ):
            value = float(getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be in [0, 1], got {value}"
                )
        if int(self.max_kills) < 0:
            raise ValueError(
                f"max_kills must be >= 0, got {self.max_kills}"
            )
        if int(self.truncate_bytes) < 1:
            raise ValueError(
                f"truncate_bytes must be >= 1, got {self.truncate_bytes}"
            )
        if int(self.fault_window) < 1:
            raise ValueError(
                f"fault_window must be >= 1, got {self.fault_window}"
            )
        if isinstance(self.fault_spec, str):
            object.__setattr__(
                self, "fault_spec", FaultSpec.parse(self.fault_spec)
            )
        elif self.fault_spec is not None and not isinstance(
            self.fault_spec, FaultSpec
        ):
            raise TypeError(
                "fault_spec must be None, a spec string, or a "
                f"FaultSpec, got {type(self.fault_spec).__name__}"
            )
        if self.fault_rate > 0.0 and self.fault_spec is None:
            raise ValueError("fault_rate > 0 requires a fault_spec")

    @property
    def is_null(self) -> bool:
        """True when the campaign can never act."""
        return self.kill_rate == 0.0 and self.fault_rate == 0.0

    def describe(self) -> str:
        """A compact, stable description (reports and baselines)."""
        parts = []
        if self.kill_rate > 0.0:
            parts.append(f"kill={self.kill_rate:g}x{self.max_kills}")
            if self.corrupt_store > 0.0:
                parts.append(f"corrupt={self.corrupt_store:g}")
            if self.truncate_journal > 0.0:
                parts.append(
                    f"truncate={self.truncate_journal:g}"
                    f"@{self.truncate_bytes}B"
                )
        if self.fault_rate > 0.0 and self.fault_spec is not None:
            parts.append(
                f"faults={self.fault_rate:g}"
                f"x{self.fault_window}({self.fault_spec.describe()})"
            )
        return ",".join(parts) if parts else "null"


@dataclass(frozen=True)
class ChaosAction:
    """What the plan decided for one request (pre-serve)."""

    index: int
    kill: bool = False
    corrupt: bool = False
    truncate: bool = False
    open_window: bool = False
    entropy: int = 0


class ChaosPlan:
    """Binds a :class:`ChaosSpec` to the named ``"chaos"`` stream.

    ``rng`` must be minted from the ``"chaos"`` stream (``derive_rng``
    with ``stream_entropy("chaos")`` or a context's
    ``stream("chaos")``/``fresh_stream("chaos")`` — reprolint R007
    checks the call site), so a campaign cannot perturb construction,
    workload, or fault randomness.  Exactly five values are drawn per
    request whatever happens, so decision ``k`` depends only on
    ``(seed, k)``.
    """

    def __init__(self, spec: ChaosSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self.rng = rng
        self.kills = 0
        self.windows_opened = 0
        self._window_left = 0

    def action(self, index: int) -> ChaosAction:
        """Decide the campaign's moves before serving request ``index``.

        Always consumes the same number of draws; the returned action
        already respects ``max_kills`` and open-window exclusion (a new
        window cannot open while one is active — the caller tracks the
        active window via ``fault_window`` request counts).
        """
        draws = self.rng.random(_DRAWS_PER_REQUEST)
        entropy = int(self.rng.integers(1 << 62))
        spec = self.spec
        kill = (
            spec.kill_rate > 0.0
            and self.kills < spec.max_kills
            and bool(draws[0] < spec.kill_rate)
        )
        corrupt = kill and bool(draws[1] < spec.corrupt_store)
        truncate = kill and bool(draws[2] < spec.truncate_journal)
        open_window = False
        if self._window_left > 0:
            self._window_left -= 1
        elif spec.fault_rate > 0.0 and bool(draws[3] < spec.fault_rate):
            open_window = True
            self.windows_opened += 1
            self._window_left = spec.fault_window - 1
        if kill:
            self.kills += 1
        return ChaosAction(
            index=index,
            kill=kill,
            corrupt=corrupt,
            truncate=truncate,
            open_window=open_window,
            entropy=entropy,
        )


# -- the chaos verbs ----------------------------------------------------------


def kill_session(session: "Session") -> None:
    """Simulate process death: sever the session without grace.

    The journal's OS handle is closed raw — no final mark, no close
    event — which is exactly the state a SIGKILL leaves behind (every
    acknowledged append was already fsync'd, anything else is gone).
    The session object must not be used afterwards.
    """
    if session.journal is not None:
        handle = session.journal._handle
        if not handle.closed:
            handle.close()
    # Mark closed so accidental reuse fails loudly instead of serving
    # from a "dead" process.
    session._closed = True


def corrupt_store_entry(store: "HierarchyStore", key: str) -> bool:
    """Damage a store entry with a torn write (if it exists).

    Deterministic damage — the file is truncated to half its size, the
    canonical shape of a write that lost power mid-flush — so campaigns
    replay bit for bit and the damage is always *detectable*: a torn
    pickle fails to load, the store converts the
    :class:`~repro.runtime.store.StoreEntryError` into a delete + miss,
    and recovery rebuilds deterministically.  (An in-place byte
    splat can land inside array data and load silently, which would
    make the campaign's behaviour depend on pickle layout.)  Returns
    whether an entry was damaged.
    """
    path = store.path_for(key)
    if not os.path.exists(path):
        return False
    size = os.path.getsize(path)
    if size == 0:
        return False
    with open(path, "r+b") as handle:
        handle.truncate(size // 2)
    return True


def truncate_journal_tail(path: str, nbytes: int) -> bool:
    """Chop ``nbytes`` off a journal file's tail (torn-write model).

    Returns whether anything was removed.  The journal reader tolerates
    the resulting torn last line by design; at-least-once semantics
    cover any acknowledged-but-truncated marks.  The tear can also
    destroy acknowledged *update* lines, which recovery then never
    replays: a caller that resumes the stream must re-apply the updates
    it fed past the journal's surviving prefix (``run_workload`` does).
    """
    if not os.path.exists(path):
        return False
    size = os.path.getsize(path)
    if size == 0:
        return False
    keep = max(0, size - int(nbytes))
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    return True
