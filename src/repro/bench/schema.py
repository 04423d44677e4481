"""The unified benchmark record: one versioned JSON schema for all suites.

Before PR 9 every benchmark PR invented its own committed artifact —
``BENCH_PR2.json`` through ``BENCH_PR8.json``, each a bare list of rows
with no self-description.  This module defines the one record shape
every suite now writes:

.. code-block:: json

    {
      "schema": "repro-bench/v1",
      "suite": "kernels",
      "seed": 0,
      "quick": false,
      "rows": [
        {"kernel": "walk_engine", "n": 1024, "seed": 0,
         "wall_s": 0.047, "rounds": 100,
         "metrics": {"rounds_p50": 100.0}}
      ],
      "meta": {"title": "..."}
    }

Rows keep the historical five-column core (``kernel``, ``n``, ``seed``,
``wall_s``, ``rounds``) so every legacy consumer keeps working, plus an
optional ``metrics`` mapping for suites that report more than a single
scalar (percentiles, error counts, curve coordinates).  ``rounds`` and
every ``metrics`` value except ``wall``-prefixed ones are expected to be
seed-deterministic — that is what the regression gate compares exactly.

:func:`load_record` reads only this schema; a bare list of rows (the
retired legacy format) is rejected, and so is a non-finite number:
a NaN ``wall_s`` would slip under any wall budget.
"""

from __future__ import annotations

import json
import math
from numbers import Real
from typing import Any, Mapping, Optional, Sequence

__all__ = [
    "ROW_KEYS",
    "SCHEMA_VERSION",
    "keyed_rows",
    "load_record",
    "make_record",
    "validate_record",
    "write_record",
]

#: The current record schema identifier.
SCHEMA_VERSION = "repro-bench/v1"

#: The required row columns, in serialization order.
ROW_KEYS = ("kernel", "n", "seed", "wall_s", "rounds")


def keyed_rows(rows: Sequence[Mapping[str, Any]]) -> dict[tuple, Any]:
    """Rows by their ``(kernel, n, seed)`` key, one row per key.

    Raises ``ValueError`` naming the first repeated key: the gate
    compares one row per key, so a repeat would go unchecked.
    """
    keyed: dict[tuple, Any] = {}
    for index, row in enumerate(rows):
        key = (row["kernel"], row["n"], row["seed"])
        if key in keyed:
            raise ValueError(
                f"row {index} repeats the key (kernel, n, seed) = {key!r}"
            )
        keyed[key] = row
    return keyed


def make_record(
    suite: str,
    rows: Sequence[Mapping[str, Any]],
    *,
    seed: int = 0,
    quick: bool = False,
    meta: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """Assemble (and validate) one v1 record from serialized rows."""
    record = {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "seed": int(seed),
        "quick": bool(quick),
        "rows": [_normalize_row(row) for row in rows],
        "meta": dict(meta) if meta else {},
    }
    validate_record(record)
    return record


def _normalize_row(row: Mapping[str, Any]) -> dict[str, Any]:
    """Project a row onto the schema's column order."""
    missing = [key for key in ROW_KEYS if key not in row]
    if missing:
        raise ValueError(
            f"bench row is missing the columns {missing}; rows need "
            f"exactly {ROW_KEYS} (plus optional 'metrics')"
        )
    out: dict[str, Any] = {key: row[key] for key in ROW_KEYS}
    metrics = row.get("metrics")
    if metrics:
        out["metrics"] = {
            str(key): metrics[key] for key in sorted(metrics)
        }
    return out


def validate_record(payload: object) -> None:
    """Assert ``payload`` is a well-formed v1 record.

    Raises ``ValueError`` describing the first violation, including a
    row whose ``(kernel, n, seed)`` key an earlier row already holds.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"bench record must be a dict, got {type(payload).__name__}"
        )
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"bench record schema must be {SCHEMA_VERSION!r}, "
            f"got {payload.get('schema')!r}"
        )
    suite = payload.get("suite")
    if not isinstance(suite, str) or not suite:
        raise ValueError("bench record needs a non-empty suite name")
    if not isinstance(payload.get("seed"), int):
        raise ValueError("bench record seed must be an int")
    if not isinstance(payload.get("quick"), bool):
        raise ValueError("bench record quick must be a bool")
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ValueError("bench record rows must be a non-empty list")
    for index, row in enumerate(rows):
        _validate_row(index, row)
    keyed_rows(rows)
    if not isinstance(payload.get("meta"), dict):
        raise ValueError("bench record meta must be a dict")


def _validate_row(index: int, row: object) -> None:
    if not isinstance(row, dict):
        raise ValueError(f"row {index} must be a dict, got {row!r}")
    allowed = ROW_KEYS + ("metrics",)
    core = tuple(key for key in row if key != "metrics")
    if core != ROW_KEYS:
        raise ValueError(
            f"row {index} must have exactly the columns {ROW_KEYS} "
            f"(plus optional 'metrics'), got {tuple(row)!r}"
        )
    unknown = sorted(set(row) - set(allowed))
    if unknown:
        raise ValueError(f"row {index} has unknown keys {unknown}")
    if not isinstance(row["kernel"], str) or not row["kernel"]:
        raise ValueError(f"row {index}: kernel must be a non-empty str")
    for key in ("n", "seed"):
        if not isinstance(row[key], int) or isinstance(row[key], bool):
            raise ValueError(f"row {index}: {key} must be an int")
    for key in ("wall_s", "rounds"):
        if not _finite(row[key]) or row[key] < 0:
            raise ValueError(
                f"row {index}: {key} must be a finite number >= 0"
            )
    if row["n"] <= 0:
        raise ValueError(f"row {index}: n must be > 0")
    metrics = row.get("metrics")
    if metrics is None:
        return
    if not isinstance(metrics, dict):
        raise ValueError(f"row {index}: metrics must be a dict")
    for key, value in metrics.items():
        if not isinstance(key, str):
            raise ValueError(f"row {index}: metric keys must be str")
        if not (isinstance(value, str) or _finite(value)):
            raise ValueError(
                f"row {index}: metric {key!r} must be a finite number "
                f"or str, got {value!r}"
            )


def _finite(value: object) -> bool:
    """A real, finite number (bools excluded) — NaN would pass any gate."""
    return (
        isinstance(value, Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def write_record(record: Mapping[str, Any], path: str) -> None:
    """Serialize a validated record to ``path`` as diffable JSON."""
    validate_record(dict(record))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, allow_nan=False)
        handle.write("\n")


def load_record(path: str) -> dict[str, Any]:
    """Read a v1 bench record from ``path`` and validate it.

    Raises ``ValueError`` on anything but a well-formed v1 record —
    including a bare list of rows, the retired pre-v1 format.
    """
    with open(path) as handle:
        payload = json.load(handle)
    validate_record(payload)
    return payload
