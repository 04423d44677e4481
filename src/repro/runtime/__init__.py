"""The execution layer: run contexts, trace events, and backends.

Everything the repository can run — CLI commands, :func:`run`,
:class:`Session`, benchmarks, tests — goes through a
:class:`RunContext` (seed → named RNG streams, shared
:class:`~repro.params.Params`, one :class:`~repro.core.ledger.RoundLedger`,
structured trace events) and a :class:`Backend` (oracle = vectorized
engines, native = real message passing).  See ``docs/architecture.md``
for the trace-event schema.
"""

from .backends import (
    BACKENDS,
    Backend,
    BackendMismatch,
    NativeBackend,
    OracleBackend,
    UnsupportedOnBackend,
    make_backend,
)
from .chaos import ChaosPlan, ChaosSpec
from .config import OPS, RunConfig, RunOutcome, run
from .context import RECOVERY_MODES, RunContext
from .journal import JOURNAL_VERSION, Journal
from .ops import OP_TABLE, OpSpec, check_backend_support, validate_request
from .events import (
    EVENT_KINDS,
    EventSink,
    JsonlSink,
    MemorySink,
    NullSink,
    TraceEvent,
    read_jsonl_trace,
    sum_ledger_charges,
)
from .resilience import (
    BREAKER_STATES,
    CircuitOpen,
    DeadlineExceeded,
    Governor,
    LoadShed,
    ResiliencePolicy,
    ServeRejection,
)
from .session import (
    Request,
    Session,
    SessionResponse,
    UpdateReport,
    serve_jsonl,
)
from .store import HierarchyStore, StoreStats, open_store, store_key

__all__ = [
    "BACKENDS",
    "BREAKER_STATES",
    "Backend",
    "BackendMismatch",
    "ChaosPlan",
    "ChaosSpec",
    "CircuitOpen",
    "DeadlineExceeded",
    "EVENT_KINDS",
    "Governor",
    "HierarchyStore",
    "JOURNAL_VERSION",
    "Journal",
    "LoadShed",
    "RECOVERY_MODES",
    "EventSink",
    "JsonlSink",
    "MemorySink",
    "NativeBackend",
    "NullSink",
    "OPS",
    "OP_TABLE",
    "OpSpec",
    "OracleBackend",
    "Request",
    "ResiliencePolicy",
    "RunConfig",
    "RunContext",
    "RunOutcome",
    "ServeRejection",
    "Session",
    "SessionResponse",
    "StoreStats",
    "TraceEvent",
    "UnsupportedOnBackend",
    "UpdateReport",
    "check_backend_support",
    "make_backend",
    "open_store",
    "read_jsonl_trace",
    "run",
    "serve_jsonl",
    "store_key",
    "sum_ledger_charges",
    "validate_request",
]
