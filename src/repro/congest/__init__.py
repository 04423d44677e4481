"""Synchronous CONGEST-model simulator and the protocols run on it."""

from .detector import (
    MAX_WAIT_ROUNDS,
    CrashView,
    DetectionReport,
    HeartbeatNode,
    crash_view,
    run_heartbeat_detector,
)
from .faults import (
    CrashWindow,
    DeliveryTimeout,
    FaultPlan,
    FaultRecord,
    FaultSpec,
)
from .forwarding import TokenForwarder, forward_demands
from .leader import elect_leader
from .native import (
    NativeG0,
    NativeLevel,
    ReplayMismatch,
    WalkBatch,
    WalkReplay,
    build_native_g0,
    build_native_level1,
    replay_walk_run,
)
from .network import (
    MESSAGE_WORD_LIMIT,
    CongestViolation,
    Network,
    NodeAlgorithm,
    NodeContext,
    RunStats,
)
from .reliable import (
    DeliveryReport,
    ReliableForwarder,
    reliable_forward_demands,
)

__all__ = [
    "MAX_WAIT_ROUNDS",
    "MESSAGE_WORD_LIMIT",
    "CongestViolation",
    "CrashView",
    "CrashWindow",
    "DetectionReport",
    "HeartbeatNode",
    "crash_view",
    "run_heartbeat_detector",
    "DeliveryReport",
    "DeliveryTimeout",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "ReliableForwarder",
    "reliable_forward_demands",
    "Network",
    "NodeAlgorithm",
    "NodeContext",
    "RunStats",
    "NativeG0",
    "NativeLevel",
    "WalkBatch",
    "WalkReplay",
    "build_native_level1",
    "build_native_g0",
    "replay_walk_run",
    "ReplayMismatch",
    "TokenForwarder",
    "forward_demands",
    "elect_leader",
]
