"""Deterministic open-loop request generation.

An *open-loop* workload decides its arrival times in advance — requests
arrive on the generator's schedule whether or not the server has
finished the previous one — which is what a service under real traffic
experiences (a closed loop, where the next request waits for the last
response, can never observe queueing).  Everything here is a pure
function of ``(graph, spec, seed)``:

* arrival times come from the ``<stream>/arrivals`` derived stream,
  thinned through the spec's load curve (constant / diurnal / burst);
* request demands come from the ``<stream>/keys`` stream under the
  spec's key-skew model (uniform / Zipf / hotspot) or from the
  deterministic adversarial-permutation family;
* churn schedules come from the ``<stream>/churn`` stream, tracking the
  evolving edge set so every removal names an edge that exists at that
  point of the stream.

The produced :class:`Workload` is wire-ready: ``records`` is exactly the
JSONL record sequence :func:`repro.runtime.serve_jsonl` consumes
(request records interleaved with update records), with a parallel
``arrivals`` array carrying each record's scheduled arrival second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..graphs.graph import Graph
from ..rng import derive_rng, stream_entropy

__all__ = [
    "KEY_SKEWS",
    "LOAD_CURVES",
    "ChurnSpec",
    "Workload",
    "WorkloadSpec",
    "adversarial_permutation",
    "generate_workload",
    "sample_destinations",
    "zipf_weights",
]

#: Key-skew models the generator understands.
KEY_SKEWS = ("uniform", "zipf", "hotspot", "adversarial", "permutation")

#: Load-curve shapes for the open-loop arrival process.
LOAD_CURVES = ("constant", "diurnal", "burst")


@dataclass(frozen=True)
class ChurnSpec:
    """Concurrent graph churn riding the request stream.

    Every ``period`` requests the generator emits one update record
    (the :meth:`~repro.runtime.Session.apply_update` wire format)
    removing ``edges_removed`` existing edges, adding ``edges_added``
    fresh ones, and downing ``nodes_down`` nodes.  The schedule draws
    only from the churn stream and tracks the evolving edge set, so a
    removal always names a live edge.
    """

    period: int = 16
    edges_removed: int = 1
    edges_added: int = 1
    nodes_down: int = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"churn period must be >= 1, got {self.period}")
        for name in ("edges_removed", "edges_added", "nodes_down"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class WorkloadSpec:
    """What one open-loop request stream looks like.

    Attributes:
        requests: route requests per epoch.
        epochs: epochs in the run; the load curve repeats per epoch and
            the churn schedule spans all of them.
        rate: offered load in requests per second (the open-loop
            schedule; the server may or may not keep up).
        load_curve: ``"constant"``, ``"diurnal"`` (sinusoidal rate over
            each epoch), or ``"burst"`` (rate multiplied by
            ``burst_factor`` during the middle ``burst_fraction`` of
            each epoch).
        diurnal_amplitude: relative swing of the diurnal curve in
            ``[0, 1)``.
        burst_factor / burst_fraction: burst-curve shape.
        key_skew: demand model — ``"uniform"``, ``"zipf"``,
            ``"hotspot"``, ``"adversarial"`` (deterministic worst-case
            permutations), or ``"permutation"`` (random permutations).
        zipf_s: Zipf exponent (> 0); larger = more skew.
        hotspots / hotspot_skew: hotspot-model shape (``hotspot_skew``
            of destinations hit one of ``hotspots`` hot nodes).
        packets: explicit demands per request (permutation-shaped skews
            always carry one packet per node instead).
        churn: optional concurrent churn schedule.
    """

    requests: int = 32
    epochs: int = 1
    rate: float = 200.0
    load_curve: str = "constant"
    diurnal_amplitude: float = 0.8
    burst_factor: float = 6.0
    burst_fraction: float = 0.125
    key_skew: str = "uniform"
    zipf_s: float = 1.2
    hotspots: int = 4
    hotspot_skew: float = 0.8
    packets: int = 8
    churn: Optional[ChurnSpec] = None

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.load_curve not in LOAD_CURVES:
            raise ValueError(
                f"load_curve must be one of {LOAD_CURVES}, "
                f"got {self.load_curve!r}"
            )
        if self.key_skew not in KEY_SKEWS:
            raise ValueError(
                f"key_skew must be one of {KEY_SKEWS}, "
                f"got {self.key_skew!r}"
            )
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError(
                "diurnal_amplitude must be in [0, 1), got "
                f"{self.diurnal_amplitude}"
            )
        if self.zipf_s <= 0:
            raise ValueError(f"zipf_s must be > 0, got {self.zipf_s}")
        if self.packets < 1:
            raise ValueError(f"packets must be >= 1, got {self.packets}")

    @property
    def total_requests(self) -> int:
        """Route requests across all epochs."""
        return self.requests * self.epochs


@dataclass(frozen=True)
class Workload:
    """A generated request stream, wire-ready for the session layer.

    Attributes:
        records: the JSONL record sequence
            (:func:`repro.runtime.serve_jsonl` format) — route requests
            interleaved with churn update records.
        arrivals: scheduled arrival second of each record (same length
            as ``records``, non-decreasing; an update record inherits
            the arrival of the request point it rides on).
        requests / updates: record counts by type.
        spec: the :class:`WorkloadSpec` that produced the stream.
    """

    records: tuple
    arrivals: np.ndarray
    requests: int
    updates: int
    spec: WorkloadSpec = field(repr=False)

    @property
    def duration_s(self) -> float:
        """The schedule's span: last arrival second (offered time)."""
        return float(self.arrivals[-1]) if len(self.arrivals) else 0.0

    @property
    def offered_rps(self) -> float:
        """Offered load actually scheduled (requests per second)."""
        if self.duration_s <= 0:
            return float(self.spec.rate)
        return self.requests / self.duration_s


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Finite-support Zipf probabilities over ``n`` keys (rank = key)."""
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
    return weights / weights.sum()


def adversarial_permutation(n: int, shift: int = 0) -> np.ndarray:
    """The ``shift``-th member of a deterministic worst-case family.

    Bit-reversal permutations (when ``n`` is a power of two, the classic
    router-adversarial demand: every prefix of address bits maps across
    the hierarchy) or index reversal otherwise, composed with a cyclic
    shift so consecutive requests never repeat a demand.  No randomness:
    an adversary does not roll dice.
    """
    indices = np.arange(n, dtype=np.int64)
    if n >= 2 and (n & (n - 1)) == 0:
        bits = int(n).bit_length() - 1
        reversed_indices = np.zeros(n, dtype=np.int64)
        work = indices.copy()
        for _ in range(bits):
            reversed_indices = (reversed_indices << 1) | (work & 1)
            work >>= 1
        base = reversed_indices
    else:
        base = indices[::-1].copy()
    return (base + shift) % n


def sample_destinations(
    graph: Graph,
    count: int,
    spec: WorkloadSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """``count`` destinations under the spec's key-skew model.

    Zipf ranks map to node ids directly (node 0 is the hottest key), so
    the hit distribution is inspectable without carrying a hidden
    rank-to-node table.
    """
    n = graph.num_nodes
    if spec.key_skew == "zipf":
        return rng.choice(n, size=count, p=zipf_weights(n, spec.zipf_s))
    if spec.key_skew == "hotspot":
        destinations = rng.integers(0, n, size=count)
        hot_nodes = rng.choice(
            n, size=min(spec.hotspots, n), replace=False
        )
        hot_mask = rng.random(count) < spec.hotspot_skew
        destinations[hot_mask] = hot_nodes[
            rng.integers(0, hot_nodes.shape[0], size=int(hot_mask.sum()))
        ]
        return destinations
    return rng.integers(0, n, size=count)


def _arrival_times(
    spec: WorkloadSpec, rng: np.random.Generator
) -> np.ndarray:
    """Open-loop arrival seconds for every route request, in order.

    A non-homogeneous Poisson process simulated step by step: the gap to
    the next arrival is exponential with the *current* instantaneous
    rate, so the diurnal and burst curves modulate density exactly where
    they should.  One epoch spans ``requests / rate`` scheduled seconds.
    """
    epoch_span = spec.requests / spec.rate
    times = np.empty(spec.total_requests, dtype=np.float64)
    now = 0.0
    for index in range(spec.total_requests):
        position = (now % epoch_span) / epoch_span if epoch_span else 0.0
        rate = spec.rate
        if spec.load_curve == "diurnal":
            rate *= 1.0 + spec.diurnal_amplitude * np.sin(
                2.0 * np.pi * position
            )
        elif spec.load_curve == "burst":
            half_window = spec.burst_fraction / 2.0
            if abs(position - 0.5) <= half_window:
                rate *= spec.burst_factor
        now += rng.exponential(1.0 / max(rate, 1e-9))
        times[index] = now
    return times


class _EdgeTracker:
    """The evolving edge set, so churn removals always name live edges."""

    def __init__(self, graph: Graph) -> None:
        self.num_nodes = graph.num_nodes
        self.edges: list[tuple[int, int]] = [
            (int(u), int(v)) for u, v in graph.edge_array
        ]
        self.present = {self._key(u, v) for u, v in self.edges}

    @staticmethod
    def _key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u <= v else (v, u)

    def remove(self, count: int, rng: np.random.Generator) -> list:
        removed = []
        for _ in range(min(count, max(0, len(self.edges) - 1))):
            position = int(rng.integers(0, len(self.edges)))
            u, v = self.edges.pop(position)
            self.present.discard(self._key(u, v))
            removed.append([u, v])
        return removed

    def add(self, count: int, rng: np.random.Generator) -> list:
        added = []
        attempts = 0
        while len(added) < count and attempts < 64 * max(1, count):
            attempts += 1
            u = int(rng.integers(0, self.num_nodes))
            v = int(rng.integers(0, self.num_nodes))
            if u == v or self._key(u, v) in self.present:
                continue
            self.present.add(self._key(u, v))
            self.edges.append((u, v))
            added.append([u, v])
        return added


def generate_workload(
    graph: Graph,
    spec: WorkloadSpec,
    seed: int = 0,
) -> Workload:
    """Generate the full request stream for ``(graph, spec, seed)``.

    Three derived streams, one per concern, so e.g. enabling churn can
    never change which demands the requests carry:

    * ``workload/arrivals`` — the open-loop arrival schedule;
    * ``workload/keys`` — demand sources and destinations;
    * ``workload/churn`` — which edges/nodes each update touches.

    The result is bit-identical for the same inputs on any backend and
    in any process (streams are SHA-derived, hash-seed independent).
    """
    arrivals_rng = derive_rng(seed, stream_entropy("workload/arrivals"))
    keys_rng = derive_rng(seed, stream_entropy("workload/keys"))
    churn_rng = derive_rng(seed, stream_entropy("workload/churn"))

    times = _arrival_times(spec, arrivals_rng)
    tracker = _EdgeTracker(graph) if spec.churn else None

    records: list[dict[str, Any]] = []
    arrivals: list[float] = []
    n = graph.num_nodes
    updates = 0
    for index in range(spec.total_requests):
        if (
            spec.churn is not None
            and tracker is not None
            and index > 0
            and index % spec.churn.period == 0
        ):
            update: dict[str, Any] = {
                "edges_removed": tracker.remove(
                    spec.churn.edges_removed, churn_rng
                ),
                "edges_added": tracker.add(
                    spec.churn.edges_added, churn_rng
                ),
            }
            if spec.churn.nodes_down:
                update["nodes_down"] = sorted(
                    int(node)
                    for node in churn_rng.choice(
                        n,
                        size=min(spec.churn.nodes_down, n),
                        replace=False,
                    )
                )
            records.append({"update": update})
            arrivals.append(float(times[index]))
            updates += 1

        if spec.key_skew in ("adversarial", "permutation"):
            sources = np.arange(n)
            if spec.key_skew == "adversarial":
                destinations = adversarial_permutation(n, shift=index)
            else:
                destinations = keys_rng.permutation(n)
        else:
            sources = keys_rng.integers(0, n, size=spec.packets)
            destinations = sample_destinations(
                graph, spec.packets, spec, keys_rng
            )
        records.append(
            {
                "op": "route",
                "args": {
                    "sources": [int(s) for s in sources],
                    "destinations": [int(d) for d in destinations],
                },
                "id": f"req-{index}",
            }
        )
        arrivals.append(float(times[index]))

    return Workload(
        records=tuple(records),
        arrivals=np.asarray(arrivals, dtype=np.float64),
        requests=spec.total_requests,
        updates=updates,
        spec=spec,
    )
