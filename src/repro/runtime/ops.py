"""The operation table: one dispatch surface for every execution path.

Every way to execute an operation — one-shot ``run()`` and
:class:`~repro.runtime.session.Session` request serving — goes through
the same :data:`OP_TABLE` of :class:`OpSpec` entries.

Each spec declares, next to its runner, the operation's *argument
vocabulary*.  That lets :func:`validate_request` reject unknown ops and
misspelled argument keywords up front, at request-construction time,
instead of deep inside a runner after an expensive build (the
pre-session failure mode: ``run("mincut", g, nmu_trees=3)`` surfaced as
a ``TypeError`` from :func:`~repro.core.mincut.approximate_min_cut`
after the hierarchy was already built).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Tuple

import numpy as np

from ..graphs.generators import with_random_weights
from ..graphs.graph import Graph, WeightedGraph
from .backends import Backend, UnsupportedOnBackend
from .context import RunContext

__all__ = [
    "OPS",
    "OP_TABLE",
    "OpSpec",
    "lookup_op",
    "summarize_result",
    "validate_request",
]

Runner = Callable[[Backend, RunContext, Graph, Dict[str, Any]], Any]


@dataclass(frozen=True)
class OpSpec:
    """One operation the runtime can execute.

    Attributes:
        name: the public operation name (``run(name, ...)``).
        runner: executes the op on ``(backend, context, graph, args)``;
            ``args`` is a private mutable dict the runner may pop from.
        arg_names: every argument keyword the op accepts — the
            validation vocabulary of :func:`validate_request`.
        backend_method: the :class:`Backend` method the op ultimately
            calls; used to reject unsupported (op, backend) pairs before
            any build work happens.
    """

    name: str
    runner: Runner
    arg_names: frozenset[str]
    backend_method: str


def _op_build(
    backend: Backend, context: RunContext, graph: Graph, args: Dict[str, Any]
) -> Any:
    _expect_no_args("build", args)
    return backend.build()


def _op_route(
    backend: Backend, context: RunContext, graph: Graph, args: Dict[str, Any]
) -> Any:
    sources = args.pop("sources", None)
    destinations = args.pop("destinations", None)
    packets = args.pop("packets", None)
    trace_hops = bool(args.pop("trace_hops", False))
    _expect_no_args("route", args)
    if (sources is None) != (destinations is None):
        raise ValueError(
            "route: provide both sources and destinations, or neither"
        )
    if sources is None:
        # The demand comes from its own stream: changing the workload
        # can never perturb the structure built from other streams.
        n = graph.num_nodes
        workload = context.stream("workload")
        if packets:
            sources = workload.integers(0, n, size=int(packets))
            destinations = workload.integers(0, n, size=int(packets))
        else:
            sources = np.arange(n)
            destinations = workload.permutation(n)
    elif packets is not None:
        raise ValueError("route: packets= conflicts with explicit demands")
    backend.build()
    return backend.route(
        np.asarray(sources), np.asarray(destinations), trace=trace_hops
    )


def _op_mst(
    backend: Backend, context: RunContext, graph: Graph, args: Dict[str, Any]
) -> Any:
    weights = args.pop("weights", None)
    _expect_no_args("mst", args)
    if weights is not None:
        weighted = WeightedGraph(
            graph.num_nodes, list(graph.edges()), weights
        )
    elif isinstance(graph, WeightedGraph):
        weighted = graph
    else:
        weighted = with_random_weights(graph, context.stream("weights"))
    return backend.mst(weighted)


def _op_mincut(
    backend: Backend, context: RunContext, graph: Graph, args: Dict[str, Any]
) -> Any:
    return backend.min_cut(**args)


def _op_clique(
    backend: Backend, context: RunContext, graph: Graph, args: Dict[str, Any]
) -> Any:
    sample_fraction = float(args.pop("sample_fraction", 1.0))
    _expect_no_args("clique", args)
    return backend.clique(sample_fraction=sample_fraction)


def _expect_no_args(op: str, args: Dict[str, Any]) -> None:
    if args:
        raise TypeError(
            f"run({op!r}, ...) got unexpected arguments {sorted(args)}"
        )


#: Every operation the runtime understands, keyed by name.
OP_TABLE: Dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        OpSpec(
            "build",
            _op_build,
            frozenset(),
            backend_method="build",
        ),
        OpSpec(
            "route",
            _op_route,
            frozenset(
                {"sources", "destinations", "packets", "trace_hops"}
            ),
            backend_method="route",
        ),
        OpSpec(
            "mst",
            _op_mst,
            frozenset({"weights"}),
            backend_method="mst",
        ),
        OpSpec(
            "mincut",
            _op_mincut,
            frozenset(
                {"eps", "num_trees", "two_respecting", "use_weights"}
            ),
            backend_method="min_cut",
        ),
        OpSpec(
            "clique",
            _op_clique,
            frozenset({"sample_fraction"}),
            backend_method="clique",
        ),
    )
}

#: The operation names, sorted — the public catalogue.
OPS: Tuple[str, ...] = tuple(sorted(OP_TABLE))


def lookup_op(op: str) -> OpSpec:
    """The :class:`OpSpec` for ``op``, or ``ValueError`` naming it."""
    try:
        return OP_TABLE[op]
    except KeyError:
        raise ValueError(
            f"unknown operation {op!r}; choose from {OPS}"
        ) from None


def validate_request(op: str, args: Mapping[str, Any]) -> OpSpec:
    """Validate an ``(op, args)`` pair before any work happens.

    Raises:
        ValueError: unknown operation name.
        TypeError: argument keywords outside the op's vocabulary; the
            message names every offending key.
    """
    spec = lookup_op(op)
    unknown = sorted(set(args) - spec.arg_names)
    if unknown:
        raise TypeError(
            f"run({op!r}, ...) got unexpected arguments {unknown}"
        )
    return spec


def check_backend_support(backend: Backend, op: str) -> None:
    """Reject an (op, backend) pair the backend cannot execute.

    Raised *before* the build phase, so e.g. ``run("mst", g,
    config=RunConfig(backend="native"))`` fails in milliseconds instead
    of after constructing a hierarchy it could never use.
    """
    spec = lookup_op(op)
    if spec.backend_method not in backend.supported_ops:
        raise UnsupportedOnBackend(backend, spec.backend_method)


def summarize_result(op: str, result: Any) -> Dict[str, Any]:
    """A small JSON-safe summary of an op's native result object.

    This is the ``result`` payload of one ``repro serve`` JSONL
    response — the scalar facts a service client acts on, not the full
    arrays (fetch those through the Python API if needed).
    """
    if op == "build":
        return {
            "depth": int(result.depth),
            "beta": int(result.beta),
            "tau_mix": int(result.g0.tau_mix),
            "construction_rounds": float(result.construction_rounds()),
        }
    if op == "route":
        return {
            "delivered": bool(result.delivered),
            "packets": int(result.num_packets),
            "phases": int(result.num_phases),
            "rounds": float(result.cost_rounds),
        }
    if op == "mst":
        return {
            "total_weight": float(result.total_weight),
            "edges": len(result.edge_ids),
            "iterations": int(result.num_iterations),
            "rounds": float(result.rounds),
        }
    if op == "mincut":
        return {
            "cut_value": float(result.cut_value),
            "trees": int(result.num_trees),
            "rounds": float(result.rounds),
        }
    if op == "clique":
        return {
            "delivered": bool(result.delivered),
            "messages": int(result.num_messages),
            "phases": int(result.num_phases),
            "rounds": float(result.rounds),
        }
    raise ValueError(f"unknown operation {op!r}; choose from {OPS}")
