"""Content fingerprints for graphs (and the values keyed off them).

The hierarchy cache (:mod:`repro.runtime.store`) needs to answer "is
this the same graph?" exactly, both for its keys and for the integrity
check inside every entry.  "Same" here is stricter than isomorphism:
the pipeline's randomness is consumed in arc order, and edge ids index
weight arrays, so two graphs with the same edge *set* but a different
edge order produce different (equally valid) runs.  The fingerprint
therefore hashes the CSR arc layout itself — ``indptr``, ``indices``,
``arc_edge`` — which is a pure function of the constructor's edge list
and captures everything the algorithms can observe.

All array bytes are hashed in explicit little-endian ``int64`` /
``float64`` form, so the digest is stable across platforms and numpy
versions.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..graphs.graph import Graph, WeightedGraph

__all__ = ["FINGERPRINT_VERSION", "graph_fingerprint"]

#: Bumped whenever the byte layout below changes; part of every digest,
#: so stale fingerprints can never collide with current ones.
FINGERPRINT_VERSION = 1


def _array_bytes(array: np.ndarray, dtype: str) -> bytes:
    """Canonical little-endian bytes of ``array`` as ``dtype``."""
    return np.ascontiguousarray(array, dtype=np.dtype(dtype)).tobytes()


def graph_fingerprint(graph: Graph) -> str:
    """SHA-256 content digest of a graph's exact CSR representation.

    Two graphs share a fingerprint iff they have the same node count and
    the same edge list in the same order (and, for
    :class:`~repro.graphs.graph.WeightedGraph`, the same weights) —
    precisely the condition under which every seeded run on them is
    bit-identical.

    Returns a 64-character lowercase hex string.
    """
    digest = hashlib.sha256()
    digest.update(f"repro-graph-v{FINGERPRINT_VERSION}".encode())
    digest.update(
        np.array(
            [graph.num_nodes, graph.num_edges], dtype="<i8"
        ).tobytes()
    )
    digest.update(_array_bytes(graph.indptr, "<i8"))
    digest.update(_array_bytes(graph.indices, "<i8"))
    digest.update(_array_bytes(graph.arc_edge, "<i8"))
    if isinstance(graph, WeightedGraph):
        digest.update(b"weights")
        digest.update(_array_bytes(graph.weights, "<f8"))
    return digest.hexdigest()
