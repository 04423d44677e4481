"""The pseudo-random hierarchical partition (Section 3.1.2).

Virtual nodes are mapped to the leaves of a ``beta``-ary tree of depth
``k`` by a ``Theta(log n)``-wise independent hash of their globally
computable UID.  This gives both required properties:

* **(P1) near-uniformity** — limited-independence Chernoff bounds keep
  every prefix class within a constant factor of ``N / beta^p``;
* **(P2) computability** — any node can evaluate the shared hash on any
  destination ID, so packet sources know every destination's full label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hashing.kwise import KWiseHash
from ..params import Params
from ..theory import num_levels, optimal_beta
from .embedding import VirtualNodes

__all__ = ["HierarchicalPartition", "build_partition"]


@dataclass
class HierarchicalPartition:
    """Assignment of every virtual node to a leaf of the partition tree.

    Part IDs at level ``p`` are the length-``p`` label prefixes encoded as
    integers in ``[0, beta^p)``; level 0 is the single root part.

    Attributes:
        virtual: the virtual-node layer.
        beta: branching factor.
        depth: number of levels ``k`` (leaves live at level ``k``).
        hash_fn: the shared k-wise independent hash.
        leaf: leaf id of every virtual node, shape ``(2m,)``.
    """

    virtual: VirtualNodes
    beta: int
    depth: int
    hash_fn: KWiseHash
    leaf: np.ndarray

    def parts_at_level(self, level: int) -> int:
        """Number of parts at ``level`` (``beta^level``)."""
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} outside [0, {self.depth}]")
        return self.beta**level

    def part_of(self, vnodes, level: int) -> np.ndarray:
        """Part id at ``level`` of each given virtual node."""
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} outside [0, {self.depth}]")
        vnodes = np.asarray(vnodes, dtype=np.int64)
        return self.leaf[vnodes] // (self.beta ** (self.depth - level))

    def all_parts_at_level(self, level: int) -> np.ndarray:
        """Part id at ``level`` of every virtual node (vectorized)."""
        return self.leaf // (self.beta ** (self.depth - level))

    def part_sizes(self, level: int) -> np.ndarray:
        """Size of every part at ``level``."""
        return np.bincount(
            self.all_parts_at_level(level), minlength=self.parts_at_level(level)
        )

    def balance_ratio(self, level: int) -> float:
        """Max over min part size at ``level`` (property P1; ``O(1)``)."""
        sizes = self.part_sizes(level)
        smallest = sizes.min()
        if smallest == 0:
            return float("inf")
        return float(sizes.max() / smallest)


def build_partition(
    virtual: VirtualNodes,
    params: Params,
    rng: np.random.Generator,
    beta: int | None = None,
) -> HierarchicalPartition:
    """Draw the shared hash and label all virtual nodes.

    Args:
        virtual: the virtual-node layer.
        params: construction constants (hash independence, bottom size).
        rng: source of the ``Theta(log^2 n)`` shared seed bits.
        beta: branching factor override (default: the paper's optimum).

    Returns:
        The :class:`HierarchicalPartition`.
    """
    n = virtual.graph.num_nodes
    if beta is None:
        if params.beta is not None:
            beta = params.beta
        else:
            # The paper's optimum, additionally capped so that a single
            # level cannot undershoot the bottom part size (relevant only
            # at very small n, where beta* exceeds 2m / bottom and would
            # produce near-empty parts with no boundary edges).
            beta = min(
                optimal_beta(n),
                max(2, virtual.count // params.bottom_size(n)),
            )
    if beta < 2:
        raise ValueError(f"beta must be at least 2, got {beta}")
    # Levels until parts reach the bottom size.
    depth = max(1, num_levels(virtual.count, beta, params.bottom_size(n)))
    hash_fn = KWiseHash(params.hash_wise(n), beta**depth, rng)
    uids = virtual.uid(np.arange(virtual.count))
    leaf = hash_fn(uids)
    return HierarchicalPartition(
        virtual=virtual, beta=beta, depth=depth, hash_fn=hash_fn, leaf=leaf
    )
