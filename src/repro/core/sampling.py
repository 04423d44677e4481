"""Shared helpers for turning walk endpoints into overlay edges."""

from __future__ import annotations

import numpy as np

__all__ = ["group_select", "sample_within_parts"]


def group_select(
    owners: np.ndarray,
    targets: np.ndarray,
    num_owners: int,
    cap: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per owner, keep up to ``cap`` distinct non-self targets as edges.

    This is the "node keeps ``Theta(log n)`` of its successful walk
    endpoints" selection step used for ``G0`` and every level overlay.

    Args:
        owners: owner id per sample, in ``[0, num_owners)``.
        targets: target id per sample (same length, non-negative).
        num_owners: id range of owners.
        cap: max edges kept per owner.
        rng: used to subsample when an owner has more than ``cap``.

    Returns:
        Edges ``(owner, target)`` as an ``(m, 2)`` array, by owner; each
        owner's targets ascending, or in ``rng.choice`` order when
        subsampled.
    """
    owners = np.asarray(owners, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    width = int(targets.max()) + 1 if targets.size else 1
    pairs = _sorted_unique(owners * width + targets)
    pair_owners, pair_targets = np.divmod(pairs, width)
    keep = pair_owners != pair_targets
    pair_owners, pair_targets = pair_owners[keep], pair_targets[keep]
    counts = np.bincount(pair_owners, minlength=num_owners)
    over = np.flatnonzero(counts > cap)
    if over.size:
        # Subsample each crowded owner from its ascending targets, in
        # owner order; a stable sort by owner puts the picks in place.
        starts = np.zeros(num_owners + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        picks = [
            rng.choice(pair_targets[starts[owner]: starts[owner + 1]],
                       size=cap, replace=False)
            for owner in over.tolist()
        ]
        within = counts[pair_owners] <= cap
        pair_owners = np.concatenate(
            (pair_owners[within], np.repeat(over, cap))
        )
        pair_targets = np.concatenate((pair_targets[within], *picks))
        order = np.argsort(pair_owners, kind="stable")
        pair_owners, pair_targets = pair_owners[order], pair_targets[order]
    return np.stack((pair_owners, pair_targets), axis=1)


def sample_within_parts(
    parts: np.ndarray,
    degree: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``degree`` uniform same-part neighbours for every node.

    The fast-path equivalent of the walk-based selection: a mixed regular
    walk on the previous (per-part expander) overlay ends at a uniform
    node of the part, so uniform sampling draws from the identical
    distribution (see DESIGN.md §4).

    Args:
        parts: part id per node.
        degree: samples per node (self-samples and duplicates dropped).
        rng: randomness source.

    Returns:
        Edges ``(node, sampled neighbour)`` as an ``(m, 2)`` array, by
        part, then node, then neighbour.
    """
    num_nodes = parts.shape[0]
    order = np.argsort(parts, kind="stable")
    sorted_parts = parts[order]
    boundaries = np.flatnonzero(
        np.diff(np.concatenate(([-1], sorted_parts, [-1])))
    )
    rank_blocks: list[np.ndarray] = []
    draw_blocks: list[np.ndarray] = []
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        members = order[start:end]
        if members.shape[0] < 2:
            continue
        draws = members[
            rng.integers(0, members.shape[0], size=(members.shape[0], degree))
        ]
        rank_blocks.append(np.repeat(np.arange(start, end), degree))
        draw_blocks.append(draws.reshape(-1))
    if not rank_blocks:
        return np.empty((0, 2), dtype=np.int64)
    # Rank in `order` sorts by (part, node); the draw breaks ties.
    keys = _sorted_unique(
        np.concatenate(rank_blocks) * num_nodes + np.concatenate(draw_blocks)
    )
    ranks, neighbours = np.divmod(keys, num_nodes)
    nodes = order[ranks]
    keep = nodes != neighbours
    return np.stack((nodes[keep], neighbours[keep]), axis=1)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` for int keys via one sort (numpy's is hash-based)."""
    keys = np.sort(keys)
    first = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]
