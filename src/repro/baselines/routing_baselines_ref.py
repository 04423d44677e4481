"""Reference (scalar) store-and-forward scheduler.

This is the original dict-and-deque implementation of
:func:`repro.baselines.routing_baselines.schedule_paths`, retained
verbatim as the semantic oracle for the vectorized scheduler.  The two
implementations are property-tested to produce *identical*
``rounds``/``delivered``/``max_queue``/``total_hops`` on the same seed
(``tests/baselines/test_scheduler_equivalence.py``); any change to the
scheduling discipline must land in both.

The discipline, spelled out (the vectorized version replicates it
packet-for-packet):

* every directed edge (a consecutive node pair of some path) holds a
  FIFO queue and forwards exactly one packet per round;
* packets enter their first queue in an ``rng.permutation`` order;
* each round, the nonempty queues are drained head-first in *dict
  insertion order* (a queue's key is inserted when its first packet
  arrives and dropped once the queue empties at the end of a round),
  and forwarded packets join their next queue in that same order.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..rng import resolve_rng
from .routing_baselines import StoreAndForwardResult

__all__ = ["schedule_paths_ref"]


def schedule_paths_ref(
    paths: list[list[int]],
    rng: np.random.Generator | None = None,
    max_rounds: int = 1_000_000,
) -> StoreAndForwardResult:
    """Scalar store-and-forward scheduling of explicit packet paths.

    Semantics are the contract; see the module docstring.  Consumes
    exactly one ``rng.permutation`` call, like the vectorized version.
    """
    rng = resolve_rng(rng)
    total_hops = sum(len(path) - 1 for path in paths)
    # Queue per directed edge (u -> v), keyed by (u, v).
    queues: dict[tuple[int, int], deque] = {}
    position = [0] * len(paths)  # index into each packet's path
    order = rng.permutation(len(paths))
    pending = 0
    for pid in order:
        path = paths[pid]
        if len(path) > 1:
            queues.setdefault((path[0], path[1]), deque()).append(pid)
            pending += 1
    rounds = 0
    max_queue = max((len(q) for q in queues.values()), default=0)
    while pending:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("store-and-forward exceeded the round budget")
        moves: list[tuple[tuple[int, int], int]] = []
        for key, queue in queues.items():
            if queue:
                moves.append((key, queue.popleft()))
        for (u, v), pid in moves:
            position[pid] += 1
            path = paths[pid]
            if position[pid] == len(path) - 1:
                pending -= 1
            else:
                nxt = (path[position[pid]], path[position[pid] + 1])
                queues.setdefault(nxt, deque()).append(pid)
        max_queue = max(
            max_queue, max((len(q) for q in queues.values()), default=0)
        )
        queues = {key: q for key, q in queues.items() if q}
    return StoreAndForwardResult(
        rounds=rounds,
        delivered=True,
        max_queue=max_queue,
        total_hops=total_hops,
    )
