"""E15 — fidelity closure: native message passing vs. charged rounds.

Regenerates the toy-scale comparison between a native G0 (construction
walks executed as messages forward and back, the executed Lemma 2.5
schedule; overlay edges are embedded walk paths; deliveries run
store-and-forward under per-edge capacity) and the vectorized
pipeline's charged costs.  The stable ~0.4-0.5x round ratio (native
pipelines across walk steps; the charge uses per-step barriers)
licenses the accounting at larger sizes.  The benchmark timer measures
one native G0 construction.
"""

import numpy as np

from repro.analysis import format_table, native_fidelity
from repro.congest.native import build_native_g0
from repro.graphs import mixing_time, random_regular

from .conftest import emit


def test_native_fidelity(benchmark):
    graph = random_regular(16, 4, np.random.default_rng(1500))
    tau = mixing_time(graph)

    def build_once():
        return build_native_g0(
            graph, walks_per_vnode=8, degree=4, length=2 * tau, seed=1501
        )

    native = benchmark.pedantic(build_once, rounds=3, iterations=1)
    assert native.overlay.is_connected()

    rows = native_fidelity()
    emit(format_table(rows, title="E15: native vs charged G0 rounds"))
    for row in rows:
        assert row["native_connected"]
        # Same order of magnitude; the charge is a consistent upper
        # bound of the (step-pipelined) native execution.
        assert 0.1 < row["ratio"] <= 1.5
    ratios = [row["ratio"] for row in rows]
    assert max(ratios) - min(ratios) < 0.5  # consistent across sizes
