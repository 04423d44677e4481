"""Public walk-protocol state: the tape, per-node state, and the nodes.

The walk protocol (Section 3.1.1) has two interchangeable executions in
this library: the scalar per-node simulation (the semantic oracle, one
:class:`NodeAlgorithm` per node through
:meth:`repro.congest.network.Network.run`) and the array-native engine
(:mod:`repro.congest.walk_engine_vec`).  Both must be seed-for-seed,
round-for-round identical, so everything they share lives here as a
*public, typed* interface — ``congest.native`` and the vectorized engine
import these names instead of reaching into ``walk_protocol`` privates.

The key shared object is the :class:`WalkTape`: every lazy-step decision
of every walk, presampled as two uniform matrices indexed by
``(step, walk_id)``.  A walk consumes exactly one decision per remaining
step — a *stay* consumes it on the spot, a *move* consumes it when the
token is (re-)admitted — so the decision index of a token carrying
``ttl`` remaining steps is always ``length - ttl``, independent of the
queueing delays the token suffered on the wire.  Reading decisions from
the tape therefore removes the timing/randomness entanglement of a
per-node draw order: the scalar nodes and the vectorized engine index
the *same* arrays and produce the same trajectories by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from ..rng import derive_rng, stream_entropy
from .detector import CrashView
from .network import NodeAlgorithm

__all__ = [
    "ForwardWalkNode",
    "ReverseWalkNode",
    "WalkState",
    "WalkTape",
]


class WalkTape:
    """Presampled lazy-step decisions for a batch of walks.

    Attributes:
        length: lazy steps per walk.
        num_walks: number of walks in the batch.
        stay_u: shape ``(length, num_walks)`` uniforms — decision
            ``(step, walk)`` is a stay iff the walk's current live
            degree is 0 or ``stay_u[step, walk] < 0.5``.
        choice_u: shape ``(length, num_walks)`` uniforms — on a move,
            the walk takes live-neighbour index
            ``floor(choice_u[step, walk] * live_degree)``.

    Both matrices come from one derived stream
    (``derive_rng(seed, stream_entropy("walk-tape"))``), drawn in full
    at construction; consumers only *index*, never draw, so the scalar
    and vectorized engines cannot diverge on randomness.
    """

    def __init__(
        self, length: int, stay_u: np.ndarray, choice_u: np.ndarray
    ) -> None:
        self.length = int(length)
        self.stay_u = stay_u
        self.choice_u = choice_u
        self.num_walks = int(stay_u.shape[1]) if stay_u.ndim == 2 else 0

    @classmethod
    def sample(cls, seed: int, num_walks: int, length: int) -> "WalkTape":
        """Draw the full decision tape for ``num_walks`` walks."""
        rng = derive_rng(seed, stream_entropy("walk-tape"))
        stay_u = rng.random((length, num_walks))
        choice_u = rng.random((length, num_walks))
        return cls(length, stay_u, choice_u)

    def decision(self, walk_id: int, step: int, live_degree: int) -> int:
        """Scalar read of one decision: ``-1`` = stay, else the index of
        the chosen live neighbour."""
        if live_degree == 0 or self.stay_u[step, walk_id] < 0.5:
            return -1
        return int(self.choice_u[step, walk_id] * live_degree)


@dataclass
class WalkState:
    """Per-node protocol state shared between the two passes.

    Attributes:
        visit_stack: ``walk_id -> senders`` in visit order (walks may
            revisit a node, hence a stack, popped by the reverse pass).
        finished_here: ``walk_id -> remaining ttl`` (always 0) for walks
            whose forward pass ended at this node, in finish order.
    """

    visit_stack: dict[int, list[int]] = field(default_factory=dict)
    finished_here: dict[int, int] = field(default_factory=dict)


class _SelfHealMixin:
    """Crash-aware emission shared by the two walk-pass nodes.

    With a failure-detector ``view``, a node holds a departure while the
    *delivery* round (emission round + 1) falls inside a crash window of
    either endpoint: a copy sent into a window is lost on the unreliable
    walk wire, and the walk protocol (unlike the ARQ layer) never
    retransmits.  Without a view every check is a no-op, so the
    fail-fast path is untouched, decision for decision.
    """

    view: Optional[CrashView] = None
    parked = 0

    def _blocked(self, target: int, round_number: int) -> bool:
        if self.view is None:
            return False
        delivery = round_number + 1
        if self.view.down_until(self.context.node_id, delivery) >= 0:
            return True
        return self.view.down_until(target, delivery) >= 0


class ForwardWalkNode(_SelfHealMixin, NodeAlgorithm):
    """Forward pass: lazy-step tokens with per-edge FIFO queues.

    Decisions come off the shared :class:`WalkTape`; the node only
    executes queueing and message passing.
    """

    def __init__(
        self,
        context,
        state: WalkState,
        tape: WalkTape,
        initial_tokens,
        view: Optional[CrashView] = None,
        avoid: frozenset = frozenset(),
    ):
        super().__init__(context)
        self.state = state
        self.tape = tape
        self.view = view
        # Permanently crashed neighbours: walks step around them (the
        # walk continues on the live subgraph instead of vanishing).
        self.live_neighbors = tuple(
            v for v in context.neighbors if int(v) not in avoid
        )
        self.queues: dict[int, deque] = {}
        for walk_id, ttl in initial_tokens:
            self._admit(walk_id, ttl)

    def _admit(self, walk_id: int, ttl: int) -> None:
        """Perform stays locally; enqueue the token once it must move."""
        neighbors = self.live_neighbors
        degree = len(neighbors)
        tape = self.tape
        while ttl > 0:
            choice = tape.decision(walk_id, tape.length - ttl, degree)
            if choice < 0:
                ttl -= 1  # lazy stay
                continue
            target = int(neighbors[choice])
            self.queues.setdefault(target, deque()).append((walk_id, ttl))
            return
        self.state.finished_here[walk_id] = 0

    def _outbox(self, round_number: int) -> Mapping[int, tuple]:
        outbox = {}
        for target in list(self.queues):
            queue = self.queues[target]
            if queue and not self._blocked(target, round_number):
                walk_id, ttl = queue.popleft()
                outbox[target] = ("walk", walk_id, ttl)
            elif queue:
                self.parked += 1
            if not queue:
                del self.queues[target]
        self.finished = not self.queues
        return outbox

    def initialize(self) -> Mapping[int, tuple]:
        return self._outbox(0)

    def receive(self, round_number, inbox) -> Mapping[int, tuple]:
        for sender, payload in inbox.items():
            __, walk_id, ttl = payload
            self.state.visit_stack.setdefault(walk_id, []).append(sender)
            self._admit(walk_id, ttl - 1)
        return self._outbox(round_number)


class ReverseWalkNode(_SelfHealMixin, NodeAlgorithm):
    """Reverse pass: pop the visit stack and send the token back."""

    def __init__(
        self,
        context,
        state: WalkState,
        view: Optional[CrashView] = None,
    ):
        super().__init__(context)
        self.state = state
        self.view = view
        self.queues: dict[int, deque] = {}
        self.home_tokens: list[int] = []
        for walk_id in state.finished_here:
            self._bounce(walk_id)

    def _bounce(self, walk_id: int) -> None:
        stack = self.state.visit_stack.get(walk_id)
        if stack:
            sender = stack.pop()
            self.queues.setdefault(sender, deque()).append(walk_id)
        else:
            self.home_tokens.append(walk_id)  # back at the origin

    def _outbox(self, round_number: int) -> Mapping[int, tuple]:
        outbox = {}
        for target in list(self.queues):
            queue = self.queues[target]
            if queue and not self._blocked(target, round_number):
                outbox[target] = ("back", queue.popleft())
            elif queue:
                self.parked += 1
            if not queue:
                del self.queues[target]
        self.finished = not self.queues
        return outbox

    def initialize(self) -> Mapping[int, tuple]:
        return self._outbox(0)

    def receive(self, round_number, inbox) -> Mapping[int, tuple]:
        for __, payload in inbox.items():
            self._bounce(int(payload[1]))
        return self._outbox(round_number)
