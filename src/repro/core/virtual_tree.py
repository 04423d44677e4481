"""Virtual trees for Boruvka components (Section 4, Lemma 4.1).

Each forest component ``C`` carries a *virtual tree* ``T(C)`` spanning
its nodes.  Edges of ``T(C)`` are virtual (communication over them is one
routing pair), and three invariants are maintained across merges:

1. depth at most ``O(log^2 n)``,
2. every node ``v`` has at most ``d(v) * O(log n)`` virtual tree edges,
3. every node knows its parent.

Merging is star-shaped (tail components attach under head-component
nodes), followed by the paper's token-balancing pass: one token starts at
every attachment point, tokens upcast synchronously towards the head
root, co-located tokens merge and re-parent their creation points so the
attachment points end up hanging off a ``>= 2``-ary merge tree of depth
``O(log n)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["VirtualTree", "RebalanceReport"]


@dataclass
class RebalanceReport:
    """What one token-balancing pass did.

    Attributes:
        upcast_steps: synchronous levels the token wave traversed (each is
            one routing instance in the distributed implementation).
        reparented: number of re-parenting operations performed.
        merges: number of token-merge events.
    """

    upcast_steps: int = 0
    reparented: int = 0
    merges: int = 0


@dataclass
class VirtualTree:
    """A rooted virtual tree over the (real) nodes of one component.

    Attributes:
        root: the root node.
        parent: parent per node (the root maps to itself).
        children: children sets per node.
        depth: depth per node (root is 0).
    """

    root: int
    parent: dict[int, int] = field(default_factory=dict)
    children: dict[int, set[int]] = field(default_factory=dict)
    depth: dict[int, int] = field(default_factory=dict)

    @classmethod
    def singleton(cls, node: int) -> "VirtualTree":
        """A one-node tree (initial Boruvka state)."""
        tree = cls(root=node)
        tree.parent[node] = node
        tree.children[node] = set()
        tree.depth[node] = 0
        return tree

    @property
    def nodes(self):
        """All member nodes."""
        return self.parent.keys()

    @property
    def size(self) -> int:
        """Number of member nodes."""
        return len(self.parent)

    def max_depth(self) -> int:
        """Depth of the deepest node."""
        return max(self.depth.values())

    def in_degree(self, node: int) -> int:
        """Number of virtual tree edges at ``node`` towards children."""
        return len(self.children[node])

    def pairs_to_parent(self) -> list[tuple[int, int]]:
        """The ``(node, parent)`` routing pairs of one upcast step."""
        return [
            (node, parent)
            for node, parent in self.parent.items()
            if parent != node
        ]

    def check_invariants(self) -> None:
        """Validate parent/children/depth consistency (tests)."""
        assert self.parent[self.root] == self.root
        assert self.depth[self.root] == 0
        for node, par in self.parent.items():
            if node == self.root:
                continue
            assert node in self.children[par], (node, par)
            assert self.depth[node] == self.depth[par] + 1, node
        counted = sum(len(kids) for kids in self.children.values())
        assert counted == self.size - 1

    # -- merging -------------------------------------------------------------

    def absorb(self, tail: "VirtualTree", attach_node: int) -> None:
        """Attach ``tail``'s root under ``attach_node`` of this tree.

        ``attach_node`` is the head-side physical endpoint of the merge
        edge; the tail root becomes its child.
        """
        if attach_node not in self.parent:
            raise ValueError(f"attach node {attach_node} not in head tree")
        if tail.root in self.parent:
            raise ValueError("tail tree overlaps head tree")
        self.parent.update(tail.parent)
        self.children.update(
            {node: set(kids) for node, kids in tail.children.items()}
        )
        self.parent[tail.root] = attach_node
        self.children[attach_node].add(tail.root)
        base = self.depth[attach_node] + 1
        for node, d in tail.depth.items():
            self.depth[node] = base + d

    def rebalance(self, attach_points: list[int]) -> RebalanceReport:
        """Run the token-balancing pass of Lemma 4.1.

        One token is created at each distinct attachment point; tokens
        upcast level-by-level towards the root.  When two or more tokens
        meet (and when a token reaches the root), each token's creation
        point ``w`` is re-parented to the child ``u`` through which the
        token arrived (unless ``w == u``), and the merge point emits a
        fresh token that continues searching for its own new parent.

        Args:
            attach_points: head-tree nodes that received new children.

        Returns:
            A :class:`RebalanceReport`.
        """
        report = RebalanceReport()
        points = sorted(set(attach_points) - {self.root})
        if not points:
            self._recompute_depths()
            return report
        # token = (creation_point, current_node, entered_via or None)
        tokens: list[tuple[int, int, int | None]] = [
            (p, p, None) for p in points
        ]
        while True:
            deepest = max(self.depth[cur] for _, cur, _ in tokens)
            if deepest == 0:
                break
            report.upcast_steps += 1
            moved: list[tuple[int, int, int | None]] = []
            for creation, current, _ in tokens:
                if self.depth[current] == deepest:
                    moved.append((creation, self.parent[current], current))
                else:
                    moved.append((creation, current, None))
            # Group by current node; merge co-located tokens.
            by_node: dict[int, list[tuple[int, int, int | None]]] = {}
            for token in moved:
                by_node.setdefault(token[1], []).append(token)
            tokens = []
            for node, group in by_node.items():
                if len(group) >= 2:
                    report.merges += 1
                    for creation, __, via in group:
                        report.reparented += self._reparent(creation, via)
                    tokens.append((node, node, None))
                else:
                    tokens.append(group[0])
        # Tokens have reached the root: final re-parent.
        for creation, __, via in tokens:
            report.reparented += self._reparent(creation, via)
        self._recompute_depths()
        return report

    def _reparent(self, node: int, via: int | None) -> int:
        """Re-parent ``node`` under ``via`` if it is a different node.

        ``via`` is the child through which the node's token arrived at the
        merge point; ``None`` means the token never moved (its creation
        point *is* the merge point) and nothing happens.
        """
        if via is None or via == node or node == self.root:
            return 0
        if self.parent[node] == via:
            return 0
        self.children[self.parent[node]].discard(node)
        self.parent[node] = via
        self.children[via].add(node)
        return 1

    def _recompute_depths(self) -> None:
        """BFS depth refresh after re-parenting (local bookkeeping)."""
        self.depth = {self.root: 0}
        frontier = [self.root]
        while frontier:
            nxt = []
            for node in frontier:
                for child in self.children[node]:
                    self.depth[child] = self.depth[node] + 1
                    nxt.append(child)
            frontier = nxt
        if len(self.depth) != self.size:
            raise RuntimeError(
                "virtual tree became disconnected during rebalancing"
            )
