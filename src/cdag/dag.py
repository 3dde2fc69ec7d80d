"""Directed acyclic graphs and the purely graph-theoretic queries.

Vertices are dense 0-based integers ``0..p-1``; files, CLI output and error
messages render them 1-based.  A :class:`Dag` is immutable after
construction, caches its topological order and parent/child sets, and all
queries are pure.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Iterable, Tuple

from .errors import GraphError

Edge = Tuple[int, int]


class Dag:
    """DAG on vertex set ``{0, ..., p-1}`` with edges ``(i, j)`` meaning i -> j."""

    __slots__ = ("p", "edges", "topo", "_parents", "_children", "_rank")

    def __init__(self, p: int, edges: Iterable[Edge] = ()):
        if p < 0:
            raise GraphError(f"vertex count must be nonnegative, got {p}")
        edge_list = [(int(i), int(j)) for i, j in edges]
        for i, j in edge_list:
            if not (0 <= i < p and 0 <= j < p):
                raise GraphError(f"edge ({i + 1}, {j + 1}) out of range for p={p}")
            if i == j:
                raise GraphError(f"self-loop at vertex {i + 1}")
        edge_set = frozenset(edge_list)
        parents = [set() for _ in range(p)]
        children = [set() for _ in range(p)]
        for i, j in edge_set:
            parents[j].add(i)
            children[i].add(j)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "edges", edge_set)
        object.__setattr__(self, "_parents", tuple(frozenset(s) for s in parents))
        object.__setattr__(self, "_children", tuple(frozenset(s) for s in children))
        topo = self._toposort()
        object.__setattr__(self, "topo", topo)
        rank = [0] * p
        for pos, v in enumerate(topo):
            rank[v] = pos
        object.__setattr__(self, "_rank", tuple(rank))

    def __setattr__(self, name, value):
        raise AttributeError("Dag is immutable")

    def _toposort(self) -> Tuple[int, ...]:
        indeg = [len(self._parents[v]) for v in range(self.p)]
        queue = deque(v for v in range(self.p) if indeg[v] == 0)
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(self._children[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) != self.p:
            raise GraphError("graph contains a directed cycle")
        return tuple(order)

    # -- basic queries -------------------------------------------------

    def _check_vertex(self, i: int) -> None:
        if not (0 <= i < self.p):
            raise GraphError(f"vertex {i + 1} out of range for p={self.p}")

    def parents(self, i: int) -> FrozenSet[int]:
        self._check_vertex(i)
        return self._parents[i]

    def children(self, i: int) -> FrozenSet[int]:
        self._check_vertex(i)
        return self._children[i]

    def _reach(self, starts, step) -> set:
        """The starts plus every vertex reachable from them along ``step``,
        which is ``self._parents`` or ``self._children``."""
        seen = set(starts)
        stack = list(seen)
        while stack:
            for u in step[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    def descendants(self, i: int) -> FrozenSet[int]:
        """All j with a directed path i -> ... -> j (excluding i)."""
        self._check_vertex(i)
        return frozenset(self._reach(self._children[i], self._children))

    def adjacent(self, i: int, j: int) -> bool:
        return (i, j) in self.edges or (j, i) in self.edges

    def topo_rank(self, i: int) -> int:
        """Position of i in the cached topological order."""
        self._check_vertex(i)
        return self._rank[i]

    # -- d-separation ---------------------------------------------------

    def d_separated(self, left, right, given=()) -> bool:
        """True iff every path between ``left`` and ``right`` is blocked by
        ``given``: each path must contain a non-collider in ``given`` or a
        collider outside ``given`` with no descendant in ``given``.

        Implemented as ball-passing reachability; the naive path enumerator
        used to validate it lives in the test tree.
        """
        left = frozenset(left)
        right = frozenset(right)
        given = frozenset(given)
        for s in (left, right, given):
            for v in s:
                self._check_vertex(v)
        if left & right or left & given or right & given:
            raise GraphError("d-separation requires pairwise disjoint vertex sets")
        # closure of `given` under ancestors: colliders in it may be opened
        anc_given = self._reach(given, self._parents)
        UP, DOWN = 0, 1  # direction of travel into a vertex
        visited = set()
        queue = deque((v, UP) for v in left)
        while queue:
            v, direction = queue.popleft()
            if (v, direction) in visited:
                continue
            visited.add((v, direction))
            if v in right and v not in given:
                return False
            if direction == UP and v not in given:
                for u in self._parents[v]:
                    queue.append((u, UP))
                for u in self._children[v]:
                    queue.append((u, DOWN))
            elif direction == DOWN:
                if v not in given:
                    for u in self._children[v]:
                        queue.append((u, DOWN))
                if v in anc_given:  # collider with (ancestor of) given below it
                    for u in self._parents[v]:
                        queue.append((u, UP))
        return True

    def skeleton(self) -> FrozenSet[FrozenSet[int]]:
        return frozenset(frozenset(e) for e in self.edges)
