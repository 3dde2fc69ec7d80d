"""Directed acyclic graphs and the purely graph-theoretic queries.

Vertices are dense 0-based integers ``0..p-1``; files, CLI output and error
messages render them 1-based.  A :class:`Dag` is immutable after
construction, caches its topological order and parent/child sets, and all
queries are pure.  The reachability queries (descendants, d-connection) run
on bitmasks, bit v standing for vertex v, built on first use.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Iterable, Tuple

from .errors import GraphError

Edge = Tuple[int, int]


def bitmask(vertices: Iterable[int]) -> int:
    """The bitmask of a vertex set: bit v for vertex v."""
    return sum(1 << v for v in vertices)


def members(bits: int) -> FrozenSet[int]:
    """The vertex set of a bitmask."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return frozenset(out)


class Dag:
    """DAG on vertex set ``{0, ..., p-1}`` with edges ``(i, j)`` meaning i -> j."""

    __slots__ = ("p", "edges", "topo", "_parents", "_children", "_rank", "_bits")

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

    def _masks(self):
        """Per vertex, as bitmasks: its parents, its children, itself with its
        ancestors, and itself with its descendants.  Built on the first
        reachability query, so graphs that are only built pay nothing."""
        try:
            return self._bits
        except AttributeError:
            pass
        pa = [bitmask(s) for s in self._parents]
        ch = [bitmask(s) for s in self._children]
        anc, desc = [0] * self.p, [0] * self.p
        for v in self.topo:
            for u in self._parents[v]:
                anc[v] |= anc[u]
            anc[v] |= 1 << v
        for v in reversed(self.topo):
            for u in self._children[v]:
                desc[v] |= desc[u]
            desc[v] |= 1 << v
        bits = (pa, ch, anc, desc)
        object.__setattr__(self, "_bits", bits)
        return bits

    def descendants(self, i: int) -> FrozenSet[int]:
        """All j with a directed path i -> ... -> j (excluding i)."""
        self._check_vertex(i)
        return members(self._masks()[3][i] & ~(1 << i))

    def adjacent(self, i: int, j: int) -> bool:
        return (i, j) in self.edges or (j, i) in self.edges

    def topo_rank(self, i: int) -> int:
        """Position of i in the cached topological order."""
        self._check_vertex(i)
        return self._rank[i]

    # -- d-separation ---------------------------------------------------

    def d_connected(self, left: int, given: int = 0) -> int:
        """Every vertex d-connected to the set ``left`` given the disjoint set
        ``given``, all three as bitmasks: the vertices outside ``given``
        that an unblocked path reaches from ``left``, ``left`` included.

        One Bayes-ball pass (Shachter 1998) answers every right-hand vertex
        at once.  A ball arriving up (from a child) at a vertex outside
        ``given`` goes on to its parents and children; one arriving down
        (from a parent) goes on to the children of a vertex outside
        ``given``, and back up to the parents of a vertex in the ancestor
        closure of ``given`` (an opened collider).
        """
        pa, ch, anc, _ = self._masks()
        opens = 0
        bits = given
        while bits:
            low = bits & -bits
            opens |= anc[low.bit_length() - 1]
            bits ^= low
        up, down = left, 0
        new_up, new_down = left, 0
        while new_up or new_down:
            passed = new_up & ~given
            to_up = to_down = 0
            bits = passed | new_down & opens
            while bits:
                low = bits & -bits
                to_up |= pa[low.bit_length() - 1]
                bits ^= low
            bits = passed | new_down & ~given
            while bits:
                low = bits & -bits
                to_down |= ch[low.bit_length() - 1]
                bits ^= low
            new_up, new_down = to_up & ~up, to_down & ~down
            up |= new_up
            down |= new_down
        return (up | down) & ~given

    def d_separated(self, left, right, given=()) -> bool:
        """True iff every path between ``left`` and ``right`` is blocked by
        ``given``: each path must contain a non-collider in ``given`` or a
        collider outside ``given`` with no descendant in ``given``.

        A query on :meth:`d_connected`, after checking the vertex sets; the
        naive path enumerator used to validate it lives in the test tree.
        """
        left, right, given = (self._bits_of(s) for s in (left, right, given))
        if left & right or left & given or right & given:
            raise GraphError("d-separation requires pairwise disjoint vertex sets")
        return not self.d_connected(left, given) & right

    def _bits_of(self, vertices) -> int:
        """The bitmask of a set of this graph's vertices, checked."""
        bits = 0
        for v in vertices:
            self._check_vertex(v)
            bits |= 1 << v
        return bits

    def skeleton(self) -> FrozenSet[FrozenSet[int]]:
        return frozenset(frozenset(e) for e in self.edges)
