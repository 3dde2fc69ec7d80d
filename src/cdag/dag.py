"""Directed acyclic graphs and the purely graph-theoretic queries.

Vertices are dense 0-based integers ``0..p-1``; files, CLI output and error
messages render them 1-based.  A :class:`Dag` is immutable after
construction, caches its topological order and parent/child sets, and all
queries are pure.  The reachability queries (descendants, d-connection) run
on bitmasks, bit v standing for vertex v, built on first use; d-connection
also answers a stack of queries, given as numpy arrays of bitmasks, in one
pass.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from .errors import CdagError, GraphError

Edge = Tuple[int, int]


def vertex(v, p: int) -> int:
    """``v`` as a vertex of a graph on p vertices: an integer, not a bool, in
    0..p-1; otherwise a GraphError that names it, 1-based."""
    if type(v) is not int:
        if isinstance(v, (bool, np.bool_)) or not isinstance(v, np.integer):
            raise GraphError(f"vertex index {v!r} is not an integer")
        v = int(v)
    if not 0 <= v < p:
        raise GraphError(f"vertex {v + 1} out of range for p={p}")
    return v


def require_integer(name: str, value, least: int) -> int:
    """``value`` as an int if it is an integer, Python's or numpy's and not a
    bool, of at least ``least``; otherwise a CdagError that names it."""
    if type(value) is not int and not isinstance(value, np.integer):
        raise CdagError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise CdagError(f"{name} must be at least {least}, got {value}")
    return int(value)


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


def ordered_sets(masks: np.ndarray, p: int, by_size: bool = False,
                 groups: Optional[np.ndarray] = None
                 ) -> Tuple[np.ndarray, List[Tuple[int, ...]]]:
    """Vertex sets given as an array of bitmasks over p vertices, sorted as
    their sorted member lists sort, a set before its extensions (or by size
    first, and then so; or by ``groups``, a key per set, first of all), and
    each of them as a sorted tuple."""
    member = (masks[:, None] >> np.arange(p) & 1).astype(bool)
    rows = np.where(member, np.arange(p), p)
    rows.sort(axis=1)               # the members, ascending, then p
    size = member.sum(axis=1)
    keys = ([*np.where(rows < p, rows, -1).T[::-1]] + ([size] if by_size else [])
            + ([groups] if groups is not None else []))
    order = np.lexsort(keys)
    return masks[order], [tuple(row[:n]) for row, n in zip(rows[order].tolist(),
                                                           size[order].tolist())]


def _span(bits) -> int:
    """The union of a bitmask, or of an array of them, as an int."""
    if isinstance(bits, np.ndarray):
        return int(np.bitwise_or.reduce(bits, axis=None, initial=0))
    return bits


def _stack_dtype(*sets):
    """The one dtype of a stacked query's bitmask arrays: uint64 for uint64
    stacks, int64 for other integer stacks (mixing uint64 and signed ones
    is refused); None when none of ``sets`` is an array."""
    stacked = [x for x in sets if isinstance(x, np.ndarray)]
    if not stacked:
        return None
    dtype = np.result_type(*stacked)
    if dtype.kind not in "iu":
        raise TypeError(f"stacked bitmasks must be integers, got {dtype}")
    return dtype if dtype == np.uint64 else np.dtype(np.int64)


def _union_by_bits(masks, bits: int) -> int:
    """The union of ``masks[v]`` over the vertices v of the bitmask ``bits``."""
    out = 0
    while bits:
        low = bits & -bits
        out |= masks[low.bit_length() - 1]
        bits ^= low
    return out


def _union_by_bytes(tables: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The same union for each bitmask of an array, gathered byte by byte:
    ``tables[b, x]`` is the union for the byte value x in byte b."""
    if len(tables) == 1:
        return tables[0][bits]
    out = tables[0][bits & 255]
    for b in range(1, len(tables)):
        out = out | tables[b][bits >> 8 * b & 255]
    return out


class Dag:
    """DAG on vertex set ``{0, ..., p-1}`` with edges ``(i, j)`` meaning i -> j."""

    __slots__ = ("p", "edges", "topo", "_parents", "_children", "_bits", "_tables")

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
        object.__setattr__(self, "topo", self._toposort())

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

    def _check_vertex(self, i: int) -> int:
        return vertex(i, self.p)

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

    # -- d-separation ---------------------------------------------------

    def _byte_tables(self) -> np.ndarray:
        """The parent, child and ancestor masks as per-byte union tables, for
        stacked queries: ``[m, b, x]`` is the union of mask m over the
        vertices 8b + t for the set bits t of the byte value x.  Built on the
        first stacked query."""
        try:
            return self._tables
        except AttributeError:
            pass
        if self.p > 64:
            raise GraphError(f"stacked d-connection needs p <= 64, got p={self.p}")
        pa, ch, anc, _ = self._masks()
        masks = np.zeros((3, max(1, -(-self.p // 8)), 8, 1), dtype=np.uint64)
        masks.reshape(3, -1)[:, :self.p] = pa, ch, anc
        # the byte values 2^t to 2^(t+1) - 1: those below 2^t, with bit t added
        tables = np.zeros((3, masks.shape[1], 256), dtype=np.uint64)
        for t in range(8):
            np.bitwise_or(tables[..., :1 << t], masks[:, :, t], out=tables[..., 1 << t:2 << t])
        object.__setattr__(self, "_tables", tables)
        return tables

    def d_connected(self, left, given=0):
        """Every vertex d-connected to the set ``left`` given the disjoint set
        ``given``, all three as bitmasks: the vertices outside ``given``
        that an unblocked path reaches from ``left``, ``left`` included.

        One Bayes-ball pass (Shachter 1998) answers every right-hand vertex
        at once.  A ball arriving up (from a child) at a vertex outside
        ``given`` goes on to its parents and children; one arriving down
        (from a parent) goes on to the children of a vertex outside
        ``given``, and back up to the parents of a vertex in the ancestor
        closure of ``given`` (an opened collider).

        ``left`` and ``given`` may also be int64 or uint64 arrays of
        bitmasks (narrower integers widen to int64), which broadcast: one
        pass then answers every row, and returns one bitmask per row.  The
        rules are the same expressions on ints and on arrays; only the union of the parents (children,
        ancestors) of a set differs, a loop over its bits for an int and a
        gather from per-byte tables for an array.  An array holds one bit
        per vertex, so a stacked query needs p <= 63 with int64 masks and
        p <= 64 with uint64; the checks that stack queries are guarded far
        below that.  Python ints serve any p.
        """
        dtype = _stack_dtype(left, given)
        if dtype is not None:
            left, given = np.asarray(left, dtype), np.asarray(given, dtype)
            pa, ch, anc = self._byte_tables().view(dtype)
            union, live = _union_by_bytes, lambda bits: bits.any()
        else:
            pa, ch, anc, _ = self._masks()
            union, live = _union_by_bits, bool
        free, opens = ~given, union(anc, given)
        up, down = left, left & 0
        new_up, new_down = up, down
        while live(new_up | new_down):
            passed = new_up & free
            to_up = union(pa, passed | new_down & opens)
            to_down = union(ch, passed | new_down & free)
            new_up, new_down = to_up & ~up, to_down & ~down
            up, down = up | new_up, down | new_down
        return (up | down) & free

    def d_separated(self, left, right, given=()):
        """True iff every path between ``left`` and ``right`` is blocked by
        ``given``: each path must contain a non-collider in ``given`` or a
        collider outside ``given`` with no descendant in ``given``.

        Any of the three may also be an int64 or uint64 array of bitmasks;
        they broadcast to a stack of queries, answered by one stacked pass
        with a bool per row (see :meth:`d_connected` for the bound on p).
        The sets must be disjoint within each row.

        A query on :meth:`d_connected`, after checking the vertex sets; the
        naive path enumerator used to validate it lives in the test tree.
        """
        left, right, given = (self._bits_of(s) for s in (left, right, given))
        dtype = _stack_dtype(left, right, given)
        if dtype is not None:
            left, right, given = (np.asarray(s, dtype) for s in (left, right, given))
        if _span(left & right | (left | right) & given):
            raise GraphError("d-separation requires pairwise disjoint vertex sets")
        return (self.d_connected(left, given) & right) == 0

    def _bits_of(self, vertices):
        """The bitmask of a set of this graph's vertices, checked; an array
        of bitmasks is checked and returned as it is."""
        if isinstance(vertices, np.ndarray):
            beyond = _span(vertices) >> self.p
            if beyond:
                self._check_vertex(self.p + (beyond & -beyond).bit_length() - 1)
            return vertices
        bits = 0
        for v in vertices:
            bits |= 1 << self._check_vertex(v)
        return bits

    def skeleton(self) -> FrozenSet[FrozenSet[int]]:
        return frozenset(frozenset(e) for e in self.edges)
