"""Directed acyclic graphs and the purely graph-theoretic queries.

Vertices are dense 0-based integers ``0..p-1``; files, CLI output and error
messages render them 1-based.  One function, :func:`closure`, derives what
every query reads from each vertex's parents: the Kahn order and, as
bitmasks (bit v standing for vertex v), the parents, children and
descendants of every vertex.  A :class:`Dag` builds it on construction and
the greedy search (`cdag.gecs`) on each of its states, so the graph is
derived once, one way.  A Dag is immutable and all queries are pure;
d-connection also answers a stack of queries, given as numpy arrays of
bitmasks, in one pass.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import CdagError, GraphError

Edge = Tuple[int, int]

STACK_BITS = 63   # vertices of a stacked query: one bit each of an int64


def _index(v) -> int:
    """``v`` as an int if it is an integer, Python's or numpy's and not a
    bool; otherwise a GraphError that names it."""
    if type(v) is not int:
        if isinstance(v, (bool, np.bool_)) or not isinstance(v, np.integer):
            raise GraphError(f"vertex index {v!r} is not an integer")
        v = int(v)
    return v


def vertex(v, p: int) -> int:
    """``v`` as a vertex of a graph on p vertices: an integer, not a bool, in
    0..p-1; otherwise a GraphError that names it, 1-based."""
    v = _index(v)
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


def first_refused(items, convert):
    """The first member of ``items`` that ``convert`` refuses with a
    TypeError or a ValueError, to name once converting them all has failed;
    ``items`` itself if it is no iterable or no member is refused (a spent
    iterator)."""
    try:
        for x in items:
            try:
                convert(x)
            except (TypeError, ValueError):
                return x
    except TypeError:
        pass
    return items


def _pair(e) -> None:
    """Nothing if ``e`` unpacks as a pair; a TypeError or ValueError if not."""
    _, _ = e


def bitmask(vertices: Iterable[int]) -> int:
    """The bitmask of a vertex set: bit v for vertex v."""
    return sum(1 << v for v in vertices)


def members(bits: int) -> List[int]:
    """The vertices of a bitmask, in increasing order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class Closure(NamedTuple):
    """A DAG's structure: its Kahn order and, per vertex, Python-int
    bitmasks (bit v stands for vertex v, so any p fits)."""

    order: List[int]
    parents: List[int]
    children: List[int]
    descendants: List[int]   # without the vertex itself
    reversible: List[int]    # the children that no other child reaches


def closure(parents: Sequence[Iterable[int]]) -> Closure:
    """The closure of the graph in which ``parents[j]`` lists the parents of
    vertex j, each once; a GraphError if the graph has a directed cycle.

    One pass over the parents gives every vertex's parents and children.
    Kahn's order (Kahn 1962) starts from the sources in increasing order
    and places each vertex's children, in increasing order, first in first
    out.  In reverse Kahn order, a vertex's descendants are its children
    with theirs, and its reversible children are those outside the
    descendants of its children: reversing i -> j closes a cycle exactly
    when another child of i reaches j."""
    p = len(parents)
    pa, ch = [0] * p, [0] * p
    kids: List[List[int]] = [[] for _ in range(p)]
    for j, vs in enumerate(parents):
        bit, mask = 1 << j, 0
        for i in vs:
            mask |= 1 << i
            ch[i] |= bit
            kids[i].append(j)
        pa[j] = mask
    unplaced = [bits.bit_count() for bits in pa]   # parents not yet in Kahn order
    order = [v for v in range(p) if not unplaced[v]]
    for v in order:   # the list grows as vertices get their last parent placed
        for c in kids[v]:
            unplaced[c] -= 1
            if not unplaced[c]:
                order.append(c)
    if len(order) < p:
        raise GraphError("graph contains a directed cycle")
    desc, reversible = [0] * p, [0] * p
    for v in reversed(order):
        below = 0
        for c in kids[v]:
            below |= desc[c]
        desc[v] = ch[v] | below
        reversible[v] = ch[v] & ~below
    return Closure(order, pa, ch, desc, reversible)


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


def _stacked(*sets) -> bool:
    """Whether any of ``sets`` is an array of bitmasks, that is, a stacked
    query; a TypeError unless the arrays cast safely to int64."""
    stacked = [x for x in sets if isinstance(x, np.ndarray)]
    if stacked and not np.can_cast(np.result_type(*stacked), np.int64):
        raise TypeError("stacked bitmasks must be integers that cast safely to int64, "
                        f"got {np.result_type(*stacked)}")
    return bool(stacked)


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

    __slots__ = ("p", "edges", "topo", "_parents", "_children", "_descendants",
                 "_ancestors", "_tables")

    def __init__(self, p: int, edges: Iterable[Edge] = ()):
        p = require_integer("vertex count", p, 0)
        try:
            edge_list = [(_index(i), _index(j)) for i, j in edges]
        except GraphError:
            raise
        except (TypeError, ValueError):
            bad = first_refused(edges, _pair)
            raise GraphError(f"edge {bad!r} is not a vertex pair") from None
        for i, j in edge_list:
            if not (0 <= i < p and 0 <= j < p):
                raise GraphError(f"edge ({i + 1}, {j + 1}) out of range for p={p}")
            if i == j:
                raise GraphError(f"self-loop at vertex {i + 1}")
        edge_set = frozenset(edge_list)
        parents: List[List[int]] = [[] for _ in range(p)]
        for i, j in edge_set:
            parents[j].append(i)
        order, pa, ch, desc, _ = closure(parents)
        anc = [0] * p   # per vertex, itself with its ancestors
        for v in order:
            anc[v] = 1 << v | _union_by_bits(anc, pa[v])
        for name, value in (("p", p), ("edges", edge_set), ("topo", tuple(order)),
                            ("_parents", pa), ("_children", ch),
                            ("_descendants", desc), ("_ancestors", anc)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Dag is immutable")

    # -- basic queries -------------------------------------------------

    def _check_vertex(self, i: int) -> int:
        return vertex(i, self.p)

    def parents(self, i: int) -> FrozenSet[int]:
        return frozenset(members(self._parents[self._check_vertex(i)]))

    def children(self, i: int) -> FrozenSet[int]:
        return frozenset(members(self._children[self._check_vertex(i)]))

    def descendants(self, i: int) -> FrozenSet[int]:
        """All j with a directed path i -> ... -> j (excluding i)."""
        return frozenset(members(self._descendants[self._check_vertex(i)]))

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
        if self.p > STACK_BITS:
            raise GraphError(f"stacked d-connection needs p <= {STACK_BITS}, got p={self.p}")
        masks = np.zeros((3, max(1, -(-self.p // 8)), 8, 1), dtype=np.int64)
        masks.reshape(3, -1)[:, :self.p] = self._parents, self._children, self._ancestors
        # the byte values 2^t to 2^(t+1) - 1: those below 2^t, with bit t added
        tables = np.zeros((3, masks.shape[1], 256), dtype=np.int64)
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

        ``left`` and ``given`` may also be arrays of bitmasks that cast
        safely to int64 (other arrays are a TypeError), which broadcast: one
        pass then answers every row, and returns one int64 bitmask per row.
        The rules are the same expressions on ints and on arrays; only the
        union of the parents (children, ancestors) of a set differs, a loop
        over its bits for an int and a gather from per-byte tables for an
        array.  An int64 holds one bit per vertex, so a stacked query needs
        p <= ``STACK_BITS`` (63); the checks that stack queries are guarded
        far below that.  Python ints serve any p.
        """
        if _stacked(left, given):
            left, given = np.asarray(left, np.int64), np.asarray(given, np.int64)
            pa, ch, anc = self._byte_tables()
            union, live = _union_by_bytes, lambda bits: bits.any()
        else:
            pa, ch, anc = self._parents, self._children, self._ancestors
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

        Any of the three may also be an array of bitmasks, as
        :meth:`d_connected` takes them; they broadcast to a stack of
        queries, answered by one stacked pass with a bool per row (see
        :meth:`d_connected` for the bound on p).
        The sets must be disjoint within each row.

        A query on :meth:`d_connected`, after checking the vertex sets; the
        naive path enumerator used to validate it lives in the test tree.
        """
        stacked = _stacked(left, right, given)
        left, right, given = (self._bits_of(s) for s in (left, right, given))
        if stacked:
            left, right, given = (np.asarray(s, np.int64) for s in (left, right, given))
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
