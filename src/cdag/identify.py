"""Identifying-set membership tests, enumeration and sampling.

A set A identifies the error variance of a vertex i when the conditional
variance of i given A equals that parameter on every model point, and
identifies the coefficient on an edge i -> j when the corresponding
regression quotient does.  Membership is a purely graphical condition;
the semantic soundness of these tests is exercised numerically in the
test suite.

Each target gets one membership test, built once, that takes candidate
sets as bitmasks: a Python int for one candidate, or an int64 array of
them for many.  Enumeration applies it to every subset of the universe at
once: mask arithmetic for a vertex, and one stacked d-separation query for
an edge or a non-edge.  The bitmasks bound the graph to p <= 63, far above
the enumeration guard; one candidate as an int works at any p.  Both
enumeration and sampling hand out sets in one form: sorted tuples, in
sorted order (a set before its extensions).
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from .dag import Dag, Edge, bitmask, members, ordered_sets, vertex
from .errors import GraphError, SizeGuardError

ENUM_GUARD_P = 12
SAMPLE_TRIES = 200


def is_vertex_identifying(g: Dag, i: int, candidate) -> bool:
    """True iff pa(i) is contained in the candidate set, which avoids i and
    all of its descendants."""
    i = vertex(i, g.p)
    return _vertex_test(g, i)(_candidate(g, candidate, i, f"vertex {i + 1} may not contain it"))


def is_zero_identifying(g: Dag, i: int, j: int, candidate) -> bool:
    """For a non-edge (i, j): the regression quotient of i on j given the
    candidate set is identically zero iff the set minus i d-separates i and j."""
    i, j = _target(g, (i, j))
    return _zero_test(g, i, j)(
        _candidate(g, candidate, j, f"pair ({i + 1}, {j + 1}) may not contain {j + 1}"))


def is_edge_identifying(g: Dag, i: int, j: int, candidate) -> bool:
    """For an edge i -> j: the candidate set must contain i, avoid j and its
    descendants, and, minus i, d-separate i and j in the graph with the edge
    i -> j and all descendants of j deleted."""
    i, j = _target(g, (i, j))
    return _edge_test(g, i, j)(
        _candidate(g, candidate, j, f"edge ({i + 1}, {j + 1}) may not contain {j + 1}"))


def _target(g: Dag, target) -> Union[int, Edge]:
    """A vertex, or two distinct vertices as a 2-tuple, checked; anything
    else is a GraphError that names the target, 1-based."""
    if not isinstance(target, tuple):
        return vertex(target, g.p)
    pair = tuple(vertex(v, g.p) for v in target)
    if len(pair) != 2:
        raise GraphError(f"target ({', '.join(str(v + 1) for v in pair)}) "
                         "is neither a vertex nor a vertex pair")
    i, j = pair
    if i == j:
        raise GraphError(f"({i + 1}, {j + 1}) is a self-loop, not a vertex pair")
    return pair


def _candidate(g: Dag, candidate, head: int, refusal: str) -> int:
    """The bitmask of a candidate set of vertices of g, which may not hold
    the target's head."""
    a = g._bits_of(candidate)
    if a >> head & 1:
        raise GraphError(f"candidate set for {refusal}")
    return a


# Each test below is built once per target, with what the target alone
# determines, and takes candidate sets drawn from the target's universe,
# as a bitmask or as an int64 array of bitmasks.


def _vertex_test(g: Dag, i: int):
    parents, below = bitmask(g.parents(i)), bitmask(g.descendants(i))
    return lambda a: (parents & ~a | a & below) == 0


def _zero_test(g: Dag, i: int, j: int):
    if (i, j) in g.edges:
        raise GraphError(f"({i + 1}, {j + 1}) is an edge; use is_edge_identifying")
    return lambda a: _separated(g, i, j, a)


def _edge_test(g: Dag, i: int, j: int):
    if (i, j) not in g.edges:
        raise GraphError(f"({i + 1}, {j + 1}) is not an edge; use is_zero_identifying")
    # de(j) and the edge i -> j deleted; the deleted vertices stay, isolated,
    # so the labels stay, and a candidate holding one of them is refused
    dropped = g.descendants(j)
    pruned = Dag(g.p, [e for e in g.edges
                       if e != (i, j) and e[0] not in dropped and e[1] not in dropped])
    needs, refused = 1 << i, bitmask(dropped)
    return lambda a: _separated(pruned, i, j, a, needs, refused)


def _separated(g: Dag, i: int, j: int, a, needs: int = 0, refused: int = 0):
    """Whether the candidate set(s) ``a`` hold the vertices of ``needs``,
    avoid those of ``refused`` and, minus i, d-separate i and j in g: one
    stacked query for an array; for an int, whose vertices are already
    checked, one pass, made only if the first two hold."""
    ok, given = (needs & ~a | a & refused) == 0, a & ~(1 << i)
    if isinstance(a, np.ndarray):
        return ok & g.d_separated((i,), (j,), given)
    return ok and not g.d_connected(1 << i, given) >> j & 1


def _membership(g: Dag, target: Union[int, Edge]):
    """(head, test): the vertex a candidate set may not contain, its
    universe being every other vertex, and the membership test, for a
    vertex, an edge or a non-edge."""
    target = _target(g, target)
    if isinstance(target, int):
        return target, _vertex_test(g, target)
    i, j = target
    return j, (_edge_test if (i, j) in g.edges else _zero_test)(g, i, j)


def identifying_sets(g: Dag, target: Union[int, Edge]) -> List[Tuple[int, ...]]:
    """All identifying sets for a vertex or for a (present or absent) edge,
    as sorted tuples in sorted order: every subset of the universe is
    tested at once.

    Enumeration is exponential in p and guarded accordingly.
    """
    if g.p > ENUM_GUARD_P:
        raise SizeGuardError(f"identifying-set enumeration is limited to p <= {ENUM_GUARD_P}")
    head, test = _membership(g, target)
    subsets = np.arange(1 << g.p)
    subsets = subsets[(subsets >> head & 1) == 0]
    return ordered_sets(subsets[test(subsets)], g.p)[1]


def sample_identifying_sets(g: Dag, target: Union[int, Edge], witness,
                            rng: np.random.Generator, want: int) -> List[Tuple[int, ...]]:
    """Up to ``want`` identifying sets, as sorted tuples in sorted order, from
    ``SAMPLE_TRIES`` random supersets of ``witness``, a known identifying set
    that is always included; for graphs too large to enumerate."""
    head, test = _membership(g, target)
    universe = [v for v in range(g.p) if v != head]
    found, always = {tuple(sorted(witness))}, bitmask(witness)
    for _ in range(SAMPLE_TRIES):
        if len(found) >= want:
            break
        mask = rng.random(len(universe)) < 0.5
        cand = bitmask(v for v, m in zip(universe, mask) if m) | always
        if test(cand):
            found.add(tuple(sorted(members(cand))))
    return sorted(found)
