"""Identifying-set membership tests, enumeration and sampling.

A set A identifies the error variance of a vertex i when the conditional
variance of i given A equals that parameter on every model point, and
identifies the coefficient on an edge i -> j when the corresponding
regression quotient does.  Membership is a purely graphical condition;
the semantic soundness of these tests is exercised numerically in the
test suite.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set, Union

import numpy as np

from .dag import Dag, Edge, bitmask, members
from .errors import GraphError, SizeGuardError

ENUM_GUARD_P = 12


def is_vertex_identifying(g: Dag, i: int, candidate) -> bool:
    """True iff pa(i) is contained in the candidate set, which avoids i and
    all of its descendants."""
    return _vertex_test(g, i)(g._bits_of(candidate))


def is_zero_identifying(g: Dag, i: int, j: int, candidate) -> bool:
    """For a non-edge (i, j): the regression quotient of i on j given the
    candidate set is identically zero iff the set minus i d-separates i and j."""
    return _zero_test(g, i, j)(g._bits_of(candidate))


def is_edge_identifying(g: Dag, i: int, j: int, candidate) -> bool:
    """For an edge i -> j: the candidate set must contain i, avoid j and its
    descendants, and, minus i, d-separate i and j in the graph with the edge
    i -> j and all descendants of j deleted."""
    return _edge_test(g, i, j)(g._bits_of(candidate))


# Each test below is built once per target, with what the target alone
# determines, and takes a candidate set of vertices of g as a bitmask.


def _vertex_test(g: Dag, i: int):
    parents, below = bitmask(g.parents(i)), bitmask(g.descendants(i))

    def test(a: int) -> bool:
        if a >> i & 1:
            raise GraphError(f"candidate set for vertex {i + 1} may not contain it")
        return not parents & ~a and not a & below

    return test


def _zero_test(g: Dag, i: int, j: int):
    if (i, j) in g.edges:
        raise GraphError(f"({i + 1}, {j + 1}) is an edge; use is_edge_identifying")
    g._check_vertex(i)
    g._check_vertex(j)
    return _separation_test(g, i, j, "pair")


def _edge_test(g: Dag, i: int, j: int):
    if (i, j) not in g.edges:
        raise GraphError(f"({i + 1}, {j + 1}) is not an edge; use is_zero_identifying")
    # de(j) and the edge i -> j deleted; the deleted vertices stay, isolated,
    # so the labels stay, and a candidate holding one of them is refused
    dropped = g.descendants(j)
    pruned = Dag(g.p, [e for e in g.edges
                       if e != (i, j) and e[0] not in dropped and e[1] not in dropped])
    return _separation_test(pruned, i, j, "edge", needs=1 << i, refused=bitmask(dropped))


def _separation_test(g: Dag, i: int, j: int, what: str, needs: int = 0, refused: int = 0):
    """A test of whether a candidate set, minus i, d-separates the vertices
    i and j of g; it must hold the vertices of ``needs`` and avoid those of
    ``refused``."""

    def test(a: int) -> bool:
        if a >> j & 1:
            raise GraphError(f"candidate set for {what} ({i + 1}, {j + 1}) "
                             f"may not contain {j + 1}")
        if needs & ~a or a & refused:
            return False
        return g.d_separated((i,), (j,), members(a & ~(1 << i)))

    return test


def _membership(g: Dag, target: Union[int, Edge]):
    """(universe, test): the vertices a candidate set may draw from, and the
    membership test, for a vertex, an edge or a non-edge."""
    if isinstance(target, int):
        return [v for v in range(g.p) if v != target], _vertex_test(g, target)
    i, j = target
    g._check_vertex(i)
    g._check_vertex(j)
    if i == j:
        raise GraphError(f"({i + 1}, {j + 1}) is a self-loop, not a vertex pair")
    universe = [v for v in range(g.p) if v != j]
    if (i, j) in g.edges:
        return universe, _edge_test(g, i, j)
    return universe, _zero_test(g, i, j)


def enumerate_identifying_sets(g: Dag,
                               target: Union[int, Edge]) -> Set[FrozenSet[int]]:
    """All identifying sets for a vertex or for a (present or absent) edge.

    Enumeration is exponential in p and guarded accordingly.
    """
    if g.p > ENUM_GUARD_P:
        raise SizeGuardError(f"identifying-set enumeration is limited to p <= {ENUM_GUARD_P}")
    universe, test = _membership(g, target)
    full = bitmask(universe)
    found = set()
    a = full
    while True:  # every subset of the universe, from the full one down to the empty one
        if test(a):
            found.add(members(a))
        if not a:
            return found
        a = (a - 1) & full


def sample_identifying_sets(g: Dag, target: Union[int, Edge], witness,
                            rng: np.random.Generator, want: int,
                            tries: int = 200) -> List[FrozenSet[int]]:
    """Up to ``want`` identifying sets, sorted, from ``tries`` random supersets
    of ``witness``, a known identifying set that is always included; for
    graphs too large to enumerate."""
    universe, test = _membership(g, target)
    found, always = {frozenset(witness)}, bitmask(witness)
    for _ in range(tries):
        if len(found) >= want:
            break
        mask = rng.random(len(universe)) < 0.5
        cand = bitmask(v for v, m in zip(universe, mask) if m) | always
        if test(cand):
            found.add(members(cand))
    return sorted(found, key=sorted)
