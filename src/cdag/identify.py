"""Identifying-set membership tests, enumeration and sampling.

A set A identifies the error variance of a vertex i when the conditional
variance of i given A equals that parameter on every model point, and
identifies the coefficient on an edge i -> j when the corresponding
regression quotient does.  Membership is a purely graphical condition;
the semantic soundness of these tests is exercised numerically in the
test suite.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, List, Set, Union

import numpy as np

from .dag import Dag, Edge
from .errors import GraphError, SizeGuardError

ENUM_GUARD_P = 12


def is_vertex_identifying(g: Dag, i: int, candidate) -> bool:
    """True iff pa(i) is contained in the candidate set, which avoids i and
    all of its descendants."""
    a = frozenset(candidate)
    if i in a:
        raise GraphError(f"candidate set for vertex {i + 1} may not contain it")
    return g.parents(i) <= a and not (a & g.descendants(i))


def is_zero_identifying(g: Dag, i: int, j: int, candidate) -> bool:
    """For a non-edge (i, j): the regression quotient of i on j given the
    candidate set is identically zero iff the set minus i d-separates i and j."""
    if (i, j) in g.edges:
        raise GraphError(f"({i + 1}, {j + 1}) is an edge; use is_edge_identifying")
    a = frozenset(candidate)
    if j in a:
        raise GraphError(f"candidate set for pair ({i + 1}, {j + 1}) "
                         f"may not contain {j + 1}")
    return g.d_separated({i}, {j}, a - {i})


def is_edge_identifying(g: Dag, i: int, j: int, candidate) -> bool:
    """For an edge i -> j: the candidate set must contain i, avoid j and its
    descendants, and, minus i, d-separate i and j in the graph with the edge
    i -> j and all descendants of j deleted."""
    return _edge_test(g, i, j)(candidate)


def _edge_test(g: Dag, i: int, j: int):
    """``is_edge_identifying`` for one edge, as a test of candidate sets that
    shares one pruned graph."""
    if (i, j) not in g.edges:
        raise GraphError(f"({i + 1}, {j + 1}) is not an edge; use is_zero_identifying")
    # delete de(j) and the edge i -> j; candidates are tested for separation there
    dropped = g.descendants(j)
    closed = dropped | {j}
    keep = [v for v in range(g.p) if v not in dropped]
    relabel = {v: pos for pos, v in enumerate(keep)}
    sub = Dag(len(keep), [(relabel[a], relabel[b]) for a, b in g.edges
                          if a not in dropped and b not in dropped and (a, b) != (i, j)])

    def test(candidate) -> bool:
        a = frozenset(candidate)
        if j in a:
            raise GraphError(f"candidate set for edge ({i + 1}, {j + 1}) "
                             f"may not contain {j + 1}")
        if i not in a or a & closed:
            return False
        return sub.d_separated({relabel[i]}, {relabel[j]}, {relabel[v] for v in a - {i}})

    return test


def _membership(g: Dag, target: Union[int, Edge]):
    """(universe, test): the vertices a candidate set may draw from, and the
    membership test, for a vertex, an edge or a non-edge."""
    if isinstance(target, int):
        g._check_vertex(target)
        return ([v for v in range(g.p) if v != target],
                lambda a: is_vertex_identifying(g, target, a))
    i, j = target
    g._check_vertex(i)
    g._check_vertex(j)
    if i == j:
        raise GraphError(f"({i + 1}, {j + 1}) is a self-loop, not a vertex pair")
    universe = [v for v in range(g.p) if v != j]
    if (i, j) in g.edges:
        return universe, _edge_test(g, i, j)
    return universe, lambda a: is_zero_identifying(g, i, j, a)


def enumerate_identifying_sets(g: Dag,
                               target: Union[int, Edge]) -> Set[FrozenSet[int]]:
    """All identifying sets for a vertex or for a (present or absent) edge.

    Enumeration is exponential in p and guarded accordingly.
    """
    if g.p > ENUM_GUARD_P:
        raise SizeGuardError(f"identifying-set enumeration is limited to p <= {ENUM_GUARD_P}")
    universe, test = _membership(g, target)
    found = set()
    for r in range(len(universe) + 1):
        for combo in combinations(universe, r):
            a = frozenset(combo)
            if test(a):
                found.add(a)
    return found


def sample_identifying_sets(g: Dag, target: Union[int, Edge], witness,
                            rng: np.random.Generator, want: int,
                            tries: int = 200) -> List[FrozenSet[int]]:
    """Up to ``want`` identifying sets, sorted, from ``tries`` random supersets
    of ``witness``, a known identifying set that is always included; for
    graphs too large to enumerate."""
    universe, test = _membership(g, target)
    found = {frozenset(witness)}
    for _ in range(tries):
        if len(found) >= want:
            break
        mask = rng.random(len(universe)) < 0.5
        cand = frozenset(v for v, m in zip(universe, mask) if m) | frozenset(witness)
        if test(cand):
            found.add(cand)
    return sorted(found, key=sorted)
