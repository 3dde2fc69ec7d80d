"""Identifying-set membership tests, enumeration and sampling.

A set A identifies the error variance of a vertex i when the conditional
variance of i given A equals that parameter on every model point, and
identifies the coefficient on an edge i -> j when the corresponding
regression quotient does.  Membership is a purely graphical condition;
the semantic soundness of these tests is exercised numerically in the
test suite.

Each target has one rule.  A vertex i asks for mask arithmetic alone: A
holds pa(i) and avoids de(i).  A non-edge (i, j) asks that A minus i
d-separate i and j in g.  An edge i -> j (Pearl's single-door criterion)
asks that A hold i, avoid de(j), and, minus i, d-separate i and a new
sink j' whose parents are pa(j) minus i.  Since V minus de(j) is
ancestral, that query reads in g plus j' as it reads in g with the edge
i -> j and de(j) deleted, and a sink outside every conditioning set
opens no path; so the sinks of many edge targets share one augmented
graph, which keeps g's labels.

Enumeration tests every subset of every target's universe at once: mask
arithmetic for all the rules, then one stacked ``Dag.d_separated`` query,
a row per remaining (pair target, candidate), on g plus the sinks.  A row
holds one vertex a bit in an int64, so the pair targets go in chunks of
at most 63 - p, one augmented graph and one query each; below the
enumeration guard of p = 12 that is a single chunk up to 51 targets.  The
membership test and sampling take one candidate as a Python int, on g
plus the target's own sink, and work at any p.  Both enumeration and
sampling hand out sets in one form: sorted tuples, in sorted order (a set
before its extensions).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .dag import STACK_BITS, Dag, Edge, bitmask, members, ordered_sets, require_integer, vertex
from .errors import GraphError, SizeGuardError

ENUM_GUARD_P = 12
SAMPLE_TRIES = 200


class _Rule(NamedTuple):
    """A target's membership rule: a candidate set A avoids ``head``, holds
    ``needs`` and avoids ``refused``, all three bitmasks; for a pair,
    A minus ``tail`` also d-separates ``tail`` and the head, or for an
    edge, the head's sink."""

    name: str
    head: int
    needs: int
    refused: int
    tail: Optional[int] = None
    edge: bool = False


def is_identifying(g: Dag, target: Union[int, Edge], candidate) -> bool:
    """Whether the candidate set, which may not hold the target's head,
    identifies the target, read as :func:`identifying_sets` reads it.  For
    a vertex i the set holds pa(i) and avoids de(i); for an edge i -> j it
    holds i, avoids de(j), and, minus i, d-separates i and j in g with the
    edge i -> j and de(j) deleted; for a non-edge (i, j), where the
    regression quotient of i on j given the set is to vanish, the set minus
    i d-separates i and j."""
    rule = _rule(g, target)
    return _test(g, rule)(_candidate(g, candidate, rule))


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


def _rule(g: Dag, target) -> _Rule:
    """The rule of a vertex, an edge or a non-edge."""
    target = _target(g, target)
    if isinstance(target, int):
        return _Rule(f"vertex {target + 1}", target, g._parents[target], g._descendants[target])
    i, j = target
    if (i, j) in g.edges:
        return _Rule(f"edge ({i + 1}, {j + 1})", j, 1 << i, g._descendants[j], i, True)
    return _Rule(f"pair ({i + 1}, {j + 1})", j, 0, 0, i)


def _candidate(g: Dag, candidate, rule: _Rule) -> int:
    """The bitmask of a candidate set of vertices of g, which may not hold
    the target's head."""
    a = g._bits_of(candidate)
    if a >> rule.head & 1:
        it = "it" if rule.tail is None else rule.head + 1
        raise GraphError(f"candidate set for {rule.name} may not contain {it}")
    return a


def _augmented(g: Dag, rules: Sequence[_Rule]) -> Tuple[Dag, List[int]]:
    """g plus a sink per edge rule, whose parents are the head's but the
    tail, and per pair rule the vertex its tail is queried against: the
    head of a non-edge, the sink of an edge.  Without sinks, g itself."""
    edges, right, p = list(g.edges), [], g.p
    for rule in rules:
        if rule.edge:
            edges += [(u, p) for u in g.parents(rule.head) if u != rule.tail]
            right.append(p)
            p += 1
        else:
            right.append(rule.head)
    return (g if p == g.p else Dag(p, edges)), right


def _test(g: Dag, rule: _Rule):
    """The rule as a test of one candidate set, a bitmask that avoids the
    head; the d-separation pass runs only if the masks hold."""
    def masks_hold(a: int) -> bool:
        return not (rule.needs & ~a or a & rule.refused)

    if rule.tail is None:
        return masks_hold
    aug, (right,) = _augmented(g, [rule])
    tail = 1 << rule.tail
    return lambda a: masks_hold(a) and not aug.d_connected(tail, a & ~tail) >> right & 1


def identifying_sets(g: Dag, target: Union[int, Edge]) -> List[Tuple[int, ...]]:
    """All identifying sets for a vertex or for a (present or absent) edge,
    as sorted tuples in sorted order.

    Enumeration is exponential in p and guarded accordingly.
    """
    return identifying_sets_for(g, [target])[0]


def identifying_sets_for(g: Dag, targets) -> List[List[Tuple[int, ...]]]:
    """The identifying sets of each target, as :func:`identifying_sets`
    gives them: every candidate of every target is a row, the masks of all
    the rules are tested at once, the pair targets' rows go to one stacked
    d-separation query per chunk, and one pass orders every target's sets."""
    if g.p > ENUM_GUARD_P:
        raise SizeGuardError(f"identifying-set enumeration is limited to p <= {ENUM_GUARD_P}")
    rules = [_rule(g, target) for target in targets]
    if not rules:
        return []
    head, needs, refused = np.array([(r.head, r.needs, r.refused) for r in rules]).T[:, :, None]
    subsets = np.arange(1 << g.p)
    owner, sets = np.nonzero((subsets >> head & 1 | needs & ~subsets | subsets & refused) == 0)
    keep = np.ones(len(sets), dtype=bool)
    pairs = [t for t, rule in enumerate(rules) if rule.tail is not None]
    room = STACK_BITS - g.p
    for start in range(0, len(pairs), room):
        chunk = pairs[start:start + room]
        aug, right = _augmented(g, [rules[t] for t in chunk])
        tail, versus = np.zeros((2, len(rules)), dtype=np.int64)
        tail[chunk] = [1 << rules[t].tail for t in chunk]
        versus[chunk] = [1 << v for v in right]
        rows = np.flatnonzero(versus[owner])
        left = tail[owner[rows]]
        keep[rows] = aug.d_separated(left, versus[owner[rows]], sets[rows] & ~left)
    owner = owner[keep]
    _, found = ordered_sets(sets[keep], g.p, groups=owner)
    bounds = np.searchsorted(owner, np.arange(len(rules) + 1)).tolist()
    return [found[a:b] for a, b in zip(bounds, bounds[1:])]


def sample_identifying_sets(g: Dag, target: Union[int, Edge], witness,
                            rng: np.random.Generator, want: int) -> List[Tuple[int, ...]]:
    """Up to ``want`` identifying sets, as sorted tuples in sorted order, from
    ``SAMPLE_TRIES`` random supersets of ``witness``, an identifying set
    that is always included; for graphs too large to enumerate.  A witness
    that does not identify the target is a GraphError."""
    want = require_integer("want", want, 1)
    rule = _rule(g, target)
    test = _test(g, rule)
    always = g._bits_of(witness)
    given = tuple(members(always))
    if always >> rule.head & 1 or not test(always):
        shown = ",".join(str(v + 1) for v in given)
        raise GraphError(f"witness {{{shown}}} does not identify {rule.name}")
    universe = [v for v in range(g.p) if v != rule.head]
    found = {given}
    for _ in range(SAMPLE_TRIES):
        if len(found) >= want:
            break
        mask = rng.random(len(universe)) < 0.5
        cand = bitmask(v for v, m in zip(universe, mask) if m) | always
        if test(cand):
            found.add(tuple(members(cand)))
    return sorted(found)
