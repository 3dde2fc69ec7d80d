"""Polynomial/rational constraints of a colored model and the checks built on them.

Every check is one pipeline: enumerate relations, compile them, then
evaluate them per covariance.  Two enumerations feed it: the (i, j, K)
triples, for independence minors, and the pairs of same-colored vertices
and of same-colored edges, for coloring relations.  The local generators
condition on parent sets; they are the denominator-cleared relations that
cut out the model inside the positive definite cone.  The global relations
range over d-separated triples and products of identifying sets.  In full,
one stacked d-connection pass over every (i, K) at once splits the
triples, each row answering every j, and the identifying sets of every
same-colored vertex and edge come from one call that tests every
candidate of every target with one stacked d-separation query (see
``identify``); the stacked passes hold one vertex a bit in an int64, and
the guards keep p far below that.  The sampled check queries Python ints,
so it runs at any p.  Evaluating the relations numerically yields Markov-property
checks, a faithfulness diagnostic, and a sampling-based model-equivalence
test.

Each relation kind names, in one table, the minors it is built from and
two ways to combine them.  ``RelationPoly.__call__`` gives the paper's
relation: a polynomial with denominators cleared (``cir``/``vcr``/``ecr``)
or a difference of recovery quotients (``vcc``/``ecc``), evaluated on sigma
itself.  The checks instead list their relations as arrays, in a
``_Relations``: per kind, each relation's indices and, per term, the id of
its conditioning set in a table that holds each distinct set once.  Every
producer lists them the same way: the local generators from the parent
sets, the triples, and the products of identifying sets A x B of all
same-colored pairs of a kind at once, pair after pair, first term outer.
No producer removes duplicates; an ``_Evaluator`` compiles the arrays once,
in bulk: ``np.unique`` finds each term's distinct (head, set) pairs, their
minors get integer keys over bitmasks of the sets, and ``np.unique`` on the
keys finds the distinct minors.  A ``RelationPoly`` is made only to report
a relation.  The evaluator scales sigma to its correlation matrix
R = D^-1/2 sigma D^-1/2, with D the diagonal of sigma, computes each
distinct minor of R once (one stacked determinant call per minor size, for
one covariance or a stack of them) and combines the minors into
dimensionless residuals:

- ``cir``: the partial correlation of i and j given K;
- ``vcr``/``vcc``: the relative difference (a - b) / max(|a|, |b|), or 0
  where a == b, of the two conditional variances;
- ``ecr``/``ecc``: the relative difference of the two regression
  coefficients.

A check's ``tol`` bounds these residuals, so c * sigma gets the verdicts of
sigma for every c > 0, and the independence verdicts are unchanged by any
positive rescaling of the variables.  A residual that is not finite (a
minor that under- or overflows) is a ``CdagError``, never a pass.  The
equivalence test and the faithfulness scan draw their random trials in
stacks, through the model's ``params.Covariances`` kernel, and evaluate each
stack at once, each matrix factored on its own, so a trial's residuals do
not depend on the stack it is in.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, groupby
from typing import Callable, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

from . import identify
from .coloring import ColoredDag
from .dag import Dag, bitmask, ordered_sets, require_integer
from .errors import CdagError, GraphError, SizeGuardError
from .params import Covariances, minor, require_positive_definite

SCAN_GUARD_P = 8
FULL_GLOBAL_GUARD_P = 8
STACK_BYTES = 1 << 24   # working set of one stacked evaluation of random trials


def _fmt_set(s) -> str:
    return "{" + ",".join(str(v + 1) for v in sorted(s)) + "}"


# -- the relation kinds -------------------------------------------------------
# A minor is a (rows, cols) pair of index tuples.  A relation combines one
# term (cir) or two (the coloring kinds); a term is a head, part of the
# relation's indices, plus one conditioning set, and lists its minors in a
# fixed order, which its kind's combining functions read.  Each kind's
# minors are written once, over a set algebra ``m``: ``_Tuples`` spells out
# one relation's minors as index tuples, and ``_SetTable`` keys the minors
# of many terms at once, with one array entry per term.


def _principal(s):
    s = tuple(sorted(s))
    return s, s


def _almost_principal(i, j, given):
    k = tuple(sorted(given))
    return (i,) + k, (j,) + k


class _Tuples:
    """The set algebra of one relation: sets are tuples, minors are (rows,
    cols) index tuples."""

    principal = staticmethod(_principal)
    almost = staticmethod(_almost_principal)

    @staticmethod
    def add(s, v):
        return (v,) + tuple(s)

    @staticmethod
    def remove(s, v):
        return set(s) - {v}


def _independence_minors(m, i, j, k):
    """|S_{ij|K}|, |S_{iK}|, |S_{jK}|."""
    return m.almost(i, j, k), m.principal(m.add(k, i)), m.principal(m.add(k, j))


def _variance_minors(m, i, a):
    """|S_{iA}| and |S_A|, whose quotient is the conditional variance of i
    given A."""
    return m.principal(m.add(a, i)), m.principal(a)


def _coefficient_minors(m, i, j, a):
    """|S_{ij|A \\ i}| and |S_A|, whose quotient is the regression
    coefficient of i -> j given A."""
    return m.almost(i, j, m.remove(a, i)), m.principal(a)


def _cleared(m):
    return m[0] * m[3] - m[2] * m[1]


def _quotients(m):
    return m[0] / m[1] - m[2] / m[3]


def _relative_difference(a, b):
    """(a - b) / max(|a|, |b|), and 0 where a == b; NaN stays NaN."""
    diff = a - b
    return np.divide(diff, np.maximum(np.abs(a), np.abs(b)),
                     out=np.zeros_like(diff), where=diff != 0)


def _partial_correlation(m, x, var):
    return m[0] / (np.sqrt(m[1]) * np.sqrt(m[2]))


def _variances(m, x, var):
    # a quotient of minors of R times var_i is the conditional variance
    i, j = x
    return _relative_difference(m[0] / m[1] * var[i], m[2] / m[3] * var[j])


def _coefficients(m, x, var):
    # a quotient of minors of R times sd_j / sd_i is the coefficient on i -> j
    i, j, k, l = x
    sd = np.sqrt(var)
    return _relative_difference(m[0] / m[1] * (sd[j] / sd[i]),
                                m[2] / m[3] * (sd[l] / sd[k]))


class _Kind(NamedTuple):
    heads: Callable       # indices (or index columns) -> the head of each term
    minors: Callable      # (algebra, *head, given) -> one term's minors
    polynomial: Callable  # minors of sigma -> the paper's relation
    residual: Callable    # (minors of R, index columns, variances) -> residuals


def _one_term(x):
    return [x]


def _vertex_terms(x):
    return [x[:1], x[1:]]


def _edge_terms(x):
    return [x[:2], x[2:]]


_KINDS = {
    "cir": _Kind(_one_term, _independence_minors, lambda m: m[0], _partial_correlation),
    "vcr": _Kind(_vertex_terms, _variance_minors, _cleared, _variances),
    "vcc": _Kind(_vertex_terms, _variance_minors, _quotients, _variances),
    "ecr": _Kind(_edge_terms, _coefficient_minors, _cleared, _coefficients),
    "ecc": _Kind(_edge_terms, _coefficient_minors, _quotients, _coefficients),
}


@dataclass(frozen=True)
class RelationPoly:
    """One constraint: a pure evaluator on covariance matrices.

    ``cir``/``vcr``/``ecr`` are polynomial (denominators cleared); ``vcc`` and
    ``ecc`` are rational with principal-minor denominators, which never vanish
    on positive definite input.
    """

    kind: str                       # cir | vcr | ecr | vcc | ecc
    indices: Tuple[int, ...]        # (i, j) or (i, j, k, l)
    given: Tuple[Tuple[int, ...], ...]  # one or two sorted conditioning sets

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown relation kind {self.kind!r}")
        object.__setattr__(self, "given", tuple(tuple(sorted(s)) for s in self.given))

    def minors(self) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """The (rows, cols) of the relation's minors, term after term, in
        the order its kind combines them."""
        kind = _KINDS[self.kind]
        return [m for head, given in zip(kind.heads(self.indices), self.given)
                for m in kind.minors(_Tuples, *head, given)]

    def __call__(self, sigma: np.ndarray) -> float:
        sigma = np.asarray(sigma)
        return _KINDS[self.kind].polynomial([minor(sigma, rows, cols)
                                             for rows, cols in self.minors()])

    def label(self) -> str:
        """Human-readable 1-based rendering."""
        if self.kind in ("cir",):
            i, j = self.indices
            return f"cir({i + 1},{j + 1} | {_fmt_set(self.given[0])})"
        if self.kind in ("vcr", "vcc"):
            i, j = self.indices
            a, b = self.given
            return f"{self.kind}({i + 1},{j + 1}; {_fmt_set(a)},{_fmt_set(b)})"
        i, j, k, l = self.indices
        a, b = self.given
        return (f"{self.kind}({i + 1}->{j + 1},{k + 1}->{l + 1}; "
                f"{_fmt_set(a)},{_fmt_set(b)})")

    def describe(self) -> dict:
        return {
            "constraint": self.kind,
            "indices": [v + 1 for v in self.indices],
            "given": [sorted(v + 1 for v in s) for s in self.given],
        }


class _Relations:
    """A check's relations, in order, as arrays.  A part is relations of one
    kind: an index row each and, per term, a set id each.  The set ids index
    ``sets``, which holds each distinct set once, as a sorted tuple."""

    def __init__(self, p: int):
        self.p = p
        self.sets: List[Tuple[int, ...]] = []
        self._ids = {}
        self._parts = []     # (kind, indices (n, k), per term set ids (n,))
        self._starts = []    # each part's first position
        self.size = 0

    def intern(self, sets) -> np.ndarray:
        """The ids of sorted sets, each distinct set stored once."""
        for s in sets:
            if s not in self._ids:
                self._ids[s] = len(self.sets)
                self.sets.append(s)
        return np.array([self._ids[s] for s in sets], dtype=int)

    def add(self, kind: str, indices, *given) -> None:
        """Relations of one kind, in order: index rows, and per term an array
        of set ids."""
        n = len(given[0])
        if n:
            self._starts.append(self.size)
            self._parts.append((kind, np.asarray(indices, dtype=int).reshape(n, -1), given))
            self.size += n

    def add_triples(self, triples) -> None:
        """cir(i, j | K) for each (i, j, K), in order."""
        self.add("cir", [t[:2] for t in triples], self.intern([t[2] for t in triples]))

    def by_kind(self):
        """Per kind, in order of first appearance: its relations' positions
        and index rows and, per term, their set ids."""
        chunks = {}
        for start, (kind, indices, given) in zip(self._starts, self._parts):
            chunks.setdefault(kind, []).append(
                (np.arange(start, start + len(indices)), indices, given))
        out = {}
        for kind, parts in chunks.items():
            pos, indices, given = zip(*parts)
            out[kind] = (np.concatenate(pos), np.concatenate(indices),
                         [np.concatenate(sids) for sids in zip(*given)])
        return out

    def relation(self, t: int) -> RelationPoly:
        """The t-th relation."""
        b = bisect_right(self._starts, t) - 1
        kind, indices, given = self._parts[b]
        row = t - self._starts[b]
        return RelationPoly(kind, tuple(indices[row].tolist()),
                            tuple(self.sets[sids[row]] for sids in given))


def _word_bit(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The bitmask word of each vertex in ``v``, and its bit in that word."""
    return v // 64, np.left_shift(np.uint64(1), (v % 64).astype(np.uint64))


class _SetTable:
    """The set algebra of a compile: vertex sets as rows of bitmask words,
    64 vertices a word, so any p fits.  The interned conditioning sets come
    first; ``add`` and ``remove`` append one derived set per array entry.
    A minor is requested as its set's row and a code of the two vertices
    that head it (0 for a principal minor); ``keys`` numbers equal sets
    alike first, so equal minors get equal keys."""

    def __init__(self, sets, p: int):
        self.p = p
        flat = np.fromiter(chain.from_iterable(sets), dtype=int)
        row = np.repeat(np.arange(len(sets)), np.array([len(s) for s in sets], dtype=int))
        words = np.zeros((len(sets), max(1, -(-p // 64))), dtype=np.uint64)
        word, bit = _word_bit(flat)
        np.bitwise_or.at(words, (row, word), bit)
        self._rows, self._n = [words], len(sets)

    def _derive(self, s, v, member: bool):
        words = self._rows[0][s]
        word, bit = _word_bit(v)
        at = np.arange(len(s)), word
        words[at] = words[at] | bit if member else words[at] & ~bit
        self._rows.append(words)
        self._n += len(s)
        return np.arange(self._n - len(s), self._n)

    def add(self, s, v):
        return self._derive(s, v, True)

    def remove(self, s, v):
        return self._derive(s, v, False)

    @staticmethod
    def principal(s):
        return s, np.zeros_like(s)

    def almost(self, i, j, s):
        # rows from the lower head: a minor and its transpose share a key
        return s, (np.minimum(i, j) + 1) * (self.p + 1) + np.maximum(i, j) + 1

    def keys(self, minors) -> Tuple[np.ndarray, np.ndarray]:
        """The key of every requested minor, request after request, and the
        bitmask words of every set by its number: key = set * (p + 1)^2 +
        head code."""
        words = np.concatenate(self._rows)
        number = np.unique(words[:, 0], return_inverse=True)[1]
        for col in words.T[1:]:   # refine the numbering by each further word
            rank = np.unique(col, return_inverse=True)[1]
            number = np.unique(number * len(words) + rank, return_inverse=True)[1]
        table = np.empty((number.max(initial=-1) + 1, words.shape[1]), dtype=np.uint64)
        table[number] = words
        rows = np.concatenate([np.empty(0, dtype=int), *(s for s, _ in minors)])
        heads = np.concatenate([np.empty(0, dtype=int), *(h for _, h in minors)])
        return number[rows] * (self.p + 1) ** 2 + heads, table

    def decode(self, keys, table):
        """The (rows, cols) of each key's minor, padded to p columns, and its
        size."""
        q = self.p + 1
        at, heads = np.divmod(keys, q * q)
        lo, hi = np.divmod(heads, q)
        lo, hi = lo - 1, hi - 1
        almost = lo >= 0
        # vertex v is bit v of the row's bytes, least significant byte first
        member = np.unpackbits(table[at].astype("<u8").view(np.uint8), axis=1,
                               bitorder="little")
        r, c = np.divmod(np.flatnonzero(member), member.shape[1])
        count = np.bincount(r, minlength=len(keys))
        # each set's members in ascending order, after the head of an
        # almost-principal minor
        rows = np.zeros((len(keys), self.p), dtype=int)
        rows[r, np.arange(r.size) - np.repeat(np.cumsum(count) - count, count) + almost[r]] = c
        cols = rows.copy()
        rows[almost, :1], cols[almost, :1] = lo[almost, None], hi[almost, None]
        return rows, cols, count + almost


def _separated_triples(g: Dag, separated: bool) -> List[tuple]:
    """Every (i, j, K) with i < j and K a sorted tuple of the other vertices,
    by pair, then by the size of K, then in ``combinations`` order, whose K
    d-separates (or, with ``separated`` False, d-connects) i and j.  One
    stacked d-connection pass answers every (i, K) at once, and each
    triple reads bit j of its (i, K) row."""
    p = g.p
    # the pass, over every K that avoids i, as a (vertex, set) table
    i, k = np.nonzero((np.arange(1 << p) >> np.arange(p)[:, None] & 1) == 0)
    reached = np.zeros((p, 1 << p), dtype=np.int64)
    reached[i, k] = g.d_connected(1 << i, k)
    # every triple in order: the sets, kept in their order, that avoid a pair
    sets, tuples = ordered_sets(np.arange(1 << p), p, by_size=True)
    a, b = np.triu_indices(p, 1)
    pair, at = np.nonzero((sets & (1 << a | 1 << b)[:, None]) == 0)
    i, j = a[pair], b[pair]
    keep = (reached[i, sets[at]] >> j & 1) != separated
    return [(x, y, tuples[t]) for x, y, t in zip(i[keep].tolist(), j[keep].tolist(),
                                                 at[keep].tolist())]


def _class_pairs(classes, width: int) -> np.ndarray:
    """Every pair of members of one class, the pair's two rows side by side:
    class after class, each class's members sorted by their last entry, then
    by the one before, and paired in ``combinations`` order.  A member is a
    vertex (``width`` 1) or an edge (i, j) (``width`` 2), ordered head first."""
    classes = [grp for grp in classes if len(grp) > 1]
    if not classes:
        return np.empty((0, 2 * width), dtype=int)
    sizes = np.array([len(grp) for grp in classes], dtype=int)
    flat = chain.from_iterable(classes)
    members = np.fromiter(chain.from_iterable(flat) if width > 1 else flat,
                          dtype=int).reshape(-1, width)
    label = np.repeat(np.arange(len(sizes)), sizes)
    members = members[np.lexsort((*members.T, label))]
    # a member pairs with each later member of its class
    later = np.repeat(np.cumsum(sizes), sizes) - np.arange(len(members)) - 1
    a = np.repeat(np.arange(len(members)), later)
    b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(later) - later, later)
    return np.concatenate([members[a], members[b]], axis=1)


def _same_colored_pairs(cd: ColoredDag) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs of same-colored vertices, as rows (i, j), and of
    same-colored edges, as rows (i, j, k, l) for i -> j and k -> l, in class
    order; the edges of a class are ordered head first.  The local relation
    of a pair is a ``vcr`` or ``ecr``, the global ones ``vcc`` or ``ecc``."""
    return _class_pairs(cd.vertex_classes, 1), _class_pairs(cd.edge_classes, 2)


def _vertex_of(target) -> int:
    """A vertex itself, or the head j of an edge i -> j: pa(head) conditions
    the target's local relations, and is one of its identifying sets."""
    return target if isinstance(target, int) else target[1]


def local_generators(cd: ColoredDag) -> List[RelationPoly]:
    """Generators of the local colored conditional-independence ideal:
    for each non-adjacent pair the independence minor conditioned on the
    parents of the topologically later vertex, plus one coloring relation
    for every pair of same-colored vertices and every pair of same-colored
    edges (conditioned on parent sets).
    """
    relations = _local_relations(cd)
    return [relations.relation(t) for t in range(relations.size)]


def _local_relations(cd: ColoredDag) -> _Relations:
    """The local generators, in order, listed from the parent sets: the
    non-adjacent pairs, then the vertex pairs, then the edge pairs."""
    g, p = cd.graph, cd.p
    relations = _Relations(p)
    pa = relations.intern([tuple(sorted(g.parents(v))) for v in range(p)])
    adjacent = np.zeros((p, p), dtype=bool)
    edges = np.array(list(g.edges), dtype=int).reshape(-1, 2)
    adjacent[edges[:, 0], edges[:, 1]] = adjacent[edges[:, 1], edges[:, 0]] = True
    rank = np.empty(p, dtype=int)
    rank[list(g.topo)] = np.arange(p)
    a, b = np.nonzero(np.triu(~adjacent, 1))   # the non-adjacent pairs a < b, in order
    first = rank[a] < rank[b]
    i, j = np.where(first, a, b), np.where(first, b, a)
    relations.add("cir", np.column_stack([i, j]), pa[j])
    vertex, edge = _same_colored_pairs(cd)
    relations.add("vcr", vertex, pa[vertex[:, 0]], pa[vertex[:, 1]])
    relations.add("ecr", edge, pa[edge[:, 1]], pa[edge[:, 3]])
    return relations


# -- Markov-property checks -------------------------------------------------


@dataclass(frozen=True)
class ConstraintViolation:
    constraint: RelationPoly
    residual: float

    def to_json_dict(self, tol: float) -> dict:
        doc = self.constraint.describe()
        doc["residual"] = self.residual
        doc["tol"] = tol
        doc["verdict"] = "violated"
        return doc


@dataclass(frozen=True)
class MarkovReport:
    property: str                  # "local" | "global"
    mode: str                      # "full" | "sampled(...)"
    tol: float
    n_checked: int
    violations: Tuple[ConstraintViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "property": self.property,
            "mode": self.mode,
            "tol": self.tol,
            "checked": self.n_checked,
            "verdict": "pass" if self.ok else "fail",
            "violations": [v.to_json_dict(self.tol) for v in self.violations],
        }


class _Evaluator:
    """Relations compiled once, then evaluated per covariance matrix or per
    stack of them.

    Every distinct minor gets one slot; a minor and its transpose share it,
    since R is symmetric.  The compile works on the relations' arrays, kind
    by kind, with no Python step per relation: per term, ``np.unique`` over
    a code of (head, set id) gives the distinct pairs and each relation's
    pick among them, and the kind's recipe keys the minors of all of them at
    once over a ``_SetTable``.  One ``np.unique`` call numbers the distinct
    keys as slots, the picks gather each relation's slot ids, and the keys
    are decoded into stacked rows and columns per minor size.  Evaluation
    fills the slots with one stacked determinant call per minor size, then
    combines them kind by kind.
    """

    def __init__(self, relations: _Relations):
        self.relations, self.size, p = relations, relations.size, relations.p
        sets = _SetTable(relations.sets, p)
        # per kind: its residual function, positions and index columns and,
        # per term, the number of minors and of distinct (head, set) pairs,
        # and each relation's pick among them
        kinds, requests = [], []
        for name, (pos, indices, given) in relations.by_kind().items():
            kind = _KINDS[name]
            picks = []
            for head, sids in zip(kind.heads(indices.T), given):
                # one integer per (head, set) pair
                code = sids
                for v in head:
                    code = code * p + v
                _, first, pick = np.unique(code, return_index=True, return_inverse=True)
                minors = kind.minors(sets, *(v[first] for v in head), sids[first])
                picks.append((len(minors), first.size, pick))
                requests += minors
            kinds.append((kind.residual, pos, indices.T, picks))
        keys, table = sets.keys(requests)
        distinct, slot = np.unique(keys, return_inverse=True)
        # each relation's slot ids, one row per minor it reads
        self._kinds, at = [], 0
        for residual, pos, indices, picks in kinds:
            ids = []
            for count, n, pick in picks:
                ids.append(slot[at:at + count * n].reshape(count, -1)[:, pick])
                at += count * n
            self._kinds.append((residual, pos, np.concatenate(ids), indices))
        rows, cols, size = sets.decode(distinct, table)
        # per minor size: slot ids, and the stacked rows and columns
        order = np.argsort(size, kind="stable")
        rows, cols, size = rows[order], cols[order], size[order]
        cuts = [0, *(np.flatnonzero(np.diff(size)) + 1).tolist(), size.size]
        self._sizes = [(order[a:b], rows[a:b, :size[a]], cols[a:b, :size[a]])
                       for a, b in zip(cuts, cuts[1:]) if b > a]
        self._n_slots = distinct.size
        # a bound on the float64 values held per p x p covariance: three
        # p x p arrays (at most that many are alive at once while the stack
        # is drawn, or while it is scaled to correlations), the gathered
        # submatrices of every minor size, the slots and a few arrays per relation
        self._bytes = 8 * (3 * p * p + sum(ids.size * (rows.shape[1] ** 2 + 1)
                                           for ids, rows, _ in self._sizes)
                           + 8 * self.size)

    def residuals(self, sigma: np.ndarray) -> np.ndarray:
        """The dimensionless residual of every relation, in order, at sigma
        (shape (p, p) -> (size,)), or at each matrix of a stack (shape
        (t, p, p) -> (t, size)).  A matrix's residuals do not depend on the
        stack it is in.  Unchecked: ``finite`` refuses a non-finite one."""
        var = np.diagonal(sigma, axis1=-2, axis2=-1)
        sd = np.sqrt(var)
        r = sigma / sd[..., :, None] / sd[..., None, :]
        # minors and residuals keep the stack, if any, on a trailing axis
        m = np.empty((self._n_slots,) + sigma.shape[:-2])
        out = np.empty((self.size,) + sigma.shape[:-2])
        # an under- or overflow surfaces as a non-finite residual, refused by `finite`
        with np.errstate(over="ignore", under="ignore", divide="ignore",
                         invalid="ignore"):
            for ids, rows, cols in self._sizes:
                m[ids] = minor(r, rows, cols).T
            for residual, pos, ids, indices in self._kinds:
                out[pos] = residual(m[ids], indices, var.T)
        return out.T

    def finite(self, res: np.ndarray) -> np.ndarray:
        """``res``, from ``residuals``, if every residual in it is finite;
        otherwise a CdagError naming the first relation of the first matrix
        that has a non-finite one."""
        bad = np.flatnonzero(~np.isfinite(res))
        if bad.size:
            raise CdagError(f"{self.relations.relation(bad[0] % self.size).label()} has a "
                            f"non-finite residual: the covariance matrix is too badly "
                            f"scaled or too close to singular")
        return res

    def violations(self, res: np.ndarray, tol: float) -> List[ConstraintViolation]:
        """The relations whose residual in the row ``res`` exceeds tol, in
        order, after refusing a non-finite one."""
        res = self.finite(res)
        return [ConstraintViolation(self.relations.relation(t), float(res[t]))
                for t in np.flatnonzero(np.abs(res) > tol)]

    def trials(self, cd: ColoredDag, rng: np.random.Generator, count: int):
        """(first trial, residuals) at ``count`` random points of the model
        ``cd``, drawn in order: the first alone, so a test that fails at once
        draws one point, then the rest in stacks that hold at most
        ``STACK_BYTES`` of working set (or one point)."""
        per = max(1, STACK_BYTES // max(1, self._bytes))
        model = Covariances(cd)
        done = 0
        while done < count:
            size = 1 if done == 0 else min(per, count - done)
            yield done, self.residuals(model.draw(rng, size))
            done += size


def _require_tol(tol: float) -> None:
    if not tol >= 0:
        raise CdagError(f"tol must be nonnegative, got {tol}")
    if np.isinf(tol):
        raise CdagError("tol must be finite, got inf: every residual would pass")


def _model_sigma(sigma: np.ndarray, cd: ColoredDag) -> np.ndarray:
    """A positive definite covariance matrix of the graph's p variables."""
    if np.shape(sigma) != (cd.p, cd.p):
        raise GraphError(f"covariance matrix has shape {np.shape(sigma)} but "
                         f"the graph has p={cd.p} vertices")
    return require_positive_definite(sigma)


def check_local_markov(sigma: np.ndarray, cd: ColoredDag,
                       tol: float = 1e-7) -> MarkovReport:
    """Evaluate every local generator at sigma and report the violated ones."""
    _require_tol(tol)
    sigma = _model_sigma(sigma, cd)
    return _report("local", "full", tol, sigma, _local_relations(cd))


def _report(prop: str, mode: str, tol: float, sigma: np.ndarray,
            relations: _Relations) -> MarkovReport:
    evaluator = _Evaluator(relations)
    return MarkovReport(prop, mode, tol, evaluator.size,
                        tuple(evaluator.violations(evaluator.residuals(sigma), tol)))


def check_global_markov(sigma: np.ndarray, cd: ColoredDag, tol: float = 1e-7,
                        budget: Optional[int] = None, seed: int = 0) -> MarkovReport:
    """Check d-separation independences plus the invariance constraints over
    products of identifying sets.

    Up to p = 8 the triples and identifying sets are enumerated in full;
    beyond, they are sampled, which needs a budget.  With ``budget=None``
    every product is checked; otherwise a seeded random sample of at most
    ``budget`` constraints per category is drawn, and the report records it.
    """
    _require_tol(tol)
    sigma = _model_sigma(sigma, cd)
    g = cd.graph
    small = g.p <= FULL_GLOBAL_GUARD_P
    if budget is None and not small:
        raise SizeGuardError(
            f"full global check is limited to p <= {FULL_GLOBAL_GUARD_P}; pass a budget")
    if budget is not None:
        budget = require_integer("budget", budget, 1)
    seed = require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    # (kind, indices, target, target) per same-colored pair
    vertex, edge = _same_colored_pairs(cd)
    pairs = ([("vcc", (i, j), i, j) for i, j in vertex.tolist()]
             + [("ecc", (i, j, k, l), (i, j), (k, l)) for i, j, k, l in edge.tolist()])

    if small:
        # every target's identifying sets at once
        targets = list(dict.fromkeys(t for _, _, t1, t2 in pairs for t in (t1, t2)))
        sets_for = dict(zip(targets, identify.identifying_sets_for(g, targets))).__getitem__
        ci = _separated_triples(g, True)
    else:
        @cache
        def sets_for(target):
            return identify.sample_identifying_sets(
                g, target, g.parents(_vertex_of(target)), rng,
                want=max(2, int(np.sqrt(budget)) + 1))

        ci, vertex_pairs = [], list(combinations(range(g.p), 2))
        for _ in range(budget * 4):
            if len(ci) >= budget:
                break
            i, j = vertex_pairs[rng.integers(len(vertex_pairs))]
            rest = [v for v in range(g.p) if v != i and v != j]
            mask = rng.random(len(rest)) < 0.5
            k = tuple(v for v, m in zip(rest, mask) if m)
            if not g.d_connected(1 << i, bitmask(k)) >> j & 1:
                ci.append((i, j, k))
    if budget is not None and len(ci) > budget:
        keep = rng.choice(len(ci), size=budget, replace=False)
        ci = [ci[t] for t in sorted(keep)]
    relations = _Relations(g.p)
    relations.add_triples(ci)
    if budget is None:
        mode = "full"
        ids = {t: relations.intern(sets_for(t)) for t in targets}
        for kind, run in groupby(pairs, key=lambda pair: pair[0]):
            _, indices, t1, t2 = zip(*run)
            a, b = [ids[t] for t in t1], [ids[t] for t in t2]
            # every pair's products in one call, pair after pair, first term outer
            relations.add(kind, np.repeat(indices, [x.size * y.size for x, y in zip(a, b)], axis=0),
                          np.concatenate([np.repeat(x, y.size) for x, y in zip(a, b)]),
                          np.concatenate([np.tile(y, x.size) for x, y in zip(a, b)]))
    else:
        mode = f"sampled(budget={budget}, seed={seed})"
        # draw (A, B) products without materializing the full family
        draws = []
        for _ in range(budget if pairs else 0):
            kind, indices, t1, t2 = pairs[rng.integers(len(pairs))]
            sets1, sets2 = sets_for(t1), sets_for(t2)
            a = sets1[rng.integers(len(sets1))]
            b = sets2[rng.integers(len(sets2))]
            draws.append((kind, indices, a, b))
        for kind, run in groupby(draws, key=lambda draw: draw[0]):
            _, indices, a, b = zip(*run)
            relations.add(kind, indices, relations.intern(a), relations.intern(b))
    return _report("global", mode, tol, sigma, relations)


# -- faithfulness diagnostic --------------------------------------------------


def faithfulness_scan(cd: ColoredDag, trials: int = 20, tol: float = 1e-9,
                      seed: int = 0) -> List[Tuple[int, int, FrozenSet[int]]]:
    """Elementary independences that hold on the colored model although the
    pair is d-connected: for every d-connected triple, evaluate its partial
    correlation at ``trials`` random model points and report the triples
    where it is at most ``tol`` in magnitude at all of them.  Diagnostic
    only; vanishing at every sample is necessary but not proof of an exact
    model constraint.
    """
    g = cd.graph
    if g.p > SCAN_GUARD_P:
        raise SizeGuardError(f"faithfulness scan is limited to p <= {SCAN_GUARD_P}")
    trials = require_integer("trials", trials, 1)
    seed = require_integer("seed", seed, 0)
    _require_tol(tol)
    rng = np.random.default_rng(seed)
    triples = _separated_triples(g, False)
    relations = _Relations(g.p)
    relations.add_triples(triples)
    evaluator = _Evaluator(relations)
    vanishing = np.ones(len(triples), dtype=bool)
    for _, res in evaluator.trials(cd, rng, trials):
        vanishing &= (np.abs(evaluator.finite(res)) <= tol).all(axis=0)
    return [(i, j, frozenset(k)) for (i, j, k), v in zip(triples, vanishing) if v]


# -- model equivalence --------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceWitness:
    constraint: RelationPoly
    side: int          # 1: generator of the first model, evaluated on the second
    trial: int
    residual: float

    def to_json_dict(self) -> dict:
        doc = self.constraint.describe()
        doc["side"] = self.side
        doc["trial"] = self.trial
        doc["residual"] = self.residual
        return doc


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    trials: int
    tol: float
    witness: Optional[EquivalenceWitness] = None

    def to_json_dict(self) -> dict:
        doc = {"verdict": "equivalent" if self.equivalent else "distinct",
               "trials": self.trials, "tol": self.tol}
        if self.witness is not None:
            doc["witness"] = self.witness.to_json_dict()
        return doc


def model_equivalent(cd1: ColoredDag, cd2: ColoredDag, trials: int = 20,
                     tol: float = 1e-7, seed: int = 0) -> EquivalenceResult:
    """Numeric model-equivalence test: cross-evaluate each model's local
    generators at random points of the other.  A residual above ``tol``
    certifies the models distinct; agreement on all trials reports
    equivalence with probabilistic completeness only.
    """
    if cd1.p != cd2.p:
        raise GraphError(f"vertex counts differ: {cd1.p} vs {cd2.p}")
    trials = require_integer("trials", trials, 1)
    seed = require_integer("seed", seed, 0)
    _require_tol(tol)
    rng = np.random.default_rng(seed)
    for side, gens, model in ((1, cd1, cd2), (2, cd2, cd1)):
        # equal models have the same generators: a self-pair compiles them once
        if side == 1 or cd2 != cd1:
            evaluator = _Evaluator(_local_relations(gens))
        for first, res in evaluator.trials(model, rng, trials):
            # the first trial with a residual that is not within tol
            flagged = np.flatnonzero(~(np.abs(res) <= tol).all(axis=1))
            if flagged.size:
                t = flagged[0]
                hit = evaluator.violations(res[t], tol)[0]
                witness = EquivalenceWitness(hit.constraint, side, int(first + t),
                                             hit.residual)
                return EquivalenceResult(False, trials, tol, witness)
    return EquivalenceResult(True, trials, tol)
