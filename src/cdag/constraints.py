"""Polynomial/rational constraints of a colored model and the checks built on them.

Every check is one pipeline: enumerate relations, compile them, then
evaluate them per covariance.  Two enumerations feed it: the (i, j, K)
triples, for independence minors, and the pairs of same-colored vertices
and of same-colored edges, for coloring relations.  The local generators
condition on parent sets; they are the denominator-cleared relations that
cut out the model inside the positive definite cone.  The global relations
range over d-separated triples and products of identifying sets; the
triples are split by one d-connection pass per (i, K), which answers every
j at once.  Evaluating the relations numerically yields Markov-property
checks, a faithfulness diagnostic, and a sampling-based model-equivalence
test.

Each relation kind names, in one table, the minors it is built from and
two ways to combine them.  ``RelationPoly.__call__`` gives the paper's
relation: a polynomial with denominators cleared (``cir``/``vcr``/``ecr``)
or a difference of recovery quotients (``vcc``/``ecc``), evaluated on sigma
itself.  The checks instead compile relations once into an ``_Evaluator``,
in blocks: a block is one kind and one index tuple with a list of
conditioning sets per term, and stands for every product of one set per
term, first term outer.  A single relation is a 1 x 1 block, and a product
of identifying sets A x B is compiled without building its relations: each
term's minors are looked up once, then the slot ids are expanded in
product order.  A ``RelationPoly`` is made only to report a relation.  The
evaluator scales sigma to its correlation matrix R = D^-1/2 sigma D^-1/2,
with D the diagonal of sigma, computes each distinct minor of R once (one
stacked determinant call per minor size, for one covariance or a stack of
them) and combines the minors into dimensionless residuals:

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
from itertools import combinations, groupby
from math import prod
from typing import Callable, FrozenSet, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from . import identify
from .coloring import ColoredDag
from .dag import Dag, bitmask
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
# fixed order, which its kind's combining functions read.


def _principal(s):
    s = tuple(sorted(s))
    return s, s


def _almost_principal(i, j, given):
    k = tuple(sorted(given))
    return (i,) + k, (j,) + k


def _independence_minors(i, j, k):
    """|S_{ij|K}|, |S_{iK}|, |S_{jK}|."""
    return _almost_principal(i, j, k), _principal((i,) + k), _principal((j,) + k)


def _variance_minors(i, a):
    """|S_{iA}| and |S_A|, whose quotient is the conditional variance of i
    given A."""
    return _principal((i,) + a), _principal(a)


def _coefficient_minors(i, j, a):
    """|S_{ij|A \\ i}| and |S_A|, whose quotient is the regression
    coefficient of i -> j given A."""
    return _almost_principal(i, j, set(a) - {i}), _principal(a)


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
    heads: Callable       # indices -> the head of each term
    minors: Callable      # (*head, given) -> the (rows, cols) of one term's minors
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

    def __call__(self, sigma: np.ndarray) -> float:
        kind = _KINDS[self.kind]
        return kind.polynomial([minor(sigma, rows, cols)
                                for head, given in zip(kind.heads(self.indices), self.given)
                                for rows, cols in kind.minors(*head, given)])

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


class _Block(NamedTuple):
    """The relations kind(indices; given) for every choice of one sorted
    conditioning set per term from ``sets``, in product order: the first
    term outer."""

    kind: str
    indices: Tuple[int, ...]
    sets: Tuple[Tuple[Tuple[int, ...], ...], ...]   # one list of sets per term

    @property
    def size(self) -> int:
        return prod(map(len, self.sets))

    def relation(self, t: int) -> RelationPoly:
        """The block's t-th relation."""
        given = []
        for sets in reversed(self.sets):
            t, pick = divmod(t, len(sets))
            given.append(sets[pick])
        return RelationPoly(self.kind, self.indices, tuple(reversed(given)))


def _triples(p: int) -> Iterator[Tuple[int, int, Tuple[int, ...]]]:
    """Every (i, j, K) with i < j and K a set of the other vertices: by
    pair, then by the size of K."""
    for i, j in combinations(range(p), 2):
        others = [v for v in range(p) if v != i and v != j]
        for r in range(len(others) + 1):
            for k in combinations(others, r):
                yield i, j, k


def _separation(g: Dag) -> Callable[[int, int, Tuple[int, ...]], bool]:
    """A test of whether K d-separates i and j in g, made of one d-connection
    pass per (i, K), kept for every j."""
    connected = cache(lambda i, k: g.d_connected(1 << i, bitmask(k)))
    return lambda i, j, k: not connected(i, k) >> j & 1


def _separated_triples(g: Dag, separated: bool) -> List[tuple]:
    """The (i, j, K) of ``_triples``, in order, whose K d-separates (or, with
    ``separated`` False, d-connects) i and j."""
    test = _separation(g)
    return [t for t in _triples(g.p) if test(*t) == separated]


def _cir_blocks(triples) -> List[_Block]:
    """One independence block per run of triples of the same pair."""
    return [_Block("cir", pair, (tuple(k for _, _, k in run),))
            for pair, run in groupby(triples, key=lambda t: t[:2])]


def _same_colored_pairs(cd: ColoredDag) -> Iterator[tuple]:
    """(kind, indices, t1, t2) for every pair t1, t2 of same-colored vertices
    (kind "vc"), then of same-colored edges (kind "ec"), in class order; the
    edges of a class are ordered head first.  The local relation's kind adds
    "r" to the pair's kind, the global one "c"."""
    for grp in cd.vertex_classes:
        for i, j in combinations(sorted(grp), 2):
            yield "vc", (i, j), i, j
    for grp in cd.edge_classes:
        members = sorted(grp, key=lambda e: (e[1], e[0]))
        for e1, e2 in combinations(members, 2):
            yield "ec", e1 + e2, e1, e2


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
    return [block.relation(0) for block in _local_blocks(cd)]


def _local_blocks(cd: ColoredDag) -> List[_Block]:
    """The local generators, in order, as 1 x 1 blocks."""
    g = cd.graph
    pa = [tuple(sorted(g.parents(v))) for v in range(g.p)]
    blocks = []
    for a, b in combinations(range(g.p), 2):
        if g.adjacent(a, b):
            continue
        i, j = (a, b) if g.topo_rank(a) < g.topo_rank(b) else (b, a)
        blocks.append(_Block("cir", (i, j), ((pa[j],),)))
    for kind, indices, t1, t2 in _same_colored_pairs(cd):
        blocks.append(_Block(kind + "r", indices,
                             ((pa[_vertex_of(t1)],), (pa[_vertex_of(t2)],))))
    return blocks


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
    """Blocks of relations compiled once, then evaluated per covariance
    matrix or per stack of them.

    Every distinct minor gets one slot; a minor and its transpose share it,
    since R is symmetric.  A term's slots are looked up once, however many
    products it appears in, and each kind's slot-id table is expanded in
    product order by array arithmetic.  Evaluation fills the slots with one
    stacked determinant call per minor size, then combines them kind by
    kind.
    """

    def __init__(self, blocks, p: int):
        self.blocks, self._starts, n = [], [], 0
        # per kind: each block's start and indices, its number of sets per
        # term, and per term the slot ids of every set, block after block;
        # a term's slot ids are looked up once per list of sets
        slots, chunks, kinds = {}, {}, {}
        for block in blocks:
            size = block.size
            if not size:
                continue
            kind = _KINDS[block.kind]
            heads = kind.heads(block.indices)
            if block.kind not in kinds:
                kinds[block.kind] = [], [], [[] for _ in heads]
            starts, counts, tables = kinds[block.kind]
            starts += (n, *block.indices)
            for head, sets, table in zip(heads, block.sets, tables):
                counts.append(len(sets))
                key = kind.minors, head, sets
                chunk = chunks.get(key)
                if chunk is None:
                    chunk = chunks[key] = [
                        slots.setdefault(min(m, m[::-1]), len(slots))
                        for given in sets for m in kind.minors(*head, given)]
                table += chunk
            self.blocks.append(block)
            self._starts.append(n)
            n += size
        self.size = n
        self._kinds = [self._expand(name, *acc) for name, acc in kinds.items()]
        by_size = {}
        for (rows, cols), slot in slots.items():
            ids, flat = by_size.setdefault(len(rows), ([], []))
            ids.append(slot)
            flat += rows + cols
        # per minor size: slot ids, and the stacked rows and columns
        self._sizes = [(np.array(ids), *np.array(flat, dtype=int).reshape(len(ids), 2, -1)
                        .transpose(1, 0, 2))
                       for ids, flat in by_size.values()]
        self._n_slots = len(slots)
        # a bound on the float64 values held per p x p covariance: three
        # p x p arrays (at most that many are alive at once while the stack
        # is drawn, or while it is scaled to correlations), the gathered
        # submatrices of every minor size, the slots and a few arrays per relation
        self._bytes = 8 * (3 * p * p + sum(ids.size * (rows.shape[1] ** 2 + 1)
                                           for ids, rows, _ in self._sizes)
                           + 8 * self.size)

    @staticmethod
    def _expand(name, starts, counts, tables):
        """One kind's residual function, and its relations' positions, slot
        ids (one column per relation) and indices (likewise), with every
        block expanded in product order."""
        counts = np.array(counts).reshape(-1, len(tables))
        starts = np.array(starts).reshape(len(counts), -1)
        sizes = counts.prod(axis=1)
        which = np.repeat(np.arange(len(counts)), sizes)
        local = np.arange(which.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        pos = starts[which, 0] + local
        offsets = np.cumsum(counts, axis=0) - counts
        parts = []
        for t in reversed(range(len(tables))):
            local, pick = np.divmod(local, counts[which, t])
            table = np.array(tables[t]).reshape(counts[:, t].sum(), -1)
            parts.append(table[offsets[which, t] + pick])
        ids = np.concatenate(parts[::-1], axis=1).T
        return _KINDS[name].residual, pos, ids, starts[which, 1:].T

    def relation(self, t: int) -> RelationPoly:
        """The t-th relation, in block order."""
        b = bisect_right(self._starts, t) - 1
        return self.blocks[b].relation(t - self._starts[b])

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
            raise CdagError(f"{self.relation(bad[0] % self.size).label()} has a "
                            f"non-finite residual: the covariance matrix is too badly "
                            f"scaled or too close to singular")
        return res

    def violations(self, res: np.ndarray, tol: float) -> List[ConstraintViolation]:
        """The relations whose residual in the row ``res`` exceeds tol, in
        order, after refusing a non-finite one."""
        res = self.finite(res)
        return [ConstraintViolation(self.relation(t), float(res[t]))
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


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise CdagError(f"trials must be at least 1, got {trials}")


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
    return _report("local", "full", tol, sigma, _local_blocks(cd))


def _report(prop: str, mode: str, tol: float, sigma: np.ndarray, blocks) -> MarkovReport:
    evaluator = _Evaluator(blocks, len(sigma))
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
    if budget is not None and budget < 1:
        raise CdagError(f"budget must be at least 1, got {budget}")
    rng = np.random.default_rng(seed)

    @cache
    def sets_for(target):
        if small:
            found = sorted(identify.enumerate_identifying_sets(g, target), key=sorted)
        else:
            found = identify.sample_identifying_sets(
                g, target, g.parents(_vertex_of(target)), rng,
                want=max(2, int(np.sqrt(budget)) + 1))
        return tuple(tuple(sorted(a)) for a in found)

    if small:
        ci = _separated_triples(g, True)
    else:
        ci, vertex_pairs, separated = [], list(combinations(range(g.p), 2)), _separation(g)
        for _ in range(budget * 4):
            if len(ci) >= budget:
                break
            i, j = vertex_pairs[rng.integers(len(vertex_pairs))]
            rest = [v for v in range(g.p) if v != i and v != j]
            mask = rng.random(len(rest)) < 0.5
            k = tuple(v for v, m in zip(rest, mask) if m)
            if separated(i, j, k):
                ci.append((i, j, k))
    pairs = list(_same_colored_pairs(cd))
    if budget is None:
        mode = "full"
        coloring = [_Block(kind + "c", indices, (sets_for(t1), sets_for(t2)))
                    for kind, indices, t1, t2 in pairs]
    else:
        mode = f"sampled(budget={budget}, seed={seed})"
        if len(ci) > budget:
            keep = rng.choice(len(ci), size=budget, replace=False)
            ci = [ci[t] for t in sorted(keep)]
        # draw (A, B) products without materializing the full family
        coloring = []
        for _ in range(budget if pairs else 0):
            kind, indices, t1, t2 = pairs[rng.integers(len(pairs))]
            sets1, sets2 = sets_for(t1), sets_for(t2)
            a = sets1[rng.integers(len(sets1))]
            b = sets2[rng.integers(len(sets2))]
            coloring.append(_Block(kind + "c", indices, ((a,), (b,))))
    return _report("global", mode, tol, sigma, _cir_blocks(ci) + coloring)


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
    _require_trials(trials)
    _require_tol(tol)
    rng = np.random.default_rng(seed)
    triples = _separated_triples(g, False)
    evaluator = _Evaluator(_cir_blocks(triples), g.p)
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
    _require_trials(trials)
    _require_tol(tol)
    rng = np.random.default_rng(seed)
    for side, gens, model in ((1, cd1, cd2), (2, cd2, cd1)):
        # equal models have the same generators: a self-pair compiles them once
        if side == 1 or cd2 != cd1:
            evaluator = _Evaluator(_local_blocks(gens), gens.p)
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
