"""Polynomial/rational constraints of a colored model and the checks built on them.

Every check is one pipeline: enumerate relations, then evaluate them in one
loop.  Two enumerations feed it: the (i, j, K) triples, for independence
minors, and the pairs of same-colored vertices and of same-colored edges,
for coloring relations.  The local generators condition on parent sets; they
are the denominator-cleared relations that cut out the model inside the
positive definite cone.  The global relations range over d-separated triples
and products of identifying sets.  Evaluating them numerically yields
Markov-property checks, a faithfulness diagnostic, and a sampling-based
model-equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from . import identify
from .coloring import ColoredDag
from .dag import Dag
from .errors import CdagError, GraphError, SizeGuardError
from .params import (almost_principal_minor, minor, parametrize, random_params,
                     recover_lambda, recover_omega, require_positive_definite)

SCAN_GUARD_P = 8
FULL_GLOBAL_GUARD_P = 8


def _fmt_set(s) -> str:
    return "{" + ",".join(str(v + 1) for v in sorted(s)) + "}"


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
        object.__setattr__(self, "given", tuple(tuple(sorted(s)) for s in self.given))

    def __call__(self, sigma: np.ndarray) -> float:
        if self.kind == "cir":
            i, j = self.indices
            (k,) = self.given
            return almost_principal_minor(sigma, i, j, k)
        if self.kind == "vcr":
            i, j = self.indices
            a, b = self.given
            return (minor(sigma, [i] + list(a), [i] + list(a)) * minor(sigma, b, b)
                    - minor(sigma, [j] + list(b), [j] + list(b)) * minor(sigma, a, a))
        if self.kind == "ecr":
            i, j, k, l = self.indices
            a, b = self.given
            na = [v for v in a if v != i]
            nb = [v for v in b if v != k]
            return (minor(sigma, b, b) * almost_principal_minor(sigma, i, j, na)
                    - minor(sigma, a, a) * almost_principal_minor(sigma, k, l, nb))
        if self.kind == "vcc":
            i, j = self.indices
            a, b = self.given
            return recover_omega(sigma, None, i, a) - recover_omega(sigma, None, j, b)
        if self.kind == "ecc":
            i, j, k, l = self.indices
            a, b = self.given
            return (recover_lambda(sigma, None, i, j, a)
                    - recover_lambda(sigma, None, k, l, b))
        raise ValueError(f"unknown relation kind {self.kind!r}")

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


def _triples(p: int) -> Iterator[Tuple[int, int, Tuple[int, ...]]]:
    """Every (i, j, K) with i < j and K a set of the other vertices: by
    pair, then by the size of K."""
    for i, j in combinations(range(p), 2):
        others = [v for v in range(p) if v != i and v != j]
        for r in range(len(others) + 1):
            for k in combinations(others, r):
                yield i, j, k


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


def _parent_set(g: Dag, target) -> FrozenSet[int]:
    """pa(i) of a vertex i, pa(j) of an edge i -> j: the conditioning set of
    the target's local relations, and one of its identifying sets."""
    return g.parents(target if isinstance(target, int) else target[1])


def local_generators(cd: ColoredDag) -> List[RelationPoly]:
    """Generators of the local colored conditional-independence ideal:
    for each non-adjacent pair the independence minor conditioned on the
    parents of the topologically later vertex, plus one coloring relation
    for every pair of same-colored vertices and every pair of same-colored
    edges (conditioned on parent sets).
    """
    g = cd.graph
    gens: List[RelationPoly] = []
    for a, b in combinations(range(g.p), 2):
        if g.adjacent(a, b):
            continue
        i, j = (a, b) if g.topo_rank(a) < g.topo_rank(b) else (b, a)
        gens.append(RelationPoly("cir", (i, j), (g.parents(j),)))
    for kind, indices, t1, t2 in _same_colored_pairs(cd):
        gens.append(RelationPoly(kind + "r", indices,
                                 (_parent_set(g, t1), _parent_set(g, t2))))
    return gens


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


def _violations(gens, sigma: np.ndarray, tol: float) -> Iterator[ConstraintViolation]:
    """The relations whose residual at sigma exceeds tol, in order."""
    for gen in gens:
        val = gen(sigma)
        if abs(val) > tol:
            yield ConstraintViolation(gen, float(val))


def _require_tol(tol: float) -> None:
    if not tol >= 0:
        raise CdagError(f"tol must be nonnegative, got {tol}")


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
    gens = local_generators(cd)
    return MarkovReport("local", "full", tol, len(gens),
                        tuple(_violations(gens, sigma, tol)))


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
            return sorted(identify.enumerate_identifying_sets(g, target), key=sorted)
        return identify.sample_identifying_sets(g, target, _parent_set(g, target), rng,
                                                want=max(2, int(np.sqrt(budget)) + 1))

    if small:
        ci = [RelationPoly("cir", (i, j), (k,))
              for i, j, k in _triples(g.p) if g.d_separated({i}, {j}, k)]
    else:
        ci, vertex_pairs = [], list(combinations(range(g.p), 2))
        for _ in range(budget * 4):
            if len(ci) >= budget:
                break
            i, j = vertex_pairs[rng.integers(len(vertex_pairs))]
            rest = [v for v in range(g.p) if v != i and v != j]
            mask = rng.random(len(rest)) < 0.5
            k = tuple(v for v, m in zip(rest, mask) if m)
            if g.d_separated({i}, {j}, k):
                ci.append(RelationPoly("cir", (i, j), (k,)))
    pairs = list(_same_colored_pairs(cd))
    if budget is None:
        mode = "full"
        coloring = [RelationPoly(kind + "c", indices, (a, b))
                    for kind, indices, t1, t2 in pairs
                    for a in sets_for(t1) for b in sets_for(t2)]
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
            coloring.append(RelationPoly(kind + "c", indices, (a, b)))
    gens = ci + coloring
    return MarkovReport("global", mode, tol, len(gens),
                        tuple(_violations(gens, sigma, tol)))


# -- faithfulness diagnostic --------------------------------------------------


def faithfulness_scan(cd: ColoredDag, trials: int = 20,
                      tol: Optional[float] = None,
                      seed: int = 0) -> List[Tuple[int, int, FrozenSet[int]]]:
    """Elementary independences that hold on the colored model although the
    pair is d-connected: for every d-connected triple, evaluate its minor at
    ``trials`` random model points and report the triples vanishing at all
    of them.  Diagnostic only; vanishing at every sample is necessary but not
    proof of an exact model constraint.
    """
    g = cd.graph
    if g.p > SCAN_GUARD_P:
        raise SizeGuardError(f"faithfulness scan is limited to p <= {SCAN_GUARD_P}")
    _require_trials(trials)
    if tol is not None:
        _require_tol(tol)
    rng = np.random.default_rng(seed)
    sigmas = [parametrize(cd, random_params(cd, rng)) for _ in range(trials)]
    tols = [tol if tol is not None else 1e-9 * (1.0 + float(np.abs(s).max()))
            for s in sigmas]
    return [(i, j, frozenset(k)) for i, j, k in _triples(g.p)
            if not g.d_separated({i}, {j}, k)
            and all(abs(almost_principal_minor(s, i, j, k)) <= t
                    for s, t in zip(sigmas, tols))]


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
    pairs = ((1, local_generators(cd1), cd2), (2, local_generators(cd2), cd1))
    for side, gens, model in pairs:
        for t in range(trials):
            sigma = parametrize(model, random_params(model, rng))
            hit = next(_violations(gens, sigma, tol), None)
            if hit is not None:
                witness = EquivalenceWitness(hit.constraint, side, t, hit.residual)
                return EquivalenceResult(False, trials, tol, witness)
    return EquivalenceResult(True, trials, tol)
