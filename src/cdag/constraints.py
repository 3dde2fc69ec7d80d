"""Polynomial/rational constraints of a colored model and the checks built on them.

The local generators are the denominator-cleared relations that cut out the
model inside the positive definite cone: one conditional-independence minor
per non-adjacent pair, one vertex-coloring relation per pair of same-colored
vertices, and one edge-coloring relation per pair of same-colored edges.
Evaluating them numerically yields Markov-property checks, a faithfulness
diagnostic, and a sampling-based model-equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from .coloring import ColoredDag
from .dag import Dag
from .errors import GraphError, SizeGuardError
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


def _cir(i: int, j: int, given) -> RelationPoly:
    return RelationPoly("cir", (i, j), (tuple(sorted(given)),))


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
        gens.append(_cir(i, j, g.parents(j)))
    for grp in cd.vertex_classes:
        for i, j in combinations(sorted(grp), 2):
            gens.append(RelationPoly("vcr", (i, j),
                                     (tuple(sorted(g.parents(i))),
                                      tuple(sorted(g.parents(j))))))
    for grp in cd.edge_classes:
        members = sorted(grp, key=lambda e: (e[1], e[0]))
        for (i, j), (k, l) in combinations(members, 2):
            gens.append(RelationPoly("ecr", (i, j, k, l),
                                     (tuple(sorted(g.parents(j))),
                                      tuple(sorted(g.parents(l))))))
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


def _evaluate(gens, sigma, tol) -> Tuple[int, Tuple[ConstraintViolation, ...]]:
    violations = []
    for gen in gens:
        val = gen(sigma)
        if abs(val) > tol:
            violations.append(ConstraintViolation(gen, float(val)))
    return len(gens), tuple(violations)


def _model_sigma(sigma: np.ndarray, cd: ColoredDag) -> np.ndarray:
    """A positive definite covariance matrix of the graph's p variables."""
    if np.shape(sigma) != (cd.p, cd.p):
        raise GraphError(f"covariance matrix has shape {np.shape(sigma)} but "
                         f"the graph has p={cd.p} vertices")
    return require_positive_definite(sigma)


def check_local_markov(sigma: np.ndarray, cd: ColoredDag,
                       tol: float = 1e-7) -> MarkovReport:
    """Evaluate every local generator at sigma and report the violated ones."""
    sigma = _model_sigma(sigma, cd)
    n, violations = _evaluate(local_generators(cd), sigma, tol)
    return MarkovReport("local", "full", tol, n, violations)


def _identifying_sets(g: Dag, target):
    # deferred import: identify depends only on dag
    from .identify import enumerate_identifying_sets
    return sorted(enumerate_identifying_sets(g, target), key=sorted)


def _sample_identifying(g: Dag, target, rng, want: int, tries: int = 200):
    """Rejection-sample identifying sets for large graphs (always includes
    the parent-set witness)."""
    from .identify import (is_edge_identifying, is_vertex_identifying)
    if isinstance(target, int):
        base = g.parents(target)
        universe = [v for v in range(g.p) if v != target]
        test = lambda a: is_vertex_identifying(g, target, a)
    else:
        i, j = target
        base = g.parents(j) | {i}
        universe = [v for v in range(g.p) if v != j]
        test = lambda a: is_edge_identifying(g, i, j, a)
    found = {frozenset(base)}
    for _ in range(tries):
        if len(found) >= want:
            break
        mask = rng.random(len(universe)) < 0.5
        cand = frozenset(v for v, m in zip(universe, mask) if m) | frozenset(base)
        if test(cand):
            found.add(cand)
    return sorted(found, key=sorted)


def _global_ci_constraints(g: Dag):
    for i, j in combinations(range(g.p), 2):
        others = [v for v in range(g.p) if v != i and v != j]
        for r in range(len(others) + 1):
            for k in combinations(others, r):
                if g.d_separated({i}, {j}, k):
                    yield _cir(i, j, k)


def _global_coloring_constraints(cd: ColoredDag, sets_for):
    g = cd.graph
    for grp in cd.vertex_classes:
        for i, j in combinations(sorted(grp), 2):
            for a in sets_for(i):
                for b in sets_for(j):
                    yield RelationPoly("vcc", (i, j),
                                       (tuple(sorted(a)), tuple(sorted(b))))
    for grp in cd.edge_classes:
        members = sorted(grp, key=lambda e: (e[1], e[0]))
        for e1, e2 in combinations(members, 2):
            for a in sets_for(e1):
                for b in sets_for(e2):
                    yield RelationPoly("ecc", e1 + e2,
                                       (tuple(sorted(a)), tuple(sorted(b))))


def check_global_markov(sigma: np.ndarray, cd: ColoredDag, tol: float = 1e-7,
                        budget: Optional[int] = None, seed: int = 0) -> MarkovReport:
    """Check d-separation independences plus the invariance constraints over
    products of identifying sets.

    With ``budget=None`` the products are enumerated in full, which is only
    allowed for p <= 8; otherwise a seeded random sample of at most ``budget``
    constraints per category is drawn, and the report records it.
    """
    sigma = _model_sigma(sigma, cd)
    g = cd.graph
    rng = np.random.default_rng(seed)
    memo = {}
    if budget is None:
        if g.p > FULL_GLOBAL_GUARD_P:
            raise SizeGuardError(
                f"full global check is limited to p <= {FULL_GLOBAL_GUARD_P}; pass a budget")
        mode = "full"

        def sets_for(target):
            key = target
            if key not in memo:
                memo[key] = _identifying_sets(g, target)
            return memo[key]

        ci = list(_global_ci_constraints(g))
        coloring = list(_global_coloring_constraints(cd, sets_for))
    else:
        mode = f"sampled(budget={budget}, seed={seed})"
        want = max(2, int(np.sqrt(budget)) + 1)

        def sets_for(target):
            key = target
            if key not in memo:
                if g.p <= FULL_GLOBAL_GUARD_P:
                    memo[key] = _identifying_sets(g, target)
                else:
                    memo[key] = _sample_identifying(g, target, rng, want)
            return memo[key]

        ci = []
        if g.p <= FULL_GLOBAL_GUARD_P:
            ci = list(_global_ci_constraints(g))
            if len(ci) > budget:
                keep = rng.choice(len(ci), size=budget, replace=False)
                ci = [ci[t] for t in sorted(keep)]
        else:
            pairs = list(combinations(range(g.p), 2))
            for _ in range(budget * 4):
                if len(ci) >= budget:
                    break
                i, j = pairs[rng.integers(len(pairs))]
                rest = [v for v in range(g.p) if v != i and v != j]
                mask = rng.random(len(rest)) < 0.5
                k = tuple(v for v, m in zip(rest, mask) if m)
                if g.d_separated({i}, {j}, k):
                    ci.append(_cir(i, j, k))
        # draw (A, B) products without materializing the full family
        same_color = []
        for grp in cd.vertex_classes:
            same_color.extend(("vcc", i, j)
                              for i, j in combinations(sorted(grp), 2))
        for grp in cd.edge_classes:
            members = sorted(grp, key=lambda e: (e[1], e[0]))
            same_color.extend(("ecc", e1, e2)
                              for e1, e2 in combinations(members, 2))
        coloring = []
        for _ in range(budget if same_color else 0):
            kind, t1, t2 = same_color[rng.integers(len(same_color))]
            sets1, sets2 = sets_for(t1), sets_for(t2)
            a = tuple(sorted(sets1[rng.integers(len(sets1))]))
            b = tuple(sorted(sets2[rng.integers(len(sets2))]))
            if kind == "vcc":
                coloring.append(RelationPoly("vcc", (t1, t2), (a, b)))
            else:
                coloring.append(RelationPoly("ecc", t1 + t2, (a, b)))
    n, violations = _evaluate(ci + coloring, sigma, tol)
    return MarkovReport("global", mode, tol, n, violations)


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
    rng = np.random.default_rng(seed)
    sigmas = [parametrize(cd, random_params(cd, rng)) for _ in range(trials)]
    tols = [tol if tol is not None else 1e-9 * (1.0 + float(np.abs(s).max()))
            for s in sigmas]
    hits = []
    for i, j in combinations(range(g.p), 2):
        others = [v for v in range(g.p) if v != i and v != j]
        for r in range(len(others) + 1):
            for k in combinations(others, r):
                if g.d_separated({i}, {j}, k):
                    continue
                if all(abs(almost_principal_minor(s, i, j, k)) <= t
                       for s, t in zip(sigmas, tols)):
                    hits.append((i, j, frozenset(k)))
    return hits


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
    rng = np.random.default_rng(seed)
    pairs = ((1, local_generators(cd1), cd2), (2, local_generators(cd2), cd1))
    for side, gens, model in pairs:
        for t in range(trials):
            sigma = parametrize(model, random_params(model, rng))
            for gen in gens:
                val = gen(sigma)
                if abs(val) > tol:
                    witness = EquivalenceWitness(gen, side, t, float(val))
                    return EquivalenceResult(False, trials, tol, witness)
    return EquivalenceResult(True, trials, tol)
