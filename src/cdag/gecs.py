"""Greedy edge-colored search over BPEC-DAGs and an uncolored greedy baseline.

The search keeps, for every node, its parents partitioned into color groups
(all edges of a group share that head, so the state is always blocked; every
group keeps at least two members, so it stays proper).  Eight local moves
propose candidate states; each move applies the best strictly improving
candidate of its family or leaves the state unchanged.  Three phases, add
parameters / exchange parameters / remove parameters, are iterated to a
joint fixed point.  The uncolored baseline runs through the same engine with
one move over singleton parent groups.

Scores decompose over families, so a candidate is the new parent groups of
the one or two nodes it changes, in canonical form (each group sorted, then
the groups), and is evaluated by refitting just those.
A move first lists its candidates, then fits every changed family not yet
memoized in one stacked least-squares call (`stacked_ls`), and only then
scores the candidates from the memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .coloring import ColoredDag
from .dag import Dag
from .errors import CdagError, GraphError, SearchBudgetError
from .fit import Dataset, family_bic, family_loglik, stacked_ls

Group = Tuple[int, ...]
Families = Tuple[Tuple[Group, ...], ...]   # per node: its parent groups
# (node, its new canonical parent groups) per changed node, in the order
# their score components are summed
Candidate = Tuple[Tuple[int, Tuple[Group, ...]], ...]

SCORE_EPS = 1e-9   # strict-improvement margin; stops float-noise cycling


@dataclass(frozen=True)
class SearchState:
    """Canonical parent groups of every node with the score and per-node
    score components; the graph and the colored graph are built when first
    read."""

    families: Families
    score: float
    family_cache: Tuple[float, ...]

    @cached_property
    def graph(self) -> Dag:
        return Dag(len(self.families), _edges_of(self.families))

    @cached_property
    def current(self) -> ColoredDag:
        edge_classes = [[(i, j) for i in grp]
                        for j, groups in enumerate(self.families) for grp in groups]
        return ColoredDag(self.graph, edge_classes=edge_classes)


def _edges_of(families: Families):
    return [(i, j) for j, groups in enumerate(families)
            for grp in groups for i in grp]


def _acyclic(p: int, families: Families) -> bool:
    """Reference acyclicity test that builds the whole graph; the search
    itself filters candidates with `_descendant_table` instead."""
    try:
        Dag(p, _edges_of(families))
    except GraphError:
        return False
    return True


def _descendant_table(g: Dag) -> List[FrozenSet[int]]:
    return [g.descendants(v) for v in range(g.p)]


def _reversal_acyclic(g: Dag, desc: Sequence[FrozenSet[int]], i: int, j: int) -> bool:
    """Whether reversing the edge i -> j keeps ``g`` acyclic: it does unless
    another child of i reaches j, giving a second path i -> ... -> j (j itself
    needs no exclusion, as a vertex is not its own descendant)."""
    return not any(j in desc[c] for c in g.children(i))


class _FamilyScorer:
    """Memoized per-node score components: log-likelihood of the family's
    grouped regression minus the ln(n)/2 share of its parameters."""

    def __init__(self, data: Dataset):
        self.S = data.gram
        self.n = data.n
        self._memo: Dict[Tuple[int, Tuple[Group, ...]], float] = {}

    def fit(self, keys) -> None:
        """Score every (node, parent groups) key not yet memoized, in one
        stacked least-squares call.  A candidate family that cannot be
        fitted scores -inf, so no move accepts it, but a parentless node
        that cannot be fitted is an error."""
        memo = self._memo
        new = list({key: None for key in keys if key not in memo})
        families = [((k,), [[(i, k) for i in grp] for grp in groups]) for k, groups in new]
        _, rss, errors = stacked_ls(self.S, families, n=self.n, coefficients=False)
        for (k, groups), r, error in zip(new, rss.tolist(), errors):
            if error is None:
                memo[k, groups] = family_bic(family_loglik(self.n, r, (k,)),
                                             self.n, len(groups))
            elif not groups:
                raise error
            else:
                memo[k, groups] = -math.inf

    def state_from(self, families: Families) -> SearchState:
        self.fit(enumerate(families))
        cache = tuple(self._memo[key] for key in enumerate(families))
        return SearchState(families, math.fsum(cache), cache)


def _edit(groups: Tuple[Group, ...], drop=(), add=()) -> Tuple[Group, ...]:
    """Canonical form of a node's canonical ``groups`` without those at
    positions ``drop`` and with the groups ``add``: the kept groups are
    already sorted, so only the added ones are, and then the tuple."""
    kept = [grp for t, grp in enumerate(groups) if t not in drop] if drop else list(groups)
    kept += map(tuple, map(sorted, add))
    kept.sort()
    return tuple(kept)


def _updated(families: Families, candidate: Candidate) -> Families:
    new = list(families)
    for k, groups in candidate:
        new[k] = groups
    return tuple(new)


def _gecs_tiekey(families: Families, candidate: Candidate):
    # edge list first, then the canonical color-class form
    new = _updated(families, candidate)
    return (tuple(sorted(_edges_of(new))), new)


def _baseline_tiekey(families: Families, candidate: Candidate):
    # smallest changed head first, then that head's parents
    return tuple(sorted(candidate))


def _apply_best(state: SearchState, scorer: _FamilyScorer, candidates,
                tiekey: Callable) -> SearchState:
    """Pick the best strictly improving candidate; ties go to the smallest
    ``tiekey`` so runs are reproducible."""
    candidates = list(candidates)
    scorer.fit(key for candidate in candidates for key in candidate)
    memo, cache = scorer._memo, state.family_cache
    best = best_score = best_key = None
    for candidate in candidates:
        score = state.score
        for key in candidate:
            score += memo[key] - cache[key[0]]
        if score <= state.score + SCORE_EPS:
            continue
        if best is None or score > best_score + SCORE_EPS:
            best, best_score, best_key = candidate, score, None
        elif abs(score - best_score) <= SCORE_EPS:
            if best_key is None:
                best_key = tiekey(state.families, best)
            key = tiekey(state.families, candidate)
            if key < best_key:
                best, best_score, best_key = candidate, max(score, best_score), key
    if best is None:
        return state
    return scorer.state_from(_updated(state.families, best))


# -- the eight moves ---------------------------------------------------------
# Every move builds a changed node's new groups with `_edit`.  Only
# add_color, add_edge and reverse_edge add an edge, so only they can close a
# cycle: add_color and add_edge take new parents from `_new_parents`, and
# reverse_edge asks `_reversal_acyclic`, both judged on the current graph.


def _new_parents(g: Dag, desc: Sequence[FrozenSet[int]]) -> List[FrozenSet[int]]:
    """Per node k, in increasing order of k, the vertices that can become a
    new parent of k without closing a cycle: neither k, nor a parent of k,
    nor a descendant of k (the descendants cover the children)."""
    every = frozenset(range(g.p))
    return [every.difference((k,), g.parents(k), desc[k]) for k in range(g.p)]


def _candidates_add_color(state: SearchState):
    fams = state.families
    g = state.graph
    for i, eligible in enumerate(_new_parents(g, _descendant_table(g))):
        for pair in combinations(sorted(eligible), 2):
            yield ((i, _edit(fams[i], add=(pair,))),)


def _candidates_split_color(state: SearchState):
    for i, groups in enumerate(state.families):
        for gi, grp in enumerate(groups):
            if len(grp) < 4:
                continue
            for a, b in combinations(grp, 2):
                rest = tuple(v for v in grp if v not in (a, b))
                yield ((i, _edit(groups, (gi,), (rest, (a, b)))),)


def _candidates_add_edge(state: SearchState):
    fams = state.families
    g = state.graph
    for j, eligible in enumerate(_new_parents(g, _descendant_table(g))):
        groups = fams[j]
        for i in sorted(eligible):
            for gi, grp in enumerate(groups):
                yield ((j, _edit(groups, (gi,), (grp + (i,),))),)


def _candidates_move_edge(state: SearchState):
    for i, groups in enumerate(state.families):
        for g1, donor in enumerate(groups):
            if len(donor) <= 2:
                continue
            for g2, target in enumerate(groups):
                if g2 == g1:
                    continue
                for v in donor:
                    rest = tuple(x for x in donor if x != v)
                    yield ((i, _edit(groups, (g1, g2), (rest, target + (v,)))),)


def _candidates_reverse_edge(state: SearchState):
    # Keeping the donor class at size >= 2 after the removal preserves a
    # properly colored state, so only classes of size >= 3 donate.
    fams = state.families
    g = state.graph
    desc = _descendant_table(g)
    for i, j in sorted(g.edges):
        donor_groups = fams[j]
        gi = next(t for t, grp in enumerate(donor_groups) if i in grp)
        if len(donor_groups[gi]) < 3 or not _reversal_acyclic(g, desc, i, j):
            continue
        shrunk = _edit(donor_groups, (gi,), (tuple(v for v in donor_groups[gi] if v != i),))
        for ti, grp in enumerate(fams[i]):
            yield (i, _edit(fams[i], (ti,), (grp + (j,),))), (j, shrunk)


def _candidates_remove_edge(state: SearchState):
    for j, groups in enumerate(state.families):
        for gi, grp in enumerate(groups):
            if len(grp) < 3:
                continue
            for v in grp:
                yield ((j, _edit(groups, (gi,), (tuple(x for x in grp if x != v),))),)


def _candidates_merge_colors(state: SearchState):
    for i, groups in enumerate(state.families):
        for g1, g2 in combinations(range(len(groups)), 2):
            yield ((i, _edit(groups, (g1, g2), (groups[g1] + groups[g2],))),)


def _candidates_remove_color(state: SearchState):
    for i, groups in enumerate(state.families):
        for gi in range(len(groups)):
            yield ((i, _edit(groups, (gi,))),)


PHASES = (
    ("phase1", (("add_color", _candidates_add_color),
                ("split_color", _candidates_split_color))),
    ("phase2", (("add_edge", _candidates_add_edge),
                ("move_edge", _candidates_move_edge),
                ("reverse_edge", _candidates_reverse_edge),
                ("remove_edge", _candidates_remove_edge))),
    ("phase3", (("merge_colors", _candidates_merge_colors),
                ("remove_color", _candidates_remove_color))),
)


# -- uncolored baseline move -------------------------------------------------


def _candidates_baseline(state: SearchState):
    """Every acyclic single-edge deletion, reversal and addition on the
    current graph, whose parent groups are all singletons, in (tail, head)
    order; a reversal changes the head j first, then the tail i.  Additions
    take their tails from `_new_parents`.  The singleton groups are spliced
    in place rather than through `_edit`, which costs more per candidate."""
    fams = state.families
    g = state.graph
    desc = _descendant_table(g)
    new_parents = _new_parents(g, desc)
    edges = g.edges
    for i in range(g.p):
        for j in range(g.p):
            if (i, j) in edges:
                removed = tuple(grp for grp in fams[j] if grp != (i,))
                yield ((j, removed),)
                if _reversal_acyclic(g, desc, i, j):
                    yield (j, removed), (i, tuple(sorted(fams[i] + ((j,),))))
            elif i in new_parents[j]:
                yield ((j, tuple(sorted(fams[j] + ((i,),)))),)


# -- the shared greedy engine ------------------------------------------------


@dataclass(frozen=True)
class TraceRow:
    step: int
    phase: str
    move: str
    score: float


class _GreedySearch:
    """Greedy search from the empty graph.  Each phase applies its moves'
    best strictly improving candidates until none improves, and the phases
    repeat until none of them changes the state, or until more than
    ``move_budget`` moves (default 10 p^3) would be accepted.  A subclass
    gives the phase table of (move name, candidate generator) pairs, the key
    that breaks score ties and the fewest variables it searches over."""

    phases: Tuple[Tuple[str, Tuple[Tuple[str, Callable], ...]], ...]
    _tiekey: Callable
    min_p: int

    def __init__(self, data: Dataset, *, move_budget: Optional[int] = None):
        if data.p < self.min_p:
            raise CdagError(f"search needs p >= {self.min_p}, got p={data.p}")
        if data.n < 2:
            raise CdagError("search needs at least two samples")
        if move_budget is not None and move_budget < 0:
            raise CdagError(f"move budget must be at least 0, got {move_budget}")
        self.budget = move_budget if move_budget is not None else 10 * data.p ** 3
        self.scorer = _FamilyScorer(data)
        empty = tuple(() for _ in range(data.p))
        self.state = self.scorer.state_from(empty)
        self.trace: List[TraceRow] = [TraceRow(0, "init", "", self.state.score)]
        self._accepted = 0

    def _accept(self, phase: str, move_name: str, new_state: SearchState):
        self._accepted += 1
        if self._accepted > self.budget:
            raise SearchBudgetError(
                f"exceeded the move budget of {self.budget} accepted moves")
        self.state = new_state
        self.trace.append(TraceRow(self._accepted, phase, move_name, new_state.score))

    def _modify(self, phase: str, moves) -> bool:
        """Apply the phase's moves until none improves; whether any did."""
        start = self._accepted
        while True:
            before = self._accepted
            for name, generator in moves:
                new_state = _apply_best(self.state, self.scorer,
                                        generator(self.state), self._tiekey)
                if new_state.score > self.state.score + SCORE_EPS:
                    self._accept(phase, name, new_state)
            if self._accepted == before:
                return self._accepted > start

    def run(self) -> ColoredDag:
        """Search, and return the final state as a colored DAG."""
        # a phase that accepts nothing leaves the state as it is, so the
        # search stops once every phase has run to a fixed point of it
        settled = 0
        while True:
            for phase, moves in self.phases:
                settled = 1 if self._modify(phase, moves) else settled + 1
                if settled == len(self.phases):
                    return self.state.current


class GecsSearch(_GreedySearch):
    """One greedy run over a dataset; exposes the score trace and final state."""

    phases = PHASES
    _tiekey = staticmethod(_gecs_tiekey)
    min_p = 2


def gecs(data: Dataset, *, move_budget: Optional[int] = None) -> ColoredDag:
    """Greedy edge-colored search from the empty graph; the result is a
    BPEC-DAG (empty when no two-parent family pays for itself) and a local
    maximum of the decomposable score under the eight moves."""
    return GecsSearch(data, move_budget=move_budget).run()


class BaselineSearch(_GreedySearch):
    """Hill climbing over uncolored DAGs with single-edge add/delete/reverse
    moves under the uncolored score (one parameter per node plus one per
    edge), so every edge of its result is in a class of its own.  GES-style
    stand-in for comparisons, searching DAG space rather than essential
    graphs."""

    phases = (("climb", (("", _candidates_baseline),)),)
    _tiekey = staticmethod(_baseline_tiekey)
    min_p = 1


def baseline_greedy(data: Dataset, *, move_budget: Optional[int] = None) -> Dag:
    return BaselineSearch(data, move_budget=move_budget).run().graph
