"""Greedy edge-colored search over BPEC-DAGs and an uncolored greedy baseline.

The search keeps, for every node, its parents partitioned into color groups
(all edges of a group share that head, so the state is always blocked; every
group keeps at least two members, so it stays proper).  Eight local moves
propose candidate states; each move applies the best strictly improving
candidate of its family or leaves the state unchanged.  Three phases, add
parameters / exchange parameters / remove parameters, are iterated to a
joint fixed point.

Scores decompose over families, so a candidate is evaluated by refitting the
one or two families it touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .coloring import ColoredDag
from .dag import Dag
from .errors import CdagError, GraphError, RankDeficientError, SearchBudgetError
from .fit import Dataset, family_loglik, family_ls

Group = Tuple[int, ...]
Families = Tuple[Tuple[Group, ...], ...]   # per node: its parent groups

SCORE_EPS = 1e-9   # strict-improvement margin; stops float-noise cycling


@dataclass(frozen=True)
class GecsConfig:
    seed: int = 0
    move_budget: Optional[int] = None   # default 10 * p**3, set at run time
    epsilon: float = SCORE_EPS


@dataclass(frozen=True)
class SearchState:
    """Current colored graph with its score and per-node score components."""

    current: ColoredDag
    score: float
    family_cache: Tuple[float, ...]
    rng_seed: int = 0

    @property
    def families(self) -> Families:
        return _families_of(self.current)


def _families_of(cd: ColoredDag) -> Families:
    by_node: List[Dict[int, List[int]]] = [{} for _ in range(cd.p)]
    for e in cd.graph.edges:
        i, j = e
        by_node[j].setdefault(cd.edge_color(e), []).append(i)
    return tuple(
        tuple(sorted((tuple(sorted(grp)) for grp in groups.values())))
        for groups in by_node
    )


def _edges_of(families: Families):
    return [(i, j) for j, groups in enumerate(families)
            for grp in groups for i in grp]


def _build_colored(p: int, families: Families) -> ColoredDag:
    graph = Dag(p, _edges_of(families))
    edge_classes = [[(i, j) for i in grp]
                    for j, groups in enumerate(families) for grp in groups]
    return ColoredDag(graph, edge_classes=edge_classes)


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
        self.X = data.X
        self.n = data.n
        self.half_log_n = 0.5 * math.log(data.n)
        self._memo: Dict[Tuple[int, Tuple[Group, ...]], float] = {}

    def component(self, k: int, groups: Tuple[Group, ...]) -> float:
        """Score component of node k with the given parent groups; a
        candidate family that cannot be fitted scores -inf, so no move
        accepts it, but a parentless node that cannot be fitted is an error."""
        key = (k, groups)
        got = self._memo.get(key)
        if got is None:
            try:
                _, rss = family_ls(self.X, k, groups)
                got = (family_loglik(self.n, rss)
                       - self.half_log_n * (1 + len(groups)))
            except RankDeficientError:
                if not groups:
                    raise
                got = -math.inf
            self._memo[key] = got
        return got

    def state_from(self, families: Families, p: int, seed: int) -> SearchState:
        cache = tuple(self.component(k, families[k]) for k in range(p))
        return SearchState(_build_colored(p, families), math.fsum(cache),
                           cache, rng_seed=seed)


def _with_family(families: Families, k: int, groups) -> Families:
    groups = tuple(sorted(tuple(sorted(g)) for g in groups if g))
    return families[:k] + (groups,) + families[k + 1:]


def _tiekey(families: Families):
    # edge list first, then the canonical color-class form
    return (tuple(sorted(_edges_of(families))), families)


def _apply_best(state: SearchState, scorer: _FamilyScorer, candidates,
                epsilon: float) -> SearchState:
    """Pick the best strictly improving candidate; ties go to the smallest
    (edge list, color classes) key so runs are reproducible."""
    best = None
    best_score = None
    for families, touched in candidates:
        score = state.score
        for k in touched:
            score += scorer.component(k, families[k]) - state.family_cache[k]
        if score <= state.score + epsilon:
            continue
        if (best is None or score > best_score + epsilon
                or (abs(score - best_score) <= epsilon
                    and _tiekey(families) < _tiekey(best))):
            if best is None or score > best_score:
                best_score = score
            best = families
    if best is None:
        return state
    return scorer.state_from(best, state.current.p, state.rng_seed)


# -- the eight moves ---------------------------------------------------------
# Only add_color, add_edge and reverse_edge add an edge, so only they can
# close a cycle; they yield just the candidates that stay acyclic, judged by
# reachability in the current graph.


def _candidates_add_color(state: SearchState):
    fams = state.families
    g = state.current.graph
    desc = _descendant_table(g)
    for i in range(g.p):
        # a new parent of i closes a cycle iff it is a descendant of i
        eligible = [j for j in range(g.p)
                    if j != i and not g.adjacent(i, j) and j not in desc[i]]
        for p1, p2 in combinations(eligible, 2):
            yield _with_family(fams, i, fams[i] + ((p1, p2),)), (i,)


def _candidates_split_color(state: SearchState):
    fams = state.families
    for i, groups in enumerate(fams):
        for gi, grp in enumerate(groups):
            if len(grp) < 4:
                continue
            for a, b in combinations(grp, 2):
                rest = tuple(v for v in grp if v not in (a, b))
                new = groups[:gi] + (rest, (a, b)) + groups[gi + 1:]
                yield _with_family(fams, i, new), (i,)


def _candidates_add_edge(state: SearchState):
    fams = state.families
    g = state.current.graph
    desc = _descendant_table(g)
    for j in range(g.p):
        groups = fams[j]
        if not groups:
            continue
        parents = {v for grp in groups for v in grp}
        for i in range(g.p):
            if i == j or i in parents or i in desc[j]:
                continue
            for gi in range(len(groups)):
                new = groups[:gi] + (groups[gi] + (i,),) + groups[gi + 1:]
                yield _with_family(fams, j, new), (j,)


def _candidates_move_edge(state: SearchState):
    fams = state.families
    for i, groups in enumerate(fams):
        if len(groups) < 2:
            continue
        for g1, donor in enumerate(groups):
            if len(donor) <= 2:
                continue
            for g2 in range(len(groups)):
                if g2 == g1:
                    continue
                for v in donor:
                    new = list(groups)
                    new[g1] = tuple(x for x in donor if x != v)
                    new[g2] = groups[g2] + (v,)
                    yield _with_family(fams, i, new), (i,)


def _candidates_reverse_edge(state: SearchState):
    # Keeping the donor class at size >= 2 after the removal preserves a
    # properly colored state, so only classes of size >= 3 donate.
    fams = state.families
    g = state.current.graph
    desc = _descendant_table(g)
    for i, j in sorted(g.edges):
        donor_groups = fams[j]
        gi = next(t for t, grp in enumerate(donor_groups) if i in grp)
        if len(donor_groups[gi]) < 3 or not _reversal_acyclic(g, desc, i, j):
            continue
        shrunk = donor_groups[:gi] + (tuple(v for v in donor_groups[gi] if v != i),
                                      ) + donor_groups[gi + 1:]
        for ti in range(len(fams[i])):
            target = fams[i][:ti] + (fams[i][ti] + (j,),) + fams[i][ti + 1:]
            families = _with_family(fams, j, shrunk)
            families = _with_family(families, i, target)
            yield families, (i, j)


def _candidates_remove_edge(state: SearchState):
    fams = state.families
    for j, groups in enumerate(fams):
        for gi, grp in enumerate(groups):
            if len(grp) < 3:
                continue
            for v in grp:
                new = groups[:gi] + (tuple(x for x in grp if x != v),) + groups[gi + 1:]
                yield _with_family(fams, j, new), (j,)


def _candidates_merge_colors(state: SearchState):
    fams = state.families
    for i, groups in enumerate(fams):
        for g1, g2 in combinations(range(len(groups)), 2):
            new = [grp for t, grp in enumerate(groups) if t not in (g1, g2)]
            new.append(groups[g1] + groups[g2])
            yield _with_family(fams, i, new), (i,)


def _candidates_remove_color(state: SearchState):
    fams = state.families
    for i, groups in enumerate(fams):
        for gi in range(len(groups)):
            yield _with_family(fams, i, groups[:gi] + groups[gi + 1:]), (i,)


def _make_move(name, generator):
    def move(state: SearchState, data: Dataset, scorer: Optional[_FamilyScorer] = None,
             epsilon: float = SCORE_EPS) -> SearchState:
        if scorer is None:
            scorer = _FamilyScorer(data)
        return _apply_best(state, scorer, generator(state), epsilon)
    move.__name__ = move.__qualname__ = name
    move.__doc__ = f"Apply the best strictly improving `{name[5:]}` candidate, if any."
    return move


move_add_color = _make_move("move_add_color", _candidates_add_color)
move_split_color = _make_move("move_split_color", _candidates_split_color)
move_add_edge = _make_move("move_add_edge", _candidates_add_edge)
move_move_edge = _make_move("move_move_edge", _candidates_move_edge)
move_reverse_edge = _make_move("move_reverse_edge", _candidates_reverse_edge)
move_remove_edge = _make_move("move_remove_edge", _candidates_remove_edge)
move_merge_colors = _make_move("move_merge_colors", _candidates_merge_colors)
move_remove_color = _make_move("move_remove_color", _candidates_remove_color)

PHASES = (
    ("phase1", (move_add_color, move_split_color)),
    ("phase2", (move_add_edge, move_move_edge, move_reverse_edge, move_remove_edge)),
    ("phase3", (move_merge_colors, move_remove_color)),
)


@dataclass(frozen=True)
class TraceRow:
    step: int
    phase: str
    move: str
    score: float


class GecsSearch:
    """One greedy run over a dataset; exposes the score trace and final state."""

    def __init__(self, data: Dataset, config: Optional[GecsConfig] = None):
        if data.p < 2:
            raise CdagError("search needs at least two variables")
        if data.n < 2:
            raise CdagError("search needs at least two samples")
        self.data = data
        self.config = config or GecsConfig()
        self.budget = (self.config.move_budget
                       if self.config.move_budget is not None
                       else 10 * data.p ** 3)
        self.scorer = _FamilyScorer(data)
        self.trace: List[TraceRow] = []
        empty = tuple(() for _ in range(data.p))
        self.state = self.scorer.state_from(empty, data.p, self.config.seed)
        self.trace.append(TraceRow(0, "init", "", self.state.score))
        self._accepted = 0

    def _accept(self, phase: str, move_name: str, new_state: SearchState):
        self._accepted += 1
        if self._accepted > self.budget:
            raise SearchBudgetError(
                f"exceeded the move budget of {self.budget} accepted moves")
        self.state = new_state
        self.trace.append(TraceRow(self._accepted, phase, move_name, new_state.score))

    def _modify(self, phase: str, moves) -> None:
        eps = self.config.epsilon
        while True:
            before = self.state.score
            for move in moves:
                new_state = move(self.state, self.data, self.scorer, eps)
                if new_state.score > self.state.score + eps:
                    self._accept(phase, move.__name__[5:], new_state)
            if self.state.score <= before + eps:
                return

    def run(self) -> ColoredDag:
        eps = self.config.epsilon
        while True:
            before = self.state.score
            for phase, moves in PHASES:
                self._modify(phase, moves)
            if self.state.score <= before + eps:
                return self.state.current


def gecs(data: Dataset, config: Optional[GecsConfig] = None) -> ColoredDag:
    """Greedy edge-colored search from the empty graph; the result is a
    BPEC-DAG (empty when no two-parent family pays for itself) and a local
    maximum of the decomposable score under the eight moves."""
    return GecsSearch(data, config).run()


# -- uncolored baseline -------------------------------------------------------


def _baseline_candidates(g: Dag, parents: Sequence[Group]) -> List[Dict[int, Group]]:
    """Per-node parent updates of every acyclic single-edge deletion,
    reversal and addition on ``g``, in (tail, head) order."""
    desc = _descendant_table(g)
    candidates = []
    for i in range(g.p):
        for j in range(g.p):
            if i == j:
                continue
            if (i, j) in g.edges:
                removed = tuple(v for v in parents[j] if v != i)
                candidates.append({j: removed})
                if _reversal_acyclic(g, desc, i, j):
                    candidates.append(
                        {j: removed, i: tuple(sorted(parents[i] + (j,)))})
            elif i not in desc[j]:   # also excludes an existing j -> i
                candidates.append({j: tuple(sorted(parents[j] + (i,)))})
    return candidates


class BaselineSearch:
    """Hill climbing over uncolored DAGs with single-edge add/delete/reverse
    moves under the uncolored score (one parameter per node plus one per
    edge).  GES-style stand-in for comparisons, searching DAG space rather
    than essential graphs."""

    def __init__(self, data: Dataset, config: Optional[GecsConfig] = None):
        if data.p < 1:
            raise CdagError("search needs at least one variable")
        if data.n < 2:
            raise CdagError("search needs at least two samples")
        self.data = data
        self.config = config or GecsConfig()
        self.budget = (self.config.move_budget
                       if self.config.move_budget is not None
                       else 10 * data.p ** 3)
        self.scorer = _FamilyScorer(data)
        self.trace: List[TraceRow] = []
        self._accepted = 0

    def _component(self, k: int, parents: Group) -> float:
        return self.scorer.component(k, tuple((v,) for v in parents))

    def run(self) -> Dag:
        p = self.data.p
        eps = self.config.epsilon
        parents: List[Group] = [() for _ in range(p)]
        cache = [self._component(k, ()) for k in range(p)]
        score = math.fsum(cache)
        self.trace.append(TraceRow(0, "init", "", score))
        while True:
            g = Dag(p, [(i, j) for j in range(p) for i in parents[j]])
            candidates = _baseline_candidates(g, parents)
            best = None
            best_score = None
            for updates in candidates:
                new_score = score
                for k, pk in updates.items():
                    new_score += self._component(k, pk) - cache[k]
                if new_score <= score + eps:
                    continue
                key = tuple(sorted(updates.items()))
                if (best is None or new_score > best_score + eps
                        or (abs(new_score - best_score) <= eps and key < best[0])):
                    if best is None or new_score > best_score:
                        best_score = new_score
                    best = (key, updates)
            if best is None:
                return g
            for k, pk in best[1].items():
                parents[k] = pk
                cache[k] = self._component(k, pk)
            score = math.fsum(cache)
            self._accepted += 1
            if self._accepted > self.budget:
                raise SearchBudgetError(
                    f"exceeded the move budget of {self.budget} accepted moves")
            self.trace.append(TraceRow(self._accepted, "climb", "", score))


def baseline_greedy(data: Dataset, config: Optional[GecsConfig] = None) -> Dag:
    return BaselineSearch(data, config).run()
