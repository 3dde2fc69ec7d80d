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
the groups), and its score is the state's plus one delta per changed node:
the memoized score of the node's new family minus its current one.

A move lists its candidates in blocks, one per node, and the search keeps
only the latest block of each (move, node) pair with each candidate's
deltas: at most 8 p blocks for GECS and p for the baseline.  A block is
keyed by everything it is built from: the node's parent groups; for
add_color, add_edge and the baseline, also the vertices that may become a
new parent of the node (for the baseline, with the children whose edge may
be reversed); for reverse_edge, also which children's edges may be reversed
and each child's parent groups.  Each try of a move rebuilds only the
blocks whose key changed, fits the families they need that are not yet
memoized in one stacked least-squares call (`stacked_ls`), and then scans
the deltas of all blocks in a fixed order: node by node, except that the
baseline visits edges in (tail, head) order.  A candidate's score is the
same sum in the same order whether its block was kept or rebuilt, so the
search chooses exactly what a fresh listing of every candidate would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import (Callable, Dict, FrozenSet, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple)

from .coloring import ColoredDag
from .dag import Dag, require_integer
from .errors import CdagError, GraphError, SearchBudgetError
from .fit import Dataset, family_bic, family_loglik, stacked_ls

Group = Tuple[int, ...]
Families = Tuple[Tuple[Group, ...], ...]   # per node: its parent groups
# (node, its new canonical parent groups) per changed node, in the order
# their score components are summed
Candidate = Tuple[Tuple[int, Tuple[Group, ...]], ...]
# a block's key, its candidates, and per candidate its deltas in that order
Block = Tuple[object, List[Candidate], List[List[float]]]

SCORE_EPS = 1e-9   # strict-improvement margin; stops float-noise cycling


@dataclass(frozen=True)
class SearchState:
    """Canonical parent groups of every node with the score and per-node
    score components; the graph and what the moves read of it are built
    when first read."""

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

    @cached_property
    def descendants(self) -> List[FrozenSet[int]]:
        return [self.graph.descendants(v) for v in range(self.graph.p)]

    @cached_property
    def new_parents(self) -> List[FrozenSet[int]]:
        return _new_parents(self.graph, self.descendants)

    @cached_property
    def reversible(self) -> List[FrozenSet[int]]:
        """Per node i, the children j for which reversing i -> j keeps the
        graph acyclic: it closes a cycle exactly when another child of i
        reaches j (j itself needs no exclusion, as a vertex is not its own
        descendant)."""
        g, desc = self.graph, self.descendants
        return [g.children(i).difference(*map(desc.__getitem__, g.children(i)))
                for i in range(g.p)]


def _edges_of(families: Families):
    return [(i, j) for j, groups in enumerate(families)
            for grp in groups for i in grp]


def _acyclic(p: int, families: Families) -> bool:
    """Reference acyclicity test that builds the whole graph; the search
    itself filters candidates with `SearchState.descendants` instead."""
    try:
        Dag(p, _edges_of(families))
    except GraphError:
        return False
    return True


def _new_parents(g: Dag, desc: Sequence[FrozenSet[int]]) -> List[FrozenSet[int]]:
    """Per node k, in increasing order of k, the vertices that can become a
    new parent of k without closing a cycle: neither k, nor a parent of k,
    nor a descendant of k (the descendants cover the children)."""
    every = frozenset(range(g.p))
    return [every.difference((k,), g.parents(k), desc[k]) for k in range(g.p)]


class _FamilyScorer:
    """Memoized per-node score components: log-likelihood of the family's
    grouped regression minus the ln(n)/2 share of its parameters."""

    def __init__(self, data: Dataset):
        self.S = data.gram
        self.n = data.n
        self._memo: Dict[Tuple[int, Tuple[Group, ...]], float] = {}

    def fit(self, keys) -> None:
        """Score every (node, parent groups) key not yet memoized, in one
        stacked least-squares call, or in none if every key is.  A candidate
        family that cannot be fitted scores -inf, so no move accepts it, but
        a parentless node that cannot be fitted is an error."""
        memo = self._memo
        new = list({key: None for key in keys if key not in memo})
        if not new:
            return
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


def _select(state: SearchState, scored: Iterable[Tuple[Candidate, List[float]]],
            tiekey: Callable) -> Optional[Candidate]:
    """The best strictly improving candidate of ``scored``, pairs of a
    candidate and its deltas in scan order; ties go to the smallest
    ``tiekey`` so runs are reproducible."""
    floor = state.score + SCORE_EPS
    best = best_score = best_key = None
    for candidate, deltas in scored:
        score = state.score
        for delta in deltas:
            score += delta
        if score <= floor:
            continue
        if best is None or score > best_score + SCORE_EPS:
            best, best_score, best_key = candidate, score, None
        elif abs(score - best_score) <= SCORE_EPS:
            if best_key is None:
                best_key = tiekey(state.families, best)
            key = tiekey(state.families, candidate)
            if key < best_key:
                best, best_score, best_key = candidate, max(score, best_score), key
    return best


# -- the eight moves ---------------------------------------------------------
# A move lists one node's block of candidates at a time.  Every move builds a
# changed node's new groups with `_edit`.  Only add_color, add_edge and
# reverse_edge add an edge, so only they can close a cycle: add_color and
# add_edge take new parents from `_new_parents`, and reverse_edge asks
# `SearchState.reversible`, both judged on the current graph.


def _node_by_node(state: SearchState, blocks: List[Block]):
    return chain.from_iterable(zip(cands, deltas) for _, cands, deltas in blocks)


class _Move(NamedTuple):
    """``block(state, k)`` lists node k's candidates, and ``key(state, k)``
    is everything that block is built from.  ``order(state, blocks)`` pairs
    every candidate with its deltas, in the order the search scans them."""

    block: Callable[[SearchState, int], Iterable[Candidate]]
    key: Callable[[SearchState, int], object]
    order: Callable[[SearchState, List[Block]],
                    Iterable[Tuple[Candidate, List[float]]]] = _node_by_node


def _groups(state: SearchState, k: int):
    return state.families[k]


def _groups_and_new_parents(state: SearchState, k: int):
    return state.families[k], state.new_parents[k]


def _add_color(state: SearchState, i: int):
    groups = state.families[i]
    for pair in combinations(sorted(state.new_parents[i]), 2):
        yield ((i, _edit(groups, add=(pair,))),)


def _split_color(state: SearchState, i: int):
    groups = state.families[i]
    for gi, grp in enumerate(groups):
        if len(grp) < 4:
            continue
        for a, b in combinations(grp, 2):
            rest = tuple(v for v in grp if v not in (a, b))
            yield ((i, _edit(groups, (gi,), (rest, (a, b)))),)


def _add_edge(state: SearchState, j: int):
    groups = state.families[j]
    for i in sorted(state.new_parents[j]):
        for gi, grp in enumerate(groups):
            yield ((j, _edit(groups, (gi,), (grp + (i,),))),)


def _move_edge(state: SearchState, i: int):
    groups = state.families[i]
    for g1, donor in enumerate(groups):
        if len(donor) <= 2:
            continue
        for g2, target in enumerate(groups):
            if g2 == g1:
                continue
            for v in donor:
                rest = tuple(x for x in donor if x != v)
                yield ((i, _edit(groups, (g1, g2), (rest, target + (v,)))),)


def _reverse_edge_key(state: SearchState, i: int):
    fams = state.families
    return fams[i], state.reversible[i], tuple(
        (j, fams[j]) for j in sorted(state.graph.children(i)))


def _reverse_edge(state: SearchState, i: int):
    # the edges out of i, by head.  Keeping the donor class at size >= 2
    # after the removal preserves a properly colored state, so only classes
    # of size >= 3 donate.
    fams = state.families
    for j in sorted(state.graph.children(i)):
        donor_groups = fams[j]
        gi = next(t for t, grp in enumerate(donor_groups) if i in grp)
        if len(donor_groups[gi]) < 3 or j not in state.reversible[i]:
            continue
        shrunk = _edit(donor_groups, (gi,), (tuple(v for v in donor_groups[gi] if v != i),))
        for ti, grp in enumerate(fams[i]):
            yield (i, _edit(fams[i], (ti,), (grp + (j,),))), (j, shrunk)


def _remove_edge(state: SearchState, j: int):
    groups = state.families[j]
    for gi, grp in enumerate(groups):
        if len(grp) < 3:
            continue
        for v in grp:
            yield ((j, _edit(groups, (gi,), (tuple(x for x in grp if x != v),))),)


def _merge_colors(state: SearchState, i: int):
    groups = state.families[i]
    for g1, g2 in combinations(range(len(groups)), 2):
        yield ((i, _edit(groups, (g1, g2), (groups[g1] + groups[g2],))),)


def _remove_color(state: SearchState, i: int):
    groups = state.families[i]
    for gi in range(len(groups)):
        yield ((i, _edit(groups, (gi,))),)


PHASES = (
    ("phase1", (("add_color", _Move(_add_color, _groups_and_new_parents)),
                ("split_color", _Move(_split_color, _groups)))),
    ("phase2", (("add_edge", _Move(_add_edge, _groups_and_new_parents)),
                ("move_edge", _Move(_move_edge, _groups)),
                ("reverse_edge", _Move(_reverse_edge, _reverse_edge_key)),
                ("remove_edge", _Move(_remove_edge, _groups)))),
    ("phase3", (("merge_colors", _Move(_merge_colors, _groups)),
                ("remove_color", _Move(_remove_color, _groups)))),
)


# -- uncolored baseline move -------------------------------------------------
# Node k's block holds, at position v, k's parent set with v toggled: the
# removal of a parent, the addition of a vertex from `_new_parents` or of a
# child whose edge may be reversed, or () where v can be neither.  The
# singleton groups are spliced in place rather than through `_edit`, which
# costs more per candidate.


def _toggle_key(state: SearchState, k: int):
    return state.families[k], state.new_parents[k] | state.reversible[k]


def _toggles(state: SearchState, k: int):
    groups, addable = _toggle_key(state, k)
    parents = state.graph.parents(k)
    for v in range(len(state.families)):
        if v in parents:
            yield ((k, tuple(grp for grp in groups if grp != (v,))),)
        elif v in addable:
            yield ((k, tuple(sorted(groups + ((v,),)))),)
        else:
            yield ()


def _edge_by_edge(state: SearchState, blocks: List[Block]):
    """Every acyclic single-edge deletion, reversal and addition, in (tail,
    head) order; a reversal changes the head j first, then the tail i."""
    edges, reversible, new_parents = state.graph.edges, state.reversible, state.new_parents
    p = len(blocks)
    for i in range(p):
        for j in range(p):
            if (i, j) in edges:
                removal, d = blocks[j][1][i], blocks[j][2][i]
                yield removal, d
                if j in reversible[i]:
                    yield removal + blocks[i][1][j], d + blocks[i][2][j]
            elif i in new_parents[j]:
                yield blocks[j][1][i], blocks[j][2][i]


BASELINE_MOVE = _Move(_toggles, _toggle_key, _edge_by_edge)


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
    gives the phase table of (move name, move) pairs, the key that breaks
    score ties and the fewest variables it searches over."""

    phases: Tuple[Tuple[str, Tuple[Tuple[str, _Move], ...]], ...]
    _tiekey: Callable
    min_p: int

    def __init__(self, data: Dataset, *, move_budget: Optional[int] = None):
        if data.p < self.min_p:
            raise CdagError(f"search needs p >= {self.min_p}, got p={data.p}")
        if data.n < 2:
            raise CdagError("search needs at least two samples")
        self.budget = (10 * data.p ** 3 if move_budget is None
                       else require_integer("move budget", move_budget, 0))
        self.scorer = _FamilyScorer(data)
        empty = tuple(() for _ in range(data.p))
        self.state = self.scorer.state_from(empty)
        self.trace: List[TraceRow] = [TraceRow(0, "init", "", self.state.score)]
        self._accepted = 0
        # per move name, the latest block of each node
        self._blocks: Dict[str, List[Optional[Block]]] = {
            name: [None] * data.p for _, moves in self.phases for name, _ in moves}

    def _scored(self, name: str, move: _Move):
        """Every candidate of the move on the current state with its
        deltas, in scan order; only the blocks whose key changed since the
        move was last tried are listed and fitted again."""
        state, blocks = self.state, self._blocks[name]
        stale = []
        for k, block in enumerate(blocks):
            key = move.key(state, k)
            if block is None or block[0] != key:
                stale.append((k, key, list(move.block(state, k))))
        if stale:
            self.scorer.fit(family for _, _, cands in stale
                            for candidate in cands for family in candidate)
            memo, cache = self.scorer._memo, state.family_cache
            for k, key, cands in stale:
                blocks[k] = (key, cands, [[memo[family] - cache[family[0]]
                                           for family in candidate] for candidate in cands])
        return move.order(state, blocks)

    def _apply_best(self, name: str, move: _Move) -> SearchState:
        """The state after the move's best strictly improving candidate, or
        the current state if none improves."""
        best = _select(self.state, self._scored(name, move), self._tiekey)
        if best is None:
            return self.state
        return self.scorer.state_from(_updated(self.state.families, best))

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
            for name, move in moves:
                new_state = self._apply_best(name, move)
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

    phases = (("climb", (("", BASELINE_MOVE),)),)
    _tiekey = staticmethod(_baseline_tiekey)
    min_p = 1


def baseline_greedy(data: Dataset, *, move_budget: Optional[int] = None) -> Dag:
    return BaselineSearch(data, move_budget=move_budget).run().graph
