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
the score component of the node's new family minus its current one.

What the moves read of a state's graph (parents, children, descendants and
the children whose edge may be reversed) is the graph's `dag.closure`, the
same derivation a `Dag` makes, read from the state's parent groups; the
search adds only the vertices that may become a new parent of a node.  No
`Dag` is built while searching: only the result, `SearchState.current`,
builds one.

A move scores its candidates in blocks, one per node, and the search keeps
only the latest block of each (move, node) pair with each candidate's
deltas: at most 8 p blocks for GECS and p for the baseline.  A block is
keyed by everything it is built from: the node's parent groups; for
add_edge, also the vertices that may become a new parent of the node; for
reverse_edge, also which children's edges may be reversed and each child's
parent groups.  A block is kept while its key holds and rebuilt once it
changes, so each try of a move rebuilds only the blocks whose key changed
and then scans the deltas of all blocks in a fixed order: node by node,
except that the baseline visits edges in (tail, head) order.  A rebuilt
block whose families are all memoized costs no kernel call.

add_color and the baseline change one node's family by one regressor
column: a new group {a, b}, or one parent more or less.  Their blocks are
scored in closed form, every vertex pair or vertex of a block from one
Cholesky factor of the node's current family (the Frisch-Waugh-Lovell
update, in `_FamilyScorer`), and hold their deltas as one array, so their
key is the node's parent groups alone; the scan masks them with the
state's new parents and reversible children.  Every other move lists its
candidates and fits the families not yet memoized in one stacked
least-squares call (`stacked_ls`).

`stacked_ls` stays the scorer of record: nothing but its scores is
compared or enters a state.  A closed-form score differs from the
kernel's by at most n/2 times CLOSED_FORM_RTOL per changed node, so the
scan of a closed-form move finds, with that slack, the few candidates
that can decide the choice (`_contenders`), builds only those, fits them
with the kernel, and repeats until every contender has the kernel's
score; `_select` then sees kernel scores only and chooses what a listing
of every candidate through the kernel would.  Where the closed form is
not accurate to that bound, a changed column the others nearly explain or
a residual sum near zero, and where the kernel may refuse the family, the
closed form leaves the candidate to the kernel.  A candidate's score is
the same sum in the same order whether its block was kept or rebuilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple, Union)

import numpy as np

from .coloring import ColoredDag
from .dag import Dag, closure, members, require_integer
from .errors import CdagError, GraphError, SearchBudgetError
from .fit import Dataset, family_bic, family_loglik, stacked_ls

Group = Tuple[int, ...]
Families = Tuple[Tuple[Group, ...], ...]   # per node: its parent groups
# (node, its new canonical parent groups) per changed node, in the order
# their score components are summed
Candidate = Tuple[Tuple[int, Tuple[Group, ...]], ...]

SCORE_EPS = 1e-9   # strict-improvement margin; stops float-noise cycling
# A closed-form residual sum of squares is within this share of the
# kernel's (the largest difference seen is 3.5e-12, on dense p = 40 states,
# where the kernel is itself off by up to 1.6e-12 from a long-double fit),
# so a closed-form score component is within n/2 times it of the kernel's.
CLOSED_FORM_RTOL = 1e-11
# The closed form leaves to the kernel a family whose changed column keeps
# at most this share of its squared norm unexplained by the node's other
# columns, or whose residual sum is at most this share of the node's.
KERNEL_SHARE = 1e-6


class _Masks(NamedTuple):
    """A state's graph, one Python-int bitmask per vertex (bit v stands for
    vertex v, so any p fits)."""

    parents: List[int]
    children: List[int]
    descendants: List[int]
    reversible: List[int]    # children whose edge may be reversed without a cycle
    new_parents: List[int]   # may become a new parent likewise


def _masks(families: Families) -> _Masks:
    """The closure of the state's graph, read from its parent groups, and
    its new parents: a vertex may become a new parent of k unless it is k,
    a parent of k or a descendant of k (the descendants cover the
    children)."""
    _, parents, children, descendants, reversible = closure(
        [chain.from_iterable(groups) for groups in families])
    every = (1 << len(families)) - 1
    new_parents = [every & ~(1 << k | pa | desc)
                   for k, (pa, desc) in enumerate(zip(parents, descendants))]
    return _Masks(parents, children, descendants, reversible, new_parents)


@dataclass(frozen=True)
class SearchState:
    """Canonical parent groups of every node with the score and per-node
    score components.  The graph's bitmasks are derived when first read;
    only `current`, the search's result, builds a `Dag`."""

    families: Families
    score: float
    family_cache: Tuple[float, ...]

    @cached_property
    def masks(self) -> _Masks:
        return _masks(self.families)

    @cached_property
    def current(self) -> ColoredDag:
        edge_classes = [[(i, j) for i in grp]
                        for j, groups in enumerate(self.families) for grp in groups]
        return ColoredDag(Dag(len(self.families), _edges_of(self.families)),
                          edge_classes=edge_classes)


def _edges_of(families: Families):
    return [(i, j) for j, groups in enumerate(families)
            for grp in groups for i in grp]


def _acyclic(p: int, families: Families) -> bool:
    """Reference acyclicity test that builds the whole graph; the search
    itself filters candidates with `SearchState.masks` instead."""
    try:
        Dag(p, _edges_of(families))
    except GraphError:
        return False
    return True


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
        families = [((k,), [[(i, k) for i in grp] for grp in groups])
                    for k, groups in new]
        _, rss, errors = stacked_ls(self.S, families, n=self.n, coefficients=False)
        for key, r, error in zip(new, rss.tolist(), errors):
            if error is None:
                memo[key] = family_bic(family_loglik(self.n, r, (key[0],)),
                                       self.n, len(key[1]))
            elif not key[1]:
                raise error
            else:
                memo[key] = -math.inf

    def state_from(self, families: Families) -> SearchState:
        self.fit(enumerate(families))
        cache = tuple(self._memo[key] for key in enumerate(families))
        return SearchState(families, math.fsum(cache), cache)

    # -- one column more or less, in closed form -----------------------------
    # Node k's current family is one the search accepted, so the kernel
    # fitted it and G = C^T S C, with C the indicator matrix of its columns,
    # is positive definite.  The residual cross products of every vertex on
    # those columns are R = S - S C G^-1 C^T S, and u = R[:, k].  A new
    # column with 0/1 indicator w leaves RSS' = R_kk - (w^T u)^2 / (w^T R w),
    # of which w^T R w / w^T S w is the share unexplained by C; RSS' is
    # computed as R_kk - w^T u (w^T u / w^T R w), since the square underflows
    # or overflows on data scaled far from 1 where RSS' does not.  Removing
    # column c leaves RSS' = RSS + beta_c^2 / (G^-1)_cc, and 1 / (G^-1)_cc is
    # c's share unexplained by the others once G is scaled to unit diagonal
    # (Frisch-Waugh-Lovell).

    def _residuals(self, k: int, groups: Tuple[Group, ...]):
        """R for node k's family ``groups``, and, with the columns scaled to
        unit norm as `stacked_ls` scales them, node k's coefficients and the
        diagonal of G^-1 (a removal's RSS' does not depend on the scale).
        G is factored by Cholesky, which keeps R as accurate as the
        kernel's fit where R = S - S C G^-1 C^T S by an inverse would not."""
        S, m = self.S, len(groups)
        C = np.zeros((len(S), m))
        C[[i for grp in groups for i in grp],
          [c for c, grp in enumerate(groups) for _ in grp]] = 1.0
        SC = S @ C
        G = SC.T @ C
        d = np.sqrt(G.diagonal())
        inverse = np.linalg.inv(np.linalg.cholesky(G / np.outer(d, d)))
        Y = inverse @ (SC / d).T
        return S - Y.T @ Y, inverse.T @ Y[:, k], (inverse * inverse).sum(axis=0)

    def _components(self, k: int, columns, rss: np.ndarray, share: np.ndarray) -> np.ndarray:
        """Score components of node k's family with ``columns`` columns (a
        count, or one per entry), the residual sums ``rss`` and the changed
        column's unexplained ``share``: -inf with as many columns as
        samples, which the kernel refuses whatever the data, and +inf, which
        leaves the family to the kernel, where the share or the residual
        sum is too small for the closed form to be accurate or for the
        kernel's verdict to be known."""
        n = self.n
        scores = family_bic(family_loglik(n, rss, (k,)), n, columns)
        unsure = ~(share > KERNEL_SHARE) | ~(rss > KERNEL_SHARE * self.S[k, k])
        return np.where(columns < n, np.where(unsure, math.inf, scores), -math.inf)

    def added_pairs(self, k: int, groups: Tuple[Group, ...],
                    a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Node k's score component with the group {a[t], b[t]} added to its
        family ``groups``, for every t."""
        S = self.S
        R = self._residuals(k, groups)[0]
        u = R[:, k]
        wRw = R[a, a] + R[a, b] + R[b, a] + R[b, b]
        wu = u[a] + u[b]
        with np.errstate(divide="ignore", invalid="ignore"):   # collinear pairs
            return self._components(k, len(groups) + 1, R[k, k] - wu * (wu / wRw),
                                    wRw / (S[a, a] + S[a, b] + S[b, a] + S[b, b]))

    def toggled(self, k: int, groups: Tuple[Group, ...]) -> np.ndarray:
        """Node k's score component with vertex v toggled in its parent
        groups ``groups`` at position v: removed if a singleton group, else
        added (at k itself, a value nothing reads).  A parent in a larger
        group cannot be toggled alone and scores -inf."""
        S, m = self.S, len(groups)
        R, beta, inverse_diagonal = self._residuals(k, groups)
        u, r = R[:, k], R.diagonal()
        singles = [c for c, grp in enumerate(groups) if len(grp) == 1]
        removed = [groups[c][0] for c in singles]
        columns = np.full(len(S), m + 1)
        columns[removed] = m - 1
        with np.errstate(divide="ignore", invalid="ignore"):   # collinear vertices
            rss = R[k, k] - u * (u / r)
            share = r / S.diagonal()
            rss[removed] = R[k, k] + beta[singles] ** 2 / inverse_diagonal[singles]
            share[removed] = 1.0 / inverse_diagonal[singles]
            scores = self._components(k, columns, rss, share)
        scores[[v for grp in groups if len(grp) > 1 for v in grp]] = -math.inf
        return scores


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


class _Block(NamedTuple):
    """One node's candidates of one move with each one's deltas, under the
    key they were built from; kept while the key holds, else rebuilt.  A
    block scored in closed form holds no candidates and its deltas as one
    array."""

    key: object
    candidates: Optional[List[Candidate]]
    deltas: Union[List[List[float]], np.ndarray]


def _bits(masks: List[int], p: int) -> np.ndarray:
    """Boolean matrix whose row r holds bits 0 to p - 1 of ``masks[r]``."""
    width = (p + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    return np.unpackbits(raw.reshape(len(masks), width), axis=1, count=p,
                         bitorder="little").view(bool)


def _contenders(base: float, scores: np.ndarray, slack: float) -> np.ndarray:
    """The positions, in scan order, of the scores in ``scores`` that can
    decide `_select` on a state scoring ``base`` when each may be off from
    its kernel score by up to ``slack``: those above base + SCORE_EPS -
    slack, from the best down to the first gap wider than 2 (SCORE_EPS +
    slack).  The kernel's own contenders, its improving scores from the
    best down to the first gap wider than 2 SCORE_EPS, are among them.  Any
    other improving score lies that far below all of those, so `_select`
    skips it once one of those is the best, and the first of those scanned
    replaces it as the best: the choice is the same without it."""
    improving = np.sort(scores[scores > base + SCORE_EPS - slack])
    if not improving.size:
        return np.zeros(0, int)
    if improving[-1] == math.inf:   # any score is below one left to the kernel
        return np.flatnonzero(scores == math.inf)
    wide = np.flatnonzero(improving[1:] - improving[:-1] > 2 * (SCORE_EPS + slack))
    return np.flatnonzero(scores >= improving[wide[-1] + 1 if wide.size else 0])


# -- the eight moves ---------------------------------------------------------
# A move lists one node's block of candidates at a time.  Every move builds a
# changed node's new groups with `_edit`.  Only add_color, add_edge and
# reverse_edge add an edge, so only they can close a cycle: add_color and
# add_edge take new parents from the state's `new_parents` mask, and
# reverse_edge asks its `reversible` mask, both judged on the current graph.
# add_color scores every vertex pair of its blocks in closed form and its
# scan keeps the pairs of new parents; the other moves list their
# candidates and fit the new families with `stacked_ls`.


def _node_by_node(state: SearchState, blocks: List[_Block]):
    return chain.from_iterable(zip(b.candidates, b.deltas) for b in blocks)


@lru_cache(maxsize=None)
def _pairs(p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Both members of every vertex pair a < b, in order."""
    return np.triu_indices(p, 1)


def _pairs_node_by_node(state: SearchState, blocks: List[_Block]):
    """add_color's closed-form scores, node by node and each node's pairs
    of new parents in order, with the function that builds candidate t."""
    p = len(blocks)
    a, b = _pairs(p)
    new = _bits(state.masks.new_parents, p)
    at = np.flatnonzero(new[:, a] & new[:, b])
    scores = state.score + np.array([blk.deltas for blk in blocks]).ravel()[at]

    def candidate(t: int) -> Candidate:
        k, pair = divmod(at[t].item(), len(a))
        return ((k, _edit(state.families[k], add=((a[pair].item(), b[pair].item()),))),)
    return scores, candidate


class _Move(NamedTuple):
    """``block(state, k)`` lists node k's candidates, and ``key(state, k)``
    is everything that block is built from.  ``order(state, blocks)`` pairs
    every candidate with its deltas, in the order the search scans them.  A
    ``closed`` move's ``block(scorer, state, k)`` returns node k's new score
    components in closed form, and its ``order`` returns the closed-form
    scores of its candidates in scan order with the function that builds
    candidate t."""

    block: Callable
    key: Callable[[SearchState, int], object]
    order: Callable = _node_by_node
    closed: bool = False


def _groups(state: SearchState, k: int):
    return state.families[k]


def _groups_and_new_parents(state: SearchState, k: int):
    return state.families[k], state.masks.new_parents[k]


def _add_color(scorer: _FamilyScorer, state: SearchState, i: int):
    return scorer.added_pairs(i, state.families[i], *_pairs(len(state.families)))


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
    for i in members(state.masks.new_parents[j]):
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
    fams, masks = state.families, state.masks
    return fams[i], masks.reversible[i], tuple(
        (j, fams[j]) for j in members(masks.children[i]))


def _reverse_edge(state: SearchState, i: int):
    # the edges out of i, by head.  Keeping the donor class at size >= 2
    # after the removal preserves a properly colored state, so only classes
    # of size >= 3 donate.
    fams, masks = state.families, state.masks
    for j in members(masks.children[i]):
        donor_groups = fams[j]
        gi = next(t for t, grp in enumerate(donor_groups) if i in grp)
        if len(donor_groups[gi]) < 3 or not masks.reversible[i] >> j & 1:
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
    ("phase1", (("add_color", _Move(_add_color, _groups, _pairs_node_by_node, closed=True)),
                ("split_color", _Move(_split_color, _groups)))),
    ("phase2", (("add_edge", _Move(_add_edge, _groups_and_new_parents)),
                ("move_edge", _Move(_move_edge, _groups)),
                ("reverse_edge", _Move(_reverse_edge, _reverse_edge_key)),
                ("remove_edge", _Move(_remove_edge, _groups)))),
    ("phase3", (("merge_colors", _Move(_merge_colors, _groups)),
                ("remove_color", _Move(_remove_color, _groups)))),
)


# -- uncolored baseline move -------------------------------------------------
# Node k's block holds, at position v, the delta of k's parent set with v
# toggled: the removal of a parent, or the addition of any other vertex,
# scored in closed form.  Its key is k's parents alone; the scan keeps the
# positions of the state's acyclic edge changes.


def _toggles(scorer: _FamilyScorer, state: SearchState, k: int):
    return scorer.toggled(k, state.families[k])


def _edge_by_edge(state: SearchState, blocks: List[_Block]):
    """The closed-form scores of every acyclic single-edge deletion,
    reversal and addition, in (tail, head) order, with the function that
    builds candidate t; a reversal changes the head j first, then the tail
    i."""
    masks, fams, p = state.masks, state.families, len(blocks)
    toggled = np.array([b.deltas for b in blocks])   # [j, v]: v toggled at j
    # [j, i]: i is a parent, a new parent of j; [i, j]: i -> j may be reversed
    bits = _bits(masks.parents + masks.new_parents + masks.reversible, p)
    # [i, j, 0]: edge i -> j removed or added; [i, j, 1]: reversed
    valid = np.empty((p, p, 2), bool)
    np.logical_or(bits[:p].T, bits[p:2 * p].T, out=valid[:, :, 0])
    np.logical_and(bits[:p].T, bits[2 * p:], out=valid[:, :, 1])
    scores = np.empty((p, p, 2))
    edge = np.add(state.score, toggled.T, out=scores[:, :, 0])
    np.add(edge, toggled, out=scores[:, :, 1])
    at = np.flatnonzero(valid)

    def candidate(t: int) -> Candidate:
        t = at[t].item()
        i, j, reversal = t // (2 * p), t // 2 % p, t % 2
        if masks.parents[j] >> i & 1:
            changed = ((j, tuple(grp for grp in fams[j] if grp != (i,))),)
        else:
            changed = ((j, tuple(sorted(fams[j] + ((i,),)))),)
        if reversal:
            changed += ((i, tuple(sorted(fams[i] + ((j,),)))),)
        return changed
    return scores.ravel()[at], candidate


BASELINE_MOVE = _Move(_toggles, _groups, _edge_by_edge, closed=True)


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
        self._blocks: Dict[str, List[Optional[_Block]]] = {
            name: [None] * data.p for _, moves in self.phases for name, _ in moves}

    def _scored(self, name: str, move: _Move):
        """Every candidate of the move on the current state with its
        deltas, in scan order, or of a closed-form move those that can
        decide the choice; only the blocks whose key changed since the move
        was last tried are listed or scored again."""
        state, blocks = self.state, self._blocks[name]
        stale = []
        for k, block in enumerate(blocks):
            key = move.key(state, k)
            if block is not None and block.key == key:
                continue
            if move.closed:
                blocks[k] = _Block(key, None, move.block(self.scorer, state, k)
                                   - state.family_cache[k])
            else:
                stale.append((k, key, list(move.block(state, k))))
        if stale:
            self.scorer.fit(family for _, _, cands in stale
                            for candidate in cands for family in candidate)
            memo, cache = self.scorer._memo, state.family_cache
            for k, key, cands in stale:
                blocks[k] = _Block(key, cands, [[memo[family] - cache[family[0]]
                                                 for family in candidate]
                                                for candidate in cands])
        if move.closed:
            return self._refitted(*move.order(state, blocks))
        return move.order(state, blocks)

    def _refitted(self, scores: np.ndarray, candidate: Callable[[int], Candidate]):
        """The candidates that can decide the choice, in scan order, each
        with its deltas from `stacked_ls`, from ``scores``, the closed-form
        scores of a move's candidates in scan order, and ``candidate(t)``,
        which builds candidate t.  The contenders are found with the closed
        form's bound as slack, built and fitted, and their kernel scores
        replace their closed-form ones; while one moved by more than the
        slack (the kernel refused it, or the closed form left it to the
        kernel), the contenders are found again."""
        state, memo = self.state, self.scorer._memo
        # two changed nodes at most, and the rounding of the score sums
        slack = self.scorer.n * CLOSED_FORM_RTOL + 4 * math.ulp(state.score)
        fitted: Dict[int, Tuple[Candidate, List[float]]] = {}
        settled = False
        while not settled:
            new = [t for t in _contenders(state.score, scores, slack).tolist()
                   if t not in fitted]
            built = [candidate(t) for t in new]
            self.scorer.fit(family for changed in built for family in changed)
            # the contenders stand if each kernel score is within the slack
            # of the score they were found with
            settled = True
            for t, changed in zip(new, built):
                deltas = [memo[family] - state.family_cache[family[0]] for family in changed]
                score = state.score
                for delta in deltas:
                    score += delta
                settled &= abs(score - scores[t]) <= slack
                fitted[t], scores[t] = (changed, deltas), score
        return [fitted[t] for t in sorted(fitted)]

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
