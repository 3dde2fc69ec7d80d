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

Every move is scored in closed form.  The search keeps one block per node
(`_Block`), keyed on the node's parent groups and rebuilt once they change:
one factor of the node's family, from which each change a move makes to it
is a column added, a linear restriction of the coefficients, or a vertex
added and then restricted.  A block holds three tables of deltas, each
computed when a scan first reads it (m, the number of groups, stands for
no group):

    move          table           the new family
    add_color     added[a, b]     e_a + e_b added
    split_color   added[a, b]     the same span: c_g - e_a - e_b, e_a + e_b
    add_edge      moved[m, h, v]  e_v added with group h's coefficient
    remove_edge   moved[g, m, v]  e_v added with minus group g's coefficient
    move_edge     moved[g, h, v]  e_v added with the difference of both
    merge_colors  merged[g, h]    g's and h's coefficients made equal
    remove_color  merged[g, m]    g's coefficient made zero
    baseline      the node's e_v added, or a singleton group's removal

reverse_edge adds an edge at its tail and removes one at its head, so its
score sums add_edge's delta at the tail and remove_edge's at the head.  A
move's scan masks the tables with the state's new parents and reversible
children and with the group sizes the move needs, and walks what is left in
a fixed order, node by node, except that reverse_edge visits edges in
(tail, head) order and the baseline in (tail, head) order over all vertex
pairs; it builds a candidate only when `_contenders` picks it.

`stacked_ls` stays the scorer of record: nothing but its scores is
compared or enters a state.  A closed-form score differs from the
kernel's by at most n/2 times CLOSED_FORM_RTOL per changed node, so the
scan finds, with that slack, the few candidates that can decide the choice
(`_contenders`), builds only those, fits them with the kernel, and repeats
until every contender has the kernel's score; `_select` then sees kernel
scores only and chooses what a listing of every candidate through the
kernel would.  Where the closed form is not accurate to that bound, a
changed column the others nearly explain or a residual sum near zero, and
where the kernel may refuse the family, the closed form leaves the
candidate to the kernel.  A candidate's score is the same sum in the same
order whether its block was kept or rebuilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .coloring import ColoredDag
from .dag import Dag, closure, require_integer
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
        d = self.S.diagonal()
        self.pair_norms = d[:, None] + d + 2.0 * self.S   # [a, b]: of e_a + e_b

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


class _Block:
    """Node k's family, its parent groups ``key``, factored once, and the
    deltas from its score component ``current`` of every change the moves
    make to it, in closed form, each table computed when a scan first reads
    it: ``added[a, b]`` with the column e_a + e_b added (e_a on the
    diagonal), ``merged[g, h]`` with groups g and h merged, and ``moved[g,
    h, v]`` with vertex v moved from group g to group h, where m, the number
    of groups, stands for none (``merged[g, m]``: g removed, ``moved[m, h,
    v]``: v added, ``moved[g, m, v]``: v removed).  Kept while the node has
    these groups, else rebuilt."""

    # Node k's current family is one the search accepted, so the kernel
    # fitted it and G = C^T S C, with C the indicator matrix of its m
    # columns, is positive definite.  With G scaled to unit diagonal as
    # `stacked_ls` scales it and factored by Cholesky, which keeps these as
    # accurate as the kernel's fit where an inverse would not, the residual
    # cross products of every vertex on the columns are R = S - S C G^-1
    # C^T S, with u = R[:, k] and RSS = R_kk, every vertex's coefficients on
    # them are B = G^-1 C^T S, with beta = B[:, k], and Q = G^-1.  Then
    # (Frisch-Waugh-Lovell, and least squares under a linear restriction):
    # - adding the column w leaves RSS - (w^T u)^2 / (w^T R w), and w^T R w /
    #   w^T S w is the share of its squared norm that C leaves unexplained;
    # - adding the column e_v, whose coefficient is then gamma = u_v / R_vv,
    #   and restricting the coefficients to beta_g - beta_h + gamma = 0
    #   leaves RSS - u_v gamma + (beta_g - beta_h + gamma t)^2 / (q + t^2 /
    #   R_vv), with t = 1 - B_gv + B_hv and q = Q_gg + Q_hh - 2 Q_gh; without
    #   v, h or g, the terms of what is missing drop out.  Group g's column
    #   keeps the share 1 / Q_gg of its squared norm unexplained by the
    #   others once G is scaled to unit diagonal.
    # Each product is divided before it is squared, since the square
    # underflows or overflows on data scaled far from 1 where RSS' does not.

    def __init__(self, scorer: _FamilyScorer, k: int, groups: Tuple[Group, ...], current: float):
        S, m = scorer.S, len(groups)
        p = len(S)
        C = np.zeros((p, m))
        C[[i for grp in groups for i in grp], [c for c, grp in enumerate(groups) for _ in grp]] = 1.0
        SC = S @ C
        G = SC.T @ C
        d = np.sqrt(G.diagonal())
        inverse = np.linalg.inv(np.linalg.cholesky(G / np.outer(d, d)))
        Y = inverse @ (SC / d).T
        self.R = S - Y.T @ Y
        # padded with a zero row (and column) for no group
        self.B, self.Q, self.kept = np.zeros((m + 1, p)), np.zeros((m + 1, m + 1)), np.ones(m + 1)
        self.B[:m] = inverse.T @ Y / d[:, None]
        Q = inverse.T @ inverse
        self.kept[:m] = 1.0 / Q.diagonal()
        self.Q[:m, :m] = Q / np.outer(d, d)
        self.scorer, self.k, self.key, self.current = scorer, k, groups, current
        self._cached: Dict[Callable, object] = {}

    def cached(self, f: Callable):
        """f(self), computed on the first call."""
        if f not in self._cached:
            self._cached[f] = f(self)
        return self._cached[f]

    def _deltas(self, columns: int, rss: np.ndarray, share: np.ndarray) -> np.ndarray:
        """Node k's delta with a family of ``columns`` columns, the residual
        sums ``rss`` and the changed columns' least unexplained ``share``:
        -inf with as many columns as samples, which the kernel refuses
        whatever the data, and +inf, which leaves the family to the kernel,
        where the share or the residual sum is too small for the closed
        form to be accurate or for the kernel's verdict to be known."""
        n, k = self.scorer.n, self.k
        if columns >= n:
            return np.full(rss.shape, -math.inf)
        sure = (share > KERNEL_SHARE) & (rss > KERNEL_SHARE * self.scorer.S[k, k])
        return np.where(sure, family_bic(family_loglik(n, rss, (k,)), n, columns), math.inf) - self.current

    def add(self, uw: np.ndarray, wRw: np.ndarray, wSw: np.ndarray) -> np.ndarray:
        """Node k's deltas with a column w added, from w^T u, w^T R w and
        w^T S w, one entry per column."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._deltas(len(self.key) + 1, self.R[self.k, self.k] - uw * (uw / wRw), wRw / wSw)

    @cached_property
    def added(self) -> np.ndarray:
        R, k = self.R, self.k
        return self.add(R[k, :, None] + R[k], R.diagonal()[:, None] + R.diagonal() + 2.0 * R,
                        self.scorer.pair_norms)

    def _restricted(self):
        """beta_g - beta_h and q at [g, h], and the least unexplained share
        of groups g and h."""
        beta, Q, kept = self.B[:, self.k], self.Q, self.kept
        return (beta[:, None] - beta, Q.diagonal()[:, None] + Q.diagonal() - 2.0 * Q,
                np.minimum.outer(kept, kept))

    @cached_property
    def merged(self) -> np.ndarray:
        a, q, share = self._restricted()
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._deltas(len(self.key) - 1, self.R[self.k, self.k] + a * (a / q), share)

    @cached_property
    def moved(self) -> np.ndarray:
        R, B, k = self.R, self.B, self.k
        a, q, share = (x[:, :, None] for x in self._restricted())
        rho = R.diagonal()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gamma = R[k] / rho
            t = 1.0 - B[:, None] + B
            a = a + gamma * t
            rss = R[k, k] - R[k] * gamma + a * (a / (q + t * t / rho))
            return self._deltas(len(self.key), rss, np.minimum(share, rho / self.scorer.S.diagonal()))


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
# A move is a scan: from the state and every node's block, the closed-form
# scores of its candidates in scan order, with the function that builds
# candidate t.  Only add_color, add_edge and reverse_edge add an edge, so
# only they can close a cycle: add_color and add_edge keep the changes the
# state's `new_parents` admits, and reverse_edge those its `reversible` mask
# admits, both judged on the current graph.


def _without(group: Group, *vertices: int) -> Group:
    return tuple(v for v in group if v not in vertices)


def _node_by_node(table: str, rows: Callable, build: Callable):
    """The scan of a move that changes one node every row of which the
    state admits: node by node, each node's ``rows(groups, m)`` in order,
    indices into its block's ``table``; ``build(groups, *row)`` makes the
    node's new groups."""
    def listed(block: _Block):
        index = rows(block.key, len(block.key))
        deltas = getattr(block, table)
        return deltas[tuple(np.array(index, dtype=np.intp).reshape(-1, deltas.ndim).T)], index

    def scan(state: SearchState, blocks: List[_Block]):
        parts = [block.cached(listed) for block in blocks]
        ends = np.cumsum([len(index) for _, index in parts])

        def candidate(t: int) -> Candidate:
            k = int(np.searchsorted(ends, t, side="right"))
            index = parts[k][1]
            return ((k, build(blocks[k].key, *index[t - ends[k] + len(index)])),)
        return state.score + np.concatenate([deltas for deltas, _ in parts]), candidate
    return scan


@lru_cache(maxsize=None)
def _pairs(p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Both members of every vertex pair a < b, in order."""
    return np.triu_indices(p, 1)


def _add_color(state: SearchState, blocks: List[_Block]):
    """Node by node, each node's pairs of new parents in order."""
    p = len(blocks)
    a, b = _pairs(p)
    new = _bits(state.masks.new_parents, p)
    k, pair = np.divmod(np.flatnonzero(new[:, a] & new[:, b]), len(a))
    a, b = a[pair], b[pair]
    scores = state.score + np.array([block.added for block in blocks])[k, a, b]

    def candidate(t: int) -> Candidate:
        return ((k[t].item(), _edit(state.families[k[t]], add=((a[t].item(), b[t].item()),))),)
    return scores, candidate


# splitting the pair a, b off its group adds e_a + e_b to the family's span
_split_color = _node_by_node(
    "added", lambda groups, m: [(a, b) for grp in groups if len(grp) >= 4
                                for a, b in combinations(grp, 2)],
    lambda groups, a, b: next(_edit(groups, (g,), (_without(grp, a, b), (a, b)))
                              for g, grp in enumerate(groups) if a in grp))


def _grid(blocks: List[_Block]) -> np.ndarray:
    """[k, v, g]: node k's delta with vertex v added to its group g, NaN
    past its groups."""
    p = len(blocks)
    grid = np.full((p, p, max(len(block.key) for block in blocks)), np.nan)
    for k, block in enumerate(blocks):
        m = len(block.key)
        grid[k, :, :m] = block.moved[m, :m].T
    return grid


def _grid_candidate(blocks: List[_Block], k: int, v: int, g: int):
    groups = blocks[k].key
    return k, _edit(groups, (g,), (groups[g] + (v,),))


def _add_edge(state: SearchState, blocks: List[_Block]):
    """Node by node, each node's new parents in order, each to every
    group in order."""
    grid = _grid(blocks)
    valid = _bits(state.masks.new_parents, len(blocks))[:, :, None] & ~np.isnan(grid)
    at = np.flatnonzero(valid)

    def candidate(t: int) -> Candidate:
        return (_grid_candidate(blocks, *(x.item() for x in np.unravel_index(at[t], grid.shape))),)
    return state.score + grid.ravel()[at], candidate


_move_edge = _node_by_node(
    "moved", lambda groups, m: [(g, h, v) for g, grp in enumerate(groups) if len(grp) > 2
                                for h in range(m) if h != g for v in grp],
    lambda groups, g, h, v: _edit(groups, (g, h), (_without(groups[g], v), groups[h] + (v,))))


def _removals(block: _Block) -> np.ndarray:
    """Per vertex, the delta of removing it from its group at this node, or
    NaN where remove_edge does not: a vertex that is no parent, or whose
    group has fewer than three members."""
    out = np.full(len(block.R), np.nan)
    for g, grp in enumerate(block.key):
        if len(grp) >= 3:
            out[list(grp)] = block.moved[g, len(block.key), list(grp)]
    return out


def _reverse_edge(state: SearchState, blocks: List[_Block]):
    """Edge by edge, in (tail, head) order, the head to every group of the
    tail in order; the tail changes first, then the head.  Keeping the
    donor group at two members or more after the removal keeps the state
    properly colored, so only groups of three or more donate."""
    grid = _grid(blocks)   # [i, j, g]: j added to group g of i
    removed = np.array([block.cached(_removals) for block in blocks]).T   # [i, j]: i removed at j
    reversible = _bits(state.masks.reversible, len(blocks)) & ~np.isnan(removed)
    at = np.flatnonzero(reversible[:, :, None] & ~np.isnan(grid))
    scores = (state.score + grid + removed[:, :, None]).ravel()[at]
    fams = state.families

    def candidate(t: int) -> Candidate:
        i, j, g = (x.item() for x in np.unravel_index(at[t], grid.shape))
        donor = next(t for t, grp in enumerate(fams[j]) if i in grp)
        return _grid_candidate(blocks, i, j, g), (j, _edit(fams[j], (donor,), (_without(fams[j][donor], i),)))
    return scores, candidate


_remove_edge = _node_by_node(
    "moved", lambda groups, m: [(g, m, v) for g, grp in enumerate(groups) if len(grp) >= 3
                                for v in grp],
    lambda groups, g, _, v: _edit(groups, (g,), (_without(groups[g], v),)))

_merge_colors = _node_by_node(
    "merged", lambda groups, m: list(combinations(range(m), 2)),
    lambda groups, g, h: _edit(groups, (g, h), (groups[g] + groups[h],)))

_remove_color = _node_by_node(
    "merged", lambda groups, m: [(g, m) for g in range(m)],
    lambda groups, g, _: _edit(groups, (g,)))


PHASES = (
    ("phase1", (("add_color", _add_color),
                ("split_color", _split_color))),
    ("phase2", (("add_edge", _add_edge),
                ("move_edge", _move_edge),
                ("reverse_edge", _reverse_edge),
                ("remove_edge", _remove_edge))),
    ("phase3", (("merge_colors", _merge_colors),
                ("remove_color", _remove_color))),
)


# -- uncolored baseline move -------------------------------------------------
# Node k's deltas by vertex hold, at position v, the delta of k's parent set
# with v toggled: the removal of a parent, or the addition of any other
# vertex.  The scan keeps the positions of the state's acyclic edge changes.


def _toggles(block: _Block) -> np.ndarray:
    """Per vertex v, the delta of v toggled in the node's singleton parent
    groups: removed if a parent, else added (at the node itself, a value
    nothing reads)."""
    R, m = block.R, len(block.key)
    out = block.add(R[block.k], R.diagonal(), block.scorer.S.diagonal())
    out[[grp[0] for grp in block.key]] = block.merged[:m, m]
    return out


def _edge_by_edge(state: SearchState, blocks: List[_Block]):
    """The closed-form scores of every acyclic single-edge deletion,
    reversal and addition, in (tail, head) order, with the function that
    builds candidate t; a reversal changes the head j first, then the tail
    i."""
    masks, fams, p = state.masks, state.families, len(blocks)
    toggled = np.array([b.cached(_toggles) for b in blocks])   # [j, v]: v toggled at j
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


BASELINE_MOVE = _edge_by_edge


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

    phases: Tuple[Tuple[str, Tuple[Tuple[str, Callable], ...]], ...]
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
        self._blocks: List[Optional[_Block]] = [None] * data.p   # the latest of each node

    def _scored(self, move: Callable):
        """The candidates of the move on the current state that can decide
        the choice, in scan order, each with its deltas; only the blocks of
        nodes whose parent groups changed since they were scored are scored
        again."""
        state, blocks = self.state, self._blocks
        for k, groups in enumerate(state.families):
            if blocks[k] is None or blocks[k].key != groups:
                blocks[k] = _Block(self.scorer, k, groups, state.family_cache[k])
        return self._refitted(*move(state, blocks))

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

    def _apply_best(self, move: Callable) -> SearchState:
        """The state after the move's best strictly improving candidate, or
        the current state if none improves."""
        best = _select(self.state, self._scored(move), self._tiekey)
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
                new_state = self._apply_best(move)
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
