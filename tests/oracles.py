"""Independent reference implementations used to validate the package.

Everything here is deliberately naive: path enumeration instead of
ball-passing, transitive closure instead of DFS, trek-monomial sums instead
of triangular solves, explicit normal equations instead of QR, linear solves
on submatrices instead of minors.  These stay independent of the code paths
they check; `family_ls` alone is a shorthand over the fitting kernel, for
tests that fit one family at a time.
"""

from collections import deque
from itertools import combinations

import numpy as np

from cdag.dag import Dag
from cdag.coloring import ColoredDag
from cdag.constraints import _KINDS, RelationPoly
from cdag.errors import GraphError, SizeGuardError
from cdag.identify import identifying_sets as enumerated_sets, sample_identifying_sets
from cdag.fit import stacked_ls
from cdag.params import minor
from cdag.gecs import SCORE_EPS, _edit, _updated

TREK_GUARD_P = 8


def transitive_closure(g: Dag):
    """reach[i] = set of vertices reachable from i by directed paths."""
    reach = {i: set(g.children(i)) for i in range(g.p)}
    changed = True
    while changed:
        changed = False
        for i in range(g.p):
            extra = set()
            for j in reach[i]:
                extra |= reach[j]
            if not extra <= reach[i]:
                reach[i] |= extra
                changed = True
    return reach


def kahn_order(p, edges):
    """Reference topological order of the graph on p vertices with
    ``edges``: Kahn's algorithm over vertex sets with a first-in first-out
    queue, the sources in increasing order and each vertex's children in
    increasing order; a GraphError if the graph has a directed cycle."""
    parents = [set() for _ in range(p)]
    children = [set() for _ in range(p)]
    for i, j in edges:
        parents[j].add(i)
        children[i].add(j)
    indeg = [len(parents[v]) for v in range(p)]
    queue = deque(v for v in range(p) if indeg[v] == 0)
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in sorted(children[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != p:
        raise GraphError("graph contains a directed cycle")
    return tuple(order)


def _simple_paths(g: Dag, start, targets):
    """All simple paths in the skeleton from `start` to any target, as vertex
    sequences."""
    adjacency = [set() for _ in range(g.p)]
    for i, j in g.edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    paths = []

    def extend(path):
        last = path[-1]
        if last in targets and len(path) > 1:
            paths.append(tuple(path))
            return
        for nxt in sorted(adjacency[last]):
            if nxt not in path:
                path.append(nxt)
                extend(path)
                path.pop()

    extend([start])
    return paths


def path_dsep(g: Dag, left, right, given) -> bool:
    """d-separation by checking the collider rule on every enumerated path."""
    left, right, given = set(left), set(right), set(given)
    closure = transitive_closure(g)
    for src in sorted(left):
        for path in _simple_paths(g, src, right):
            blocked = False
            for pos in range(1, len(path) - 1):
                prev_v, v, next_v = path[pos - 1], path[pos], path[pos + 1]
                is_collider = (prev_v, v) in g.edges and (next_v, v) in g.edges
                if is_collider:
                    if v not in given and not (closure[v] & given):
                        blocked = True
                        break
                elif v in given:
                    blocked = True
                    break
            if not blocked:
                return False
    return True


def identifying_sets(g: Dag, target):
    """Every identifying set of a vertex, edge or non-edge, from the
    definitions: descendants by transitive closure, d-separation by path
    enumeration, and for an edge i -> j the graph with the edge and de(j)
    deleted and relabeled."""
    reach = transitive_closure(g)
    head = target if isinstance(target, int) else target[1]
    universe = [v for v in range(g.p) if v != head]
    subsets = [frozenset(a) for r in range(len(universe) + 1)
               for a in combinations(universe, r)]
    if isinstance(target, int):
        return {a for a in subsets if g.parents(target) <= a and not a & reach[target]}
    i, j = target
    if (i, j) not in g.edges:
        return {a for a in subsets if path_dsep(g, {i}, {j}, a - {i})}
    keep = [v for v in range(g.p) if v not in reach[j]]
    label = {v: pos for pos, v in enumerate(keep)}
    sub = Dag(len(keep), [(label[a], label[b]) for a, b in g.edges
                          if a in label and b in label and (a, b) != (i, j)])
    return {a for a in subsets if i in a and not a & reach[j]
            and path_dsep(sub, {label[i]}, {label[j]}, {label[v] for v in a - {i}})}


def v_structures(g: Dag):
    """Triples (i, j, k), i < k, with i -> j <- k and i, k nonadjacent."""
    return frozenset((i, j, k) for j in range(g.p)
                     for i, k in combinations(sorted(g.parents(j)), 2)
                     if (i, k) not in g.edges and (k, i) not in g.edges)


def canonical(groups):
    """The canonical form of a node's parent groups: each group sorted, no
    empty group, and the groups sorted."""
    return tuple(sorted(tuple(sorted(grp)) for grp in groups if grp))


def markov_equivalent(g: Dag, h: Dag) -> bool:
    """Same skeleton and same v-structures."""
    if g.p != h.p:
        raise GraphError(f"vertex counts differ: {g.p} vs {h.p}")
    return g.skeleton() == h.skeleton() and v_structures(g) == v_structures(h)


def all_digraph_edge_sets(p):
    """Every subset of ordered pairs; caller filters for acyclicity."""
    pairs = [(i, j) for i in range(p) for j in range(p) if i != j]
    for mask in range(1 << len(pairs)):
        yield [pairs[t] for t in range(len(pairs)) if mask >> t & 1]


def all_dags(p):
    """All labeled DAGs on p vertices (543 for p = 4)."""
    out = []
    for edges in all_digraph_edge_sets(p):
        try:
            out.append(Dag(p, edges))
        except Exception:
            continue
    return out


def all_natural_dags(p):
    """All edge subsets of the complete DAG in the natural order."""
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    out = []
    for mask in range(1 << len(pairs)):
        out.append(Dag(p, [pairs[t] for t in range(len(pairs)) if mask >> t & 1]))
    return out


def random_dag(rng, p, rho=0.4) -> Dag:
    """Erdos-Renyi DAG under a random topological order."""
    order = rng.permutation(p)
    edges = [(int(order[a]), int(order[b]))
             for a in range(p) for b in range(a + 1, p)
             if rng.random() < rho]
    return Dag(p, edges)


def random_partition(rng, items, max_classes=None):
    """Random partition of `items` into nonempty classes."""
    items = list(items)
    if not items:
        return []
    k = int(rng.integers(1, (max_classes or len(items)) + 1))
    labels = rng.integers(0, k, size=len(items))
    groups = {}
    for item, lab in zip(items, labels):
        groups.setdefault(int(lab), []).append(item)
    return list(groups.values())


def random_colored_dag(rng, p, rho=0.4, kind="general") -> ColoredDag:
    """Random colored DAG; `kind` is general, vertex, edge, or none."""
    g = random_dag(rng, p, rho)
    vertex_classes, edge_classes = [], []
    if kind in ("general", "vertex"):
        vertex_classes = random_partition(rng, range(p))
    if kind in ("general", "edge"):
        heads = {}
        for e in sorted(g.edges):
            heads.setdefault(e[1], []).append(e)
        # color within heads half the time to also hit compatible cases
        if rng.random() < 0.5:
            for head_edges in heads.values():
                edge_classes.extend(random_partition(rng, head_edges))
        else:
            edge_classes = random_partition(rng, sorted(g.edges))
    return ColoredDag(g, vertex_classes=vertex_classes, edge_classes=edge_classes)


def random_bpec_like(rng, p, rho=0.6) -> ColoredDag:
    """Random BPEC-DAG built independently of bench.random_bpec."""
    g = random_dag(rng, p, rho)
    edges = set(g.edges)
    for j in range(p):
        pa = sorted(i for i, jj in edges if jj == j)
        if len(pa) == 1:
            edges.discard((pa[0], j))
    g = Dag(p, edges)
    edge_classes = []
    for j in range(p):
        pa = sorted(g.parents(j))
        if not pa:
            continue
        k = max(1, int(rng.integers(1, len(pa) // 2 + 1)))
        groups = [[] for _ in range(k)]
        for pos, i in enumerate(pa):
            groups[pos % k].append((i, j))
        edge_classes.extend(groups)
    return ColoredDag(g, edge_classes=edge_classes)


def _directed_paths(g: Dag, src: int):
    """All directed paths from src keyed by endpoint, each a tuple of edges."""
    paths = {src: [()]}
    stack = [(src, ())]
    while stack:
        v, path = stack.pop()
        for ch in sorted(g.children(v)):
            ext = path + ((v, ch),)
            paths.setdefault(ch, []).append(ext)
            stack.append((ch, ext))
    return paths


def trek_covariance(g: Dag, omega, lam) -> np.ndarray:
    """Covariance by explicit trek-monomial summation: sigma_ij is the sum
    over treks of the top vertex's variance times the product of the
    coefficients along both sides.  Oracle for ``parametrize``; exponential,
    guarded at p <= 8.
    """
    if g.p > TREK_GUARD_P:
        raise SizeGuardError(f"trek enumeration is limited to p <= {TREK_GUARD_P}")
    lam = np.asarray(lam)
    by_source = [_directed_paths(g, s) for s in range(g.p)]
    sigma = np.zeros((g.p, g.p))
    for i in range(g.p):
        for j in range(i, g.p):
            total = 0.0
            for s in range(g.p):
                to_i = by_source[s].get(i)
                to_j = by_source[s].get(j)
                if not to_i or not to_j:
                    continue
                for left in to_i:
                    wl = float(np.prod([lam[e] for e in left])) if left else 1.0
                    for right in to_j:
                        wr = float(np.prod([lam[e] for e in right])) if right else 1.0
                        total += omega[s] * wl * wr
            sigma[i, j] = sigma[j, i] = total
    return sigma


def normal_equation_ls(design: np.ndarray, y: np.ndarray):
    """Least squares by solving the normal equations from scratch."""
    gram = design.T @ design
    coef = np.linalg.solve(gram, design.T @ y)
    resid = y - design @ coef
    return coef, float(resid @ resid)


def family_ls(S, nodes, groups, *, n):
    """Pooled least squares for one vertex color class through `stacked_ls`,
    raising its error: the coefficients, one per column of ``groups``, and
    the pooled residual sum of squares."""
    coef, rss, errors = stacked_ls(S, [(nodes, groups)], n=n)
    if errors[0] is not None:
        raise errors[0]
    return coef[0, :len(groups)], float(rss[0])


def _regression(sigma, target, given):
    """Coefficients and residual variance of `target` regressed on `given`,
    by a linear solve on the submatrices."""
    given = sorted(given)
    coef = np.linalg.solve(sigma[np.ix_(given, given)], sigma[given, target])
    return dict(zip(given, coef)), sigma[target, target] - sigma[target, given] @ coef


def _relative_difference(a, b):
    return 0.0 if a == b else (a - b) / max(abs(a), abs(b))


def normalized_residual(kind, indices, given, sigma) -> float:
    """The dimensionless residual of one relation: the partial correlation
    (cir), or the relative difference of two conditional variances (vcr,
    vcc) or of two regression coefficients (ecr, ecc)."""
    sigma = np.asarray(sigma, dtype=float)
    if kind == "cir":
        (i, j), (k,) = indices, given
        pair, k = [i, j], sorted(k)
        cond = sigma[np.ix_(pair, pair)]
        if k:
            cond = cond - sigma[np.ix_(pair, k)] @ np.linalg.solve(
                sigma[np.ix_(k, k)], sigma[np.ix_(k, pair)])
        return cond[0, 1] / np.sqrt(cond[0, 0] * cond[1, 1])
    a, b = given
    if kind in ("vcr", "vcc"):
        i, j = indices
        return _relative_difference(_regression(sigma, i, a)[1],
                                    _regression(sigma, j, b)[1])
    i, j, k, l = indices
    return _relative_difference(_regression(sigma, j, a)[0][i],
                                _regression(sigma, l, b)[0][k])


# -- the checkers' relation lists, one RelationPoly at a time -----------------
# The checks list their relations as arrays, compile them in bulk and build
# a RelationPoly only to report one.  The reference below is the earlier
# code path: every relation built as a RelationPoly, in the checks' order,
# and compiled one relation at a time.


class ListEvaluator:
    """A RelationPoly list compiled one relation at a time, each distinct
    minor of the correlation matrix in one slot, evaluated at one sigma."""

    def __init__(self, relations):
        self.relations = list(relations)
        slots, by_kind = {}, {}
        for pos, rel in enumerate(self.relations):
            ids = [slots.setdefault(min(m, m[::-1]), len(slots)) for m in rel.minors()]
            by_kind.setdefault(rel.kind, []).append((pos, ids, rel.indices))
        self._kinds = [(_KINDS[kind].residual, *(np.array(col).T for col in zip(*group)))
                       for kind, group in by_kind.items()]
        by_size = {}
        for (rows, cols), slot in slots.items():
            by_size.setdefault(len(rows), []).append((slot, rows, cols))
        self._sizes = [tuple(np.array(col, dtype=int) for col in zip(*group))
                       for group in by_size.values()]
        self.n_slots = len(slots)

    def residuals(self, sigma):
        var = np.diag(sigma)
        sd = np.sqrt(var)
        r = sigma / sd[:, None] / sd[None, :]
        m = np.empty(self.n_slots)
        out = np.empty(len(self.relations))
        with np.errstate(over="ignore", under="ignore", divide="ignore",
                         invalid="ignore"):
            for ids, rows, cols in self._sizes:
                m[ids] = minor(r, rows, cols)
            for residual, pos, ids, indices in self._kinds:
                out[pos] = residual(m[ids], indices, var)
        return out


def _same_colored_pairs(cd: ColoredDag):
    """(kind, indices, t1, t2) for every pair t1, t2 of same-colored vertices
    (kind "vc"), then of same-colored edges (kind "ec"), in class order; the
    edges of a class are ordered head first."""
    for grp in cd.vertex_classes:
        for i, j in combinations(sorted(grp), 2):
            yield "vc", (i, j), i, j
    for grp in cd.edge_classes:
        members = sorted(grp, key=lambda e: (e[1], e[0]))
        for e1, e2 in combinations(members, 2):
            yield "ec", e1 + e2, e1, e2


def local_relations(cd: ColoredDag):
    """The local generators, in the checks' order, one RelationPoly at a time."""
    g = cd.graph
    pa = [tuple(sorted(g.parents(v))) for v in range(g.p)]
    rank = {v: r for r, v in enumerate(g.topo)}
    out = []
    for a, b in combinations(range(g.p), 2):
        if (a, b) not in g.edges and (b, a) not in g.edges:
            i, j = (a, b) if rank[a] < rank[b] else (b, a)
            out.append(RelationPoly("cir", (i, j), (pa[j],)))
    for kind, indices, t1, t2 in _same_colored_pairs(cd):
        heads = [t if isinstance(t, int) else t[1] for t in (t1, t2)]
        out.append(RelationPoly(kind + "r", indices, tuple(pa[h] for h in heads)))
    return out


def separated_triples(g: Dag, separated: bool):
    """Every (i, j, K), i < j, by pair, then by the size of K, then in
    ``combinations`` order, whose K d-separates (or, with ``separated``
    False, d-connects) i and j, queried one triple at a time."""
    return [(i, j, k) for i, j in combinations(range(g.p), 2)
            for r in range(g.p - 1)
            for k in combinations([v for v in range(g.p) if v not in (i, j)], r)
            if g.d_separated({i}, {j}, k) == separated]


def global_relations(cd: ColoredDag, budget=None, seed=0):
    """The global check's relations, in its order, as RelationPolys, with
    d-separation queried one triple at a time."""
    g = cd.graph
    small = g.p <= 8
    rng = np.random.default_rng(seed)
    cache = {}

    def sets_for(target):
        if target not in cache:
            if small:
                cache[target] = enumerated_sets(g, target)
            else:
                head = target if isinstance(target, int) else target[1]
                cache[target] = sample_identifying_sets(
                    g, target, g.parents(head), rng, want=max(2, int(np.sqrt(budget)) + 1))
        return cache[target]

    if small:
        ci = [RelationPoly("cir", (i, j), (k,)) for i, j, k in separated_triples(g, True)]
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
        return ci + [RelationPoly(kind + "c", indices, (a, b))
                     for kind, indices, t1, t2 in pairs
                     for a in sets_for(t1) for b in sets_for(t2)]
    if len(ci) > budget:
        keep = rng.choice(len(ci), size=budget, replace=False)
        ci = [ci[t] for t in sorted(keep)]
    coloring = []
    for _ in range(budget if pairs else 0):
        kind, indices, t1, t2 = pairs[rng.integers(len(pairs))]
        sets1, sets2 = sets_for(t1), sets_for(t2)
        a = sets1[rng.integers(len(sets1))]
        b = sets2[rng.integers(len(sets2))]
        coloring.append(RelationPoly(kind + "c", indices, (a, b)))
    return ci + coloring


# -- the greedy search's uncached scan -----------------------------------------
# The search keeps each node's candidates and score deltas between tries.  The
# reference below lists every candidate of a move afresh from the state, in
# the search's scan order, fits the families not yet memoized and scores each
# candidate from the memo, as the search did before it kept anything.


def state_graph(state):
    """The search state's graph, built from its parent groups."""
    fams = state.families
    return Dag(len(fams), [(i, j) for j, groups in enumerate(fams) for grp in groups for i in grp])


def _descendant_table(g):
    return [g.descendants(v) for v in range(g.p)]


def _new_parents(g, desc):
    # v -> k is a new edge unless v is k or a parent of k, and adding it
    # keeps the graph acyclic unless k reaches v
    return [{v for v in range(g.p) if v != k and v not in g.parents(k) and v not in desc[k]}
            for k in range(g.p)]


def _reversal_acyclic(g, desc, i, j):
    # reversing i -> j closes a cycle when another child of i reaches j
    return not any(j in desc[c] for c in g.children(i))


def _candidates_add_color(state):
    fams = state.families
    g = state_graph(state)
    for i, eligible in enumerate(_new_parents(g, _descendant_table(g))):
        for pair in combinations(sorted(eligible), 2):
            yield ((i, _edit(fams[i], add=(pair,))),)


def _candidates_split_color(state):
    for i, groups in enumerate(state.families):
        for gi, grp in enumerate(groups):
            if len(grp) < 4:
                continue
            for a, b in combinations(grp, 2):
                rest = tuple(v for v in grp if v not in (a, b))
                yield ((i, _edit(groups, (gi,), (rest, (a, b)))),)


def _candidates_add_edge(state):
    fams = state.families
    g = state_graph(state)
    for j, eligible in enumerate(_new_parents(g, _descendant_table(g))):
        groups = fams[j]
        for i in sorted(eligible):
            for gi, grp in enumerate(groups):
                yield ((j, _edit(groups, (gi,), (grp + (i,),))),)


def _candidates_move_edge(state):
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


def _candidates_reverse_edge(state):
    fams = state.families
    g = state_graph(state)
    desc = _descendant_table(g)
    for i, j in sorted(g.edges):
        donor_groups = fams[j]
        gi = next(t for t, grp in enumerate(donor_groups) if i in grp)
        if len(donor_groups[gi]) < 3 or not _reversal_acyclic(g, desc, i, j):
            continue
        shrunk = _edit(donor_groups, (gi,), (tuple(v for v in donor_groups[gi] if v != i),))
        for ti, grp in enumerate(fams[i]):
            yield (i, _edit(fams[i], (ti,), (grp + (j,),))), (j, shrunk)


def _candidates_remove_edge(state):
    for j, groups in enumerate(state.families):
        for gi, grp in enumerate(groups):
            if len(grp) < 3:
                continue
            for v in grp:
                yield ((j, _edit(groups, (gi,), (tuple(x for x in grp if x != v),))),)


def _candidates_merge_colors(state):
    for i, groups in enumerate(state.families):
        for g1, g2 in combinations(range(len(groups)), 2):
            yield ((i, _edit(groups, (g1, g2), (groups[g1] + groups[g2],))),)


def _candidates_remove_color(state):
    for i, groups in enumerate(state.families):
        for gi in range(len(groups)):
            yield ((i, _edit(groups, (gi,))),)


def _candidates_baseline(state):
    fams = state.families
    g = state_graph(state)
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


# per move name, as the searches name them, its uncached candidate listing
CANDIDATES = {
    "add_color": _candidates_add_color, "split_color": _candidates_split_color,
    "add_edge": _candidates_add_edge, "move_edge": _candidates_move_edge,
    "reverse_edge": _candidates_reverse_edge, "remove_edge": _candidates_remove_edge,
    "merge_colors": _candidates_merge_colors, "remove_color": _candidates_remove_color,
    "": _candidates_baseline,
}


def scan(state, scorer, candidates):
    """Every candidate with its score, the state's plus each changed node's
    memoized new component minus its current one, in candidate order."""
    candidates = list(candidates)
    scorer.fit(key for candidate in candidates for key in candidate)
    memo, cache = scorer._memo, state.family_cache
    scored = []
    for candidate in candidates:
        score = state.score
        for key in candidate:
            score += memo[key] - cache[key[0]]
        scored.append((candidate, score))
    return scored


def apply_best(state, scorer, candidates, tiekey, ties=None):
    """The state after the best strictly improving candidate, with ties
    going to the smallest ``tiekey``; each tie-key comparison appends the
    two scores to ``ties`` when it is a list."""
    best = best_score = best_key = None
    for candidate, score in scan(state, scorer, candidates):
        if score <= state.score + SCORE_EPS:
            continue
        if best is None or score > best_score + SCORE_EPS:
            best, best_score, best_key = candidate, score, None
        elif abs(score - best_score) <= SCORE_EPS:
            if ties is not None:
                ties.append((best_score, score))
            if best_key is None:
                best_key = tiekey(state.families, best)
            key = tiekey(state.families, candidate)
            if key < best_key:
                best, best_score, best_key = candidate, max(score, best_score), key
    if best is None:
        return state
    return scorer.state_from(_updated(state.families, best))
