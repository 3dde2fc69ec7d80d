"""Greedy edge-colored search: moves, invariants, and the baseline climber."""

import importlib
import math
import re
import warnings

import numpy as np
import pytest

from cdag.coloring import ColoredDag, uncolored
from cdag.dag import Dag
from cdag.errors import CdagError, GraphError, RankDeficientError, SearchBudgetError
from cdag.fit import Dataset, bic_score
from cdag.gecs import (BASELINE_MOVE, PHASES, BaselineSearch, GecsSearch,
                       SearchState, baseline_greedy, gecs)
from cdag.params import ModelParams
from cdag.bench import random_bpec, sample

import oracles
from oracles import canonical, markov_equivalent

MOVES = dict(move for _, moves in PHASES for move in moves)


def _apply_move(name, state, search):
    """The state after the best strictly improving candidate of one move."""
    search.state = state
    return search._apply_best(MOVES[name])


class _CheckedSearch(GecsSearch):
    """Asserts the closure invariant on every accepted move."""

    def _accept(self, phase, move_name, new_state):
        assert new_state.current.is_bpec()
        assert new_state.score > self.state.score
        super()._accept(phase, move_name, new_state)


def _collider_data(n=2000, seed=42):
    g = Dag(3, [(0, 2), (1, 2)])
    cd = ColoredDag(g, edge_classes=[[(0, 2), (1, 2)]])
    theta = ModelParams((1.0, 1.0, 1.0), (0.8,))
    return cd, sample(cd, theta, n, seed)


class TestMoves:
    def test_add_color_finds_strong_collider(self):
        truth, data = _collider_data()
        search = GecsSearch(data)
        new = _apply_move("add_color", search.state, search)
        assert new.current.graph.edges == {(0, 2), (1, 2)}
        assert new.current.is_bpec()

    def test_local_maximum_is_fixed_point_of_every_move(self):
        _, data = _collider_data(n=500, seed=7)
        search = GecsSearch(data)
        search.run()
        converged = search.state
        assert len(MOVES) == 8
        for name in MOVES:
            after = _apply_move(name, converged, search)
            assert after.current == converged.current
            assert after.score == converged.score

    def test_remove_edge_has_no_candidates_on_pairs(self):
        # all classes have size two, below the removal threshold
        g = Dag(5, [(0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 4)])
        truth = ColoredDag(g, edge_classes=[[(0, 2), (1, 2)], [(0, 3), (1, 3)],
                                            [(2, 4), (3, 4)]])
        assert all(len(grp) == 2 for grp in truth.edge_classes)
        theta = ModelParams((1.0,) * 5, (0.5, -0.6, 0.7))
        data = sample(truth, theta, 300, 4)
        search = GecsSearch(data)
        state = search.scorer.state_from(_families_from(truth))
        assert _apply_move("remove_edge", state, search).current == state.current

    def test_reverse_edge_never_leaves_singleton_donor(self):
        rng = np.random.default_rng(5)
        for seed in range(6):
            truth, theta = random_bpec(6, 0.7, 2, seed=seed)
            data = sample(truth, theta, 400, seed + 50)
            search = GecsSearch(data)
            state = search.scorer.state_from(_families_from(truth))
            after = _apply_move("reverse_edge", state, search)
            assert after.current.is_bpec()


def _families_from(cd):
    by_node = [{} for _ in range(cd.p)]
    for e in sorted(cd.graph.edges):
        by_node[e[1]].setdefault(cd.edge_color(e), []).append(e[0])
    return tuple(canonical(groups.values()) for groups in by_node)


class TestGecs:
    def test_trace_is_monotone_and_output_bpec(self):
        for seed in range(5):
            truth, theta = random_bpec(6, 0.5, 2, seed=seed)
            data = sample(truth, theta, 400, seed + 10)
            search = _CheckedSearch(data)
            result = search.run()
            scores = [row.score for row in search.trace]
            assert all(b > a for a, b in zip(scores, scores[1:]))
            assert result.is_bpec()

    def test_deterministic_under_fixed_seed(self):
        truth, theta = random_bpec(6, 0.6, 2, seed=9)
        data = sample(truth, theta, 500, 11)
        assert gecs(data) == gecs(data)

    def test_state_score_matches_scorer(self):
        truth, theta = random_bpec(5, 0.5, 2, seed=2)
        data = sample(truth, theta, 300, 3)
        search = GecsSearch(data)
        result = search.run()
        assert search.state.score == pytest.approx(bic_score(result, data),
                                                   abs=1e-9)
        assert search.state.score == pytest.approx(
            sum(search.state.family_cache), abs=1e-9)

    def test_two_variables_stay_empty(self):
        rng = np.random.default_rng(12)
        data = Dataset(rng.standard_normal((200, 2)))
        result = gecs(data)
        assert not result.graph.edges

    def test_score_dominates_start_point(self):
        # the chain itself is outside the search space, so the guarantee is
        # dominance over the empty start, not truth recovery
        chain = ColoredDag(Dag(4, [(0, 1), (1, 2), (2, 3)]),
                           vertex_classes=[[0, 2]],
                           edge_classes=[[(0, 1), (2, 3)]])
        theta = ModelParams((1.0, 2.0, 3.0), (0.5, 0.7))
        data = sample(chain, theta, 1000, 99)
        search = GecsSearch(data)
        search.run()
        assert search.state.score >= search.trace[0].score

    def test_budget_exceeded_raises(self):
        truth, theta = random_bpec(6, 0.6, 2, seed=21)
        data = sample(truth, theta, 400, 22)
        for cls in (GecsSearch, BaselineSearch):
            search = cls(data, move_budget=1)
            with pytest.raises(SearchBudgetError):
                search.run()
            assert len(search.trace) == 2   # the one move within budget

    def test_negative_budget_refused_before_fitting(self):
        # column 2 is constant, so fitting the start state would raise
        x = np.random.default_rng(23).standard_normal((50, 3))
        x[:, 1] = 0.0
        for cls in (GecsSearch, BaselineSearch):
            with pytest.raises(CdagError, match="move budget must be at least 0, got -3"):
                cls(Dataset(x), move_budget=-3)

    @pytest.mark.parametrize("budget, expected", [
        (2.5, "move budget must be an integer, got 2.5"),
        (True, "move budget must be an integer, got True"),
        ("3", "move budget must be an integer, got '3'"),
    ])
    def test_non_integer_budget_refused_before_fitting(self, budget, expected):
        x = np.random.default_rng(23).standard_normal((50, 3))
        x[:, 1] = 0.0
        for cls in (GecsSearch, BaselineSearch):
            with pytest.raises(CdagError, match=re.escape(expected)):
                cls(Dataset(x), move_budget=budget)
        with pytest.raises(CdagError, match=re.escape(expected)):
            gecs(Dataset(x), move_budget=budget)

    def test_numpy_integer_budget(self):
        x = np.random.default_rng(24).standard_normal((50, 3))
        budget = GecsSearch(Dataset(x), move_budget=np.int64(4)).budget
        assert budget == 4 and type(budget) is int

    def test_preconditions(self):
        rng = np.random.default_rng(13)
        with pytest.raises(CdagError):
            gecs(Dataset(rng.standard_normal((1, 3))))
        with pytest.raises(CdagError):
            gecs(Dataset(rng.standard_normal((50, 1))))


class TestBaseline:
    def test_recovers_chain_equivalence_class(self):
        cd = uncolored(Dag(4, [(0, 1), (1, 2), (2, 3)]))
        theta = ModelParams((1.0, 2.0, 1.0, 3.0), (0.5, 0.7, 0.5))
        data = sample(cd, theta, 5000, 11)
        result = baseline_greedy(data)
        assert markov_equivalent(result, cd.graph)

    def test_pure_noise_gives_empty_graph(self):
        cd = uncolored(Dag(4))
        theta = ModelParams((1.0, 0.5, 2.0, 1.5), ())
        data = sample(cd, theta, 5000, 13)
        assert not baseline_greedy(data).edges

    def test_single_variable(self):
        rng = np.random.default_rng(14)
        result = baseline_greedy(Dataset(rng.standard_normal((100, 1))))
        assert result.p == 1 and not result.edges

    def test_monotone_trace(self):
        truth, theta = random_bpec(5, 0.6, 2, seed=31)
        data = sample(truth, theta, 400, 32)
        search = BaselineSearch(data)
        search.run()
        scores = [row.score for row in search.trace]
        assert all(b > a for a, b in zip(scores, scores[1:]))


class TestRankDeficiency:
    def test_interpolating_candidates_are_rejected(self):
        # with n=3, a family of three or more parent groups cannot be fitted
        data = Dataset(np.random.default_rng(0).normal(size=(3, 5)))
        for search in (GecsSearch(data), BaselineSearch(data)):
            result = search.run()
            assert result.p == 5
            assert bic_score(result, data) == pytest.approx(
                search.trace[-1].score, abs=1e-9)

    def test_single_sample_refused(self):
        # one row leaves every candidate family unfittable, so searching
        # would silently return the empty graph
        data = Dataset(np.ones((1, 3)))
        for search in (GecsSearch, BaselineSearch):
            with pytest.raises(CdagError, match="two samples"):
                search(data)

    def test_unfittable_start_raises(self):
        x = np.random.default_rng(1).normal(size=(20, 3))
        x[:, 1] = 0.0
        with pytest.raises(RankDeficientError):
            gecs(Dataset(x))
        with pytest.raises(RankDeficientError):
            baseline_greedy(Dataset(x))


# `cdag.gecs` as an attribute is the gecs() function, not the module
gecs_module = importlib.import_module("cdag.gecs")
ALL_MOVES = {**MOVES, "baseline": BASELINE_MOVE}
EDGE_ADDING = ("add_color", "add_edge", "reverse_edge", "baseline")
# each move's name as the reference listings name it
NAMES = {move: "" if name == "baseline" else name for name, move in ALL_MOVES.items()}


def _every(search, name, move):
    """Every candidate of the move with its deltas, in scan order: a
    closed-form move builds and fits only the candidates that can decide
    the choice, so its scan is made to take them all."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gecs_module, "_contenders",
                      lambda base, scores, slack: np.arange(len(scores)))
        return list(search._scored(move))


def _closed_form(search, name, move):
    """Every candidate of a closed-form move with its closed-form score, in
    scan order."""
    search._scored(move)   # brings the blocks up to date
    scores, candidate = move(search.state, search._blocks)
    return [(candidate(t), score) for t, score in enumerate(scores.tolist())]


def _listed(name, state, data, masks=None):
    """Every candidate of one move on ``state``, in the order the search
    scans them, from a fresh search over ``data`` (so no block is kept, and
    the state's masks are derived anew, or are ``masks`` if given)."""
    search = (BaselineSearch if name == "baseline" else GecsSearch)(data)
    search.state = SearchState(state.families, state.score, state.family_cache)
    if masks is not None:
        search.state.__dict__["masks"] = masks
    return [candidate for candidate, _ in
            _every(search, "" if name == "baseline" else name, ALL_MOVES[name])]


def _unfiltered(name, state, data):
    """The same enumeration with every reachability test passing: the
    state's descendant masks cleared, and the new parents and reversible
    children that the masks give without descendants."""
    masks = gecs_module._masks(state.families)
    p = len(state.families)
    every = (1 << p) - 1
    cleared = masks._replace(
        descendants=[0] * p,
        new_parents=[every & ~(1 << k | masks.parents[k]) for k in range(p)],
        reversible=list(masks.children))
    return _listed(name, state, data, cleared)


def _members(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _random_states(colored):
    """Random BPEC-DAGs (or their uncolored graphs) as search states, each
    with data sampled from the BPEC-DAG."""
    for p in (5, 8, 12):
        for seed in range(8):
            rho = (0.3, 0.6, 0.9)[seed % 3]
            cd, theta = random_bpec(p, rho, 1 + seed % 2, seed=[p, seed])
            data = sample(cd, theta, 200, [p, seed, 1])
            cd = cd if colored else uncolored(cd.graph)
            yield SearchState(_families_from(cd), 0.0, (0.0,) * p), data


class TestAcyclicityFilter:
    """The edge-adding moves scan exactly the acyclic candidates of their
    unfiltered enumeration, in the same order."""

    @pytest.mark.parametrize("name", EDGE_ADDING)
    def test_generators_yield_exactly_the_acyclic_candidates(self, name):
        def acyclic(state, candidate):
            return gecs_module._acyclic(
                len(state.families), gecs_module._updated(state.families, candidate))
        cyclic = 0
        # the baseline climbs over uncolored graphs only
        for state, data in _random_states(colored=name != "baseline"):
            got = _listed(name, state, data)
            every = _unfiltered(name, state, data)
            assert all(acyclic(state, c) for c in got)
            assert got == [c for c in every if acyclic(state, c)]
            cyclic += len(every) - len(got)
        assert cyclic > 0


class TestCandidateForm:
    """Every move scans canonical parent groups, and the new-parent rule
    admits exactly the additions that stay acyclic."""

    @pytest.mark.parametrize("colored", [True, False], ids=["colored", "uncolored"])
    def test_every_candidate_family_is_canonical(self, colored):
        families = 0
        for state, data in _random_states(colored):
            for name in ALL_MOVES:
                for candidate in _listed(name, state, data):
                    for _, groups in candidate:
                        assert groups == canonical(groups)
                        families += 1
        assert families > 0

    @pytest.mark.parametrize("colored", [True, False], ids=["colored", "uncolored"])
    def test_new_parents_are_the_acyclic_additions(self, colored):
        for state, _ in _random_states(colored):
            g, fams = oracles.state_graph(state), state.families
            for k in range(g.p):
                expected = [v for v in range(g.p) if v not in g.parents(k)
                            and gecs_module._acyclic(g.p, gecs_module._updated(
                                fams, ((k, fams[k] + ((v,),)),)))]
                assert _members(state.masks.new_parents[k]) == expected


class TestMasks:
    """The state's bitmasks hold what the oracles define, past 64 vertices
    too (so no fixed-width integer can hold them)."""

    @pytest.mark.parametrize("colored", [True, False], ids=["colored", "uncolored"])
    def test_masks_match_the_oracles(self, colored):
        high = 0
        for p in (5, 9, 17, 33, 64, 65, 70):
            for seed in range(3):
                cd, _ = random_bpec(p, (0.2, 0.5, 0.8)[seed], 2, seed=[p, seed, 24])
                cd = cd if colored else uncolored(cd.graph)
                state = SearchState(_families_from(cd), 0.0, (0.0,) * p)
                g = oracles.state_graph(state)
                desc = oracles._descendant_table(g)
                new_parents = oracles._new_parents(g, desc)
                masks = state.masks
                for k in range(p):
                    assert _members(masks.parents[k]) == sorted(g.parents(k))
                    assert _members(masks.children[k]) == sorted(g.children(k))
                    assert _members(masks.descendants[k]) == sorted(desc[k])
                    assert _members(masks.new_parents[k]) == sorted(new_parents[k])
                    assert _members(masks.reversible[k]) == [
                        j for j in sorted(g.children(k))
                        if oracles._reversal_acyclic(g, desc, k, j)]
                high += any(m >> 64 for m in masks.descendants + masks.reversible)
        assert high > 0

    def test_a_cycle_is_refused(self):
        state = SearchState((((2,),), ((0,),), ((1,),)), 0.0, (0.0,) * 3)
        with pytest.raises(GraphError, match="directed cycle"):
            state.masks


def _summed(score, deltas):
    for delta in deltas:
        score += delta
    return score


def _within_bound(got, want, n, terms=1):
    """Whether a closed-form score is the kernel's ``want`` within the
    bound the search allows for, for a candidate that changes ``terms``
    score components."""
    return abs(got - want) <= terms * 0.5 * n * gecs_module.CLOSED_FORM_RTOL + 4 * math.ulp(want)


class _OracleChecked:
    """Checks every try of a move against the uncached reference scan of
    `oracles.apply_best`: the same new families and the same score bits.
    Counts the tries and collects the reference's tie-key comparisons."""

    def __init__(self, data, **kwargs):
        super().__init__(data, **kwargs)
        self.tries, self.ties = 0, []

    def _apply_best(self, move):
        name = NAMES[move]
        before = self.state
        got = super()._apply_best(move)
        want = oracles.apply_best(before, self.scorer, oracles.CANDIDATES[name](before),
                                  self._tiekey, self.ties)
        assert got.families == want.families
        assert got.score.hex() == want.score.hex()
        self.tries += 1
        return got


class _CheckedGecs(_OracleChecked, GecsSearch):
    pass


class _CheckedBaseline(_OracleChecked, BaselineSearch):
    pass


class TestIncrementalEngine:
    """The search keeps each node's candidates and deltas between tries;
    at every try it must choose what the uncached scan chooses."""

    def test_searches_from_random_states(self):
        # each state meets the data of another model with as many vertices,
        # so the search travels far from where it starts
        for colored, cls in ((True, _CheckedGecs), (False, _CheckedBaseline)):
            states = list(_random_states(colored))
            moves = 0
            for t, (state, _) in enumerate(states):
                search = cls(states[t // 8 * 8 + (t + 1) % 8][1])
                search.state = search.scorer.state_from(state.families)
                search.run()
                moves += len(search.trace) - 1
            assert moves > 100

    def test_kept_blocks_scan_the_reference_listing(self):
        # along a chain of states, each one move from the last, every move
        # scans the reference listing of the current state, each candidate
        # with the reference's score bits, from blocks kept or rebuilt, and
        # chooses what the reference chooses
        rng = np.random.default_rng(8)
        for colored, cls in ((True, GecsSearch), (False, BaselineSearch)):
            steps = ("add_color", "add_edge", "reverse_edge", "remove_edge") if colored else ("",)
            kept = 0
            for state, data in _random_states(colored):
                search = cls(data)
                state = search.scorer.state_from(state.families)
                for _ in range(6):
                    search.state = state
                    for _, moves in search.phases:
                        for name, move in moves:
                            before = list(search._blocks)
                            got = [(candidate, _summed(state.score, deltas))
                                   for candidate, deltas in _every(search, name, move)]
                            listing = list(oracles.CANDIDATES[name](state))
                            assert got == oracles.scan(state, search.scorer, listing)
                            assert search._apply_best(move).families == oracles.apply_best(
                                state, search.scorer, listing, search._tiekey).families
                            kept += sum(a is b for a, b in zip(before, search._blocks))
                    nearby = [c for name in steps for c in oracles.CANDIDATES[name](state)]
                    if not nearby:
                        break
                    step = nearby[int(rng.integers(len(nearby)))]
                    state = search.scorer.state_from(gecs_module._updated(state.families, step))
            assert kept > 0

    def test_kept_blocks_equal_a_fresh_listing(self):
        # adding an edge u -> w takes w and its descendants from the new
        # parents of u and of each ancestor of u, whose parent groups stay
        # as they were; each move must still scan what a fresh search on
        # the new state lists, with the same delta bits in the same order,
        # and every block is kept exactly when its node's parent groups are
        rng = np.random.default_rng(24)
        names = ("add_color", "add_edge")
        kept = 0
        for state, data in _random_states(colored=True):
            search = GecsSearch(data)
            state = search.scorer.state_from(state.families)
            for _ in range(4):
                search.state = state
                for name in names:
                    list(search._scored(MOVES[name]))
                before = list(search._blocks)
                steps = [c for name in names for c in oracles.CANDIDATES[name](state)]
                if not steps:
                    break
                step = steps[int(rng.integers(len(steps)))]
                old = state
                state = search.scorer.state_from(gecs_module._updated(state.families, step))
                search.state = state
                fresh = GecsSearch(data)
                fresh.state = SearchState(state.families, state.score, state.family_cache)
                for name in names:
                    got, want = ([(c, [d.hex() for d in ds])
                                  for c, ds in _every(s, name, MOVES[name])]
                                 for s in (search, fresh))
                    assert got == want
                for k, (block, new) in enumerate(zip(before, search._blocks)):
                    assert (new is block) == (old.families[k] == state.families[k])
                    kept += new is block
        assert kept > 0

    def test_searches_on_sampled_models(self):
        for seed in range(4):
            truth, theta = random_bpec(8, 0.6, 2, seed=[8, seed])
            data = sample(truth, theta, 500, [8, seed, 1])
            for cls in (_CheckedGecs, _CheckedBaseline):
                search = cls(data)
                search.run()
                assert len(search.trace) > 1

    @pytest.mark.parametrize("seed, n", [(1, 1000), (5, 1000), (3, 100_000)])
    def test_searches_on_wide_models(self, seed, n):
        # on models of the benchmark's width, and with many samples, where
        # the closed form's bound on a score is widest
        truth, theta = random_bpec(15, 0.5, 2, seed=[15, seed])
        data = sample(truth, theta, n, [15, seed, 1])
        for cls in (_CheckedGecs, _CheckedBaseline):
            search = cls(data)
            search.run()
            assert len(search.trace) > 20

    def test_memoized_families_call_no_kernel(self, monkeypatch):
        truth, theta = random_bpec(6, 0.5, 2, seed=[6, 1])
        search = GecsSearch(sample(truth, theta, 200, [6, 1, 1]))
        search.run()

        def kernel(*args, **kwargs):
            raise AssertionError("stacked_ls called with nothing new to fit")
        monkeypatch.setattr(gecs_module, "stacked_ls", kernel)
        state = search.scorer.state_from(search.state.families)
        assert state.score == search.state.score
        for _, moves in search.phases:
            for name, move in moves:
                assert search._apply_best(move) is search.state

    def test_exact_ties_take_the_tie_key(self):
        # a duplicated column makes two vertices interchangeable as parents,
        # so their candidates score exactly alike
        truth, theta = random_bpec(7, 0.6, 2, seed=[7, 3])
        x = sample(truth, theta, 500, [7, 3, 1]).X.copy()
        x[:, 6] = x[:, 5]
        for cls in (_CheckedGecs, _CheckedBaseline):
            search = cls(Dataset(x))
            search.run()
            assert any(a == b for a, b in search.ties)


class TestClosedForm:
    """Every move and the baseline score in closed form, and `stacked_ls`
    stays the scorer of record."""

    @pytest.mark.parametrize("name", list(ALL_MOVES))
    @pytest.mark.parametrize("p", [5, 8, 15, 20, 40])
    def test_scores_match_the_kernel(self, p, name):
        # true models from sparse to dense as states, each with its own data;
        # reverse_edge changes two nodes, so its bound has two terms
        checked = 0
        colored = name != "baseline"
        for seed, rho in enumerate((0.2, 0.4, 0.6)):
            cd, theta = random_bpec(p, rho, 2, seed=[p, seed, 28])
            data = sample(cd, theta, 1000, [p, seed, 29])
            cd = cd if colored else uncolored(cd.graph)
            search = (GecsSearch if colored else BaselineSearch)(data)
            search.state = state = search.scorer.state_from(_families_from(cd))
            scanned = _closed_form(search, name, ALL_MOVES[name])
            search.scorer.fit(family for candidate, _ in scanned for family in candidate)
            memo = search.scorer._memo
            for candidate, score in scanned:
                want = _summed(state.score, [memo[family] - state.family_cache[family[0]]
                                             for family in candidate])
                assert len(candidate) == 2 if name == "reverse_edge" else len(candidate) <= 2
                assert _within_bound(score, want, data.n, len(candidate))
                checked += 1
        if name in ("add_color", "baseline"):
            assert checked > 50   # together more than 100, at every p
        else:
            assert checked > 0 or p < 15   # small sparse states offer some moves nothing

    def test_collinear_candidates_are_left_to_the_kernel(self):
        x = np.random.default_rng(28).standard_normal((200, 9))
        x[:, 4] = x[:, 0]                 # a duplicated column
        x[:, 5] = x[:, 0] + x[:, 1]       # columns equal to the sum of two others
        x[:, 6] = x[:, 2] + x[:, 3]
        x[:, 8] += x[:, :4].sum(axis=1)
        # node 9 has parents 1, 2, 3 (uncolored) or the groups {1, 3} and
        # {2, 4}; adding 5 or 6 alone, or 6 and 7 as a group, adds a column
        # in the span of its columns, which the closed form scores +inf, so
        # the kernel decides, and which the search scores -inf
        cases = (
            (BaselineSearch, "", ((0,), (1,), (2,)), (((4,),), ((5,),)), ((7,),)),
            (GecsSearch, "add_color", ((0, 2), (1, 3)), (((5, 6),),), ((4, 7),)),
        )
        for cls, name, groups, collinear, fitted in cases:
            search = cls(Dataset(x))
            search.state = state = search.scorer.state_from(((),) * 8 + (groups,))
            move = search.phases[0][1][0][1]
            closed = dict(_closed_form(search, name, move))
            scanned = dict(_every(search, name, move))
            for add in collinear + (fitted,):
                candidate = ((8, tuple(sorted(groups + add))),)
                search.scorer.fit(candidate)
                kernel = search.scorer._memo[candidate[0]]
                assert scanned[candidate] == [kernel - state.family_cache[8]]
                if add == fitted:
                    assert _within_bound(closed[candidate], state.score + scanned[candidate][0], 200)
                else:
                    assert kernel == -math.inf and closed[candidate] == math.inf
        # a move that drops a group: removing 8 from the group {6, 7, 8}
        # leaves {6, 7}, whose column is the sum of the other two groups'
        search = GecsSearch(Dataset(x))
        groups = ((0, 2), (1, 3), (5, 6, 7))
        search.state = state = search.scorer.state_from(((),) * 8 + (groups,))
        closed = dict(_closed_form(search, "remove_edge", MOVES["remove_edge"]))
        scanned = dict(_every(search, "remove_edge", MOVES["remove_edge"]))
        collinear, fitted = (((8, ((0, 2), (1, 3), kept)),) for kept in ((5, 6), (6, 7)))
        for candidate in (collinear, fitted):
            search.scorer.fit(candidate)
            assert scanned[candidate] == [search.scorer._memo[candidate[0]] - state.family_cache[8]]
        assert search.scorer._memo[collinear[0]] == -math.inf and closed[collinear] == math.inf
        assert _within_bound(closed[fitted], state.score + scanned[fitted][0], 200)
        # a move that changes two groups: moving 5 from {1, 5, 7} to {3, 4}
        # leaves {1, 7} and {3, 4, 5}, both with the column x1 + x3 + x4
        groups = ((0, 4, 6), (2, 3))
        search.state = state = search.scorer.state_from(((),) * 8 + (groups,))
        closed = dict(_closed_form(search, "move_edge", MOVES["move_edge"]))
        scanned = dict(_every(search, "move_edge", MOVES["move_edge"]))
        collinear = ((8, ((0, 6), (2, 3, 4))),)
        search.scorer.fit(collinear)
        assert scanned[collinear] == [-math.inf] == [search.scorer._memo[collinear[0]]]
        assert closed[collinear] == math.inf
        for cls in (_CheckedGecs, _CheckedBaseline):
            search = cls(Dataset(x))
            search.run()
            assert len(search.trace) > 5

    @pytest.mark.parametrize("scale", [1e-150, 1e-90, 1e80, 1e150])
    def test_data_scale_changes_no_result(self, scale):
        # the closed form divides before it squares: squared residual cross
        # products of tiny data underflow to 0, which scored every candidate
        # as no gain, and those of huge data overflow
        truth, theta = random_bpec(8, 0.5, 2, seed=[41, 0])
        x = sample(truth, theta, 500, [41, 0, 1]).X
        want = gecs(Dataset(x)), baseline_greedy(Dataset(x)).edges
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gecs(Dataset(x * scale)), baseline_greedy(Dataset(x * scale)).edges
        assert got == want
        assert len(want[0].graph.edges) > 10 and len(want[1]) > 10

    @pytest.mark.parametrize("slack", [0.0, 3e-9])
    def test_contenders_choose_what_the_whole_scan_chooses(self, slack):
        # scores a few SCORE_EPS apart, around the state's score and each
        # other, with tie keys in random order; the contenders are found from
        # the scores each moved by less than the slack
        rng = np.random.default_rng(28)
        eps = gecs_module.SCORE_EPS
        state = SearchState((), 1000.0, ())
        picked = 0
        for _ in range(3000):
            count = int(rng.integers(1, 25))
            deltas = rng.integers(-2, 8, count) * (eps * rng.choice([0.5, 0.9, 1.1, 2.0, 9.0]))
            deltas += rng.integers(0, 2, count) * eps * rng.uniform(-0.1, 0.1, count)
            keys = rng.permutation(count).tolist()
            scored = [(t, [d]) for t, d in enumerate(deltas.tolist())]
            moved = state.score + deltas + rng.uniform(-0.9, 0.9, count) * slack
            contenders = gecs_module._contenders(state.score, moved, slack)
            tiekey = lambda families, t: keys[t]
            want = gecs_module._select(state, scored, tiekey)
            assert gecs_module._select(state, [scored[t] for t in contenders], tiekey) == want
            picked += len(contenders) < sum(state.score + d > state.score + eps for d in deltas)
        assert picked > 100   # scans where the contenders left improving scores out


# Search output on random_bpec(10, 0.5, 2, seed=5) with sample(n=1000, seed=6).
# Edges, color classes and moves were recorded before the acyclicity test
# moved from whole-graph builds to the current graph's descendant sets; the
# scores were re-recorded when fitting moved from QR on the samples to the
# Gram matrix (largest relative change 4.4e-16), and again when the search
# moved to stacked fits by Cholesky without pivoting (largest relative
# change 2.2e-16).  Any change to the search's hot path must reproduce them
# exactly.
GECS_EDGES = (
    (1, 0), (1, 2), (1, 6), (2, 0), (2, 4), (3, 0), (3, 1), (3, 2), (3, 4),
    (3, 6), (3, 7), (3, 9), (4, 0), (4, 6), (5, 0), (5, 1), (5, 3), (5, 4),
    (5, 6), (5, 7), (5, 9), (6, 0), (7, 1), (7, 2), (7, 4), (7, 6), (8, 0),
    (8, 3), (8, 4), (8, 6), (8, 7), (9, 0), (9, 1), (9, 2), (9, 4), (9, 7),
)
GECS_EDGE_CLASSES = (
    ((1, 0), (3, 0), (4, 0), (8, 0)), ((1, 2), (9, 2)), ((1, 6), (3, 6)),
    ((2, 0), (6, 0)), ((2, 4), (9, 4)), ((3, 1), (5, 1)), ((3, 2), (7, 2)),
    ((3, 4), (5, 4), (7, 4), (8, 4)), ((3, 7), (5, 7)), ((3, 9), (5, 9)),
    ((4, 6), (5, 6)), ((5, 0), (9, 0)), ((5, 3), (8, 3)), ((7, 1), (9, 1)),
    ((7, 6), (8, 6)), ((8, 7), (9, 7)),
)
GECS_MOVES = ("add_color",) * 18 + (
    "add_edge", "merge_colors", "merge_colors", "split_color", "move_edge",
    "remove_edge", "merge_colors")
GECS_SCORES = (
    -20402.51508476219, -19515.361649154303, -18723.670911642817,
    -18325.098537329115, -17981.45452788335, -17649.46112765291,
    -17332.889784510055, -17120.875704684382, -16969.0608195912,
    -16842.227568924183, -16724.332155923796, -16685.74818724401,
    -16652.03662266852, -16629.276213668123, -16614.19717289913,
    -16604.058311268036, -16595.782299248436, -16589.344024063023,
    -16586.093523049345, -16577.046585936183, -16574.478223248945,
    -16572.253591545177, -16569.98457389574, -16566.697676777818,
    -16546.83793857092, -16545.89568137067,
)
BASELINE_EDGES = (
    (0, 1), (0, 4), (1, 4), (1, 7), (2, 0), (2, 1), (2, 7), (3, 0), (3, 2),
    (3, 4), (5, 3), (5, 4), (5, 6), (5, 7), (6, 0), (6, 2), (6, 4), (6, 7),
    (7, 4), (8, 0), (8, 1), (8, 3), (8, 4), (8, 6), (8, 7), (9, 1), (9, 2),
    (9, 3), (9, 4), (9, 5), (9, 6), (9, 7),
)
BASELINE_SCORES = (
    -20402.51508476219, -19819.786344528417, -19251.89823513061,
    -18938.236002970898, -18698.06841301252, -18464.91718346447,
    -18244.71432561948, -18066.598002069637, -17833.927109669778,
    -17687.681098689536, -17550.937237500406, -17439.355592630127,
    -17345.550488947683, -17255.79758073392, -17151.886466393444,
    -17071.431073014515, -16984.98239793822, -16776.691806921957,
    -16697.22683331278, -16623.509990039696, -16566.224160875845,
    -16516.7211259205, -16479.88337712857, -16444.911753346045,
    -16411.864983885516, -16393.956382893626, -16381.570829294169,
    -16368.210142303733, -16359.202104706654, -16352.607288124444,
    -16347.445931961136, -16342.698811831646, -16334.817224283925,
    -16329.21515177665, -16326.614474486872, -16325.37421489213,
    -16324.325407779132,
)


class TestGolden:
    @pytest.fixture(scope="class")
    def data(self):
        truth, theta = random_bpec(10, 0.5, 2, seed=5)
        return sample(truth, theta, 1000, 6)

    def test_gecs_output_and_trace(self, data):
        search = GecsSearch(data)
        result = search.run()
        assert sorted(result.graph.edges) == list(GECS_EDGES)
        classes = sorted(tuple(sorted(c)) for c in result.edge_classes if len(c) > 1)
        assert tuple(classes) == GECS_EDGE_CLASSES
        assert all(len(c) == 1 for c in result.vertex_classes)
        assert tuple(row.move for row in search.trace[1:]) == GECS_MOVES
        assert tuple(row.score for row in search.trace) == GECS_SCORES

    def test_baseline_output_and_trace(self, data):
        search = BaselineSearch(data)
        assert sorted(search.run().graph.edges) == list(BASELINE_EDGES)
        assert tuple(row.score for row in search.trace) == BASELINE_SCORES
