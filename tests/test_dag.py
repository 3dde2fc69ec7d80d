"""Graph queries, d-separation, and Markov-equivalence structure."""

import re
from itertools import combinations

import numpy as np
import pytest

from cdag.dag import Dag, bitmask, members
from cdag.errors import CdagError, GraphError
from cdag.gecs import SearchState

from oracles import (all_dags, kahn_order, markov_equivalent, path_dsep, random_dag,
                     transitive_closure, v_structures)

P4 = Dag(4, [(0, 1), (1, 2), (2, 3)])
EX48 = Dag(5, [(0, 4), (0, 2), (1, 4), (2, 3), (3, 4)])


class TestBasicQueries:
    def test_chain_parents(self):
        assert P4.parents(2) == {1}
        assert P4.children(1) == {2}

    def test_empty_graph_descendants(self):
        assert Dag(3).descendants(0) == frozenset()

    def test_sets_match_transitive_closure(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            g = random_dag(rng, int(rng.integers(2, 7)))
            reach = transitive_closure(g)
            for i in range(g.p):
                assert g.descendants(i) == frozenset(reach[i])

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphError):
            P4.parents(4)

    def test_rejects_cycle_and_self_loop(self):
        with pytest.raises(GraphError):
            Dag(2, [(0, 1), (1, 0)])
        with pytest.raises(GraphError):
            Dag(2, [(1, 1)])

    @pytest.mark.parametrize("build, expected", [
        (lambda: Dag(3, [(0, 0)]), "self-loop at vertex 1"),
        (lambda: Dag(3, [(0, 3)]), "edge (1, 4) out of range for p=3"),
        (lambda: P4.parents(4), "vertex 5 out of range for p=4"),
        (lambda: P4.children(-1), "vertex 0 out of range for p=4"),
        (lambda: Dag(3, [(0.5, 1)]), "vertex index 0.5 is not an integer"),
        (lambda: Dag(3, [("0", 1)]), "vertex index '0' is not an integer"),
        (lambda: Dag(3, [(0, True)]), "vertex index True is not an integer"),
    ])
    def test_errors_name_vertices_one_based(self, build, expected):
        with pytest.raises(GraphError) as exc:
            build()
        assert expected in str(exc.value)

    def test_vertex_count_is_an_integer(self):
        g = Dag(np.int64(3), [(np.int64(0), np.int64(2))])
        assert type(g.p) is int and g.edges == {(0, 2)}
        assert all(type(v) is int for e in g.edges for v in e)
        for bad in (True, 2.5, "3"):
            with pytest.raises(CdagError, match=re.escape(
                    f"vertex count must be an integer, got {bad!r}")):
                Dag(bad)
        with pytest.raises(CdagError, match="vertex count must be at least 0, got -1"):
            Dag(-1)

    def test_topo_is_the_reference_kahn_order(self):
        rng = np.random.default_rng(3)
        for p in (*range(1, 9), 17, 33, *range(65, 71)):
            for rho in (0.1, 0.4, 0.8):
                g = random_dag(rng, p, rho)
                assert g.topo == kahn_order(p, g.edges)

    def test_a_cycle_is_refused_by_the_closure(self):
        # a Dag and a search state derive their graph through one closure
        with pytest.raises(GraphError) as from_dag:
            Dag(3, [(2, 0), (0, 1), (1, 2)])
        with pytest.raises(GraphError) as from_state:
            SearchState((((2,),), ((0,),), ((1,),)), 0.0, (0.0,) * 3).masks
        with pytest.raises(GraphError) as from_reference:
            kahn_order(3, [(2, 0), (0, 1), (1, 2)])
        assert str(from_reference.value) == "graph contains a directed cycle"
        for exc in (from_dag, from_state):
            assert exc.traceback[-1].name == "closure"
            assert str(exc.value) == str(from_reference.value)

    def test_topo_consistent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_dag(rng, 6)
            for i, j in g.edges:
                assert g.topo.index(i) < g.topo.index(j)


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        assert P4.d_separated({0}, {2}, {1})

    def test_chain_marginally_connected(self):
        assert not P4.d_separated({0}, {3}, set())

    def test_example48_collider_opened(self):
        # conditioning on the common child 5 opens 1 -- 4
        assert not EX48.d_separated({0}, {3}, {4})

    def test_disconnected_always_separated(self):
        g = Dag(5)
        for i, j in combinations(range(5), 2):
            assert g.d_separated({i}, {j}, set())
            assert g.d_separated({i}, {j}, {(j + 1) % 5} - {i, j})

    def test_overlap_rejected(self):
        with pytest.raises(GraphError):
            P4.d_separated({0}, {1}, {0})

    def test_agrees_with_path_enumeration_exhaustively(self):
        # every DAG on up to 4 vertices, every disjoint (I, J, K) triple
        for p in (2, 3, 4):
            for g in all_dags(p):
                for assignment in range(4 ** p):
                    left, right, given = set(), set(), set()
                    a = assignment
                    for v in range(p):
                        a, cell = divmod(a, 4)
                        if cell == 1:
                            left.add(v)
                        elif cell == 2:
                            right.add(v)
                        elif cell == 3:
                            given.add(v)
                    if not left or not right:
                        continue
                    assert g.d_separated(left, right, given) == \
                        path_dsep(g, left, right, given)


def _connected_by_paths(g, left, given):
    """The vertices d-connected to `left` given `given`, by path enumeration:
    `left` itself and every other vertex outside `given` that no K blocks."""
    return frozenset(left) | {v for v in range(g.p) if v not in left and v not in given
                              and not path_dsep(g, left, {v}, given)}


class TestDConnection:
    def test_matches_path_enumeration_exhaustively(self):
        # every DAG on up to 4 vertices, every left set with every disjoint given set
        for p in (1, 2, 3, 4):
            for g in all_dags(p):
                for left_bits in range(1, 1 << p):
                    rest = (1 << p) - 1 & ~left_bits
                    given_bits = rest
                    while True:
                        left, given = members(left_bits), members(given_bits)
                        assert frozenset(members(g.d_connected(left_bits, given_bits))) == \
                            _connected_by_paths(g, left, given)
                        if not given_bits:
                            break
                        given_bits = (given_bits - 1) & rest

    def test_matches_path_enumeration_on_random_dags(self):
        rng = np.random.default_rng(21)
        for p in (6, 7, 8):
            for _ in range(4):
                g = random_dag(rng, p, 0.4)
                for _ in range(12):
                    cells = rng.integers(0, 3, p)  # 0 free, 1 left, 2 given
                    if not (cells == 1).any():
                        cells[rng.integers(p)] = 1
                    left = {v for v in range(p) if cells[v] == 1}
                    given = {v for v in range(p) if cells[v] == 2}
                    got = g.d_connected(bitmask(left), bitmask(given))
                    assert frozenset(members(got)) == _connected_by_paths(g, left, given)

    def test_one_pass_answers_every_right_hand_vertex(self):
        # d_separated is a query on the pass: the pass's complement, given excluded
        rng = np.random.default_rng(22)
        for _ in range(20):
            g = random_dag(rng, 7, 0.4)
            for i in range(7):
                given = {v for v in range(7) if v != i and rng.random() < 0.4}
                reached = frozenset(members(g.d_connected(1 << i, bitmask(given))))
                for j in set(range(7)) - given - {i}:
                    assert g.d_separated({i}, {j}, given) == (j not in reached)

    @staticmethod
    def _stacked_cases(rng):
        # random DAGs at p = 1..8, with an edgeless graph and one whose last
        # vertices are isolated at each size
        for p in range(1, 9):
            yield Dag(p)
            yield Dag(p, random_dag(rng, max(1, p - 2), 0.5).edges)
            for _ in range(3):
                yield random_dag(rng, p, float(rng.uniform(0.2, 0.8)))

    def test_stacked_pass_equals_the_scalar_pass_row_by_row(self):
        rng = np.random.default_rng(23)
        for g in self._stacked_cases(rng):
            # every (i, K) with K avoiding i, and random disjoint left sets
            i, k = np.nonzero((np.arange(1 << g.p) >> np.arange(g.p)[:, None] & 1) == 0)
            lefts = np.concatenate([1 << i, rng.integers(1, 1 << g.p, len(k))])
            givens = np.concatenate([k, rng.integers(0, 1 << g.p, len(k))])
            givens[len(k):] &= ~lefts[len(k):]
            expected = [g.d_connected(a, b) for a, b in zip(lefts.tolist(), givens.tolist())]
            got = g.d_connected(lefts.astype(np.int64), givens.astype(np.int64))
            assert got.dtype == np.int64 and got.tolist() == expected
            # one left set against a stack of given sets broadcasts
            rows = i == 0
            assert g.d_connected(1, k[rows]).tolist() == expected[:rows.sum()]
            got = g.d_connected(lefts.astype(np.int32), givens.astype(np.uint8))
            assert got.dtype == np.int64 and got.tolist() == expected
        with pytest.raises(TypeError, match="must be integers"):
            P4.d_connected(1, np.zeros(2))
        with pytest.raises(TypeError, match="must be integers"):
            P4.d_connected(np.ones(2, dtype=np.uint64), np.zeros(2, dtype=np.int64))

    def test_stacked_separation_equals_the_scalar_query(self):
        rng = np.random.default_rng(24)
        for g in self._stacked_cases(rng):
            for i, j in combinations(range(g.p), 2):
                given = np.arange(1 << g.p)
                given = given[(given >> i & 1 | given >> j & 1) == 0]
                got = g.d_separated({i}, {j}, given)
                assert got.dtype == bool
                assert got.tolist() == [g.d_separated({i}, {j}, members(b))
                                        for b in given.tolist()]

    def test_stacked_separation_refuses_what_the_scalar_one_refuses(self):
        given = np.array([0b0100, 0b0001, 0b0000])
        with pytest.raises(GraphError, match="pairwise disjoint"):
            P4.d_separated({0}, {1}, given)
        with pytest.raises(GraphError, match="pairwise disjoint"):
            P4.d_separated({2}, {3}, given)
        with pytest.raises(GraphError, match=re.escape("vertex 5 out of range for p=4")):
            P4.d_separated({0}, {3}, np.array([0b0010, 0b10010]))
        with pytest.raises(GraphError, match=re.escape("vertex 5 out of range for p=4")):
            P4.d_separated({0}, {3}, np.array([-1]))
        assert P4.d_separated({0}, {3}, given[1:] << 1).tolist() == [True, False]

    def test_per_row_sets_equal_the_scalar_queries_row_by_row(self):
        rng = np.random.default_rng(27)
        for g in self._stacked_cases(rng):
            # per row, each vertex is in the left, the right or the given set, or none
            cells = rng.integers(0, 4, (40, g.p))
            left, right, given = ((cells == c) @ (1 << np.arange(g.p)) for c in (1, 2, 3))
            expected = [g.d_separated(members(a), members(b), members(c))
                        for a, b, c in zip(left.tolist(), right.tolist(), given.tolist())]
            got = g.d_separated(*(x.astype(np.int64) for x in (left, right, given)))
            assert got.dtype == bool and got.tolist() == expected
            # a set of vertices broadcasts against the stacks
            rows = (left | right) & 1 == 0
            assert g.d_separated(left[rows], right[rows], {0}).tolist() == \
                [g.d_separated(members(a), members(b), {0})
                 for a, b in zip(left[rows].tolist(), right[rows].tolist())]

    def test_a_row_whose_sets_overlap_is_refused(self):
        with pytest.raises(GraphError, match="pairwise disjoint"):
            P4.d_separated(np.array([0b0001, 0b0001]), np.array([0b1000, 0b1001]), ())
        with pytest.raises(GraphError, match="pairwise disjoint"):
            P4.d_separated(np.array([0b0001, 0b0001]), np.array([0b1000, 0b0100]),
                           np.array([0b0010, 0b0100]))
        with pytest.raises(GraphError, match="pairwise disjoint"):
            P4.d_separated({0}, np.array([0b1000, 0b0100]), np.array([0b0001, 0b0010]))
        # disjoint within each row, though not across rows
        assert P4.d_separated(np.array([0b0001, 0b0100]), np.array([0b0100, 0b0001]),
                              np.array([0b0010, 0b1000])).tolist() == [True, False]

    def test_stacked_pass_needs_p_at_most_63(self):
        g = Dag(63, [(0, 62)])
        assert g.d_connected(1, np.zeros(2, dtype=np.int64)).tolist() == [1 | 1 << 62] * 2
        g = Dag(64, [(0, 63)])
        assert g.d_connected(1, 0) == 1 | 1 << 63
        with pytest.raises(GraphError, match="p <= 63"):
            g.d_connected(1, np.zeros(2, dtype=np.int64))

    def test_stacked_bitmasks_must_cast_safely_to_int64(self):
        for dtype in (np.uint64, np.float64):
            with pytest.raises(TypeError, match="cast safely to int64"):
                P4.d_connected(1, np.zeros(2, dtype=dtype))
            with pytest.raises(TypeError, match="cast safely to int64"):
                P4.d_separated({0}, {3}, np.zeros(2, dtype=dtype))
        got = P4.d_connected(np.ones(2, dtype=np.uint32), 0)
        assert got.dtype == np.int64 and got.tolist() == [0b1111] * 2

    def test_vertices_must_be_integers(self):
        for bad, message in ((True, "vertex index True is not an integer"),
                             (1.0, "vertex index 1.0 is not an integer")):
            with pytest.raises(GraphError, match=re.escape(message)):
                P4.d_separated({0}, {3}, {bad})
            with pytest.raises(GraphError, match=re.escape(message)):
                P4.parents(bad)
        assert P4.parents(np.int64(2)) == {1}

    def test_mask_helpers_round_trip(self):
        for s in (set(), {0}, {3, 1, 7}, set(range(40))):
            assert frozenset(members(bitmask(s))) == frozenset(s)


class TestEquivalence:
    def test_reversed_chain_equivalent(self):
        assert markov_equivalent(P4, Dag(4, [(3, 2), (2, 1), (1, 0)]))

    def test_collider_not_equivalent_to_chain(self):
        assert not markov_equivalent(Dag(3, [(0, 2), (1, 2)]),
                                     Dag(3, [(0, 2), (2, 1)]))

    def test_v_structures_normalized(self):
        g = Dag(4, [(0, 2), (1, 2), (2, 3)])
        assert v_structures(g) == {(0, 2, 1)}

    def test_equivalence_relation_on_random_sample(self):
        rng = np.random.default_rng(3)
        sample = [random_dag(rng, 4, 0.5) for _ in range(12)]
        for g in sample:
            assert markov_equivalent(g, g)
        for g, h in combinations(sample, 2):
            assert markov_equivalent(g, h) == markov_equivalent(h, g)
        for g in sample:
            for h in sample:
                for f in sample:
                    if markov_equivalent(g, h) and markov_equivalent(h, f):
                        assert markov_equivalent(g, f)

