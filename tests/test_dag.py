"""Graph queries, d-separation, and Markov-equivalence structure."""

from itertools import combinations

import numpy as np
import pytest

from cdag.dag import Dag, bitmask, members
from cdag.errors import GraphError

from oracles import (all_dags, markov_equivalent, path_dsep, random_dag,
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
    ])
    def test_errors_name_vertices_one_based(self, build, expected):
        with pytest.raises(GraphError) as exc:
            build()
        assert expected in str(exc.value)

    def test_topo_consistent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_dag(rng, 6)
            for i, j in g.edges:
                assert g.topo_rank(i) < g.topo_rank(j)


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
                        assert members(g.d_connected(left_bits, given_bits)) == \
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
                    assert members(got) == _connected_by_paths(g, left, given)

    def test_one_pass_answers_every_right_hand_vertex(self):
        # d_separated is a query on the pass: the pass's complement, given excluded
        rng = np.random.default_rng(22)
        for _ in range(20):
            g = random_dag(rng, 7, 0.4)
            for i in range(7):
                given = {v for v in range(7) if v != i and rng.random() < 0.4}
                reached = members(g.d_connected(1 << i, bitmask(given)))
                for j in set(range(7)) - given - {i}:
                    assert g.d_separated({i}, {j}, given) == (j not in reached)

    def test_mask_helpers_round_trip(self):
        for s in (set(), {0}, {3, 1, 7}, set(range(40))):
            assert members(bitmask(s)) == frozenset(s)


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

