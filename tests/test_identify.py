"""Identifying-set membership, enumeration, and numeric soundness."""

import re
from itertools import combinations

import numpy as np
import pytest

from cdag import identify
from cdag.coloring import uncolored
from cdag.dag import Dag
from cdag.errors import GraphError, SizeGuardError
from cdag.identify import (enumerate_identifying_sets, is_edge_identifying,
                           is_vertex_identifying, is_zero_identifying,
                           sample_identifying_sets)
from cdag.params import parametrize, random_params, recover_lambda, recover_omega

from oracles import identifying_sets, path_dsep, random_dag

P4 = Dag(4, [(0, 1), (1, 2), (2, 3)])
EX48 = Dag(5, [(0, 4), (0, 2), (1, 4), (2, 3), (3, 4)])


class TestVertexSets:
    def test_chain_vertex(self):
        assert is_vertex_identifying(P4, 2, {1})
        assert is_vertex_identifying(P4, 2, {0, 1})
        assert not is_vertex_identifying(P4, 2, {1, 3})  # 3 is a descendant

    def test_source_with_empty_set(self):
        assert is_vertex_identifying(P4, 0, set())

    def test_rejects_self(self):
        with pytest.raises(GraphError):
            is_vertex_identifying(P4, 2, {2})

    def test_parent_set_always_identifies(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_dag(rng, 6, 0.5)
            for i in range(g.p):
                assert is_vertex_identifying(g, i, g.parents(i))


class TestEdgeSets:
    def test_chain_first_edge(self):
        assert is_edge_identifying(P4, 0, 1, {0})
        assert not is_edge_identifying(P4, 0, 1, {0, 2})  # 3's ancestor rule

    def test_example48_edge_45(self):
        # confirmed against the path enumerator: in the graph with 4 -> 5
        # deleted, {3} blocks every path between 4 and 5
        pruned = Dag(5, [(0, 4), (0, 2), (1, 4), (2, 3)])
        assert path_dsep(pruned, {3}, {4}, {2})
        assert is_edge_identifying(EX48, 3, 4, {3, 2})

    def test_parent_set_always_identifies(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_dag(rng, 6, 0.5)
            for i, j in g.edges:
                assert is_edge_identifying(g, i, j, g.parents(j) | {i})

    def test_zero_identifying_for_non_edges(self):
        assert is_zero_identifying(P4, 0, 2, {1})
        assert not is_zero_identifying(P4, 0, 2, set())
        with pytest.raises(GraphError):
            is_zero_identifying(P4, 0, 1, {0})


class TestEnumeration:
    def test_chain_vertex_sets(self):
        assert enumerate_identifying_sets(P4, 2) == {
            frozenset({1}), frozenset({0, 1})}

    def test_chain_edge_sets(self):
        assert enumerate_identifying_sets(P4, (0, 1)) == {frozenset({0})}

    def test_edge_sets_share_one_pruned_graph(self, monkeypatch):
        built = []
        monkeypatch.setattr(identify, "Dag", lambda *args: built.append(args) or Dag(*args))
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = random_dag(rng, 6, 0.5)
            for i, j in sorted(g.edges):
                universe = [v for v in range(g.p) if v != j]
                expected = {a for r in range(len(universe) + 1)
                            for a in map(frozenset, combinations(universe, r))
                            if is_edge_identifying(g, i, j, a)}
                built.clear()
                assert enumerate_identifying_sets(g, (i, j)) == expected
                assert len(built) == 1

    def test_every_target_matches_the_definitions(self):
        # vertices, edges and non-edges of random DAGs, against path enumeration
        rng = np.random.default_rng(13)
        for p in (2, 3, 4, 5, 6):
            for _ in range(4):
                g = random_dag(rng, p, 0.5)
                targets = list(range(p)) + [(i, j) for i in range(p) for j in range(p) if i != j]
                for target in targets:
                    assert enumerate_identifying_sets(g, target) == \
                        identifying_sets(g, target), target

    def test_isolated_vertex_all_subsets(self):
        got = enumerate_identifying_sets(Dag(4), 1)
        assert len(got) == 8  # every subset of the other three vertices

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            enumerate_identifying_sets(Dag(13), 0)


class TestNumericSoundness:
    """Members recover the parameter everywhere; non-members fail generically."""

    def _points(self, g, count, rng):
        cd = uncolored(g)
        out = []
        for _ in range(count):
            theta = random_params(cd, rng)
            out.append((theta, parametrize(cd, theta)))
        return out

    def test_vertex_sets_sound(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            g = random_dag(rng, 5, 0.5)
            cd = uncolored(g)
            points = self._points(g, 20, rng)
            for i in range(g.p):
                members = enumerate_identifying_sets(g, i)
                universe = [v for v in range(g.p) if v != i]
                from itertools import combinations
                for r in range(len(universe) + 1):
                    for a in map(frozenset, combinations(universe, r)):
                        errs = [abs(recover_omega(s, g, i, a)
                                    - theta.omega[cd.vertex_color(i)])
                                for theta, s in points]
                        if a in members:
                            assert max(errs) < 1e-8
                        else:
                            assert max(errs) > 1e-4

    def test_edge_sets_sound(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            g = random_dag(rng, 5, 0.5)
            if not g.edges:
                continue
            cd = uncolored(g)
            points = self._points(g, 20, rng)
            for i, j in sorted(g.edges):
                members = enumerate_identifying_sets(g, (i, j))
                universe = [v for v in range(g.p) if v != j]
                from itertools import combinations
                for r in range(len(universe) + 1):
                    for a in map(frozenset, combinations(universe, r)):
                        errs = [abs(recover_lambda(s, g, i, j, a)
                                    - theta.lam[cd.edge_color((i, j))])
                                for theta, s in points]
                        if a in members:
                            assert max(errs) < 1e-8
                        else:
                            assert max(errs) > 1e-4


class TestSampling:
    def test_samples_are_enumerated_members(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            g = random_dag(rng, int(rng.integers(2, 9)), 0.4)
            targets = list(range(g.p)) + sorted(g.edges)
            for target in targets:
                head = target if isinstance(target, int) else target[1]
                witness = g.parents(head)
                got = sample_identifying_sets(g, target, witness, rng, want=6)
                assert frozenset(witness) in got
                assert len(got) <= 6 and got == sorted(got, key=sorted)
                assert set(got) <= enumerate_identifying_sets(g, target)


@pytest.mark.parametrize("call, expected", [
    (lambda: is_vertex_identifying(P4, 1, {1}),
     "candidate set for vertex 2 may not contain it"),
    (lambda: is_edge_identifying(P4, 0, 1, {1}),
     "candidate set for edge (1, 2) may not contain 2"),
    (lambda: is_edge_identifying(P4, 0, 2, {1}),
     "(1, 3) is not an edge; use is_zero_identifying"),
    (lambda: is_zero_identifying(P4, 0, 2, {2}),
     "candidate set for pair (1, 3) may not contain 3"),
    (lambda: is_zero_identifying(P4, 0, 1, {0}),
     "(1, 2) is an edge; use is_edge_identifying"),
    (lambda: enumerate_identifying_sets(P4, (1, 1)), "(2, 2) is a self-loop"),
])
def test_messages_name_vertices_one_based(call, expected):
    with pytest.raises(GraphError, match=re.escape(expected)):
        call()
