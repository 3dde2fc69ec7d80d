"""Identifying-set membership, enumeration, and numeric soundness."""

import hashlib
import json
import re
from itertools import combinations

import numpy as np
import pytest

from cdag import identify
from cdag.bench import random_bpec
from cdag.cli import main
from cdag.coloring import uncolored, write_graph_json
from cdag.dag import Dag
from cdag.errors import CdagError, GraphError, SizeGuardError
from cdag.identify import is_identifying, sample_identifying_sets
from cdag.params import parametrize, random_params, recover_lambda, recover_omega

from oracles import all_dags, identifying_sets, path_dsep, random_dag

P4 = Dag(4, [(0, 1), (1, 2), (2, 3)])
EX48 = Dag(5, [(0, 4), (0, 2), (1, 4), (2, 3), (3, 4)])


def ordered(sets):
    """Vertex sets in the package's one form: sorted tuples, in sorted order."""
    return sorted(tuple(sorted(a)) for a in sets)


def all_targets(p):
    """Every vertex, then every ordered pair of distinct vertices."""
    return list(range(p)) + [(i, j) for i in range(p) for j in range(p) if i != j]


class TestVertexSets:
    def test_chain_vertex(self):
        assert is_identifying(P4, 2, {1})
        assert is_identifying(P4, 2, {0, 1})
        assert not is_identifying(P4, 2, {1, 3})  # 3 is a descendant

    def test_source_with_empty_set(self):
        assert is_identifying(P4, 0, set())

    def test_rejects_self(self):
        with pytest.raises(GraphError):
            is_identifying(P4, 2, {2})

    def test_parent_set_always_identifies(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_dag(rng, 6, 0.5)
            for i in range(g.p):
                assert is_identifying(g, i, g.parents(i))


class TestEdgeSets:
    def test_chain_first_edge(self):
        assert is_identifying(P4, (0, 1), {0})
        assert not is_identifying(P4, (0, 1), {0, 2})  # 3's ancestor rule

    def test_example48_edge_45(self):
        # confirmed against the path enumerator: in the graph with 4 -> 5
        # deleted, {3} blocks every path between 4 and 5
        pruned = Dag(5, [(0, 4), (0, 2), (1, 4), (2, 3)])
        assert path_dsep(pruned, {3}, {4}, {2})
        assert is_identifying(EX48, (3, 4), {3, 2})

    def test_parent_set_always_identifies(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_dag(rng, 6, 0.5)
            for i, j in g.edges:
                assert is_identifying(g, (i, j), g.parents(j) | {i})

    def test_zero_identifying_for_non_edges(self):
        assert is_identifying(P4, (0, 2), {1})
        assert not is_identifying(P4, (0, 2), set())


class TestEnumeration:
    def test_chain_vertex_sets(self):
        assert identify.identifying_sets(P4, 2) == [(0, 1), (1,)]

    def test_chain_edge_sets(self):
        assert identify.identifying_sets(P4, (0, 1)) == [(0,)]

    def test_edge_targets_share_one_augmented_graph(self, monkeypatch):
        built = []
        monkeypatch.setattr(identify, "Dag", lambda *args: built.append(args) or Dag(*args))
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = random_dag(rng, 6, 0.5)
            edges = sorted(g.edges)
            expected = []
            for i, j in edges:
                universe = [v for v in range(g.p) if v != j]
                expected.append(sorted(a for r in range(len(universe) + 1)
                                       for a in combinations(universe, r)
                                       if is_identifying(g, (i, j), a)))
            built.clear()
            assert identify.identifying_sets_for(g, edges) == expected
            assert len(built) == (1 if edges else 0)
            # vertices and non-edges are queried on the graph itself
            others = list(range(g.p)) + [(i, j) for i in range(g.p) for j in range(g.p)
                                         if i != j and (i, j) not in g.edges]
            built.clear()
            identify.identifying_sets_for(g, others)
            assert built == []

    def test_every_target_matches_the_definitions(self):
        # vertices, edges and non-edges of random DAGs, against path enumeration
        rng = np.random.default_rng(13)
        for p in (2, 3, 4, 5, 6):
            for _ in range(4):
                g = random_dag(rng, p, 0.5)
                targets = list(range(p)) + [(i, j) for i in range(p) for j in range(p) if i != j]
                for target in targets:
                    assert identify.identifying_sets(g, target) == \
                        ordered(identifying_sets(g, target)), target

    def test_stacked_tests_equal_the_per_candidate_tests_up_to_p8(self):
        # every vertex, edge and non-edge target, every candidate, one at a time
        rng = np.random.default_rng(14)
        for p in range(1, 9):
            for _ in range(2 if p < 8 else 1):
                g = random_dag(rng, p, 0.5)
                for target in list(range(p)) + [(i, j) for i in range(p) for j in range(p)
                                                if i != j]:
                    head = target if isinstance(target, int) else target[1]
                    universe = [v for v in range(p) if v != head]
                    expected = {a for r in range(p) for a in map(frozenset,
                                                                 combinations(universe, r))
                                if is_identifying(g, target, a)}
                    assert identify.identifying_sets(g, target) == ordered(expected), target

    def test_one_call_on_every_dag_up_to_p4_matches_the_definitions(self):
        for p in range(1, 5):
            targets = all_targets(p)
            for g in all_dags(p):
                assert identify.identifying_sets_for(g, targets) == \
                    [ordered(identifying_sets(g, t)) for t in targets], g.edges

    def test_one_call_equals_per_target_calls(self):
        # every target, repeated and shuffled; at p = 8 the 56 pairs take two chunks
        rng = np.random.default_rng(28)
        for p in range(5, 9):
            for _ in range(3):
                g = random_dag(rng, p, float(rng.uniform(0.2, 0.8)))
                targets = all_targets(p) * 2
                targets = [targets[t] for t in rng.permutation(len(targets))]
                assert identify.identifying_sets_for(g, targets) == \
                    [identify.identifying_sets(g, t) for t in targets]
        assert identify.identifying_sets_for(P4, []) == []

    def test_targets_at_the_guard_take_chunks(self, monkeypatch):
        # digests of the per-target results, recorded while each edge target
        # built a pruned graph of its own
        built = []
        monkeypatch.setattr(identify, "Dag", lambda *args: built.append(args) or Dag(*args))
        complete = Dag(12, combinations(range(12), 2))
        got = identify.identifying_sets_for(complete, sorted(complete.edges))
        assert len(built) == 2      # 66 sinks, at most 51 a graph
        assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == \
            "119ef6b6ebf1cac7ab6ee264e26b3af067932209bddae22fec94ffa4a20595bb"
        g = random_dag(np.random.default_rng(26), 12, 0.6)
        got = identify.identifying_sets_for(g, all_targets(12))
        assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == \
            "bdbb5a100d0a719c4c73e8ba4cc3a0f9067205bae4831c2d59c8f59f42648173"

    def test_isolated_vertex_all_subsets(self):
        got = identify.identifying_sets(Dag(4), 1)
        # every subset of the other three vertices
        assert got == ordered(a for r in range(4) for a in combinations((0, 2, 3), r))
        assert len(got) == 8

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            identify.identifying_sets(Dag(13), 0)


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
                members = set(identify.identifying_sets(g, i))
                universe = [v for v in range(g.p) if v != i]
                for r in range(len(universe) + 1):
                    for a in combinations(universe, r):
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
                members = set(identify.identifying_sets(g, (i, j)))
                universe = [v for v in range(g.p) if v != j]
                for r in range(len(universe) + 1):
                    for a in combinations(universe, r):
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
                # sorted tuples, in sorted order, the witness among them
                assert all(type(a) is tuple and list(a) == sorted(a) for a in got)
                assert got == sorted(got) and len(set(got)) == len(got) <= 6
                assert tuple(sorted(witness)) in got
                assert set(got) <= set(identify.identifying_sets(g, target))

    def test_a_witness_that_does_not_identify_is_refused(self):
        chain = Dag(3, [(0, 1), (1, 2)])
        rng = np.random.default_rng(6)
        for target, witness, message in (
                (2, {0}, "witness {1} does not identify vertex 3"),
                (1, {1}, "witness {2} does not identify vertex 2"),
                ((1, 2), {0}, "witness {1} does not identify edge (2, 3)"),
                ((2, 0), (), "witness {} does not identify pair (3, 1)")):
            with pytest.raises(GraphError, match=re.escape(message)):
                sample_identifying_sets(chain, target, witness, rng, want=3)
        assert not is_identifying(chain, 2, {0})
        assert not is_identifying(chain, (2, 0), ())
        assert sample_identifying_sets(chain, 2, {1}, rng, want=3) == [(0, 1), (1,)]

    @pytest.mark.parametrize("want, message", [
        (0, "want must be at least 1, got 0"),
        (True, "want must be an integer, got True"),
        (2.5, "want must be an integer, got 2.5"),
    ])
    def test_want_is_a_positive_integer(self, want, message):
        with pytest.raises(CdagError, match=re.escape(message)):
            sample_identifying_sets(P4, 2, {1}, np.random.default_rng(0), want)
        assert sample_identifying_sets(P4, 2, {1}, np.random.default_rng(0), np.int64(1)) == [(1,)]

    def test_samples_beyond_the_enumeration_guard_are_identifying(self):
        rng = np.random.default_rng(5)
        g = random_dag(rng, identify.ENUM_GUARD_P + 3, 0.3)
        for target in list(range(g.p)) + sorted(g.edges):
            head = target if isinstance(target, int) else target[1]
            got = sample_identifying_sets(g, target, g.parents(head), rng, want=4)
            assert got == ordered(got) and tuple(sorted(g.parents(head))) in got
            for a in got:
                assert is_identifying(g, target, a), (target, a)


def test_numpy_integer_targets_are_vertices():
    assert identify.identifying_sets(P4, np.int64(2)) == identify.identifying_sets(P4, 2)
    assert identify.identifying_sets(P4, (np.int64(0), np.int32(1))) == [(0,)]
    assert is_identifying(P4, (np.int64(0), np.int64(2)), [1])


def identify_digest(workdir, capsys, rho=0.5, seed=(33, 8), p=8):
    """SHA-256 of ``cdag identify`` stdout for every vertex and every
    ordered vertex pair of a model on p vertices: its edges and its
    non-edges."""
    cd, _ = random_bpec(p, rho, 2, list(seed))
    graph = str(workdir / f"g{p}.json")
    write_graph_json(cd, graph)
    h = hashlib.sha256()
    for v in range(1, p + 1):
        assert main(["identify", "--graph", graph, "--vertex", str(v)]) == 0
        h.update(capsys.readouterr().out.encode())
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            if i != j:
                assert main(["identify", "--graph", graph, "--edge", f"{i},{j}"]) == 0
                h.update(capsys.readouterr().out.encode())
    return h.hexdigest()


def test_identify_output_is_pinned(tmp_path, capsys):
    # recorded before the enumeration tested its candidates in stacks
    assert identify_digest(tmp_path, capsys) == \
        "1403e63ae840be6fe5fb62f57b4eeaf0d4cb6f6fffbfed6b38002545b79acb0e"
    # a denser model (23 edges), recorded while the sets were frozensets
    assert identify_digest(tmp_path, capsys, 0.8, (33, 9)) == \
        "5d741df6cd42a87d59dbfbcb035044f7f6f1e0c15c87fa189fc339c565b33f89"


def test_identify_output_at_p10_is_pinned(tmp_path, capsys):
    # all 100 targets of a p = 10 model, recorded while each edge target
    # built a pruned graph of its own
    assert identify_digest(tmp_path, capsys, 0.5, (33, 10), p=10) == \
        "9463849878d2b41c81e63d7b88129f73fb19594805dbfd070b020931553408f2"


@pytest.mark.parametrize("call, expected", [
    (lambda: is_identifying(P4, 1, {1}),
     "candidate set for vertex 2 may not contain it"),
    (lambda: is_identifying(P4, (0, 1), {1}),
     "candidate set for edge (1, 2) may not contain 2"),
    (lambda: is_identifying(P4, (0, 2), {2}),
     "candidate set for pair (1, 3) may not contain 3"),
    (lambda: identify.identifying_sets(P4, (1, 1)), "(2, 2) is a self-loop"),
    (lambda: is_identifying(P4, (2, 2), []), "(3, 3) is a self-loop"),
    (lambda: sample_identifying_sets(P4, (2, 2), [], np.random.default_rng(0), 2),
     "(3, 3) is a self-loop"),
    (lambda: identify.identifying_sets(P4, True), "vertex index True is not an integer"),
    (lambda: identify.identifying_sets(P4, 1.0), "vertex index 1.0 is not an integer"),
    (lambda: identify.identifying_sets(P4, (0, 1.0)), "vertex index 1.0 is not an integer"),
    (lambda: identify.identifying_sets(P4, [0, 1]), "vertex index [0, 1] is not an integer"),
    (lambda: identify.identifying_sets(P4, (0, 1, 2)),
     "target (1, 2, 3) is neither a vertex nor a vertex pair"),
    (lambda: identify.identifying_sets(P4, ()),
     "target () is neither a vertex nor a vertex pair"),
    (lambda: identify.identifying_sets(P4, 4), "vertex 5 out of range for p=4"),
    (lambda: identify.identifying_sets(P4, (0, -1)), "vertex 0 out of range for p=4"),
    (lambda: is_identifying(P4, False, []), "vertex index False is not an integer"),
    (lambda: is_identifying(P4, (0, 2.0), []), "vertex index 2.0 is not an integer"),
    (lambda: is_identifying(P4, (True, 1), []), "vertex index True is not an integer"),
    (lambda: is_identifying(P4, 1, {0.0}), "vertex index 0.0 is not an integer"),
    (lambda: sample_identifying_sets(P4, 2.5, [], np.random.default_rng(0), 2),
     "vertex index 2.5 is not an integer"),
])
def test_messages_name_vertices_one_based(call, expected):
    with pytest.raises(GraphError, match=re.escape(expected)):
        call()
