"""Coloring predicates, base parameters, and serialization."""

import json

import numpy as np
import pytest

from cdag.coloring import ColoredDag, read_adjacency_csv, uncolored
from cdag.dag import Dag
from cdag.errors import ColoringError

from oracles import random_bpec_like, random_colored_dag

P4 = Dag(4, [(0, 1), (1, 2), (2, 3)])
P4_COLORED = ColoredDag(P4, vertex_classes=[[0, 2]],
                        edge_classes=[[(0, 1), (2, 3)]])


class TestPredicates:
    def test_colored_path_is_not_bpec(self):
        # the shared class {1->2, 3->4} has two heads, so it is not blocked
        assert not P4_COLORED.is_bpec()
        assert not P4_COLORED.is_blocked()
        assert not P4_COLORED.is_compatible()

    def test_paired_head_classes_are_bpec(self):
        # thirteen classes of exactly two edges each, every class sharing
        # its head node
        rng = np.random.default_rng(0)
        edges, classes = set(), []
        while len(classes) < 13:
            j = int(rng.integers(2, 11))
            pool = [i for i in range(j) if (i, j) not in edges]
            if len(pool) < 2:
                continue
            i1, i2 = rng.choice(pool, size=2, replace=False)
            classes.append([(int(i1), j), (int(i2), j)])
            edges.update(classes[-1])
        cd = ColoredDag(Dag(11, edges), edge_classes=classes)
        assert len(cd.edge_classes) == 13
        assert all(len(grp) == 2 for grp in cd.edge_classes)
        assert cd.is_bpec()
        assert cd.is_compatible()

    def test_uncolored_is_both_vertex_and_edge_colored(self):
        cd = uncolored(P4)
        assert cd.is_vertex_colored() and cd.is_edge_colored()
        assert cd.is_bpec() is False  # singleton classes are not proper
        assert uncolored(Dag(3)).is_bpec()  # vacuous without edges

    def test_bpec_implies_compatible(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cd = random_bpec_like(rng, int(rng.integers(3, 8)))
            assert cd.is_bpec() or not cd.graph.edges
            assert cd.is_compatible()

    def test_parameter_count_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            cd = random_colored_dag(rng, int(rng.integers(2, 8)))
            assert cd.n_params <= cd.p + len(cd.graph.edges)


class TestBaseParameter:
    def test_edge_class_base(self):
        cid = P4_COLORED.edge_color((0, 1))
        assert P4_COLORED.base_parameter(cid, "edge") == (0, 1)

    def test_vertex_class_base(self):
        cid = P4_COLORED.vertex_color(0)
        assert P4_COLORED.base_parameter(cid, "vertex") == 0

    def test_singleton_class(self):
        cid = P4_COLORED.edge_color((1, 2))
        assert P4_COLORED.base_parameter(cid, "edge") == (1, 2)

    def test_right_to_left_order(self):
        # (3,4) precedes (1,5) because heads compare first
        g = Dag(5, [(2, 3), (0, 4)])
        cd = ColoredDag(g, edge_classes=[[(2, 3), (0, 4)]])
        assert cd.base_parameter(0, "edge") == (2, 3)

    def test_unknown_class(self):
        with pytest.raises(ColoringError):
            P4_COLORED.base_parameter(17, "edge")


class TestParentEdgeColors:
    def test_two_uncolored_parents(self):
        g = Dag(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5), (4, 5)])
        cd = ColoredDag(g, edge_classes=[[(0, 1), (3, 4)]])
        assert len(cd.parent_edge_colors(5)) == 2

    def test_source_has_none(self):
        assert P4_COLORED.parent_edge_colors(0) == frozenset()

    def test_shared_class_is_one_color(self):
        g = Dag(3, [(0, 2), (1, 2)])
        cd = ColoredDag(g, edge_classes=[[(0, 2), (1, 2)]])
        assert len(cd.parent_edge_colors(2)) == 1


class TestSerialization:
    def test_round_trip_random_bpec(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            cd = random_bpec_like(rng, int(rng.integers(3, 9)))
            assert ColoredDag.from_json_dict(json.loads(cd.to_json())) == cd

    def test_round_trip_general_coloring(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            cd = random_colored_dag(rng, int(rng.integers(2, 8)))
            assert ColoredDag.from_json_dict(json.loads(cd.to_json())) == cd

    def test_one_based_files(self):
        doc = P4_COLORED.to_json_dict()
        assert [1, 2] in doc["edges"]
        assert doc["edge_colors"] == {"e0": [[1, 2], [3, 4]]}
        assert doc["vertex_colors"] == {"v0": [1, 3]}

    def test_unlisted_get_singletons(self):
        cd = ColoredDag.from_json_dict(
            {"p": 3, "edges": [[1, 3], [2, 3]], "edge_colors": {},
             "vertex_colors": {}})
        assert cd.is_vertex_colored() and cd.is_edge_colored()

    def test_rejects_unknown_edge_in_class(self):
        with pytest.raises(ColoringError):
            ColoredDag.from_json_dict(
                {"p": 3, "edges": [[1, 3]], "edge_colors": {"a": [[2, 3]]}})

    def test_rejects_shared_color_name(self):
        with pytest.raises(ColoringError):
            ColoredDag.from_json_dict(
                {"p": 3, "edges": [[1, 3], [2, 3]],
                 "edge_colors": {"a": [[1, 3], [2, 3]]},
                 "vertex_colors": {"a": [1, 2]}})

    def test_rejects_overlapping_classes(self):
        with pytest.raises(ColoringError):
            ColoredDag(P4, vertex_classes=[[0, 1], [1, 2]])

    def test_adjacency_csv(self, tmp_path):
        path = tmp_path / "adj.csv"
        path.write_text("0,1,0\n0,0,1\n0,0,0\n")
        cd = read_adjacency_csv(path)
        assert cd.graph.edges == {(0, 1), (1, 2)}
        assert cd.is_vertex_colored() and cd.is_edge_colored()


class TestValidation:
    @pytest.mark.parametrize("build, expected", [
        (lambda: ColoredDag(P4, vertex_classes=[[0, 4]]), "colored vertex 5 out of range"),
        (lambda: ColoredDag(P4, edge_classes=[[(0, 1), (0, 2)]]),
         "colored edge (1, 3) is not in the graph"),
        (lambda: ColoredDag(P4, vertex_classes=[[0, 1], [1, 2]]),
         "vertex 2 assigned to more than one class"),
        (lambda: ColoredDag(P4, edge_classes=[[(0, 1)], [(0, 1), (1, 2)]]),
         "edge (1, 2) assigned to more than one class"),
        (lambda: ColoredDag(P4, vertex_classes=[[]]), "empty vertex color class"),
        (lambda: ColoredDag(P4, edge_classes=[[5]]), "color class member 5 is not a vertex pair"),
        (lambda: ColoredDag(P4, edge_classes=[[(0, [1])]]),
         "color class member (0, [1]) is not a vertex pair"),
        (lambda: ColoredDag(P4, vertex_classes=[[[0]]]),
         "color class member [0] is not a vertex index"),
        (lambda: ColoredDag(P4, vertex_classes=[["a"]]), "colored vertex 'a' out of range"),
        (lambda: ColoredDag(P4, vertex_classes=[[0, "a"]]), "colored vertex 'a' out of range"),
        (lambda: ColoredDag(P4, vertex_classes=[[1.0, 2]]),
         "colored vertex 1.0 is not a vertex index"),
        (lambda: ColoredDag(P4, vertex_classes=[[True, 2]]),
         "colored vertex True is not a vertex index"),
        (lambda: ColoredDag(P4, vertex_classes=[[np.bool_(True), 2]]),
         "colored vertex np.True_ is not a vertex index"),
        (lambda: ColoredDag(P4, edge_classes=[[(0.0, 1), (1, 2)]]),
         "colored edge (0.0, 1) is not a pair of vertex indices"),
        (lambda: ColoredDag(P4, edge_classes=[[(0, 1), (True, 2)]]),
         "colored edge (True, 2) is not a pair of vertex indices"),
        (lambda: P4_COLORED.edge_color((0, 2)), "(1, 3) is not an edge of the graph"),
    ])
    def test_errors_name_vertices_one_based(self, build, expected):
        with pytest.raises(ColoringError) as exc:
            build()
        assert expected in str(exc.value)

    def test_numpy_integer_members(self):
        cd = ColoredDag(P4, vertex_classes=[[np.int64(0), 2]],
                        edge_classes=[[(np.int32(0), 1), (1, np.int64(2))]])
        assert cd == ColoredDag(P4, vertex_classes=[[0, 2]], edge_classes=[[(0, 1), (1, 2)]])
