"""Colored DAGs: a DAG with vertex and edge colorings, classification
predicates, and file I/O.

A color class of size one is the representation of an "uncolored" vertex or
edge, so every vertex and every edge always belongs to exactly one class.
Class ids are dense integers internally (vertex and edge namespaces are
separate); opaque strings appear only in files.  Classes are canonically
numbered by their base member, so two colored DAGs inducing the same
partitions compare equal regardless of how they were built.  Error messages
render vertices 1-based, as files do.
"""

from __future__ import annotations

import json
from typing import FrozenSet, Iterable, Tuple

import numpy as np

from .dag import Dag, Edge, first_refused
from .errors import ColoringError, GraphError
from .files import read_json, read_matrix_csv


def _edge_key(e: Edge) -> Tuple[int, int]:
    # lexicographic ordering "from the right": compare head first
    return (e[1], e[0])


def _edge_name(e: Edge) -> str:
    return f"({e[0] + 1}, {e[1] + 1})"


def _integer(x, where: str) -> int:
    # JSON true and 3.0 would pass int(); a vertex count or index is neither
    if type(x) is not int:
        raise TypeError(f"{where} holds {x!r}, not an integer")
    return x


def _is_index(x) -> bool:
    """Whether ``x`` is an integer, Python's or numpy's and not a bool."""
    return type(x) is int or isinstance(x, np.integer)


def _sets(groups, to_set, member, shape: str):
    """Each group as ``to_set`` makes it a frozenset; a ColoringError names
    the first member (or group) that ``member`` cannot hash."""
    try:
        return [to_set(g) for g in groups]
    except TypeError:
        bad = first_refused(first_refused(groups, to_set), member)
        raise ColoringError(f"color class member {bad!r} is not a {shape}") from None


def _classes(groups, universe, kind: str, absent: str, name, key):
    """The given classes plus a singleton for each member of ``universe``
    they leave out, sorted by base member under ``key``; ``name`` renders a
    member 1-based for error messages."""
    classes, seen = [], set()
    for grp in groups:
        if not grp:
            raise ColoringError(f"empty {kind} color class")
        outside = [x for x in grp if x not in universe]
        if outside:
            try:
                shown = name(min(outside, key=key))
            except (TypeError, ValueError):   # a member that is no vertex or edge at all
                shown = repr(first_refused(outside, lambda x: name(key(x))))
            raise ColoringError(f"colored {kind} {shown} {absent}")
        if grp & seen:
            raise ColoringError(f"{kind} {name(min(grp & seen, key=key))} "
                                "assigned to more than one class")
        seen |= grp
        classes.append(grp)
    classes.extend(frozenset({x}) for x in universe if x not in seen)
    classes.sort(key=lambda g: min(map(key, g)))
    return tuple(classes)


class ColoredDag:
    """A ``Dag`` with a partition of its vertices and a partition of its
    edges into color classes; unlisted members get singleton classes."""

    __slots__ = ("graph", "vertex_class", "edge_class", "vertex_classes",
                 "edge_classes")

    def __init__(self, graph: Dag,
                 vertex_classes: Iterable[Iterable[int]] = (),
                 edge_classes: Iterable[Iterable[Edge]] = ()):
        v_given = _sets(vertex_classes, frozenset, hash, "vertex index")
        e_given = _sets(edge_classes, lambda g: frozenset(map(tuple, g)),
                        lambda e: hash(tuple(e)), "vertex pair")
        v_groups = _classes(v_given, range(graph.p), "vertex", "out of range",
                            lambda v: v + 1, int)
        e_groups = _classes(e_given, graph.edges, "edge", "is not in the graph",
                            _edge_name, _edge_key)
        # a float or a bool equal to a vertex passes the range and edge tests;
        # such a member has no 1-based form, so it is named as given
        bad = next((v for grp in v_given for v in grp if not _is_index(v)), None)
        if bad is not None:
            raise ColoringError(f"colored vertex {bad!r} is not a vertex index")
        bad = next((e for grp in e_given for e in grp
                    if not (_is_index(e[0]) and _is_index(e[1]))), None)
        if bad is not None:
            raise ColoringError(f"colored edge {bad!r} is not a pair of vertex indices")
        vmap = [0] * graph.p
        for cid, grp in enumerate(v_groups):
            for v in grp:
                vmap[v] = cid
        emap = {e: cid for cid, grp in enumerate(e_groups) for e in grp}
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "vertex_class", tuple(vmap))
        object.__setattr__(self, "edge_class", emap)
        object.__setattr__(self, "vertex_classes", v_groups)
        object.__setattr__(self, "edge_classes", e_groups)

    def __setattr__(self, name, value):
        raise AttributeError("ColoredDag is immutable")

    def __eq__(self, other):
        if not isinstance(other, ColoredDag):
            return NotImplemented
        return (self.graph.p == other.graph.p
                and self.graph.edges == other.graph.edges
                and self.vertex_class == other.vertex_class
                and self.edge_class == other.edge_class)

    def __hash__(self):
        return hash((self.graph.p, self.graph.edges, self.vertex_class,
                     tuple(sorted(self.edge_class.items()))))

    # -- structure ------------------------------------------------------

    @property
    def p(self) -> int:
        return self.graph.p

    @property
    def n_params(self) -> int:
        """Model dimension: one parameter per vertex class plus one per edge class."""
        return len(self.vertex_classes) + len(self.edge_classes)

    def vertex_color(self, i: int) -> int:
        return self.vertex_class[i]

    def edge_color(self, e: Edge) -> int:
        try:
            return self.edge_class[tuple(e)]
        except KeyError:
            raise ColoringError(f"{_edge_name(e)} is not an edge of the graph") from None

    def parent_edge_colors(self, k: int) -> FrozenSet[int]:
        """Distinct colors of the edges entering k; empty for sources."""
        return frozenset(self.edge_color((j, k)) for j in self.graph.parents(k))

    def base_parameter(self, class_id, kind: str):
        """Smallest member of a class in the right-to-left lexicographic order:
        the vertex or edge whose parameter names the class."""
        if kind == "vertex":
            classes = self.vertex_classes
            if not (0 <= class_id < len(classes)):
                raise ColoringError(f"unknown vertex class {class_id}")
            return min(classes[class_id])
        if kind == "edge":
            classes = self.edge_classes
            if not (0 <= class_id < len(classes)):
                raise ColoringError(f"unknown edge class {class_id}")
            return min(classes[class_id], key=_edge_key)
        raise ColoringError(f"kind must be 'vertex' or 'edge', got {kind!r}")

    # -- predicates -----------------------------------------------------

    def is_vertex_colored(self) -> bool:
        """Edges are all singleton classes (only vertices may share colors)."""
        return len(self.edge_classes) == len(self.graph.edges)

    def is_edge_colored(self) -> bool:
        """Vertices are all singleton classes (only edges may share colors)."""
        return len(self.vertex_classes) == self.graph.p

    def is_blocked(self) -> bool:
        """Edges sharing a color share their head node."""
        return all(len({j for _, j in grp}) == 1 for grp in self.edge_classes)

    def is_proper(self) -> bool:
        """No edge color class of size one."""
        return all(len(grp) >= 2 for grp in self.edge_classes)

    def is_bpec(self) -> bool:
        """Blocked, properly edge-colored, vertices uncolored.  Vacuously true
        for graphs without edges."""
        return self.is_edge_colored() and self.is_blocked() and self.is_proper()

    def is_compatible(self) -> bool:
        """Same-colored edges point to same-colored heads."""
        vc = self.vertex_class
        return all(len({vc[j] for _, j in grp}) == 1 for grp in self.edge_classes)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical JSON form; 1-based indices, singleton classes omitted."""
        doc = {
            "p": self.p,
            "edges": [[i + 1, j + 1]
                      for i, j in sorted(self.graph.edges, key=_edge_key)],
        }
        edge_colors = {}
        for cid, grp in enumerate(self.edge_classes):
            if len(grp) >= 2:
                edge_colors[f"e{cid}"] = [[i + 1, j + 1]
                                          for i, j in sorted(grp, key=_edge_key)]
        vertex_colors = {}
        for cid, grp in enumerate(self.vertex_classes):
            if len(grp) >= 2:
                vertex_colors[f"v{cid}"] = [v + 1 for v in sorted(grp)]
        doc["edge_colors"] = edge_colors
        doc["vertex_colors"] = vertex_colors
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ColoredDag":
        if not isinstance(doc, dict):
            raise ColoringError("graph JSON must be a JSON object")
        try:
            p = _integer(doc["p"], "'p'")
            edges = [(_integer(i, "'edges'") - 1, _integer(j, "'edges'") - 1)
                     for i, j in doc["edges"]]
        except KeyError as exc:
            raise ColoringError(f"graph JSON missing field: {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ColoringError(
                f"graph JSON needs an integer 'p' and 'edges' as vertex pairs: {exc}"
            ) from None
        graph = Dag(p, edges)
        ecolors = doc.get("edge_colors") or {}
        vcolors = doc.get("vertex_colors") or {}
        try:
            edge_classes = [[(_integer(i, f"edge color {name!r}") - 1,
                              _integer(j, f"edge color {name!r}") - 1) for i, j in grp]
                            for name, grp in ecolors.items()]
            vertex_classes = [[_integer(v, f"vertex color {name!r}") - 1 for v in grp]
                              for name, grp in vcolors.items()]
        except (AttributeError, TypeError, ValueError) as exc:
            raise ColoringError(
                "graph JSON needs 'edge_colors' to map names to lists of vertex "
                f"pairs and 'vertex_colors' names to lists of vertices: {exc}"
            ) from None
        shared = set(ecolors) & set(vcolors)
        if shared:
            raise ColoringError(
                f"color names used for both vertices and edges: {sorted(shared)}")
        return cls(graph, vertex_classes=vertex_classes, edge_classes=edge_classes)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def uncolored(graph: Dag) -> ColoredDag:
    """Every vertex and edge in its own singleton class."""
    return ColoredDag(graph)


def read_graph_json(path) -> ColoredDag:
    return ColoredDag.from_json_dict(read_json(path))


def write_graph_json(cd: ColoredDag, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cd.to_json())
        fh.write("\n")


def read_adjacency_csv(path) -> ColoredDag:
    """Read an uncolored DAG from a 0/1 adjacency matrix (entry [i][j] = 1
    for an edge i -> j).  Accepted read-only for baseline comparisons."""
    _, matrix = read_matrix_csv(path)
    p = len(matrix)
    if matrix.shape != (p, p):
        raise GraphError(f"{path}: adjacency matrix has {p} rows of "
                         f"{matrix.shape[1]} entries; it must be square")
    bad = np.argwhere((matrix != 0) & (matrix != 1))
    if len(bad):
        i, j = bad[0]
        raise GraphError(f"{path}: adjacency entry ({i + 1}, {j + 1}) is "
                         f"{matrix[i, j]:g}; entries must be 0 or 1")
    return uncolored(Dag(p, zip(*np.nonzero(matrix))))
