"""Vertex/edge colorings of a DAG, classification predicates, and file I/O.

A color class of size one is the representation of an "uncolored" vertex or
edge, so every vertex and every edge always belongs to exactly one class.
Class ids are dense integers internally (vertex and edge namespaces are
separate); opaque strings appear only in files.  Classes are canonically
numbered by their base member, so two colorings inducing the same partitions
compare equal regardless of how they were built.
"""

from __future__ import annotations

import csv
import json
from typing import FrozenSet, Iterable, Optional, Tuple

from .dag import Dag, Edge
from .errors import CdagError, ColoringError, GraphError


def _edge_key(e: Edge) -> Tuple[int, int]:
    # lexicographic ordering "from the right": compare head first
    return (e[1], e[0])


class Coloring:
    """Partition of the vertices and of the edges of a ``Dag`` into classes."""

    __slots__ = ("vertex_class", "edge_class", "vertex_classes", "edge_classes")

    def __init__(self, graph: Dag,
                 vertex_classes: Iterable[Iterable[int]] = (),
                 edge_classes: Iterable[Iterable[Edge]] = ()):
        v_groups = self._close_partition(
            [frozenset(g) for g in vertex_classes], range(graph.p), "vertex")
        e_groups = self._close_partition(
            [frozenset(tuple(e) for e in g) for g in edge_classes],
            sorted(graph.edges, key=_edge_key), "edge")
        for grp in v_groups:
            for v in grp:
                if not (0 <= v < graph.p):
                    raise ColoringError(f"colored vertex {v} out of range")
        for grp in e_groups:
            for e in grp:
                if e not in graph.edges:
                    raise ColoringError(f"colored edge {e} is not in the graph")
        v_groups.sort(key=min)
        e_groups.sort(key=lambda g: min(_edge_key(e) for e in g))
        vmap = [0] * graph.p
        for cid, grp in enumerate(v_groups):
            for v in grp:
                vmap[v] = cid
        emap = {}
        for cid, grp in enumerate(e_groups):
            for e in grp:
                emap[e] = cid
        object.__setattr__(self, "vertex_class", tuple(vmap))
        object.__setattr__(self, "edge_class", emap)
        object.__setattr__(self, "vertex_classes", tuple(v_groups))
        object.__setattr__(self, "edge_classes", tuple(e_groups))

    def __setattr__(self, name, value):
        raise AttributeError("Coloring is immutable")

    @staticmethod
    def _close_partition(groups, universe, what):
        seen = set()
        for grp in groups:
            if not grp:
                raise ColoringError(f"empty {what} color class")
            if seen & grp:
                raise ColoringError(
                    f"{what} {sorted(seen & grp)} assigned to more than one class")
            seen |= grp
        closed = [g for g in groups]
        closed.extend(frozenset({x}) for x in universe if x not in seen)
        return closed

    def __eq__(self, other):
        if not isinstance(other, Coloring):
            return NotImplemented
        return (self.vertex_class == other.vertex_class
                and self.edge_class == other.edge_class)

    def __hash__(self):
        return hash((self.vertex_class, tuple(sorted(self.edge_class.items()))))


class ColoredDag:
    """A ``Dag`` together with a ``Coloring`` of its vertices and edges."""

    __slots__ = ("graph", "coloring")

    def __init__(self, graph: Dag,
                 vertex_classes: Iterable[Iterable[int]] = (),
                 edge_classes: Iterable[Iterable[Edge]] = (),
                 coloring: Optional[Coloring] = None):
        if coloring is None:
            coloring = Coloring(graph, vertex_classes, edge_classes)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "coloring", coloring)

    def __setattr__(self, name, value):
        raise AttributeError("ColoredDag is immutable")

    def __eq__(self, other):
        if not isinstance(other, ColoredDag):
            return NotImplemented
        return (self.graph.p == other.graph.p
                and self.graph.edges == other.graph.edges
                and self.coloring == other.coloring)

    def __hash__(self):
        return hash((self.graph.p, self.graph.edges, self.coloring))

    # -- structure ------------------------------------------------------

    @property
    def p(self) -> int:
        return self.graph.p

    @property
    def vertex_classes(self) -> Tuple[FrozenSet[int], ...]:
        return self.coloring.vertex_classes

    @property
    def edge_classes(self) -> Tuple[FrozenSet[Edge], ...]:
        return self.coloring.edge_classes

    @property
    def n_params(self) -> int:
        """Model dimension: one parameter per vertex class plus one per edge class."""
        return len(self.vertex_classes) + len(self.edge_classes)

    def vertex_color(self, i: int) -> int:
        return self.coloring.vertex_class[i]

    def edge_color(self, e: Edge) -> int:
        try:
            return self.coloring.edge_class[tuple(e)]
        except KeyError:
            raise ColoringError(f"{tuple(e)} is not an edge of the graph") from None

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

    def is_uncolored(self) -> bool:
        return self.is_vertex_colored() and self.is_edge_colored()

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
        vc = self.coloring.vertex_class
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
        try:
            p = int(doc["p"])
            edges = [(int(i) - 1, int(j) - 1) for i, j in doc["edges"]]
        except KeyError as exc:
            raise ColoringError(f"graph JSON missing field: {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ColoringError(
                f"graph JSON needs an integer 'p' and 'edges' as vertex pairs: {exc}"
            ) from None
        # indices are checked here so that messages keep the file's 1-based ones
        for i, j in edges:
            if not (0 <= i < p and 0 <= j < p):
                raise GraphError(f"edge ({i + 1}, {j + 1}) out of range for p={p}")
            if i == j:
                raise GraphError(f"self-loop at vertex {i + 1}")
        graph = Dag(p, edges)
        ecolors = doc.get("edge_colors") or {}
        vcolors = doc.get("vertex_colors") or {}
        try:
            edge_classes = [[(int(i) - 1, int(j) - 1) for i, j in grp]
                            for grp in ecolors.values()]
            vertex_classes = [[int(v) - 1 for v in grp] for grp in vcolors.values()]
        except (AttributeError, TypeError, ValueError) as exc:
            raise ColoringError(
                "graph JSON needs 'edge_colors' to map names to lists of vertex "
                f"pairs and 'vertex_colors' names to lists of vertices: {exc}"
            ) from None
        shared = set(ecolors) & set(vcolors)
        if shared:
            raise ColoringError(
                f"color names used for both vertices and edges: {sorted(shared)}")
        seen = set()
        for grp in vertex_classes:
            for v in grp:
                if not 0 <= v < p:
                    raise ColoringError(f"colored vertex {v + 1} out of range")
                if v in seen:
                    raise ColoringError(f"vertex {v + 1} assigned to more than one class")
                seen.add(v)
        for grp in edge_classes:
            for i, j in grp:
                if (i, j) not in graph.edges:
                    raise ColoringError(
                        f"colored edge ({i + 1}, {j + 1}) is not in the graph")
                if (i, j) in seen:
                    raise ColoringError(
                        f"edge ({i + 1}, {j + 1}) assigned to more than one class")
                seen.add((i, j))
        return cls(graph, vertex_classes=vertex_classes, edge_classes=edge_classes)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ColoredDag":
        return cls.from_json_dict(json.loads(text))


def uncolored(graph: Dag) -> ColoredDag:
    """Every vertex and edge in its own singleton class."""
    return ColoredDag(graph)


def read_graph_json(path) -> ColoredDag:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CdagError(f"{path}: invalid JSON at line {exc.lineno}, "
                        f"column {exc.colno}: {exc.msg}") from None
    return ColoredDag.from_json_dict(doc)


def write_graph_json(cd: ColoredDag, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cd.to_json())
        fh.write("\n")


def read_adjacency_csv(path) -> ColoredDag:
    """Read an uncolored DAG from a 0/1 adjacency matrix (entry [i][j] = 1
    for an edge i -> j).  Accepted read-only for baseline comparisons."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [(line, row) for line, row in enumerate(csv.reader(fh), 1) if row]
    p = len(rows)
    edges = []
    for i, (line, row) in enumerate(rows):
        if len(row) != p:
            raise GraphError(f"adjacency matrix is not square at row {line}")
        for j, cell in enumerate(row):
            try:
                present = float(cell) != 0.0
            except ValueError:
                raise GraphError(f"{path}: row {line}, column {j + 1}: "
                                 f"{cell!r} is not a number") from None
            if present and i == j:
                raise GraphError(f"self-loop at vertex {i + 1}")
            elif present:
                edges.append((i, j))
    return uncolored(Dag(p, edges))
