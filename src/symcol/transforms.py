"""Subdivision, central, middle, endline, and line graph transformations.

Label layout is fixed so colorings built on the transformed graphs are
reproducible: original vertices keep labels 0..n-1 (part1), added vertices
follow at n.. (part2).  Subdivided vertices appear in the column-major order
of their source edges; the endline pendant of vertex v is n+v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph, encode_graph6

__all__ = [
    "TaggedGraph",
    "subdivision",
    "central",
    "middle",
    "endline",
    "line_graph",
    "middle_to_line_of_endline",
]


@dataclass
class TaggedGraph:
    """A transformed graph plus the bookkeeping the colorings need.

    `origin` maps each added vertex to the base edge (u, v) it subdivides, or
    to the base vertex it hangs off (endline pendants).
    """

    graph: Graph
    base: Graph
    part1: tuple[int, ...]
    part2: tuple[int, ...]
    origin: dict[int, tuple[int, int] | int]

    def subdivided(self, u: int, v: int) -> int:
        """The added vertex sitting on base edge {u, v}."""
        key = (u, v) if u < v else (v, u)
        w = self._edge_to_added.get(key)
        if w is None:
            raise KeyError(f"{key} is not a subdivided base edge")
        return w

    @cached_property
    def _edge_to_added(self) -> dict[tuple[int, int], int]:
        return {e: w for w, e in self.origin.items() if isinstance(e, tuple)}

    def to_json(self) -> dict:
        return {
            "graph6": encode_graph6(self.graph),
            "part1": list(self.part1),
            "origin": {str(w): list(e) if isinstance(e, tuple) else e for w, e in self.origin.items()},
        }


def _subdivision_parts(g: Graph) -> tuple[list[tuple[int, int]], dict[int, tuple[int, int] | int]]:
    edges = g.edges()
    origin: dict[int, tuple[int, int] | int] = {g.n + k: e for k, e in enumerate(edges)}
    sub_edges = []
    for k, (u, v) in enumerate(edges):
        w = g.n + k
        sub_edges.append((u, w))
        sub_edges.append((v, w))
    return sub_edges, origin


def subdivision(g: Graph) -> TaggedGraph:
    """Replace every edge {u, v} by a path u - w_{u,v} - v."""
    sub_edges, origin = _subdivision_parts(g)
    graph = Graph.from_edges(g.n + g.edge_count(), sub_edges)
    return TaggedGraph(graph, g, tuple(range(g.n)), tuple(sorted(origin)), origin)


def central(g: Graph) -> TaggedGraph:
    """Subdivide every edge, then join every non-adjacent original pair."""
    sub_edges, origin = _subdivision_parts(g)
    comp = [(i, j) for j in range(g.n) for i in range(j) if not g.has_edge(i, j)]
    graph = Graph.from_edges(g.n + g.edge_count(), sub_edges + comp)
    return TaggedGraph(graph, g, tuple(range(g.n)), tuple(sorted(origin)), origin)


def middle(g: Graph) -> TaggedGraph:
    """Subdivide every edge, then join subdivided vertices of adjacent edges."""
    sub_edges, origin = _subdivision_parts(g)
    extra = [(g.n + a, g.n + b) for a, b in _incidence_pairs(g)]
    graph = Graph.from_edges(g.n + g.edge_count(), sub_edges + extra)
    return TaggedGraph(graph, g, tuple(range(g.n)), tuple(sorted(origin)), origin)


def endline(g: Graph) -> TaggedGraph:
    """Attach one new pendant vertex to every original vertex."""
    pend = [(v, g.n + v) for v in range(g.n)]
    graph = Graph.from_edges(2 * g.n, g.edges() + pend)
    origin: dict[int, tuple[int, int] | int] = {g.n + v: v for v in range(g.n)}
    return TaggedGraph(graph, g, tuple(range(g.n)), tuple(range(g.n, 2 * g.n)), origin)


def line_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph plus the vertex labeling map.

    Vertex k of the result stands for edge labels[k] of the input; two
    vertices are adjacent iff their edges share an endpoint.
    """
    return Graph.from_edges(g.edge_count(), _incidence_pairs(g)), tuple(g.edges())


def _incidence_pairs(g: Graph) -> list[tuple[int, int]]:
    """The pairs (a, b), a < b, of indices into ``g.edges()`` whose edges
    share an endpoint: the edges of the line graph."""
    # The edges at each vertex form a clique; two edges share one end at most.
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for k, (u, v) in enumerate(g.edges()):
        incident[u].append(k)
        incident[v].append(k)
    return [(a, b) for ks in incident for i, b in enumerate(ks) for a in ks[:i]]


def middle_to_line_of_endline(g: Graph) -> tuple[int, ...]:
    """The canonical isomorphism from middle(g) onto line_graph(endline(g)).

    Original vertex v corresponds to the pendant edge {v, n+v}; the subdivided
    vertex of base edge e corresponds to e itself (an edge of the endline
    graph with the same endpoints).  Returns the image array indexed by
    middle-graph vertex.
    """
    # line_graph labels its vertex k with edge k of its input.  Edges run in
    # order of their larger end, so G+ lists the m edges of g first, in
    # their own order, then the pendant edge {v, n+v} at position m + v.
    m = g.edge_count()
    return tuple(range(m, m + g.n)) + tuple(range(m))
