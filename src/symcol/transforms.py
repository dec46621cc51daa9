"""Subdivision, central, middle, endline, and line graph transformations.

Label layout is fixed so colorings built on the transformed graphs are
reproducible: original vertices keep labels 0..n-1 (part1), added vertices
follow at n.. (part2).  Subdivided vertices appear in the column-major order
of their source edges; the endline pendant of vertex v is n+v.

Each transform is read off G's rows in one pass.  In S(G) original vertex
v's row is the mask of the subdivision vertices n + k of its edges, and n + k's
the mask of edge k's two ends.  C(G) adds v's non-neighbours to v's row.  Row
k of L(G) holds the edges sharing an end with edge k, and M(G) adds it, shifted
by n, to n + k's row.  G+ adds pendant n + v to v's row.  No row is re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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


def _incidence(g: Graph, line: bool) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """g's edges, each vertex's mask of its edges and, if ``line``, L(G)'s rows."""
    edges = g.edges()
    at = [0] * g.n
    for k, (u, v) in enumerate(edges):
        at[u] |= 1 << k
        at[v] |= 1 << k
    return edges, at, [(at[u] | at[v]) & ~(1 << k) if line else 0 for k, (u, v) in enumerate(edges)]


def _subdivided(g: Graph, joins: Sequence[int] = (), line: bool = False) -> TaggedGraph:
    """S(G), plus ``joins[v]`` on v's row and, if ``line``, M(G)'s edges."""
    n = g.n
    edges, at, links = _incidence(g, line)
    rows = [row << n | extra for row, extra in zip(at, joins or [0] * n)]
    rows += [1 << u | 1 << v | link << n for (u, v), link in zip(edges, links)]
    origin: dict[int, tuple[int, int] | int] = {n + k: e for k, e in enumerate(edges)}
    return TaggedGraph(Graph._unchecked(len(rows), tuple(rows)), g, tuple(range(n)), tuple(origin), origin)


def subdivision(g: Graph) -> TaggedGraph:
    """Replace every edge {u, v} by a path u - w_{u,v} - v."""
    return _subdivided(g)


def central(g: Graph) -> TaggedGraph:
    """Subdivide every edge, then join every non-adjacent original pair."""
    full = (1 << g.n) - 1
    return _subdivided(g, [full & ~row & ~(1 << v) for v, row in enumerate(g.adj)])


def middle(g: Graph) -> TaggedGraph:
    """Subdivide every edge, then join subdivided vertices of adjacent edges."""
    return _subdivided(g, line=True)


def endline(g: Graph) -> TaggedGraph:
    """Attach one new pendant vertex to every original vertex."""
    n = g.n
    rows = tuple(row | 1 << (n + v) for v, row in enumerate(g.adj)) + tuple(1 << v for v in range(n))
    origin: dict[int, tuple[int, int] | int] = {n + v: v for v in range(n)}
    return TaggedGraph(Graph._unchecked(2 * n, rows), g, tuple(range(n)), tuple(range(n, 2 * n)), origin)


def line_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph plus the vertex labeling map: vertex k of the result stands
    for edge labels[k] of the input, adjacent to the edges sharing an end."""
    edges, _, rows = _incidence(g, True)
    return Graph._unchecked(len(edges), tuple(rows)), tuple(edges)


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
