"""Coloring containers and every property verifier the constructions rely on.

Colors are opaque positive integers; nothing here assumes palettes are
contiguous, since several constructions shift one part's palette past the
other's.  Verifiers raise ValueError on malformed input (coverage gaps,
non-partitions, maps that are not automorphisms) and reserve their boolean
result for the actual property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .autos import Permutation, _nontrivial_automorphism, is_automorphism
from .graphs import Graph, encode_graph6, iter_bits, parse_graph6

__all__ = [
    "TotalColoring",
    "TDCPartition",
    "color_profile",
    "is_proper",
    "is_avd_total",
    "is_tdc",
    "preserves",
    "is_distinguishing",
    "coloring_to_json",
    "coloring_from_json",
]


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"({u},{v}) is not an edge")
    return (u, v) if u < v else (v, u)


@dataclass
class TotalColoring:
    """Vertex and/or edge colors.  Either part may be absent (None).

    vertex_colors is indexed by vertex; edge_colors maps (u, v) with u < v.
    """

    vertex_colors: tuple[int, ...] | None = None
    edge_colors: dict[tuple[int, int], int] | None = None

    def __post_init__(self) -> None:
        if self.vertex_colors is not None:
            self.vertex_colors = tuple(self.vertex_colors)
            if any(c < 1 for c in self.vertex_colors):
                raise ValueError("vertex colors must be positive")
        if self.edge_colors is not None:
            fixed = {}
            for (u, v), c in self.edge_colors.items():
                if c < 1:
                    raise ValueError("edge colors must be positive")
                fixed[_normalize_edge(u, v)] = c
            self.edge_colors = fixed

    def edge(self, u: int, v: int) -> int:
        assert self.edge_colors is not None
        return self.edge_colors[_normalize_edge(u, v)]

    def palette(self) -> set[int]:
        used: set[int] = set()
        if self.vertex_colors is not None:
            used.update(self.vertex_colors)
        if self.edge_colors is not None:
            used.update(self.edge_colors.values())
        return used

    def palette_size(self) -> int:
        return len(self.palette())

    @staticmethod
    def from_sequences(
        g: Graph,
        vertex_colors: Sequence[int] | None,
        edge_colors_by_index: Sequence[int] | None,
    ) -> "TotalColoring":
        """Build from colors aligned with 0..n-1 and with g.edges() order."""
        edge_map = None
        if edge_colors_by_index is not None:
            edges = g.edges()
            if len(edge_colors_by_index) != len(edges):
                raise ValueError("edge color sequence length differs from edge count")
            edge_map = {e: c for e, c in zip(edges, edge_colors_by_index)}
        vc = tuple(vertex_colors) if vertex_colors is not None else None
        return TotalColoring(vc, edge_map)


@dataclass
class TDCPartition:
    """Ordered color classes; class k induces vertex color k+1."""

    classes: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        self.classes = tuple(frozenset(c) for c in self.classes)

    def vertex_colors(self, n: int) -> tuple[int, ...]:
        colors = [0] * n
        for k, cls in enumerate(self.classes):
            for v in cls:
                if not 0 <= v < n:
                    raise ValueError(f"class {k + 1} contains non-vertex {v}")
                colors[v] = k + 1
        if 0 in colors:
            missing = [v for v, c in enumerate(colors) if c == 0]
            raise ValueError(f"classes do not cover vertices {missing}")
        return tuple(colors)

    def to_json(self) -> dict:
        return {"classes": [sorted(c) for c in self.classes]}


def _require_vertex_cover(g: Graph, f: TotalColoring) -> tuple[int, ...]:
    if f.vertex_colors is None or len(f.vertex_colors) != g.n:
        have = 0 if f.vertex_colors is None else len(f.vertex_colors)
        raise ValueError(f"vertex colors cover {have} of {g.n} vertices")
    return f.vertex_colors


def _require_edge_cover(g: Graph, f: TotalColoring) -> dict[tuple[int, int], int]:
    edges = g.edges()
    if f.edge_colors is None:
        raise ValueError(f"edge colors missing for all {len(edges)} edges")
    missing = [e for e in edges if e not in f.edge_colors]
    if missing:
        raise ValueError(f"edge colors missing for {missing[:5]}")
    if len(f.edge_colors) > len(edges):
        edge_set = set(edges)
        extra = [e for e in f.edge_colors if e not in edge_set]
        raise ValueError(f"edge colors given for non-edges {extra[:5]}")
    return f.edge_colors


def is_proper(g: Graph, f: TotalColoring, kind: str) -> bool:
    """Properness of a vertex, edge, or total coloring."""
    if kind not in ("vertex", "edge", "total"):
        raise ValueError(f"unknown properness kind {kind!r}")
    if kind in ("vertex", "total"):
        vc = _require_vertex_cover(g, f)
        for u, v in g.edges():
            if vc[u] == vc[v]:
                return False
    if kind in ("edge", "total"):
        ec = _require_edge_cover(g, f)
        for v in range(g.n):
            seen: set[int] = set()
            for u in iter_bits(g.adj[v]):
                c = ec[_normalize_edge(u, v)]
                if c in seen:
                    return False
                seen.add(c)
    if kind == "total":
        for (u, v), c in ec.items():
            if c == vc[u] or c == vc[v]:
                return False
    return True


def color_profile(g: Graph, f: TotalColoring, v: int) -> frozenset[int]:
    """The vertex's color together with its incident edge colors."""
    vc = _require_vertex_cover(g, f)
    ec = _require_edge_cover(g, f)
    return frozenset([vc[v]] + [ec[_normalize_edge(u, v)] for u in iter_bits(g.adj[v])])


def is_avd_total(g: Graph, f: TotalColoring) -> bool:
    """Proper total and adjacent vertices have distinct color profiles."""
    if not is_proper(g, f, "total"):
        raise ValueError("coloring is not proper total")
    # is_proper has checked that the edge colors cover exactly g's edges, so
    # one pass over them builds every profile.
    assert f.vertex_colors is not None and f.edge_colors is not None
    profiles = [{c} for c in f.vertex_colors]
    for (u, v), c in f.edge_colors.items():
        profiles[u].add(c)
        profiles[v].add(c)
    for u, v in f.edge_colors:
        if profiles[u] == profiles[v]:
            return False
    return True


def is_tdc(g: Graph, p: TDCPartition) -> bool:
    """Every vertex is adjacent to all of some (nonempty) class.

    Raises if the classes are not a partition of the vertices or if the
    induced coloring is improper.
    """
    if any(not cls for cls in p.classes):
        raise ValueError("empty color class")
    colors = p.vertex_colors(g.n)
    seen: set[int] = set()
    for cls in p.classes:
        if seen & cls:
            raise ValueError("classes overlap")
        seen |= cls
    for u, v in g.edges():
        if colors[u] == colors[v]:
            raise ValueError(f"class {colors[u]} is not independent: edge ({u},{v})")
    masks = [sum(1 << v for v in cls) for cls in p.classes]
    for v in range(g.n):
        if not any(mask and mask & g.adj[v] == mask for mask in masks):
            return False
    return True


def preserves(phi: Permutation, g: Graph, f: TotalColoring) -> bool:
    """Whether phi keeps every colored element's color."""
    if not is_automorphism(g, phi):
        raise ValueError("phi is not an automorphism of the graph")
    if f.vertex_colors is not None:
        vc = _require_vertex_cover(g, f)
        if any(vc[phi[v]] != vc[v] for v in range(g.n)):
            return False
    if f.edge_colors is not None:
        ec = _require_edge_cover(g, f)
        for (u, v), c in ec.items():
            if ec[_normalize_edge(phi[u], phi[v])] != c:
                return False
    return True


def _ranks(values: Sequence[int]) -> list[int]:
    """Each value's rank among the distinct values."""
    rank = {x: i for i, x in enumerate(sorted(set(values)))}
    return [rank[x] for x in values]


def is_distinguishing(g: Graph, f: TotalColoring, kind: str) -> bool:
    """True iff only the identity automorphism preserves the coloring.

    `kind` selects which part matters: "vertex", "edge", or "total".  One
    colored search of g itself decides it, up to the first automorphism
    other than the identity: the vertex colors are its starting coloring and
    the edge colors label its edges, and it finds only maps that keep both.
    No group is enumerated, so no group order is too large; the search is
    held to the node budget and raises BudgetExceededError past it.
    """
    if kind == "vertex":
        view = TotalColoring(_require_vertex_cover(g, f), None)
    elif kind == "edge":
        view = TotalColoring(None, dict(_require_edge_cover(g, f)))
    elif kind == "total":
        view = TotalColoring(_require_vertex_cover(g, f), dict(_require_edge_cover(g, f)))
    else:
        raise ValueError(f"unknown distinguishing kind {kind!r}")
    vc, ec = view.vertex_colors, view.edge_colors
    colors = _ranks(vc) if vc else [0] * g.n
    labels = None if ec is None else _ranks([ec[e] for e in g.edges()])
    psi = _nontrivial_automorphism(g, colors, labels)
    if psi is None:
        return True
    if not preserves(psi, g, view):
        raise AssertionError("the colored search found a map that moves a color")
    return False


# --- JSON ---------------------------------------------------------------


def coloring_to_json(g: Graph, f: TotalColoring) -> dict:
    return {
        "graph6": encode_graph6(g),
        "vertex_colors": list(f.vertex_colors) if f.vertex_colors is not None else None,
        "edge_colors": (
            sorted([u, v, c] for (u, v), c in f.edge_colors.items())
            if f.edge_colors is not None
            else None
        ),
    }


def coloring_from_json(doc: dict) -> tuple[Graph, TotalColoring]:
    g = parse_graph6(doc["graph6"])
    vc = doc.get("vertex_colors")
    ec_rows: Iterable[Sequence[int]] | None = doc.get("edge_colors")
    ec = {(u, v): c for u, v, c in ec_rows} if ec_rows is not None else None
    return g, TotalColoring(tuple(vc) if vc is not None else None, ec)
