"""Coloring and partition constructions, each returning its promised bound.

Every public operation re-checks its own output with the matching verifier
(properness, AVD, total domination, or one colored search for the
distinguishing property) before returning.  A verifier rejection raises
ConstructionDefectError instead of returning a bad object.  The final checks
of every construction are the rows of one table, ``FINAL_CHECKS``, over the
properties of ``PROPERTIES``, which ``symcol verify`` checks too.

Constructions 3.2, 3.4 and 3.6 ask no oracle: each builds its coloring from
a breadth-first search of the base graph, or from a fixed pattern on a cycle,
so its final check is its one search.  3.2 layers the graph breadth-first
from vertex 0 and gives each vertex's edges down to the next layer distinct
(parent half, child half) pairs of colors, with (1, 1) at vertex 0 alone; it
orients a complete graph or a cycle along a vertex order.  Nor does 4.9,
which walks a path or a cycle with a fixed pattern and otherwise gives every
original vertex the color after the edge coloring's.  Nor do the total
colorings of central graphs that an idempotent commutative Latin square
drives: the one within n + 1 colors of ``total_coloring_central`` (the sweep
check tcc-central), 4.5, which at even order lays the square's symbol n + 1
on a perfect matching, and 5.1.  5.5 takes its parts' colorings as
arguments, and ``_central_part_coloring`` makes them from the same square.
No construction here asks an exact oracle.

All tie-breaking is deterministic: "any color" picks the minimum available,
pair codes are assigned to children in label order, and roots or special
vertices are the smallest labels satisfying their defining property.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .autos import automorphisms, vertex_orbits
from .colorings import (
    TDCPartition,
    TotalColoring,
    is_avd_total,
    is_distinguishing,
    is_proper,
    is_tdc,
)
from .errors import ConstructionDefectError, NotApplicableError
from .graphs import Graph, iter_bits, join
from .latin import icls
from .transforms import (
    TaggedGraph,
    central,
    endline,
    middle,
    middle_to_line_of_endline,
    subdivision,
)

__all__ = [
    "PROPERTIES",
    "FINAL_CHECKS",
    "ConstructionResult",
    "EndlineColoring",
    "bipartite_edge_coloring",
    "list_edge_coloring_bipartite",
    "dist_edge_coloring_central",
    "dist_vertex_coloring_central",
    "dist_edge_coloring_endline",
    "dist_vertex_coloring_middle",
    "total_coloring_central",
    "total_dist_coloring_central_regular",
    "total_dist_coloring_subdivision",
    "avd_coloring_central_regular",
    "avd_coloring_subdivision",
    "avd_coloring_central_join",
    "tdc_central",
    "tdc_central_tree",
    "tdc_to_complement",
]

@dataclass(frozen=True)
class ConstructionResult:
    """A coloring, the size of the palette it used, and the promised bound.

    ``tag`` is the stable identifier also accepted by the command line's
    construct subcommand.  ``graph`` is the (transformed) graph the coloring
    lives on.
    """

    graph: Graph
    coloring: TotalColoring
    palette_size: int
    promised_bound: int
    tag: str
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.palette_size > self.promised_bound:
            raise ConstructionDefectError(
                f"palette of {self.palette_size} colors exceeds the promised "
                f"bound {self.promised_bound}"
            )

    def to_json(self) -> dict:
        from .colorings import coloring_to_json

        doc = coloring_to_json(self.graph, self.coloring)
        doc.update(
            {
                "palette_size": self.palette_size,
                "promised_bound": self.promised_bound,
                "tag": self.tag,
                "notes": list(self.notes),
            }
        )
        return doc


@dataclass(frozen=True)
class EndlineColoring:
    """Edge coloring of an endline graph extended from a base coloring."""

    plus: TaggedGraph
    coloring: TotalColoring
    distinguishing: bool


def _dist_kind(f: TotalColoring) -> str:
    """The distinguishing kind a coloring's parts select."""
    if f.vertex_colors is not None and f.edge_colors is not None:
        return "total"
    return "vertex" if f.vertex_colors is not None else "edge"


# The verifier of each property a result can be checked for, by its name in
# ``symcol verify --property``.  Each looks its verifier up in this module
# when called, so a verifier rebound here is the one every check runs.
PROPERTIES = {
    "proper-total": lambda g, f: is_proper(g, f, "total"),
    "avd": lambda g, f: is_avd_total(g, f),
    "tdc": lambda g, p: is_tdc(g, p),
    "distinguishing": lambda g, f: is_distinguishing(g, f, _dist_kind(f)),
}

# Each construction's final checks, by tag, in order: a property its result
# must have, and the defect reported when it does not.
FINAL_CHECKS = {
    "3.2": (("distinguishing", "central edge coloring is preserved by a nontrivial automorphism"),),
    "3.4": (("distinguishing", "lifted vertex coloring is preserved by a nontrivial automorphism"),),
    "3.6": (
        ("distinguishing", "middle-graph vertex coloring is preserved by a nontrivial automorphism"),
    ),
    "4.5": (
        ("proper-total", "total coloring is not proper"),
        ("distinguishing", "total coloring is preserved by a nontrivial automorphism"),
    ),
    "4.9": (
        ("proper-total", "subdivision total coloring is not proper"),
        ("distinguishing", "subdivision total coloring is preserved by a nontrivial automorphism"),
    ),
    "5.1": (("avd", "square-driven coloring is not AVD"),),
    "5.3": (("avd", "subdivision coloring is not AVD"),),
    "5.5": (("avd", "join coloring is not AVD"),),
    "6.1": (("tdc", "complement partition is not total dominating"),),
    "6.2": (("tdc", "central partition is not total dominating"),),
    "appendix-tree": (("tdc", "tree partition is not total dominating"),),
    "tcc-central": (("proper-total", "central total coloring is not proper"),),
}


def _final_check(tag: str, g: Graph, result: TotalColoring | TDCPartition) -> None:
    """Raise the defect of the first of ``tag``'s final checks that ``result``
    on g fails."""
    for prop, defect in FINAL_CHECKS[tag]:
        if not PROPERTIES[prop](g, result):
            raise ConstructionDefectError(defect)


# --- bipartite edge colorings ------------------------------------------------


def _require_bipartite(g: Graph) -> tuple[int, int]:
    sides = g.is_bipartite()
    if sides is None:
        raise NotApplicableError("graph is not bipartite")
    return sides


def bipartite_edge_coloring(g: Graph) -> TotalColoring:
    """Proper edge coloring of a bipartite graph with exactly max-degree colors.

    Classic augmenting construction: each edge takes a color free at both
    ends, otherwise the two-color alternating path from one end is flipped to
    make one.
    """
    _require_bipartite(g)
    delta = g.max_degree()
    at: list[dict[int, int]] = [{} for _ in range(g.n)]  # vertex -> color -> neighbor
    out: dict[tuple[int, int], int] = {}

    def free(v: int) -> int:
        for c in range(1, delta + 1):
            if c not in at[v]:
                return c
        raise ConstructionDefectError(f"no free color at vertex {v}")

    for u, v in g.edges():
        a, b = free(u), free(v)
        if a != b and a in at[v]:
            # Flip colors a and b along the alternating path starting at v.
            # The path cannot reach u: u has no a-edge, and parity puts u on
            # the wrong side for every b-edge arrival.
            path = [v]
            want = a
            while want in at[path[-1]]:
                path.append(at[path[-1]][want])
                want = b if want == a else a
            steps = list(zip(path, path[1:]))
            for i, (x, y) in enumerate(steps):
                old = a if i % 2 == 0 else b
                del at[x][old]
                del at[y][old]
            for i, (x, y) in enumerate(steps):
                new = b if i % 2 == 0 else a
                at[x][new] = y
                at[y][new] = x
                out[(x, y) if x < y else (y, x)] = new
        at[u][a] = v
        at[v][a] = u
        out[(u, v)] = a

    f = TotalColoring(None, out)
    if g.edge_count() and (not is_proper(g, f, "edge") or len(f.palette()) != delta):
        raise ConstructionDefectError("edge coloring failed its own properness check")
    return f


def _normalize_lists(
    g: Graph, lists: Mapping[tuple[int, int], Iterable[int]]
) -> dict[tuple[int, int], set[int]]:
    out = {}
    for e in g.edges():
        key = e if e in lists else (e[1], e[0])
        if key not in lists:
            raise ValueError(f"no color list supplied for edge {e}")
        out[e] = set(lists[key])
    return out


def list_edge_coloring_bipartite(
    g: Graph, lists: Mapping[tuple[int, int], Iterable[int]]
) -> TotalColoring:
    """Proper edge coloring choosing each color from that edge's list.

    Kernel method: a reference max-degree coloring orients every conflict, and
    for each candidate color a stable matching of the edges still wanting it
    is colored.  Stability is exactly the property that every passed-over edge
    loses the color to a dominating neighbor, so lists of size at least the
    maximum degree never run dry.

    Lists need only max(d(u), d(v)) colors on each edge uv: every bipartite
    graph is colorable from such lists (Borodin, Kostochka & Woodall, J.
    Combin. Theory Ser. B 71, 1997).  The orientation above bounds an edge's
    dominating neighbors by the maximum degree only, so for shorter lists the
    guard is this function's own check: an edge left with no list color, or
    a coloring that is not proper, raises ConstructionDefectError.
    """
    side_a, _ = _require_bipartite(g)
    lmap = _normalize_lists(g, lists)
    for (u, v), colors in lmap.items():
        need = max(g.degree(u), g.degree(v))
        if len(colors) < need:
            raise ValueError(
                f"list for edge {(u, v)} has {len(colors)} colors, below its degree bound {need}"
            )
    if not lmap:
        return TotalColoring(None, {})
    phi = bipartite_edge_coloring(g).edge_colors
    assert phi is not None

    remaining = set(lmap)
    out: dict[tuple[int, int], int] = {}
    while remaining:
        palette = set().union(*(lmap[e] for e in remaining))
        if not palette:
            raise ConstructionDefectError("an uncolored edge ran out of list colors")
        c = min(palette)
        field_edges = [e for e in remaining if c in lmap[e]]
        kernel = _stable_edge_matching(field_edges, phi, side_a)
        touched = {v for e in kernel for v in e}
        for e in kernel:
            out[e] = c
            remaining.discard(e)
        for e in remaining:
            if e[0] in touched or e[1] in touched:
                lmap[e].discard(c)

    f = TotalColoring(None, out)
    if not is_proper(g, f, "edge"):
        raise ConstructionDefectError("list edge coloring failed its properness check")
    return f


def _stable_edge_matching(
    edges: list[tuple[int, int]],
    phi: Mapping[tuple[int, int], int],
    side_a: int,
) -> list[tuple[int, int]]:
    """Stable matching of edges: one side prefers high reference colors, the
    other low, so every unmatched edge is beaten at a shared endpoint."""
    a_of = {}
    for e in edges:
        u, v = e
        a_of[e] = u if side_a >> u & 1 else v
    alive = set(edges)
    while True:
        proposals: dict[int, tuple[int, int]] = {}
        by_a: dict[int, list[tuple[int, int]]] = {}
        for e in alive:
            by_a.setdefault(a_of[e], []).append(e)
        for a, cand in by_a.items():
            e = max(cand, key=lambda x: phi[x])
            b = e[0] if e[1] == a else e[1]
            prev = proposals.get(b)
            if prev is None or phi[e] < phi[prev]:
                proposals[b] = e
        chosen = set(proposals.values())
        rejected = {
            e
            for a, cand in by_a.items()
            for e in [max(cand, key=lambda x: phi[x])]
            if e not in chosen
        }
        if not rejected:
            return sorted(chosen)
        alive -= rejected


# --- distinguishing edge colorings of central graphs -------------------------


def _sqrt_ceil(x: int) -> int:
    return math.isqrt(x - 1) + 1 if x > 1 else 1


def _write_pair(
    ec: dict[tuple[int, int], int],
    cent: TaggedGraph,
    v: int,
    u: int,
    pair: tuple[int, int],
) -> None:
    w = cent.subdivided(v, u)
    ec[(min(v, w), max(v, w))] = pair[0]
    ec[(min(u, w), max(u, w))] = pair[1]


def _central_edges_bfs(g: Graph, cent: TaggedGraph, k: int) -> dict[tuple[int, int], int]:
    """Case of a connected graph neither complete nor a cycle, within k =
    max(2, ⌈√Δ⌉) colors, after the breadth-first pair argument of
    Kalinowski, Pilśniak & Woźniak (Ars Math. Contemp. 11, 2016).

    Each edge vu of G is two edges v–w and w–u of C(G), at its subdividing
    vertex w.  The pairs (p, q) over 1..k are taken by (max(p, q), (p, q)),
    so (1, 1) comes first.  With distances from 0, each vertex v gives its
    down-edges vu (u one step farther from 0), in neighbor order, the next
    pairs: p on v–w and q on u–w.  The root takes pairs from the whole
    list, so its edge to a = min N(0) reads (1, 1); every other vertex
    skips (1, 1).  Every other half-edge, and every complement edge at 0,
    gets 2; the other complement edges get 1.

    Why this distinguishes: for n ≥ 4 the original vertices (degree n − 1
    ≥ 3) are told from the subdividing ones (degree 2), so Aut(C(G)) acts
    as Aut(G).  {0, a} is the only edge of G whose two halves are both 1,
    so a color-keeping automorphism maps {0, a} to itself.  If deg a ≠
    deg 0, the degrees keep 0 and a apart.  Otherwise, if 0 is not
    universal, its n − 1 − deg 0 complement edges colored 2 do, since a
    has none.  Otherwise a is universal too, and it reads (2, 2) on its
    n − 2 ≥ 2 edges inside the first layer, while 0 reads (2, 2) on at
    most one of its edges.  With 0 fixed, distances are kept, and each
    vertex's down-edges carry distinct ordered pairs, so induction on
    distance fixes every vertex.  The pairs cannot run out: the root
    needs at most Δ ≤ k² of them, and any other vertex at most Δ − 1 ≤
    k² − 1.
    """
    pairs = sorted(itertools.product(range(1, k + 1), repeat=2), key=lambda p: (max(p), p))
    dist, _ = g.bfs(0)
    ec: dict[tuple[int, int], int] = {}
    for v in range(g.n):
        down = [u for u in g.neighbors(v) if dist[u] == dist[v] + 1]
        for u, pair in zip(down, pairs if v == 0 else pairs[1:]):
            _write_pair(ec, cent, v, u, pair)
    for e in cent.graph.edges():
        ec.setdefault(e, 2 if e[0] == 0 or e[1] >= g.n else 1)
    return ec


def _central_edges_oriented(g: Graph, cent: TaggedGraph) -> dict[tuple[int, int], int]:
    """Case of a complete graph or a cycle: orient each edge {a, b} from the
    earlier end a to the later end b in a vertex order, and color aw 1 and
    bw 2 at its subdividing vertex w; complement edges get 1.

    A color-preserving automorphism keeps the orientation, since the
    original vertices (degree n-1 >= 3) are told from the subdividing ones
    (degree 2).  On K_n the order is the labels, and a transitive tournament
    has no automorphism but the identity.  On C_n it walks from 0 to its
    smaller neighbor and on around the cycle, so 0 is the only source and
    its other neighbor the only sink; a rotation or reflection fixing two
    adjacent vertices is the identity.  (Ordering by label alone can leave
    two sources that a reflection swaps.)
    """
    if g.is_complete():
        order = list(range(g.n))
    else:
        order = [0, min(g.neighbors(0))]
        while len(order) < g.n:
            order.append(next(u for u in g.neighbors(order[-1]) if u != order[-2]))
    place = {v: i for i, v in enumerate(order)}
    ec: dict[tuple[int, int], int] = {}
    for a, b in g.edges():
        if place[a] > place[b]:
            a, b = b, a
        _write_pair(ec, cent, a, b, (1, 2))
    for e in cent.graph.edges():
        ec.setdefault(e, 1)
    return ec


def dist_edge_coloring_central(g: Graph) -> ConstructionResult:
    """Distinguishing edge coloring of the central graph, within ceil(sqrt(max degree)) colors."""
    if g.n < 4 or not g.is_connected():
        raise NotApplicableError("requires a connected graph of order at least 4")
    cent = central(g)
    k = max(2, _sqrt_ceil(g.max_degree()))
    if g.is_complete() or g.is_cycle():
        ec = _central_edges_oriented(g, cent)
        note = "complete-or-cycle case oriented with one source and one sink"
    else:
        ec = _central_edges_bfs(g, cent, k)
        note = "breadth-first pairs from vertex 0; complement edges at 0 colored 2"
    coloring = TotalColoring(None, ec)
    _final_check("3.2", cent.graph, coloring)
    return ConstructionResult(
        cent.graph, coloring, len(coloring.palette()), k, "3.2", (note,)
    )


def _marked_bfs_total_coloring(g: Graph, k: int) -> TotalColoring:
    """Total coloring of a connected graph of order at least 4 within k =
    ⌈√Δ⌉ colors, after Kalinowski, Pilśniak & Woźniak (Ars Math. Contemp.
    11, 2016), who prove D″(G) ≤ ⌈√Δ⌉.

    A cycle colors vertex 0 and edge {0, min N(0)} 2 and the rest 1.
    Otherwise r is the first max-degree vertex with a neighbor a of lower
    degree, or else with a neighbor a sharing a neighbor x with r, or else
    (regular and triangle-free) the first vertex, with a its last neighbor.
    r, a and ra are colored 1.  Taking vertices by (distance from r, label),
    each vertex v gives its children (the down-neighbors whose
    smallest-label neighbor in v's layer is v) distinct (edge color, child
    color) pairs in lexicographic order, from the k² pairs less those of
    v's other down-neighbors and less (1, 1) when v is colored 1; r's
    children put x first.  A non-root vertex has at most Δ − 1
    down-neighbors, so the pairs never run out.  Every other edge gets 1,
    or 2 when both its ends are colored 1, so ra is the only edge colored 1
    with both its ends.

    Why this distinguishes: an automorphism keeping the colors maps {r, a}
    to itself, and swapping them needs a's multiset of (edge color,
    neighbor color) pairs to equal r's Δ distinct pairs.  When they agree,
    ax is recolored 2, or else a (the last vertex of its layer) recolors
    its first non-tree down edge from 1 to 2 where that matches no child's
    pair, or else moves its last child to the next free pair.  With r
    fixed, each child's pair, unique among its parent's down-neighbors,
    fixes it, layer by layer.  A regular triangle-free graph on which
    neither repair applies is not covered; 3.4's final check is its guard.
    """
    adj = g.adj
    vc = [1] * g.n
    ec = dict.fromkeys(g.edges(), 1)
    if g.is_cycle():
        vc[0] = ec[(0, g.neighbors(0)[0])] = 2
        return TotalColoring(tuple(vc), ec)

    def key(v: int, u: int) -> tuple[int, int]:
        return (v, u) if v < u else (u, v)

    def profile(v: int) -> list[tuple[int, int]]:
        return sorted((ec[key(v, u)], vc[u]) for u in iter_bits(adj[v]))

    delta = g.max_degree()
    tops = [v for v in range(g.n) if adj[v].bit_count() == delta]
    r, a = next(
        ((v, u) for v in tops for u in iter_bits(adj[v]) if adj[u].bit_count() < delta),
        None,
    ) or next(
        ((v, u) for v in tops for u in iter_bits(adj[v]) if adj[u] & adj[v]),
        (tops[0], adj[tops[0]].bit_length() - 1),
    )
    common = adj[r] & adj[a] if adj[a].bit_count() == delta else 0
    x = (common & -common).bit_length() - 1  # -1 unless r and a share a neighbor
    dist, _ = g.bfs(r)
    layers = [0] * (max(dist) + 2)
    for v in range(g.n):
        layers[dist[v]] |= 1 << v
    pairs = [(e, c) for e in range(1, k + 1) for c in range(1, k + 1)]
    for v in sorted(range(g.n), key=lambda v: (dist[v], v)):
        d = dist[v]
        kids, taken = [], {(1, 1)} if vc[v] == 1 else set()
        for u in iter_bits(adj[v] & (layers[d] | layers[d + 1])):
            up = adj[u] & layers[d]
            if dist[u] > d and up & -up == 1 << v:
                kids.append(u)
                continue
            if vc[u] == vc[v] == 1:
                ec[key(v, u)] = 2
            if dist[u] > d:
                taken.add((ec[key(v, u)], vc[u]))
        if v == r:
            kids = [u for u in kids if u == x] + [u for u in kids if u not in (a, x)]
        free = [p for p in pairs if p not in taken]
        for u, (e, c) in zip(kids, free):
            ec[key(v, u)], vc[u] = e, c
        if v != adj[r].bit_length() - 1 or profile(a) != profile(r):
            continue
        # r's layer is done, and a's pairs match r's: repair a.
        if x >= 0:
            ec[key(a, x)] = 2
            continue
        # v is a here, and no neighbor of a lies in its layer.
        u = next((u for u in iter_bits(adj[a] & layers[2]) if u not in kids
                  and vc[u] != 1 and (2, vc[u]) not in free[: len(kids)]), None)
        if u is not None:
            ec[key(a, u)] = 2
        elif kids and len(free) > len(kids):
            ec[key(a, kids[-1])], vc[kids[-1]] = free[len(kids)]
    return TotalColoring(tuple(vc), ec)


def dist_vertex_coloring_central(g: Graph) -> ConstructionResult:
    """Distinguishing vertex coloring of the central graph within
    ⌈√Δ⌉ colors, lifted from a marked breadth-first total coloring of the
    base graph: its vertex colors, then its edge colors in ``g.edges()``
    order.  No oracle is asked."""
    if g.n < 4 or not g.is_connected():
        raise NotApplicableError("requires a connected graph of order at least 4")
    k = _sqrt_ceil(g.max_degree())
    f = _marked_bfs_total_coloring(g, k)
    assert f.vertex_colors is not None and f.edge_colors is not None
    vc = list(f.vertex_colors)
    for e in g.edges():
        vc.append(f.edge_colors[e])
    cent = central(g)
    coloring = TotalColoring(tuple(vc), None)
    _final_check("3.4", cent.graph, coloring)
    return ConstructionResult(
        cent.graph, coloring, len(coloring.palette()), k, "3.4",
        ("lift of a marked breadth-first total coloring",),
    )


# --- endline and middle graphs ------------------------------------------------


def _endline_edge_colors(g: Graph, coloring: TotalColoring) -> dict[tuple[int, int], int]:
    """The edge colors of ``coloring``, and color 1 on each pendant edge (v, n+v) of G+."""
    ec = dict(coloring.edge_colors or {})
    for v in range(g.n):
        ec[(v, g.n + v)] = 1
    return ec


def dist_edge_coloring_endline(g: Graph, coloring: TotalColoring) -> EndlineColoring:
    """Extend a distinguishing edge coloring to the endline graph by coloring
    every pendant edge 1."""
    if g.edge_count() and not is_distinguishing(g, coloring, "edge"):
        raise ValueError("input edge coloring is not distinguishing for the base graph")
    if not g.edge_count() and automorphisms(g).order > 1:
        raise ValueError("input edge coloring is not distinguishing for the base graph")
    plus = endline(g)
    extended = TotalColoring(None, _endline_edge_colors(g, coloring))
    ok = is_distinguishing(plus.graph, extended, "edge")
    return EndlineColoring(plus, extended, ok)


def _marked_bfs_edge_coloring(g: Graph) -> TotalColoring:
    """Edge coloring of a connected graph of order at least 3, not a cycle,
    within max(2, Δ) colors, after Kalinowski & Pilśniak (Europ. J. Combin.
    45, 2015), who prove D′(G) ≤ Δ for connected G other than C3, C4, C5.

    A path colors the edge at its smallest-label end 2 and every other edge
    1.  For Δ ≥ 3 the root r is the first max-degree vertex with a neighbor
    of degree below Δ, or with a neighbor that shares a neighbor with r, and
    a is the first such neighbor.  Edge ra gets 1.  The other edges at r,
    and each other vertex's edges down to the next breadth-first layer from
    r, get 2, 3, ... in neighbor order.  Every edge inside a layer gets 2.

    Why this distinguishes: ra is the only edge colored 1, so an
    automorphism that keeps the colors maps {r, a} to itself.  r sees each
    of the Δ colors exactly once, while a has degree below Δ or repeats
    color 2, so r is fixed.  Distances from r are then kept, and each
    vertex's down edges carry distinct colors, so induction on distance
    fixes every vertex.

    Only a regular triangle-free graph has no max-degree vertex with such a
    neighbor, since in a connected non-regular graph some max-degree vertex
    has a neighbor of lower degree.  r is then the first max-degree vertex
    and a its first neighbor, and the argument does not cover the result.
    At orders 6-8 these are 4 graphs: K3,3, K4,4, the cube and the Wagner
    graph.  They all verify, and 3.6's final check on the middle graph is
    the guard for them and for every larger one.
    """
    delta = g.max_degree()
    ec = dict.fromkeys(g.edges(), 1)
    if delta == 2:
        end = next(v for v in range(g.n) if g.degree(v) == 1)
        (u,) = g.neighbors(end)
        ec[(min(end, u), max(end, u))] = 2
        return TotalColoring(None, ec)
    adj = g.adj
    tops = [v for v in range(g.n) if adj[v].bit_count() == delta]
    r, a = next(
        ((v, u) for v in tops for u in iter_bits(adj[v])
         if adj[u].bit_count() < delta or adj[u] & adj[v]),
        (tops[0], g.neighbors(tops[0])[0]),
    )
    dist, _ = g.bfs(r)
    for v in range(g.n):
        color = 2
        for u in iter_bits(adj[v]):
            if dist[u] == dist[v] + 1 and (v, u) != (r, a):
                ec[(v, u) if v < u else (u, v)] = color
                color += 1
            elif dist[u] == dist[v]:
                ec[(v, u) if v < u else (u, v)] = 2
    return TotalColoring(None, ec)


def dist_vertex_coloring_middle(g: Graph) -> ConstructionResult:
    """Distinguishing vertex coloring of the middle graph within max(2, Δ)
    colors, transported from a distinguishing edge coloring of the endline
    graph G+.  No oracle is asked: the edge coloring is a fixed pattern on a
    cycle and a marked breadth-first coloring otherwise."""
    if g.n < 3 or not g.is_connected():
        raise NotApplicableError("requires a connected graph of order at least 3")
    delta = g.max_degree()
    # G+'s edges in its own order: those of g, then the pendant edges {v, n+v}.
    plus_edges = g.edges() + [(v, g.n + v) for v in range(g.n)]
    if g.is_cycle():
        # The pendant edge of 0 and the cycle edge {0, min N(0)} mark vertex
        # 0 and a direction around the cycle.
        plus_ec = dict.fromkeys(plus_edges, 1)
        plus_ec[(0, g.n)] = plus_ec[(0, g.neighbors(0)[0])] = 2
        note = "cycle case settled on the endline graph by a fixed pattern"
    else:
        plus_ec = _endline_edge_colors(g, _marked_bfs_edge_coloring(g))
        note = "transported from a marked breadth-first edge coloring"
    mid = middle(g)
    # Vertex k of L(G+) is edge k of G+, so M(G) reads its colors off G+'s edges.
    vc = tuple(plus_ec[plus_edges[k]] for k in middle_to_line_of_endline(g))
    coloring = TotalColoring(vc, None)
    _final_check("3.6", mid.graph, coloring)
    return ConstructionResult(
        mid.graph, coloring, len(coloring.palette()), delta, "3.6", (note,)
    )


# --- square-driven total colorings of central graphs -------------------------


def _color_subdivision_vertices(
    tagged: TaggedGraph,
    ws: Iterable[int],
    vc: list[int],
    ec: Mapping[tuple[int, int], int],
    palette: int,
) -> None:
    """Give each subdivision vertex in ``ws`` the smallest color in
    1..palette that its two edges and two endpoints leave free."""
    for w in ws:
        a, b = tagged.origin[w]  # type: ignore[misc]
        blocked = {ec[(min(a, w), max(a, w))], ec[(min(b, w), max(b, w))], vc[a], vc[b]}
        vc[w] = min(c for c in range(1, palette + 1) if c not in blocked)


def _square_total_central(
    g: Graph, palette: int, rows: Sequence[int] | None = None
) -> tuple[TaggedGraph, tuple[int, ...], dict[tuple[int, int], int]]:
    """Total coloring of the central graph within ``palette`` colors, driven
    by the idempotent commutative Latin square of the largest odd order
    within the palette: the diagonal colors the original vertices,
    off-diagonal entries color the complement edges, and the subdivision
    edges are list colored from what is left of each row.  Vertex i takes
    row and column ``rows[i]``, i + 1 by default.

    Past the diagonal and the complement edges, row i has deg(i) entries of
    columns 1..n left, and an edge {i, w} of S(G) needs a list of
    max(deg(i), 2) colors, so only a leaf's row is short.  It gets one spare
    color that its first n columns do not hold: the fresh color ``palette``
    when the square is smaller, else its entry in a column past n.  Row k's
    colors miss its entries past column n; a leaf i with neighbor j whose
    edge takes the spare misses the other ones and L(i, j) instead, so of
    two columns the spare is the first that keeps those apart from the
    entries missed by each row k ∉ {i, j}.  The subdivision vertices then
    take colors within the palette.

    Given ``rows`` that put the cells of symbol n + 1 on edges of G, no
    complement edge wears n + 1, and each row's list swaps n + 1 for the
    spare, so the whole coloring keeps within n colors.
    """
    n = g.n
    order = (palette - 1) | 1
    if order < n:
        raise ValueError("the palette must hold a square of at least the graph order")
    square = icls((order + 1) // 2)
    at = rows or range(1, n + 1)
    cent = central(g)
    comp = g.complement()
    vc = [0] * cent.graph.n
    ec: dict[tuple[int, int], int] = {}
    for i in range(n):
        vc[i] = square.entry(at[i], at[i])
    for i, j in comp.edges():
        ec[(i, j)] = square.entry(at[i], at[j])
    beyond = [[square.entry(at[k], c) for c in range(n + 1, order + 1)] for k in range(n)]
    bip = subdivision(g).graph
    lists: dict[tuple[int, int], set[int]] = {}
    for i in range(n):
        leftover = {square.entry(at[i], at[j]) for j in iter_bits(g.adj[i])}
        spares = beyond[i] if order == palette else [palette]
        if rows and n + 1 in leftover:
            leftover = leftover - {n + 1} | {spares[0]}
        if len(leftover) == 1:
            (j,) = iter_bits(g.adj[i])
            others = {frozenset(beyond[k]) for k in range(n) if k not in (i, j)}
            keeps = [s for s in spares if set(beyond[i]) - {s} | leftover not in others]
            leftover.add((keeps or spares)[0])
        for w in bip.neighbors(i):
            lists[(i, w)] = leftover
    selected = list_edge_coloring_bipartite(bip, lists)
    assert selected.edge_colors is not None
    ec.update(selected.edge_colors)
    _color_subdivision_vertices(cent, range(n, cent.graph.n), vc, ec, palette)
    return cent, tuple(vc), ec


def _perfect_matching(g: Graph) -> list[int] | None:
    """Each vertex's mate in a perfect matching of g, or None when g has
    none, by Edmonds' blossom algorithm (Canad. J. Math. 17, 1965): each
    unmatched vertex grows an alternating tree breadth-first, shrinking the
    odd cycles it closes, until it reaches another unmatched vertex and
    flips the path between them.  A vertex that reaches none is left
    unmatched by every maximum matching."""
    n = g.n
    mate = [-1] * n

    def augment(root: int) -> bool:
        parent, base, outer, queue = [-1] * n, list(range(n)), {root}, [root]

        def climb(v: int) -> list[int]:
            path = [base[v]]
            while mate[path[-1]] >= 0:
                path.append(base[parent[mate[path[-1]]]])
            return path

        def mark(v: int, top: int, child: int, blossom: set[int]) -> None:
            while base[v] != top:
                blossom.update((base[v], base[mate[v]]))
                parent[v], child = child, mate[v]
                v = parent[child]

        for v in queue:
            for u in g.neighbors(v):
                if base[v] == base[u] or mate[v] == u:
                    continue
                if u == root or mate[u] >= 0 and parent[mate[u]] >= 0:
                    below, blossom = set(climb(v)), set()
                    top = next(b for b in climb(u) if b in below)
                    mark(v, top, u, blossom)
                    mark(u, top, v, blossom)
                    for x in range(n):
                        if base[x] in blossom:
                            base[x] = top
                            if x not in outer:
                                outer.add(x)
                                queue.append(x)
                elif parent[u] < 0:
                    parent[u] = v
                    if mate[u] < 0:
                        while u >= 0:  # flip the path from u back to the root
                            v, after = parent[u], mate[parent[u]]
                            mate[u], mate[v], u = v, u, after
                        return True
                    outer.add(mate[u])
                    queue.append(mate[u])
        return False

    return mate if all(mate[v] >= 0 or augment(v) for v in range(n)) else None


def total_coloring_central(g: Graph) -> ConstructionResult:
    """Proper total coloring of the central graph within two colors past its
    max degree, n + 1, from the square of order n or n + 1, whichever is odd.

    Applies to every graph but K2 + K1.  For n >= 4 a subdivision vertex
    sees at most 4 colors, so one of the n + 1 is free for it, and the
    square also colors every smaller graph but K2 + K1: its central graph is
    the 4-cycle, whose three original vertices the diagonal colors apart,
    and the subdivision vertex then sees all 4 colors.
    """
    if g.n == 3 and g.edge_count() == 1:
        raise NotApplicableError("K2 + K1 is not covered: its central graph is the 4-cycle")
    cent, vc, ec = _square_total_central(g, g.n + 1)
    coloring = TotalColoring(vc, ec)
    _final_check("tcc-central", cent.graph, coloring)
    return ConstructionResult(
        cent.graph, coloring, len(coloring.palette()), cent.graph.max_degree() + 2,
        "tcc-central", ("square-driven total coloring",),
    )


def total_dist_coloring_central_regular(g: Graph) -> ConstructionResult:
    """Total distinguishing chromatic coloring of the central graph of a
    connected regular graph, one more color than the central max degree.

    The square of order n or n + 1, whichever is odd, colors it as in
    ``_square_total_central``.  At even n a perfect matching of G takes the
    cells of symbol n + 1: pair t gets rows t and n + 1 - t, so n + 1 is
    left to no complement edge and is swapped out of every row's list.  A
    graph with no perfect matching is not covered.  The idempotent diagonal
    colors the original vertices apart, and Aut(C(G)) acts on them
    faithfully, so the coloring is distinguishing.
    """
    if not (g.is_connected() and g.is_regular() and g.n >= 5):
        raise NotApplicableError("requires a connected regular graph of order at least 5")
    n = g.n
    rows = list(range(1, n + 1))
    if n % 2 == 0:
        mate = _perfect_matching(g)
        if mate is None:
            raise NotApplicableError("an even-order graph needs a perfect matching")
        for t, v in enumerate((v for v in range(n) if v < mate[v]), 1):
            rows[v], rows[mate[v]] = t, n + 1 - t
    cent, vc, ec = _square_total_central(g, n + 1, rows)
    coloring = TotalColoring(vc, ec)
    _final_check("4.5", cent.graph, coloring)
    return ConstructionResult(
        cent.graph, coloring, len(coloring.palette()), n, "4.5",
        ("square-driven total coloring", "distinct diagonal pins every original vertex"),
    )


# --- total distinguishing colorings of subdivision graphs --------------------


def _walk_pattern_total(s: Graph) -> tuple[list[int], dict[tuple[int, int], int]]:
    """Proper total coloring of a path or a cycle, read off a walk through
    its vertices and edges alternately: from the smaller end of a path, or
    from vertex 0 of a cycle towards its smaller neighbor.

    A path repeats 1 2 3.  A cycle whose walk has length L repeats 1 2 3 4
    b times, b = L mod 3 (3 when 3 divides L), then 1 2 3; it needs L ≥ 4b.
    Any three elements in a row differ, also across the wrap, so the
    coloring is proper.  For L > 12 no rotation keeps the 4s, whose gaps
    are unequal or which are only one, and no reflection keeps the colors,
    because every 4 has a 3 before it and a 1 after it in walk order.
    """
    ends = [v for v in range(s.n) if s.degree(v) == 1]
    order = [min(ends) if ends else 0]
    prev = -1
    while len(order) < s.n:
        nxt = [u for u in s.neighbors(order[-1]) if u != prev]
        prev = order[-1]
        order.append(nxt[0])
    if ends:
        length, pattern = 2 * s.n - 1, [1, 2, 3] * s.n
    else:
        length = 2 * s.n
        blocks = length % 3 or 3
        pattern = [1, 2, 3, 4] * blocks + [1, 2, 3] * ((length - 4 * blocks) // 3)
    vc = [0] * s.n
    ec: dict[tuple[int, int], int] = {}
    for idx, v in enumerate(order):
        vc[v] = pattern[2 * idx]
        if 2 * idx + 1 < length:
            u = order[(idx + 1) % s.n]
            ec[(min(v, u), max(v, u))] = pattern[2 * idx + 1]
    return vc, ec


def total_dist_coloring_subdivision(g: Graph) -> ConstructionResult:
    """Total distinguishing chromatic coloring of the subdivision graph.

    No oracle is asked.  A subdivided cycle takes a fixed pattern within two
    colors past its max degree, which is exact: three colors force period 3
    around it, and a rotation keeps a period-3 coloring.  Otherwise, when
    some vertex of the base graph is fixed by its whole automorphism group,
    one color past the subdivision max degree suffices; when none is, the
    smallest original vertex is recolored with a fresh color, which pins it
    and then the proper edge coloring pins everything else.
    """
    if g.n < 5 or not g.is_connected():
        raise NotApplicableError("requires a connected graph of order at least 5")
    sub = subdivision(g)
    s = sub.graph
    delta = s.max_degree()
    if g.is_cycle():
        vc, ec = _walk_pattern_total(s)
        bound = delta + 2
        notes = ("cycle case settled by a fixed pattern that no rotation or reflection keeps",)
    else:
        if g.max_degree() == 2:
            # A non-cycle with max degree 2 is a path.  Under the rule below
            # its subdivision vertices would see all delta + 1 = 3 colors.
            vc, ec = _walk_pattern_total(s)
        else:
            # The edge coloring uses exactly the colors 1..delta, so every
            # original vertex takes delta + 1, and a subdivision vertex then
            # sees 3 colors of the delta + 1 >= 4.
            ec = bipartite_edge_coloring(s).edge_colors
            assert ec is not None
            vc = [delta + 1] * s.n
            _color_subdivision_vertices(sub, range(g.n, s.n), vc, ec, delta + 1)
        orbits = vertex_orbits(automorphisms(g).generators, g.n)
        if any(orbits.count(o) == 1 for o in set(orbits)):
            bound = delta + 1
            notes = ("a fixed base vertex makes any proper coloring distinguishing",)
        else:
            vc[0] = delta + 2
            bound = delta + 2
            notes = ("vertex 0 recolored with a fresh color to break symmetry",)
    coloring = TotalColoring(tuple(vc), ec)
    _final_check("4.9", s, coloring)
    return ConstructionResult(
        s, coloring, len(coloring.palette()), bound, "4.9", notes
    )


# --- AVD colorings ------------------------------------------------------------


def avd_coloring_central_regular(g: Graph) -> ConstructionResult:
    """AVD total coloring of the central graph of a connected regular graph:
    two extra colors past the central max degree for even orders, three for
    odd, driven by a larger square whose unused columns separate profiles."""
    if not (g.is_connected() and g.is_regular() and g.n >= 5):
        raise NotApplicableError(
            "requires a connected regular graph of order at least 5"
        )
    cent, vc, ec = _square_total_central(g, g.n + 2)
    coloring = TotalColoring(vc, ec)
    _final_check("5.1", cent.graph, coloring)
    bound = cent.graph.max_degree() + (2 if g.n % 2 == 0 else 3)
    return ConstructionResult(
        cent.graph, coloring, len(coloring.palette()), bound, "5.1",
        ("unused square columns separate adjacent profiles",),
    )


def avd_coloring_subdivision(g: Graph) -> ConstructionResult:
    """AVD total coloring of the subdivision graph with one color past the
    base max degree, for base max degree at least 5."""
    delta = g.max_degree()
    if not g.is_connected():
        raise NotApplicableError("requires a connected graph")
    if delta < 5:
        raise NotApplicableError(
            "requires max degree at least 5; below that only the general "
            "two-extra-colors bound is available and no construction is provided"
        )
    sub = subdivision(g)
    s = sub.graph
    edge_part = bipartite_edge_coloring(s)
    ec = dict(edge_part.edge_colors or {})
    vc = [0] * s.n
    for v in range(g.n):
        vc[v] = delta + 1
    for w in range(g.n, s.n):
        a, b = sub.origin[w]  # type: ignore[misc]
        blocked = {delta + 1, ec[(min(a, w), max(a, w))], ec[(min(b, w), max(b, w))]}
        for end in (a, b):
            if g.degree(end) == 2:
                other = next(x for x in g.neighbors(end) if {end, x} != {a, b})
                w2 = sub.subdivided(end, other)
                blocked.add(ec[(min(end, w2), max(end, w2))])
        room = [c for c in range(1, delta + 2) if c not in blocked]
        if not room:
            raise ConstructionDefectError(
                f"no admissible color at subdivision vertex {w}"
            )
        vc[w] = room[0]
    coloring = TotalColoring(tuple(vc), ec)
    _final_check("5.3", s, coloring)
    return ConstructionResult(
        s, coloring, len(coloring.palette()), delta + 1, "5.3",
        ("degree-two endpoints exclude their other subdivision edge",),
    )


def _canonical_palette(f: TotalColoring, shift: int = 0) -> TotalColoring:
    """Remap the palette onto 1..p order-preservingly, then shift."""
    colors = sorted(f.palette())
    remap = {c: i + 1 + shift for i, c in enumerate(colors)}
    vc = tuple(remap[c] for c in f.vertex_colors) if f.vertex_colors is not None else None
    ec = (
        {e: remap[c] for e, c in f.edge_colors.items()}
        if f.edge_colors is not None
        else None
    )
    return TotalColoring(vc, ec)


def _transfer_central_part(
    part: Graph,
    f: TotalColoring,
    vmap: Sequence[int],
    cent_join: TaggedGraph,
    vc: list[int],
    ec: dict[tuple[int, int], int],
) -> None:
    """Copy a total coloring of one part's central graph into the join's
    central graph through the vertex relabeling ``vmap``."""
    cpart = central(part)
    assert f.vertex_colors is not None and f.edge_colors is not None
    wmap: dict[int, int] = {}
    for w in range(part.n, cpart.graph.n):
        a, b = cpart.origin[w]  # type: ignore[misc]
        wmap[w] = cent_join.subdivided(vmap[a], vmap[b])
    for v in range(part.n):
        vc[vmap[v]] = f.vertex_colors[v]
    for w, target in wmap.items():
        vc[target] = f.vertex_colors[w]
    full = {v: vmap[v] for v in range(part.n)} | wmap
    for (x, y), c in f.edge_colors.items():
        a, b = full[x], full[y]
        ec[(min(a, b), max(a, b))] = c


def _central_part_coloring(part: Graph, palette: int) -> TotalColoring:
    """5.5's coloring of a part's central graph: proper within n + 1
    colors, for equal part orders, or AVD within n + 2, for unequal ones.

    The square gives both on every part of orders 2-8 but K2 and K2 + K1,
    whose central graphs P3 and C4 take 4.9's walk pattern: 1 2 3 along P3
    and 1 2 3 4 twice around C4.  5.5's input checks verify the result.
    """
    if part.n <= 3 and part.edge_count() == 1:
        vc, ec = _walk_pattern_total(central(part).graph)
        return TotalColoring(tuple(vc), ec)
    _, vc, ec = _square_total_central(part, palette)
    return TotalColoring(vc, ec)


def avd_coloring_central_join(
    g1: Graph, g2: Graph, c1: TotalColoring, c2: TotalColoring
) -> ConstructionResult:
    """AVD total coloring of the central graph of a join, melded from
    colorings of the two parts' central graphs.

    Distinct part orders take AVD colorings of both parts; equal orders only
    need proper total colorings, with two special diagonal rows of cross-edge
    colors doing the separating.
    """
    n1, n2 = g1.n, g2.n
    if n1 < 2 or n2 < 2:
        raise NotApplicableError("both parts must have at least 2 vertices")
    joined = join(g1, g2)
    cent = central(joined)
    budget = n1 + n2 + 2
    equal = n1 == n2
    for label, part, f in (("first", g1, c1), ("second", g2, c2)):
        cap = part.n + 1 if equal else part.n + 2
        if equal and not is_proper(central(part).graph, f, "total"):
            raise ValueError(f"{label} input is not a proper total coloring")
        if not equal and not is_avd_total(central(part).graph, f):
            raise ValueError(f"{label} input is not an AVD total coloring")
        if len(f.palette()) > cap:
            raise ValueError(f"{label} input exceeds its palette budget of {cap} colors")
    f1 = _canonical_palette(c2)
    f2 = _canonical_palette(c1, shift=n1 + 1 if equal else n2)
    vc = [0] * cent.graph.n
    ec: dict[tuple[int, int], int] = {}
    _transfer_central_part(g2, f1, [n1 + j for j in range(n2)], cent, vc, ec)
    _transfer_central_part(g1, f2, list(range(n1)), cent, vc, ec)
    # At unequal orders every second-part vertex sees colors n2+3..n2+n1+2
    # on its cross edges, and every first-part vertex 1..n2.
    for q in range(n1):
        for i in range(n2):
            u = n1 + i
            w = cent.subdivided(q, u)
            if equal:
                u_color = 2 * n1 + 2 if q == i else n1 + 1 + (q + 1)
                v_color = n1 + 1 if q == i else i + 1
            else:
                u_color = n2 + 2 + (q + 1)
                v_color = i + 1
            ec[(min(u, w), max(u, w))] = u_color
            ec[(min(q, w), max(q, w))] = v_color
    cross = (cent.subdivided(q, n1 + i) for q in range(n1) for i in range(n2))
    _color_subdivision_vertices(cent, cross, vc, ec, budget)
    coloring = TotalColoring(tuple(vc), ec)
    _final_check("5.5", cent.graph, coloring)
    return ConstructionResult(
        cent.graph, coloring, len(coloring.palette()), budget, "5.5",
        ("parts keep disjoint palettes; cross edges carry the index rows",),
    )


# --- total dominator colorings ------------------------------------------------


def tdc_central(g: Graph) -> TDCPartition:
    """Total dominator coloring of the central graph with one class per base
    vertex: singletons, one doubled class holding the last vertex with its
    smallest neighbor, and all subdivision vertices together."""
    n = g.n
    if n < 5 or not g.is_connected():
        raise NotApplicableError("requires a connected graph of order at least 5")
    if g.max_degree() > n - 3:
        raise NotApplicableError(
            "requires max degree at most order minus 3; high-degree trees "
            "have their own construction"
        )
    cent = central(g)
    k = min(g.neighbors(n - 1))
    classes = []
    for v in range(n - 1):
        classes.append(frozenset({v, n - 1}) if v == k else frozenset({v}))
    classes.append(frozenset(range(n, cent.graph.n)))
    partition = TDCPartition(tuple(classes))
    _final_check("6.2", cent.graph, partition)
    return partition


def tdc_central_tree(t: Graph) -> TDCPartition:
    """Total dominator coloring of a tree's central graph within one class
    per vertex, with explicit layouts for stars and near-stars."""
    if not t.is_tree():
        raise NotApplicableError("requires a tree")
    n = t.n
    if n < 5:
        raise NotApplicableError("requires order at least 5")
    delta = t.max_degree()
    if delta <= n - 3:
        return tdc_central(t)
    cent = central(t)
    hub = max(range(n), key=t.degree)
    if delta == n - 1:
        # Star: the hub pairs with one leaf whose subdivision vertex then has
        # the pair as its exact neighborhood; the all-subdivision class
        # dominates the hub.
        leaves = [v for v in range(n) if v != hub]
        mate = max(leaves)
        classes = [frozenset({hub, mate})]
        classes += [frozenset({v}) for v in leaves if v != mate]
        classes.append(frozenset(range(n, cent.graph.n)))
    else:
        # Star plus one pendant hanging off a leaf.  The far pendant joins
        # the hub's subdivision vertices, its own subdivision vertex joins the
        # smallest plain leaf, and the carrying leaf keeps a singleton that
        # dominates both of them.
        dist, _ = t.bfs(hub)
        far = dist.index(2)
        carrier = next(iter(u for u in t.neighbors(far)))
        leaves = [v for v in t.neighbors(hub) if v != carrier]
        lead = min(leaves)
        spokes = [cent.subdivided(hub, u) for u in t.neighbors(hub)]
        w_far = cent.subdivided(carrier, far)
        classes = [frozenset({hub})]
        classes.append(frozenset({lead, w_far}))
        classes += [frozenset({v}) for v in sorted(leaves) if v != lead]
        classes.append(frozenset({far, *spokes}))
        classes.append(frozenset({carrier}))
    partition = TDCPartition(tuple(classes))
    if len(partition.classes) > n:
        raise ConstructionDefectError("tree partition exceeds one class per vertex")
    _final_check("appendix-tree", cent.graph, partition)
    return partition


def tdc_to_complement(f: TDCPartition, g: Graph) -> TDCPartition:
    """Push a total dominator coloring of the central graph down to the
    complement by deleting the subdivision vertices, repairing any original
    vertex that was dominated only by all-subdivision classes."""
    n = g.n
    if n < 5 or not g.is_connected():
        raise NotApplicableError("requires a connected graph of order at least 5")
    if g.max_degree() > n - 3:
        raise NotApplicableError("requires max degree at most order minus 3")
    cent = central(g)
    if not is_tdc(cent.graph, f):
        raise ValueError("input is not a total dominator coloring of the central graph")
    comp = g.complement()
    work = [set(cls) & set(range(n)) for cls in f.classes]

    def dominated(v: int) -> bool:
        return any(
            cls and all(comp.adj[v] >> u & 1 for u in cls) for cls in work
        )

    for v in range(n):
        if dominated(v):
            continue
        mate = None
        for u in sorted(iter_bits(comp.adj[v])):
            cls_idx = next(i for i, cls in enumerate(work) if u in cls)
            if len(work[cls_idx]) >= 2:
                mate = (u, cls_idx)
                break
        empty = next((i for i, cls in enumerate(work) if not cls), None)
        if mate is None or empty is None:
            raise ConstructionDefectError(
                f"vertex {v} cannot be re-dominated within the class budget"
            )
        work[empty] = {mate[0]}
        work[mate[1]].discard(mate[0])
    classes = tuple(frozenset(cls) for cls in work if cls)
    if len(classes) > len(f.classes):
        raise ConstructionDefectError("repair increased the class count")
    partition = TDCPartition(classes)
    _final_check("6.1", comp, partition)
    return partition
