"""Immutable labeled graphs on vertex set {0..n-1}, graph6 I/O, and generators.

Adjacency is stored as one integer bitmask per vertex, which keeps graphs
hashable (usable as cache keys) and makes neighborhood arithmetic cheap.
Edges are always reported with endpoints (i, j), i < j, ordered column-major
by (j, i).  That is the same order graph6 packs its bits in, and every module
that numbers edges (subdivision vertices, edge colorings) relies on it.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import Graph6Error

__all__ = [
    "Graph",
    "iter_bits",
    "empty_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_bipartite",
    "petersen_graph",
    "paw_graph",
    "diamond_graph",
    "disjoint_union",
    "join",
    "generate",
    "parse_graph6",
    "encode_graph6",
    "GRAPH6_MAX_ORDER",
    "random_graph",
    "random_tree",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of `mask` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph.

    `adj[v]` is the neighbor bitmask of vertex v.  Instances are validated on
    construction and never mutated afterwards.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency table length differs from vertex count")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise ValueError(f"vertex {v} has a neighbor outside 0..{self.n - 1}")
            if mask >> v & 1:
                raise ValueError(f"vertex {v} has a self-loop")
        for v, mask in enumerate(self.adj):
            for u in iter_bits(mask):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"edge ({v},{u}) is not symmetric")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on 0..n-1 with the given edges.

        Every edge is checked here, and the table built from them is
        symmetric, so the instance skips ``__post_init__``'s re-check."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        g = object.__new__(Graph)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(adj))
        return g

    def __repr__(self) -> str:
        return f"Graph.from_edges({self.n}, {self.edges()})"

    # --- basic queries ---------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(iter_bits(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.adj]

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.adj), default=0)

    def min_degree(self) -> int:
        return min((m.bit_count() for m in self.adj), default=0)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    @functools.cached_property
    def _edge_tuple(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for j in range(self.n) for i in iter_bits(self.adj[j] & ((1 << j) - 1)))

    @functools.cached_property
    def _edge_positions(self) -> dict[tuple[int, int], int]:
        return {e: k for k, e in enumerate(self._edge_tuple)}

    def edges(self) -> list[tuple[int, int]]:
        """All edges (i, j) with i < j, in column-major order by (j, i).

        Built once per graph; each call returns a fresh list of them."""
        return list(self._edge_tuple)

    def edge_index(self) -> Mapping[tuple[int, int], int]:
        """Map each edge (i, j), i < j, to its position in edges(), as a
        read-only view built once per graph."""
        return MappingProxyType(self._edge_positions)

    # --- traversal -------------------------------------------------------

    def bfs(self, root: int) -> tuple[list[int], list[int]]:
        """Breadth-first distances and parents from `root`.

        Unreachable vertices get distance -1 and parent -1; the root's parent
        is -1 as well.  Ties are broken by visiting smaller labels first.
        """
        dist = [-1] * self.n
        parent = [-1] * self.n
        dist[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for v in queue:
                for u in iter_bits(self.adj[v]):
                    if dist[u] < 0:
                        dist[u] = dist[v] + 1
                        parent[u] = v
                        nxt.append(u)
            queue = nxt
        return dist, parent

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            reach = 0
            for v in iter_bits(frontier):
                reach |= self.adj[v]
            frontier = reach & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1

    # --- classification --------------------------------------------------

    def is_tree(self) -> bool:
        return self.is_connected() and self.edge_count() == self.n - 1

    def is_regular(self) -> bool:
        degs = self.degrees()
        return len(set(degs)) <= 1

    def is_cycle(self) -> bool:
        """True iff the graph is a cycle C_n, n >= 3."""
        return self.n >= 3 and self.is_connected() and all(d == 2 for d in self.degrees())

    def is_complete(self) -> bool:
        return all(m.bit_count() == self.n - 1 for m in self.adj)

    def is_bipartite(self) -> tuple[int, int] | None:
        """Two side bitmasks of a proper 2-coloring, or None.

        Vertices isolated or in later components are assigned greedily, so the
        split covers every vertex.
        """
        side = [-1] * self.n
        for start in range(self.n):
            if side[start] >= 0:
                continue
            side[start] = 0
            queue = [start]
            while queue:
                v = queue.pop()
                for u in iter_bits(self.adj[v]):
                    if side[u] < 0:
                        side[u] = 1 - side[v]
                        queue.append(u)
                    elif side[u] == side[v]:
                        return None
        left = sum(1 << v for v in range(self.n) if side[v] == 0)
        right = sum(1 << v for v in range(self.n) if side[v] == 1)
        return left, right

    # --- derived graphs --------------------------------------------------

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image of the graph under vertex map v -> perm[v]."""
        adj = [0] * self.n
        for v, mask in enumerate(self.adj):
            for u in iter_bits(mask):
                adj[perm[v]] |= 1 << perm[u]
        return Graph(self.n, tuple(adj))

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, tuple((full & ~m & ~(1 << v)) for v, m in enumerate(self.adj)))

    def add_vertex(self, neighbor_mask: int) -> "Graph":
        """New graph with an extra vertex n joined to the mask's vertices."""
        adj = [m | (1 << self.n if neighbor_mask >> v & 1 else 0) for v, m in enumerate(self.adj)]
        adj.append(neighbor_mask)
        return Graph(self.n + 1, tuple(adj))


# --- generators -----------------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    if n < 1:
        raise ValueError("a star needs at least 1 vertex")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, edges)


def paw_graph() -> Graph:
    """Triangle with one pendant vertex."""
    return Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


def diamond_graph() -> Graph:
    """K4 minus one edge."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    adj = list(g.adj) + [m << g.n for m in h.adj]
    return Graph(g.n + h.n, tuple(adj))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every cross edge; h's labels are shifted by g.n."""
    h_all = ((1 << h.n) - 1) << g.n
    g_all = (1 << g.n) - 1
    adj = [m | h_all for m in g.adj] + [(m << g.n) | g_all for m in h.adj]
    return Graph(g.n + h.n, tuple(adj))


_FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "star": star_graph,
    "empty": empty_graph,
    "complete_bipartite": complete_bipartite,
}


def generate(kind: str, *params: int) -> Graph:
    """Build a named family member, e.g. generate("cycle", 5)."""
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family {kind!r}; choose from {sorted(_FAMILIES)}")
    if any(p < 1 for p in params):
        raise ValueError("family parameters must be positive")
    return _FAMILIES[kind](*params)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree from a random parent sequence.

    Each vertex v >= 1 attaches to a uniformly chosen earlier vertex.  Not the
    uniform distribution over trees, but cheap and enough for test fixtures.
    """
    if n < 1:
        raise ValueError("a tree needs at least 1 vertex")
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


# --- graph6 ----------------------------------------------------------------
#
# Header byte n+63 for orders 1 to 62, or byte 126 and n in 18 bits for orders
# 63 to 258047 (larger orders are not supported), then the upper triangle bits
# x(i,j) for j = 1..n-1, i = 0..j-1, packed six per byte, most significant bit
# first, zero padded, each 6-bit group offset by 63.

GRAPH6_MAX_ORDER = 258047


def encode_graph6(g: Graph) -> str:
    if not 1 <= g.n <= GRAPH6_MAX_ORDER:
        raise ValueError(f"graph6 output supports orders 1..{GRAPH6_MAX_ORDER}, got {g.n}")
    if g.n < 63:
        chunks = [chr(g.n + 63)]
    else:
        chunks = ["~"] + [chr((g.n >> shift & 63) + 63) for shift in (12, 6, 0)]
    group = 0
    width = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            group = group << 1 | (col >> i & 1)
            width += 1
            if width == 6:
                chunks.append(chr(group + 63))
                group = 0
                width = 0
    if width:
        chunks.append(chr((group << (6 - width)) + 63))
    return "".join(chunks)


def parse_graph6(text: str) -> Graph:
    if not text:
        raise Graph6Error("empty graph6 string", 0)
    head = ord(text[0])
    if head == 126:
        if len(text) < 4:
            raise Graph6Error("truncated order header: need 3 bytes after '~'", 0)
        if text[1] == "~":  # the 8-byte header
            raise Graph6Error(f"orders above {GRAPH6_MAX_ORDER} are not supported", 0)
        n, start = 0, 4
        for k in (1, 2, 3):
            byte = ord(text[k])
            if not 63 <= byte <= 126:
                raise Graph6Error(f"invalid header byte {byte}", k)
            n = n << 6 | byte - 63
    elif not 63 <= head <= 125:
        raise Graph6Error(f"invalid header byte {head}", 0)
    else:
        n, start = head - 63, 1
    if n == 0:
        raise Graph6Error("order 0 is not supported", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(text) < start + nbytes:
        raise Graph6Error(f"truncated: need {nbytes} edge bytes, found {len(text) - start}", len(text))
    if len(text) > start + nbytes:
        raise Graph6Error("trailing characters after edge bits", start + nbytes)
    adj = [0] * n
    pos = 0
    i, j = 0, 1
    for k in range(nbytes):
        byte = ord(text[start + k])
        if not 63 <= byte <= 126:
            raise Graph6Error(f"invalid edge byte {byte}", start + k)
        group = byte - 63
        for shift in (5, 4, 3, 2, 1, 0):
            bit = group >> shift & 1
            if pos < nbits:
                if bit:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                pos += 1
                i += 1
                if i == j:
                    i = 0
                    j += 1
            elif bit:
                raise Graph6Error("nonzero padding bit", start + k)
    return Graph(n, tuple(adj))
