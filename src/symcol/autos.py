"""Automorphism groups, isomorphism search, and lifting maps.

The engine is classic individualization-refinement on ordered partitions
(McKay & Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 60,
2014), run on the graphs' own adjacency bitmasks.  A partition is a cell id
per vertex, the cell's start offset; one vertex mask per cell offset; and the
set of ids of the cells with more than one vertex, so it is discrete when
that set is empty.  Vertices start in one cell, or in the cells of a given
starting coloring laid out in increasing color order.  Refinement runs from a
queue of splitter cells: a step pops one and splits every cell whose vertices
have different numbers of neighbors in it, into fragments laid out in
increasing count order inside the cell's own offset range; a singleton {w}
splits a cell m into m & ~adj[w] and m & adj[w].  A split cell that was not
queued queues all its fragments but its first largest (Hopcroft's rule), and
the partition is stable, the coarsest equitable one, when the queue is empty
(a discrete partition empties it at once).  A smallest non-singleton cell is
then split by trying every target vertex: it goes to the cell's last offset,
and only its singleton cell is queued.  On the first graph a search
individualizes one vertex per depth, the path's point: the first vertex of
the target cell, or a preferred base point that the caller names, whose own
cell is then the target.  So that side of every node lies on one path, the
search's first path.  It is refined once, lazily, also when the path is kept
for many searches, as the family enumeration keeps one per graph of its
exact pool.  The second graph is refined alone, and each of its steps is
checked against the path's step through the step's trace, the cell ids,
counts and fragment sizes of its splits, which stops the node at the first
difference and otherwise gives both sides the same layout.
Every complete leaf is edge-checked, so refinement only prunes, it never
decides.

``automorphisms`` returns a group as a stabilizer chain read off the search's
first path: generators, plus one transversal per base point.  Its order is
the product of the transversal lengths; its elements, deterministically
sorted, are multiplied out of the transversals only on demand, for
``symcol aut``.  The distinguishing oracles number the elements in the
same product order, without forming them.  The vertex orbits use the
generators alone.  The chain check lifts Aut(G)'s generators to each
transform and seeds that transform's chain with them, so its search looks
only for what the lifts miss.  No group is kept between calls.  The
distinguishing verifier builds no group: one search on the colored graph
stops at the first automorphism other than the identity.

A search may also carry edge labels 0..L-1 and then finds only the maps that
keep them.  It keeps one neighbor mask per vertex and label; a neighbor over
an edge labelled l weighs (n+1)^l where a step counts neighbors, and a leaf
must map each edge onto one of the same label.  With one label the search is
exactly the unlabelled one.  The verifier's edge colors are such labels, so
an edge-colored graph is searched on its own vertices.

Each public search (one ``automorphisms`` call, one ``find_isomorphism``,
one distinguishing verifier search) is charged: it counts its nodes against
the budget the oracles read, and raises BudgetExceededError past it.  The
family enumeration is not charged.  A group of more than ``ELEMENT_CAP``
elements is never multiplied out; its order and generators have no cap."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, _resolve_budget
from .graphs import GRAPH6_MAX_ORDER, Graph, encode_graph6, iter_bits
from .transforms import central, endline, line_graph, middle, subdivision

__all__ = [
    "Permutation",
    "AutGroup",
    "ELEMENT_CAP",
    "automorphisms",
    "find_isomorphism",
    "is_automorphism",
    "compose",
    "invert",
    "vertex_orbits",
    "lift_to_central",
    "lift_to_endline",
    "AutChainReport",
    "check_aut_chain",
]

Permutation = tuple[int, ...]

ELEMENT_CAP = 10**7


@dataclass(frozen=True)
class AutGroup:
    """A permutation group on 0..n-1 as a stabilizer chain.

    ``transversals[i]`` holds one element per point of the i-th basic orbit,
    mapping the i-th base point there and fixing the base points before it,
    so every element is one product t_0 t_1 ... t_k (t_k applied first) of
    one representative per level.  ``nodes`` counts its search's nodes, and
    ``base`` holds the base points, the vertices its first path
    individualized.
    """

    n: int
    generators: tuple[Permutation, ...]
    transversals: tuple[tuple[Permutation, ...], ...]
    nodes: int = field(compare=False)
    base: tuple[int, ...] = field(compare=False)

    @property
    def order(self) -> int:
        return math.prod(len(reps) for reps in self.transversals)

    @functools.cached_property
    def elements(self) -> tuple[Permutation, ...]:
        """Every element, sorted lexicographically by image array.

        Raises BudgetExceededError past ``ELEMENT_CAP`` elements.
        """
        return tuple(sorted(_products(self.transversals, tuple(range(self.n)))))

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order


def _products(transversals: Sequence[Sequence[Permutation]], identity: Permutation) -> list[Permutation]:
    """Every product t_0 t_1 ... t_k (t_k applied first) of one element per
    transversal, in a fixed order.

    Raises BudgetExceededError, before forming any, past ``ELEMENT_CAP``
    products."""
    if math.prod(map(len, transversals)) > ELEMENT_CAP:
        raise BudgetExceededError(f"group order exceeds the cap of {ELEMENT_CAP}")
    products = [identity]
    for reps in reversed(transversals):
        products = [compose(t, p) for t in reps for p in products]
    return products


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The permutation applying q first, then p."""
    return tuple(map(p.__getitem__, q))


def invert(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for v, image in enumerate(p):
        out[image] = v
    return tuple(out)


def is_automorphism(g: Graph, perm: Permutation) -> bool:
    return sorted(perm) == list(range(g.n)) and _maps_edges(g.adj, g.adj, perm)


def _maps_edges(adj: Sequence[int], adj_to: Sequence[int], perm: Sequence[int]) -> bool:
    """Whether perm maps every edge of ``adj`` onto one of ``adj_to``: for a
    bijection between graphs with as many edges, whether it is an isomorphism."""
    for x, mask in enumerate(adj):
        row = adj_to[perm[x]]
        mask &= -2 << x  # each edge once, from its lower end
        while mask:
            low = mask & -mask
            if not row >> perm[low.bit_length() - 1] & 1:
                return False
            mask ^= low
    return True


def _partition(colors: list[int]) -> tuple[list[int], list[int], set[int], dict[int, None]]:
    """The ordered partition of a starting coloring, with every cell queued:
    the cell id (start offset) of each vertex, the vertex mask of each cell
    at its offset (other offsets hold stale entries), the ids of the cells
    with more than one vertex, and the queue, a dict in queue order.  The
    classes are laid out in increasing color order."""
    classes: dict[int, int] = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    cells, wide, queue, offset = [0] * len(colors), set(), {}, 0
    for c in sorted(classes):
        cells[offset] = cell = classes[c]
        classes[c] = offset
        if cell & (cell - 1):
            wide.add(offset)
        queue[offset] = None
        offset += cell.bit_count()
    return [classes[c] for c in colors], cells, wide, queue


def _step(adj: Sequence[int], layers: list | None, ids: list[int], cells: list[int],
          wide: set[int], queue: dict[int, None]) -> tuple:
    """One refinement step of an ordered partition, in place.

    Pops the first queued splitter S and gives each vertex u its count of
    neighbors in S, ``(adj[u] & S).bit_count()``, an edge labelled l weighing
    (n+1)^l; a singleton {w} splits a cell by adjacency to w alone.  A cell
    whose counts differ splits into fragments laid out in increasing count
    order from its own offset, so the first keeps its id and none leaves the
    cell's offset range.  A split cell that was queued queues all its new
    fragments, one that was not all but its first largest (Hopcroft's rule).
    Returns the step's trace, the (cell id, counts, sizes) of each split by
    cell id: partitions with equal layouts and queues stay equal through
    steps with equal traces, so a second graph is compared with the first
    through the traces alone.
    """
    c = next(iter(queue))
    del queue[c]
    splitter = cells[c]
    single = not splitter & (splitter - 1)
    two = single and layers is None
    if single:
        w = splitter.bit_length() - 1
        reach = adj[w]
    else:
        reach = 0
        m = splitter
        while m:
            low = m & -m
            reach |= adj[low.bit_length() - 1]
            m ^= low
    trace = []
    for c in sorted(wide):
        cell = cells[c]
        inside = cell & reach
        if not inside or two and inside == cell:
            continue
        if two:
            # The common case, two fragments, laid out without counting.
            a, b = (cell & ~reach).bit_count(), inside.bit_count()
            cells[c] = cell & ~reach
            cells[c + a] = mask = inside
            while mask:
                low = mask & -mask
                ids[low.bit_length() - 1] = c + a
                mask ^= low
            if a == 1:
                wide.discard(c)
            if b > 1:
                wide.add(c + a)
            queue[c + a if a >= b or c in queue else c] = None
            trace.append((c, (0, 1), (a, b)))
            continue
        if single:
            by_count = {weight: cell & row[w] for weight, row in layers if cell & row[w]}
            if inside != cell:
                by_count[0] = cell & ~reach
        else:
            by_count = {}
            m = cell
            while m:
                low = m & -m
                u = low.bit_length() - 1
                k = ((adj[u] & splitter).bit_count() if layers is None else
                     sum(weight * (row[u] & splitter).bit_count() for weight, row in layers))
                by_count[k] = by_count.get(k, 0) | low
                m ^= low
        keys = tuple(sorted(by_count))
        if len(keys) == 1:
            continue
        masks = list(map(by_count.__getitem__, keys))
        sizes = tuple(map(int.bit_count, masks))
        keep = 0 if c in queue else sizes.index(max(sizes))
        offset = c
        for i, mask in enumerate(masks):
            cells[offset] = mask
            if i:
                while mask:
                    low = mask & -mask
                    ids[low.bit_length() - 1] = offset
                    mask ^= low
            if sizes[i] > 1:
                wide.add(offset)
            elif not i:
                wide.discard(c)
            if i != keep:
                queue[offset] = None
            offset += sizes[i]
        trace.append((c, keys, sizes))
    if trace and not wide:
        queue.clear()  # a discrete partition splits no further
    return tuple(trace)


def _individualize(ids: list[int], cells: list[int], wide: set[int], u: int) -> tuple:
    """A copy of a stable partition with u split off its cell c: the rest
    keeps id c, u goes to the cell's last offset, and only {u} is queued."""
    c = ids[u]
    cell = cells[c]
    last = c + cell.bit_count() - 1
    ids, cells = ids.copy(), cells.copy()
    cells[c] = rest = cell & ~(1 << u)
    cells[last] = 1 << u
    ids[u] = last
    wide = wide - {c} if not rest & (rest - 1) else wide.copy()
    return ids, cells, wide, {last: None}


class _Path:
    """The first graph's side of a search.

    At every depth that side individualizes one vertex, recorded in
    ``points``: the first of the preferred ``base`` points whose cell is
    still wide, and that cell is the target; else the first vertex of the
    first smallest wide cell.  So all its nodes lie on one path, one per
    depth.  Each is refined only as far as some node of the second graph at
    that depth has matched it, and never twice, so a path kept for many
    searches against one graph refines that graph once.

    ``labels``, aligned with ``g.edges()``, label the edges 0..L-1, and
    every isomorphism found keeps them: ``layers`` holds, per label l, the
    weight (n+1)^l and each vertex's neighbor mask over edges labelled l, so
    a step's count tells every label's count apart (each is below n+1).
    Unlabelled, or with every label 0, ``layers`` is None.  A labelled path
    is searched against its own graph only.  ``nodes`` counts the nodes of
    all its searches, which raise past ``budget``.
    """

    __slots__ = ("graph", "layers", "parts", "queue", "traces", "ends", "targets",
                 "points", "base", "nodes", "budget")

    def __init__(self, g: Graph, colors: list[int] | None = None, labels: list[int] | None = None,
                 budget: float = math.inf, base: Sequence[int] = ()) -> None:
        self.graph, self.nodes, self.budget, self.layers, self.base = g, 0, budget, None, base
        if any(labels or ()):
            rows = [[0] * g.n for _ in range(max(labels) + 1)]
            for (u, v), label in zip(g.edges(), labels):
                rows[label][u] |= 1 << v
                rows[label][v] |= 1 << u
            self.layers = [((g.n + 1) ** label, row) for label, row in enumerate(rows)]
        # The partition (cell ids, cells, wide cells) of each depth after the
        # steps made so far, the deepest depth's queue, and the traces of all
        # steps, depth after depth.  A depth is stable once it has a target
        # cell (None at the leaf) and its steps' end in ``traces``; the next
        # depth starts with the depth's point, a vertex of that cell,
        # individualized.
        *part, self.queue = _partition([0] * g.n if colors is None else colors)
        self.parts = [tuple(part)]
        self.traces: list = []
        self.ends: list[int] = []
        self.targets: list[int | None] = []
        self.points: list[int] = []

    def _advance(self, whole: bool) -> None:
        """One more step at the deepest depth, which is not yet stable, or
        all its steps if ``whole``."""
        ids, cells, wide = self.parts[-1]
        adj, layers, queue = self.graph.adj, self.layers, self.queue
        while queue:
            self.traces.append(_step(adj, layers, ids, cells, wide, queue))
            if not whole:
                break
        if not queue:
            # The first base point whose cell has more than one vertex, or
            # else the first vertex of the first smallest such cell, if any.
            for u in self.base:
                if ids[u] in wide:
                    c = ids[u]
                    break
            else:
                c = min(wide, key=lambda c: (cells[c].bit_count(), c), default=None)
                if c is not None:
                    u = next(iter_bits(cells[c]))
            self.targets.append(c)
            self.ends.append(len(self.traces))
            if c is not None:
                self.points.append(u)
                *part, self.queue = _individualize(ids, cells, wide, u)
                self.parts.append(tuple(part))

    def target(self, depth: int) -> int | None:
        """The target cell at ``depth``, refining the path down to it."""
        while len(self.targets) <= depth:
            self._advance(True)
        return self.targets[depth]

    def matches(self, depth: int, i: int, trace: tuple) -> bool:
        """Whether a second-graph node's step at ``depth`` has the trace of
        the path's step i (counted over all depths)."""
        if i == len(self.traces) and depth == len(self.ends):
            self._advance(False)
        end = self.ends[depth] if depth < len(self.ends) else len(self.traces)
        return i < end and self.traces[i] == trace


def _walk(path: _Path, depth: int, adj_h: Sequence[int], part: tuple | None,
          same: bool) -> Iterator[Permutation]:
    """Every isomorphism below the search node at ``depth`` whose partition
    of the second graph, of adjacency ``adj_h``, is ``part`` (cell ids,
    cells, wide cells, queue), in search order.

    ``part`` starts with the layout and queue of the path's partition at
    that depth.  Only the second graph is refined; each step is checked
    against the path's step, so both reach stability together.  The node's
    children individualize the path's vertex against each vertex of the
    target cell on the second graph in turn.  ``same`` says that the node is
    the path's own (the same graph and partition), so ``part`` is not read.
    """
    path.nodes += 1
    if path.nodes > path.budget:
        raise BudgetExceededError(f"node budget of {path.budget} exhausted by an automorphism "
                                  f"search on {path.graph.n} vertices", nodes=path.budget + 1)
    if same:
        path.target(depth)
        ids, cells, wide = path.parts[depth]
    else:
        ids, cells, wide, queue = part
        i = path.ends[depth - 1] if depth else 0
        while queue:
            if not path.matches(depth, i, _step(adj_h, path.layers, ids, cells, wide, queue)):
                return
            i += 1
    c = path.target(depth)
    if c is None:
        # All cells are singletons: read off the bijection offset by offset.
        # The edge counts agree, so it is an isomorphism if each label's edges map into h.
        phi = [y.bit_length() - 1 for _, y in sorted(zip(path.parts[depth][1], cells))]
        pairs = [(row, row) for _, row in path.layers] if path.layers else [(path.graph.adj, adj_h)]
        if all(_maps_edges(row, row_h, phi) for row, row_h in pairs):
            yield tuple(phi)
        return
    v = path.points[depth] if same else None
    for u in iter_bits(cells[c]):
        yield from _walk(path, depth + 1, adj_h, _individualize(ids, cells, wide, u), same and u == v)


def _search(path: _Path, h: Graph, start: list[int]) -> Iterator[Permutation]:
    """All isomorphisms from the path's graph to h that keep ``start``, the
    coloring the path starts from, in deterministic search order."""
    g = path.graph
    if g.n != h.n or g.edge_count() != h.edge_count():
        return
    same = g == h
    yield from _walk(path, 0, h.adj, None if same else _partition(start), same)


def _orbit(v: int, generators: list[Permutation], identity: Permutation) -> dict[int, Permutation]:
    """The orbit of v under the generators, each point with an element
    that maps v to it."""
    reps = {v: identity}
    queue = [v]
    for w in queue:
        for s in generators:
            x = s[w]
            if x not in reps:
                reps[x] = compose(s, reps[w])
                queue.append(x)
    return reps


def _stabilizer_chain(g: Graph, budget: float = math.inf, base: Sequence[int] = (),
                      known: Sequence[Permutation] = ()) -> AutGroup:
    """Aut(g) as the pointwise stabilizer chain of the search's first path.

    The first path individualizes points v_0, v_1, ... (the first of
    ``base`` whose cell is still wide, else the first vertex of a smallest
    wide cell) and ends in the identity.  Going up from its deepest node,
    level i starts its orbit of v_i from the generators found so far and the
    ``known`` elements, automorphisms the caller has checked, that fix
    v_0..v_{i-1}.  Each point u of the target cell at level i that the
    orbit misses gets one search: the first leaf of the branch that
    individualizes u against v_i, if any, is an automorphism fixing
    v_0..v_{i-1} and mapping v_i to u, and a new generator.  Every element
    used at level i lies in the stabilizer of v_0..v_{i-1}, and each point
    of that stabilizer's orbit of v_i is either reached or searched, so the
    generators used at levels i and below generate that stabilizer whatever
    ``known`` holds, with no Schreier-Sims step (McKay & Piperno, "Practical
    graph isomorphism, II", J. Symb. Comput. 60, 2014).  The returned
    generators include the known elements used.
    """
    n = g.n
    path = _Path(g, budget=budget, base=base)
    identity = tuple(range(n))
    levels = 0
    while path.target(levels) is not None:
        levels += 1
    points = path.points
    # The level of each known element: the first base point it moves.  One
    # that moves none fixes the discrete leaf, so it is the identity.
    firsts = [next((i for i, v in enumerate(points) if s[v] != v), levels) for s in known]
    generators: list[Permutation] = []
    transversals = []
    for depth in reversed(range(levels)):
        ids, cells, wide = path.parts[depth]
        v = points[depth]
        seeds = [s for s, first in zip(known, firsts) if first == depth]
        generators += seeds
        # The generators from the levels below fix v.
        reps = _orbit(v, generators, identity) if seeds else {v: identity}
        for u in iter_bits(cells[path.targets[depth]]):
            if u in reps:
                continue
            branch = _walk(path, depth + 1, g.adj, _individualize(ids, cells, wide, u), False)
            leaf = next(branch, None)
            if leaf is not None:
                generators.append(leaf)
                reps = _orbit(v, generators, identity)
        transversals.append(tuple(reps[u] for u in sorted(reps)))
    return AutGroup(n, tuple(generators), tuple(reversed(transversals)), path.nodes, tuple(points))


def _nontrivial_automorphism(g: Graph, colors: list[int], labels: list[int] | None) -> Permutation | None:
    """The first automorphism of g that keeps ``colors`` and the edge
    ``labels`` (see ``_Path``) and is not the identity; charged."""
    found = _search(_Path(g, colors, labels, _resolve_budget(None)), g, colors)
    return next((p for p in found if p != tuple(range(g.n))), None)


def automorphisms(g: Graph) -> AutGroup:
    """The full automorphism group, as a stabilizer chain; charged."""
    return _stabilizer_chain(g, _resolve_budget(None))


def _first_isomorphism(path: _Path, h: Graph) -> Permutation | None:
    """The first isomorphism from the graph of a path started from one
    class to h."""
    return next(_search(path, h, [0] * h.n), None)


def find_isomorphism(g: Graph, h: Graph) -> Permutation | None:
    """The first isomorphism g -> h, if any; charged."""
    return _first_isomorphism(_Path(g, budget=_resolve_budget(None)), h)


def vertex_orbits(group: Iterable[Permutation], n: int) -> list[int]:
    """Orbit id per point 0..n-1 under the permutations of ``group`` (ids
    are the minimum point of each orbit)."""
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for perm in group:
        for v in range(n):
            a, b = find(v), find(perm[v])
            if a != b:
                root[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


# --- lifting maps -----------------------------------------------------------


def lift_to_central(alpha: Permutation, g: Graph) -> Permutation:
    """Extend alpha in Aut(G) to the central graph: w_{x,y} maps to w_{ax,ay}."""
    if sorted(alpha) != list(range(g.n)):
        raise ValueError("alpha is not an automorphism of the base graph")
    return _lift_through(alpha, g.n, g.edge_index())


def _lift_through(alpha: Permutation, n: int, index: dict[tuple[int, int], int]) -> Permutation:
    """``lift_to_central`` of a permutation of 0..n-1, against the base
    graph's edge index, built once for every element a caller lifts."""
    image = list(alpha)
    # A vertex permutation that maps every edge onto an edge is an automorphism.
    for u, v in index:  # the keys run in edges() order
        a, b = alpha[u], alpha[v]
        k = index.get((a, b) if a < b else (b, a))
        if k is None:
            raise ValueError("alpha is not an automorphism of the base graph")
        image.append(n + k)
    return tuple(image)


def lift_to_endline(alpha: Permutation, g: Graph) -> Permutation:
    """Extend alpha in Aut(G) to the endline graph: pendant of v follows v."""
    if not is_automorphism(g, alpha):
        raise ValueError("alpha is not an automorphism of the base graph")
    return tuple(alpha) + tuple(g.n + alpha[v] for v in range(g.n))


# --- the group-order chain --------------------------------------------------


@dataclass
class AutChainReport:
    graph6: str
    applicable: bool
    reason: str | None
    base_order: int | None = None
    line_order: int | None = None
    subdivision_order: int | None = None
    central_order: int | None = None
    middle_order: int | None = None
    endline_order: int | None = None
    all_equal: bool = False
    lifts_exhaust: bool = False

    @property
    def passed(self) -> bool:
        return self.applicable and self.all_equal and self.lifts_exhaust

    def to_json(self) -> dict:
        return {
            "graph6": self.graph6,
            "applicable": self.applicable,
            "reason": self.reason,
            "orders": {
                "base": self.base_order,
                "line": self.line_order,
                "subdivision": self.subdivision_order,
                "central": self.central_order,
                "middle": self.middle_order,
                "endline": self.endline_order,
            },
            "all_equal": self.all_equal,
            "lifts_exhaust": self.lifts_exhaust,
            "passed": self.passed,
        }


def check_aut_chain(g: Graph) -> AutChainReport:
    """Compare the group orders of G, L(G), S(G), C(G), M(G), and G+.

    Applicable to connected non-cycle graphs of order at least 5; for those
    the six orders must agree and the two lift maps must exhaust the groups
    they land in.
    """
    g6 = encode_graph6(g) if 1 <= g.n <= GRAPH6_MAX_ORDER else f"<order {g.n}>"
    if not g.is_connected():
        return AutChainReport(g6, False, "graph is disconnected")
    if g.n < 5:
        return AutChainReport(g6, False, "order below 5")
    if g.is_cycle():
        return AutChainReport(g6, False, "cycles are excluded")

    # Each transform's chain is seeded with the lifts of Aut(G)'s generators
    # that pass the edge check.  C, S and M share one vertex layout; L(G)'s
    # vertex k is their n + k, and G+'s pendant n + v follows v.  G's
    # vertices keep their labels in all but L(G), so there the path
    # individualizes G's base points first, and each lift fixes the base
    # points its generator fixes in G.
    group = automorphisms(g)
    n, index = g.n, g.edge_index()
    lifts = [_lift_through(a, n, index) for a in group.generators]
    line, _ = line_graph(g)
    seeded = (
        (line, [tuple(x - n for x in p[n:]) for p in lifts], ()),
        (subdivision(g).graph, lifts, group.base),
        (central(g).graph, lifts, group.base),
        (middle(g).graph, lifts, group.base),
        (endline(g).graph, [a + tuple(n + x for x in a) for a in group.generators], group.base),
    )
    budget = _resolve_budget(None)
    orders, verdicts = [], []
    for h, known, points in seeded:
        checked = [is_automorphism(h, p) for p in known]
        verdicts.append(all(checked))
        known = [p for p, ok in zip(known, checked) if ok]
        orders.append(_stabilizer_chain(h, budget, points, known).order)
    report = AutChainReport(g6, True, None, group.order, *orders)
    report.all_equal = set(orders) == {group.order}
    # A lift is an injective homomorphism, so when the orders agree the
    # lifted generators generate the whole group they land in.
    report.lifts_exhaust = (verdicts[2] and verdicts[4]
                            and group.order == report.central_order == report.endline_order)
    return report
