"""Automorphism groups, isomorphism search, and lifting maps.

The engine is classic individualization-refinement: vertices start in one
class, or in the classes of a given starting coloring, colors are refined by
sorted neighbor-color profiles until stable, and a smallest non-singleton
class is split by trying every target vertex.  Colors are assigned by ranking
profile keys, so they are comparable across the two graphs of an isomorphism
search.  Every complete leaf is adjacency-checked, so refinement only prunes,
it never decides.

``automorphisms`` returns a group as a stabilizer chain read off the search's
first path: generators, plus one transversal per base point.  Its order is
the product of the transversal lengths; its elements, deterministically
sorted, are multiplied out of the transversals only on demand, for
``symcol aut`` and the oracles' symmetry pruning.  The chain check and the
vertex orbits use the generators alone.  The last groups are kept in a
bounded least-recently-used cache.  The distinguishing verifier builds no
group: one search on the colored graph stops at the first automorphism other
than the identity."""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import BudgetExceededError
from .graphs import Graph, iter_bits
from .transforms import central, endline, line_graph, middle, subdivision

__all__ = [
    "Permutation",
    "AutCaps",
    "AutGroup",
    "DEFAULT_CAPS",
    "VERIFY_CAPS",
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


@dataclass(frozen=True)
class AutCaps:
    """Resource guards for group enumeration."""

    max_vertices: int = 24
    max_group_order: int = 10_000_000


DEFAULT_CAPS = AutCaps()
# The transformed graphs blow up quadratically (C(G) of an order-7 graph has
# up to 28 vertices), so verification uses roomier caps than raw group
# enumeration does.
VERIFY_CAPS = AutCaps(max_vertices=64, max_group_order=10**8)


@dataclass(frozen=True)
class AutGroup:
    """A permutation group on 0..n-1 as a stabilizer chain.

    ``transversals[i]`` holds one element per point of the i-th basic orbit,
    mapping the i-th base point there and fixing the base points before it,
    so every element is one product t_0 t_1 ... t_k (t_k applied first) of
    one representative per level.
    """

    n: int
    generators: tuple[Permutation, ...]
    transversals: tuple[tuple[Permutation, ...], ...]

    @property
    def order(self) -> int:
        return math.prod(len(reps) for reps in self.transversals)

    @functools.cached_property
    def elements(self) -> tuple[Permutation, ...]:
        """Every element, sorted lexicographically by image array."""
        products = [tuple(range(self.n))]
        for reps in reversed(self.transversals):
            products = [compose(t, p) for t in reps for p in products]
        return tuple(sorted(products))

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The permutation applying q first, then p."""
    return tuple(p[q[v]] for v in range(len(p)))


def invert(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for v, image in enumerate(p):
        out[image] = v
    return tuple(out)


def is_automorphism(g: Graph, perm: Permutation) -> bool:
    if sorted(perm) != list(range(g.n)):
        return False
    for v in range(g.n):
        for u in iter_bits(g.adj[v]):
            if not g.adj[perm[v]] >> perm[u] & 1:
                return False
    return True


def _refine(
    nbrs_g: list[list[int]],
    nbrs_h: list[list[int]],
    cg: list[int],
    ch: list[int],
) -> tuple[list[int], list[int]] | None:
    """Refine both colorings to a joint stable partition.

    Returns None as soon as the color multisets diverge (no isomorphism can
    respect the current partition).
    """
    while True:
        keys_g = [(cg[v], *sorted(cg[u] for u in nbrs_g[v])) for v in range(len(cg))]
        keys_h = [(ch[v], *sorted(ch[u] for u in nbrs_h[v])) for v in range(len(ch))]
        rank = {key: i for i, key in enumerate(sorted(set(keys_g) | set(keys_h)))}
        ng = [rank[k] for k in keys_g]
        nh = [rank[k] for k in keys_h]
        if sorted(ng) != sorted(nh):
            return None
        if ng == cg and nh == ch:
            return cg, ch
        cg, ch = ng, nh


def _target_class(colors: list[int]) -> int | None:
    """The color of a smallest class with more than one vertex, if any."""
    size: dict[int, int] = {}
    for c in colors:
        size[c] = size.get(c, 0) + 1
    return min(((sz, c) for c, sz in size.items() if sz > 1), default=(0, None))[1]


def _individualize(colors: list[int], v: int) -> list[int]:
    out = colors.copy()
    out[v] = len(colors)
    return out


def _neighbors(g: Graph) -> list[list[int]]:
    return [list(iter_bits(m)) for m in g.adj]


def _walk(
    nbrs_g: list[list[int]],
    nbrs_h: list[list[int]],
    adj_h: tuple[int, ...],
    cg: list[int],
    ch: list[int],
) -> Iterator[Permutation]:
    """Every isomorphism below the search node (cg, ch), in search order.

    The node's children individualize the first g-vertex of the target class
    against each h-vertex of that class in turn.
    """
    refined = _refine(nbrs_g, nbrs_h, cg, ch)
    if refined is None:
        return
    cg, ch = refined
    c = _target_class(cg)
    if c is None:
        # Everything is singleton on both sides: read off the bijection.
        where_h = {c: v for v, c in enumerate(ch)}
        perm = tuple(where_h[c] for c in cg)
        for v, nbrs in enumerate(nbrs_g):
            for u in nbrs:
                if not adj_h[perm[v]] >> perm[u] & 1:
                    return
        yield perm
        return
    v = cg.index(c)
    for u in (x for x in range(len(ch)) if ch[x] == c):
        yield from _walk(nbrs_g, nbrs_h, adj_h, _individualize(cg, v), _individualize(ch, u))


def _isomorphisms(
    g: Graph, h: Graph, colors: list[int] | None = None
) -> Iterator[Permutation]:
    """All isomorphisms g -> h, in deterministic search order.

    ``colors`` is the starting partition of both graphs, as ints below n
    (default: one class); only isomorphisms that keep it are found.
    """
    if g.n != h.n or g.edge_count() != h.edge_count():
        return
    start = [0] * g.n if colors is None else list(colors)
    yield from _walk(_neighbors(g), _neighbors(h), h.adj, start, start.copy())


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


def _stabilizer_chain(g: Graph) -> AutGroup:
    """Aut(g) as the pointwise stabilizer chain of the search's first path.

    The first path individualizes base points v_0, v_1, ... and ends in the
    identity.  Going up from its deepest node, each point u of the target
    class at level i that the generators found so far do not already reach
    from v_i gets one search: the first leaf of the branch that
    individualizes u against v_i, if any, is an automorphism fixing
    v_0..v_{i-1} and mapping v_i to u, and a new generator.  The generators
    found at levels i and below thus generate the stabilizer of
    v_0..v_{i-1}, with no Schreier-Sims step (McKay & Piperno, "Practical
    graph isomorphism, II", J. Symb. Comput. 60, 2014).
    """
    n = g.n
    nbrs = _neighbors(g)
    identity = tuple(range(n))
    path: list[tuple[list[int], int]] = []
    colors = [0] * n
    while True:
        # Both sides of the first path individualize the same vertex, so
        # they stay equal and never diverge.
        colors, _ = _refine(nbrs, nbrs, colors, colors)
        c = _target_class(colors)
        if c is None:
            break
        v = colors.index(c)
        path.append((colors, v))
        colors = _individualize(colors, v)
    generators: list[Permutation] = []
    transversals = []
    for colors, v in reversed(path):
        reps = {v: identity}
        for u in range(n):
            if colors[u] != colors[v] or u in reps:
                continue
            branch = _walk(nbrs, nbrs, g.adj, _individualize(colors, v), _individualize(colors, u))
            leaf = next(branch, None)
            if leaf is not None:
                generators.append(leaf)
                reps = _orbit(v, generators, identity)
        transversals.append(tuple(reps[u] for u in sorted(reps)))
    return AutGroup(n, tuple(generators), tuple(reversed(transversals)))


def _nontrivial_automorphism(g: Graph, colors: list[int]) -> Permutation | None:
    """The first automorphism of g that keeps ``colors`` and is not the identity."""
    identity = tuple(range(g.n))
    return next((p for p in _isomorphisms(g, g, colors) if p != identity), None)


def _check_order(n: int, caps: AutCaps) -> None:
    if n > caps.max_vertices:
        raise BudgetExceededError(
            f"graph order {n} exceeds the {caps.max_vertices}-vertex enumeration cap"
        )


# Large enough for every graph one oracle pass or one construction re-reads.
_AUT_CACHE_SIZE = 64
_aut_cache: OrderedDict[Graph, AutGroup] = OrderedDict()


def automorphisms(g: Graph, caps: AutCaps = DEFAULT_CAPS) -> AutGroup:
    """The full automorphism group, as a stabilizer chain."""
    _check_order(g.n, caps)
    group = _aut_cache.get(g)
    if group is None:
        group = _aut_cache[g] = _stabilizer_chain(g)
        if len(_aut_cache) > _AUT_CACHE_SIZE:
            _aut_cache.popitem(last=False)
    else:
        _aut_cache.move_to_end(g)
    if group.order > caps.max_group_order:
        raise BudgetExceededError(f"group order exceeds the cap of {caps.max_group_order}")
    return group


def find_isomorphism(g: Graph, h: Graph) -> Permutation | None:
    _check_order(max(g.n, h.n), DEFAULT_CAPS)
    return next(_isomorphisms(g, h), None)


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
    index = g.edge_index()
    image = list(alpha)
    # A vertex permutation that maps every edge onto an edge is an automorphism.
    for u, v in index:  # the keys run in edges() order
        a, b = alpha[u], alpha[v]
        k = index.get((a, b) if a < b else (b, a))
        if k is None:
            raise ValueError("alpha is not an automorphism of the base graph")
        image.append(g.n + k)
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


def check_aut_chain(g: Graph, caps: AutCaps = DEFAULT_CAPS) -> AutChainReport:
    """Compare the group orders of G, L(G), S(G), C(G), M(G), and G+.

    Applicable to connected non-cycle graphs of order at least 5; for those
    the six orders must agree and the two lift maps must exhaust the groups
    they land in.
    """
    from .graphs import encode_graph6

    g6 = encode_graph6(g) if 1 <= g.n <= 62 else f"<order {g.n}>"
    if not g.is_connected():
        return AutChainReport(g6, False, "graph is disconnected")
    if g.n < 5:
        return AutChainReport(g6, False, "order below 5")
    if g.is_cycle():
        return AutChainReport(g6, False, "cycles are excluded")

    base = automorphisms(g, caps)
    line, _ = line_graph(g)
    cent = central(g)
    plus = endline(g)
    report = AutChainReport(
        g6,
        True,
        None,
        base_order=base.order,
        line_order=automorphisms(line, caps).order,
        subdivision_order=automorphisms(subdivision(g).graph, caps).order,
        central_order=automorphisms(cent.graph, caps).order,
        middle_order=automorphisms(middle(g).graph, caps).order,
        endline_order=automorphisms(plus.graph, caps).order,
    )
    orders = {
        report.line_order,
        report.subdivision_order,
        report.central_order,
        report.middle_order,
        report.endline_order,
    }
    report.all_equal = orders == {report.base_order}

    # A lift is an injective homomorphism, so when the orders agree the
    # lifted generators generate the whole group they land in.
    report.lifts_exhaust = (
        all(is_automorphism(cent.graph, lift_to_central(a, g)) for a in base.generators)
        and all(is_automorphism(plus.graph, lift_to_endline(a, g)) for a in base.generators)
        and base.order == report.central_order == report.endline_order
    )
    return report
