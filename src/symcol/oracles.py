"""Exhaustive search oracles for the coloring parameters.

Ground truth at desk scale. Each parameter is computed by canonical
backtracking over colorings: a new color may appear only after all smaller
colors have appeared, which collapses color permutations without affecting
minima. Witnesses are the first solutions in a fixed deterministic branch
order (lowest color first for the proper kinds, newest color first for the
unconstrained distinguishing kinds), so they are reproducible run to run.
Searches accept a node budget and an optional worker count; one given no
budget takes that of the running check, then SYMCOL_BUDGET. None of the
value, the witness, ``nodes`` and the budget verdict depends on the worker
count: the parallel search is the sequential one cut into slices, charged in
the sequential order. ``nodes`` and the budget cover every level a call
searches.  The distinguishing kinds (D, Dp, Dpp, chi2D) track every element
of the graph's automorphism group as one bit of an integer: bit i stands for
the i-th product that ``autos._products`` forms from the transversals of the
group's stabilizer chain.  For each pair of colorable elements, a mask holds
the group elements that map one onto the other.  The masks are built level
by level from the transversals' action on the vertices, with no product
formed, and a node drops the elements its color breaks with a few ORs of
them.  The search that builds the group is held to the call's budget on its
own (its nodes are not in ``nodes``), and a search whose masks could take
more than ``autos.ELEMENT_CAP`` words of 64 bits raises BudgetExceededError
before any mask is built.  So does Dp's NotApplicableError, read off the
graph: two isolated vertices or a K2 component give a symmetry that fixes
every edge.

A distinguishing search also prunes.  A live group element that fixes every
uncolored element maps no uncolored element anywhere, so no later color can
break it, and the subtree below holds no distinguishing coloring.  For each
element a mask holds the group elements that fix it; ``settled[p]`` ANDs
those of the elements at positions p and later, and a color at position p
is dropped, once counted as a node, when a live element is in
``settled[p + 1]``.  Only subtrees without a solution go, so values and
witnesses are unchanged and ``nodes`` only drops.

The chitd search checks forward for total domination.  A vertex u is
dead once every color used so far has a class member outside N(u), and no
new color can still dominate it: either all ``level`` colors are used, or u
has no uncolored neighbor (a new color's class holds only vertices uncolored
now).  Colors only ever gain such members, so a dead vertex stays dead and
the node is pruned; this too removes only subtrees that hold no solution, and
values and witnesses are again unchanged.  At a leaf no vertex has an
uncolored neighbor, so the check at the last placement is the leaf's
domination test.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import autos
from .autos import automorphisms
from .colorings import TDCPartition, TotalColoring, coloring_to_json
from .errors import (
    DEFAULT_BUDGET, BudgetExceededError, NotApplicableError, _check_budget, _resolve_budget,
)
from .graphs import Graph

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "PARAM_KINDS",
    "DEFAULT_BUDGET",
    "OracleResult",
    "exact_parameter",
    "lower_bound_certificate",
    "upper_bound_witness",
]


class _Kind(NamedTuple):
    """What a parameter kind colors, and the rules its colorings keep."""

    vertices: bool
    edges: bool
    proper: bool = False  # elements that meet get distinct colors
    distinguishing: bool = False  # no nontrivial automorphism keeps every color
    avd: bool = False  # adjacent vertices of one degree see distinct color sets
    dominating: bool = False  # every vertex is adjacent to all of some color class


# The parameter kinds, in the CLI's --param order:
#   D      distinguishing number
#   Dp     distinguishing index
#   Dpp    total distinguishing number
#   chi2   total chromatic number
#   chi2D  total distinguishing chromatic number
#   chi2a  adjacent-vertex-distinguishing (AVD) total chromatic number
#   chitd  total dominator chromatic number
_KINDS = {
    "D": _Kind(vertices=True, edges=False, distinguishing=True),
    "Dp": _Kind(vertices=False, edges=True, distinguishing=True),
    "Dpp": _Kind(vertices=True, edges=True, distinguishing=True),
    "chi2": _Kind(vertices=True, edges=True, proper=True),
    "chi2D": _Kind(vertices=True, edges=True, proper=True, distinguishing=True),
    "chi2a": _Kind(vertices=True, edges=True, proper=True, avd=True),
    "chitd": _Kind(vertices=True, edges=False, proper=True, dominating=True),
}
PARAM_KINDS = tuple(_KINDS)
_PREFIX_TARGET = 256
_MAX_PREFIX_DEPTH = 12

_SAT = "sat"
_UNSAT = "unsat"
_BUDGET = "budget"
_COLLECT = "collect"


class _BudgetHit(Exception):
    pass


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exact parameter search.

    ``value`` is None when every level up to the cap was refuted. The
    witness uses exactly ``value`` colors and passes the matching verifier;
    every smaller level was refuted by exhausted search.
    """

    kind: str
    value: int | None
    witness: TotalColoring | TDCPartition | None
    nodes: int
    seconds: float

    def to_json(self, g: Graph) -> dict:
        if self.witness is None:
            wit = None
        elif isinstance(self.witness, TDCPartition):
            wit = self.witness.to_json()
        else:
            wit = coloring_to_json(g, self.witness)
        return {
            "kind": self.kind,
            "value": self.value,
            "witness": wit,
            "nodes": self.nodes,
            "seconds": round(self.seconds, 3),
        }


def _moved_masks(
    transversals: Sequence[Sequence[tuple[int, ...]]], g: Graph, universe: list[int]
) -> tuple[int, dict[tuple[int, int], int], dict[int, int]]:
    """The group elements that move some element of ``universe``, for each
    pair a < b of them the elements that map a to b or b to a, and for each
    a the elements that fix a, as bit masks.  Vertex v is element v and edge
    k, ``g.edges()[k]``, element n + k.

    Bit i stands for the i-th product t_0 t_1 ... t_k that
    ``autos._products`` forms.  No product is formed: the masks of the
    products of the last j transversals give those of the last j + 1, since
    t p maps a to t(y) for every p that maps a to y, and t's products fill
    one block of bits.  That gives up to n masks per vertex; an element maps
    the edge uv onto xy iff it maps u to x and v to y, or u to y and v to x.
    """
    n, edges, index = g.n, g.edges(), g.edge_index()
    images = {a: {a: 1} for a in range(n)}
    size = 1
    for reps in reversed(transversals):
        blocks = list(zip(reps, range(0, len(reps) * size, size)))
        for a, masks in images.items():
            grown: dict[int, int] = {}
            for y, mask in masks.items():
                for t, shift in blocks:
                    z = t[y]
                    grown[z] = grown.get(z, 0) | mask << shift
            images[a] = grown
        size *= len(reps)

    def onto(a: int, b: int) -> int:
        if a < n:
            return images[a].get(b, 0)
        (u, v), (x, y) = edges[a - n], edges[b - n]
        iu, iv = images[u], images[v]
        return iu.get(x, 0) & iv.get(y, 0) | iu.get(y, 0) & iv.get(x, 0)

    every = (1 << size) - 1
    live = 0
    moved: dict[tuple[int, int], int] = {}
    fixed = {a: onto(a, a) for a in universe}
    for a in universe:
        live |= every ^ fixed[a]
        if a < n:
            targets = set(images[a])
        else:
            u, v = edges[a - n]
            ends = ((x, y) if x < y else (y, x) for x in images[u] for y in images[v])
            targets = {n + index[e] for e in ends if e in index}
        for b in targets:
            # What maps a to b maps b to a by its inverse.
            if b > a and (mask := onto(a, b)):
                moved[a, b] = mask | onto(b, a)
    return live, moved, fixed


class _Search:
    """One (graph, kind) satisfiability problem, searched at the level ``run``
    is given.  Building it orders the elements and, for the distinguishing
    kinds only, looks up the group and builds its masks from the group's
    action on the vertices; none of that depends on the level, so an oracle
    call builds one.  The kind's rules are read off ``_KINDS`` once, here."""

    def __init__(self, g: Graph, kind: str):
        spec = _KINDS[kind]
        self.g = g
        self.kind = kind
        n = g.n
        edges = g.edges()
        m = len(edges)
        self.n, self.m = n, m
        self.avd, self.dominating = spec.avd, spec.dominating

        universe = [e for e in range(n + m) if (spec.vertices if e < n else spec.edges)]
        self.universe = universe

        # Conflict lists over global element ids (vertex v is id v, edge k
        # is id n+k): for a proper kind, the colored elements that meet each.
        incident: list[list[int]] = [[] for _ in range(n)]
        for k, (u, v) in enumerate(edges):
            incident[u].append(n + k)
            incident[v].append(n + k)
        self.incident = incident
        conflicts: list[tuple[int, ...]] = [()] * (n + m)
        if spec.proper:
            for e in universe:
                if e < n:
                    conflicts[e] = tuple(g.neighbors(e)) + tuple(incident[e] if spec.edges else ())
                else:
                    u, v = edges[e - n]
                    conflicts[e] = (u, v) + tuple(x for x in incident[u] + incident[v] if x != e)
        self.conflicts = conflicts

        # ``live`` masks the group elements that move some colorable element
        # (see ``_moved_masks``), and a node keeps those its colors have not
        # broken; kinds that track no group start and stay at 0.
        self.live = 0
        moved: dict[tuple[int, int], int] = {}
        fixed: dict[int, int] = {}
        if spec.distinguishing:
            group = automorphisms(g)
            # Masks held: up to n per vertex while building, then the live
            # one and one per colorable element and pair; a bit per element.
            words = -(-group.order // 64)
            count = n * n + len(universe) * (len(universe) + 1) // 2 + 1
            if words * count > autos.ELEMENT_CAP:
                raise BudgetExceededError(
                    f"{kind}: the search masks ({words} words x {count}) exceed "
                    f"the cap of {autos.ELEMENT_CAP} words"
                )
            # A nontrivial symmetry fixes every edge iff some two isolated
            # vertices or the ends of a K2 component exist for it to swap: a
            # vertex of degree 2 or more is the one common end of two of its
            # edges, and a leaf hangs off such a vertex or off another leaf.
            # The other kinds color every vertex, which no such symmetry fixes.
            if kind == "Dp" and (sum(not row for row in g.adj) >= 2 or any(
                    g.adj[u] == 1 << v and g.adj[v] == 1 << u for u, v in edges)):
                raise NotApplicableError(
                    f"{kind}: a nontrivial symmetry fixes every colorable "
                    "element, so no coloring can break it"
                )
            self.live, moved, fixed = _moved_masks(group.transversals, g, universe)

        # For the unconstrained distinguishing kinds every color is always
        # legal, so a lowest-color-first descent walks an all-1s path that
        # breaks no symmetry and the search drowns in monochromatic subtrees
        # when the universe is large.  Branching on the newest color first
        # makes the leftmost path color-diverse, which empties the live list
        # almost immediately on satisfiable levels.
        self.newest_first = spec.distinguishing and not (spec.proper or spec.avd or spec.dominating)

        if self.newest_first:
            # Largest orbits first: an element's orbit is itself and the
            # elements it is paired with.
            orbit = Counter(e for pair in moved for e in pair)
            order = sorted(universe, key=lambda e: (-orbit[e], e))
        else:
            # Most conflicts first, after the AVD lead for an AVD kind.
            order = sorted(universe, key=lambda e: (-len(conflicts[e]), e))
            if spec.avd:
                order = self._avd_lead(order)
        self.order = order
        self.N = len(order)

        # kills[p] pairs each earlier position's element x with the mask of
        # the elements that map x and order[p] onto each other.
        pos = {e: p for p, e in enumerate(order)}
        self.kills: list[list[tuple[int, int]]] = [[] for _ in order]
        for (a, b), mask in moved.items():
            if pos[a] < pos[b]:
                a, b = b, a
            self.kills[pos[a]].append((b, mask))

        # settled[p] masks the group elements that fix every element at
        # position p or later, and settled[N], -1, all of them.  One that the
        # colors of the earlier positions have not broken can never be
        # broken, so the search drops a node that keeps one live.
        self.settled = [-1] * (self.N + 1)
        for p in range(self.N - 1, -1, -1):
            self.settled[p] = self.settled[p + 1] & fixed.get(order[p], 0)

        if spec.avd:
            self.close_pos = [0] * n
            self.closing: list[list[int]] = [[] for _ in range(self.N)]
            for v in range(n):
                self.close_pos[v] = max(pos[e] for e in (v, *self.incident[v]))
                self.closing[self.close_pos[v]].append(v)
            self.same_deg_nbrs = [
                tuple(u for u in g.neighbors(v) if g.degree(u) == g.degree(v))
                for v in range(n)
            ]

        if spec.dominating:
            if any(g.degree(v) == 0 for v in range(n)):
                raise NotApplicableError(
                    "total domination is impossible with an isolated vertex"
                )
            self.non_nbrs = [
                tuple(u for u in range(n) if not g.has_edge(v, u)) for v in range(n)
            ]

    def _avd_lead(self, base: list[int]) -> list[int]:
        # Seed with an adjacent same-degree pair of highest degree: their
        # profiles close earliest, which is where AVD refutations live.
        g = self.g
        pairs = [(u, v) for u, v in g.edges() if g.degree(u) == g.degree(v)]
        if not pairs:
            return base
        u, v = min(pairs, key=lambda uv: (-g.degree(uv[0]), uv))
        head = [u, v, *sorted(set(self.incident[u] + self.incident[v]))]
        return list(dict.fromkeys(head + base))

    # -- the DFS -----------------------------------------------------------

    def run(
        self, level: int, budget: int, prefix: tuple[int, ...] = (), stop_depth: int | None = None
    ) -> tuple[str, object, int]:
        """Search for a coloring with at most ``level`` colors.

        Returns (status, data, nodes): data is the full assignment tuple on
        SAT, and None otherwise.  In collection mode it is the list of
        (node count when reached, prefix) pairs for the prefixes of depth
        ``stop_depth`` in tree order; the list ends early, with a shorter
        prefix, at a node where the sequential search would stop.
        """
        self.level = level
        self.f = [0] * (self.n + self.m)
        self.maxused = 0
        self.nodes = 0
        self.budget = budget
        self.prefix = tuple(prefix)
        self.stop_depth = stop_depth
        self.collected: list[tuple[int, tuple[int, ...]]] | None = (
            [] if stop_depth is not None else None
        )
        if self.dominating:
            # poison[u] has bit c-1 once class c holds a vertex outside N(u);
            # free[u] counts the uncolored neighbors of u.
            self.poison = [0] * self.n
            self.free = [self.g.degree(u) for u in range(self.n)]
        try:
            sat = self._dfs(0, self.live)
        except _BudgetHit:
            return (_BUDGET, None, self.nodes)
        if self.collected is not None:
            return (_COLLECT, self.collected, self.nodes)
        if sat:
            return (_SAT, tuple(self.f), self.nodes)
        return (_UNSAT, None, self.nodes)

    def _collect(self, depth: int) -> None:
        assert self.collected is not None
        prefix = tuple(self.f[self.order[q]] for q in range(depth))
        self.collected.append((self.nodes, prefix))

    def _dfs(self, p: int, live: int) -> bool:
        if p == self.stop_depth:
            self._collect(p)
            return False
        if p == self.N:
            return not live
        e = self.order[p]
        forced = self.prefix[p] if p < len(self.prefix) else 0
        limit = min(self.level, self.maxused + 1)
        banned = 0
        for h in self.conflicts[e]:
            c = self.f[h]
            if c:
                banned |= 1 << c
        colors = range(limit, 0, -1) if self.newest_first else range(1, limit + 1)
        for c in colors:
            if forced and c != forced:
                continue
            if banned >> c & 1:
                continue
            self.nodes += 1
            if self.nodes > self.budget:
                raise _BudgetHit()
            prev_max = self.maxused
            self.f[e] = c
            if c > prev_max:
                self.maxused = c
            ok = True
            trail: list[tuple[int, int]] = []
            if self.dominating:
                ok = self._poison_place(e, c, trail)
            elif self.avd:
                ok = self._closure_ok(p)
            new_live = live
            if ok and live:
                # An element dies when it maps e onto an element of another
                # color, or one of another color onto e.
                kill = 0
                for x, mask in self.kills[p]:
                    if self.f[x] != c:
                        kill |= mask
                new_live = live & ~kill
                ok = not new_live & self.settled[p + 1]
            if ok and not new_live and self.newest_first:
                # No symmetry survives, so every completion succeeds and
                # the search stops here.  A collection pass ends with this
                # node as its last prefix.  Otherwise take the completion
                # the branch order reaches first: each remaining position
                # takes the newest color available.  A slice never gets
                # here inside its prefix, since collection stops first.
                if self.collected is not None:
                    self._collect(p + 1)
                    return True
                for q in range(p + 1, self.N):
                    self.maxused = min(self.level, self.maxused + 1)
                    self.f[self.order[q]] = self.maxused
                return True
            if ok and self._dfs(p + 1, new_live):
                return True
            if self.dominating:
                for v, bit in trail:
                    self.poison[v] ^= bit
                for u in self.conflicts[e]:
                    self.free[u] += 1
            self.f[e] = 0
            self.maxused = prev_max
        return False

    def _poison_place(self, v: int, c: int, trail: list[tuple[int, int]]) -> bool:
        """Record v's color c, and False if some vertex can no longer be
        dominated: every used color is poisoned for it, and no new color is
        left or it has no uncolored neighbor to found one."""
        bit = 1 << (c - 1)
        poison, free = self.poison, self.free
        for u in self.non_nbrs[v]:
            if not poison[u] & bit:
                poison[u] |= bit
                trail.append((u, bit))
        for u in self.conflicts[v]:
            free[u] -= 1
        used = (1 << self.maxused) - 1
        closed = self.maxused == self.level
        for u in range(self.n):
            if not used & ~poison[u] and (closed or not free[u]):
                return False
        return True

    def _closure_ok(self, p: int) -> bool:
        for v in self.closing[p]:
            prof = self._profile(v)
            for u in self.same_deg_nbrs[v]:
                if self.close_pos[u] <= p and self._profile(u) == prof:
                    return False
        return True

    def _profile(self, v: int) -> int:
        s = 1 << self.f[v]
        for e in self.incident[v]:
            s |= 1 << self.f[e]
        return s


def _witness_from(g: Graph, kind: str, assignment: tuple[int, ...]):
    n = g.n
    spec = _KINDS[kind]
    if kind == "chitd":
        classes: dict[int, set[int]] = {}
        for v in range(n):
            classes.setdefault(assignment[v], set()).add(v)
        return TDCPartition(tuple(classes[c] for c in sorted(classes)))
    vertex_part = tuple(assignment[:n]) if spec.vertices else None
    edge_part = dict(zip(g.edges(), assignment[n:])) if spec.edges else None
    return TotalColoring(vertex_part, edge_part)


def _start_worker(budget: int) -> None:
    """Hold a worker's group lookups in ``_Search`` to the pool's budget."""
    _check_budget.set(budget)


# A worker builds the search of its first slice and keeps it for every later
# slice of the same (graph, kind), at any level: building one orders the
# elements, and for the distinguishing kinds looks up the group and builds its
# masks, while ``run`` resets all of its mutable state.
@functools.lru_cache(maxsize=1)
def _worker_search(n: int, adj: tuple[int, ...], kind: str) -> _Search:
    return _Search(Graph(n, adj), kind)


def _worker_run(args):
    key, level, prefix, budget = args
    return _worker_search(*key).run(level, budget, prefix=prefix)


def _run_level(
    search: _Search, level: int, budget: int, pool: ProcessPoolExecutor | None
) -> tuple[str, object, int]:
    if pool is None or search.N <= 1:
        return search.run(level, budget)

    # Cut the sequential search into slices, the subtrees below the prefixes
    # of one collection pass.  That pass walks the nodes above the slices in
    # the sequential order and records the node count at each prefix, so
    # charging the slices in tree order reproduces the sequential status,
    # data and node count.  Shallower passes only choose the depth and are
    # not charged.
    for depth in range(1, min(search.N, _MAX_PREFIX_DEPTH + 1)):
        status, prefixes, above = search.run(level, budget, stop_depth=depth)
        if status == _BUDGET:
            # The sequential search may stop before it has walked all of the
            # nodes above the slices.
            return search.run(level, budget)
        if not prefixes or len(prefixes) >= _PREFIX_TARGET:
            break

    # A slice's forced prefix costs one node per position, already counted
    # in ``at``, so it gets what the budget leaves after ``at`` plus those.
    key = (search.n, search.g.adj, search.kind)
    futures = [
        pool.submit(_worker_run, (key, level, pfx, budget - at + len(pfx)))
        for at, pfx in prefixes
    ]
    below = 0
    try:
        for (at, pfx), fut in zip(prefixes, futures):
            status, data, used = fut.result()
            below += used - len(pfx)
            if status == _BUDGET or at + below > budget:
                return (_BUDGET, None, budget + 1)
            if status == _SAT:
                return (_SAT, data, at + below)
    finally:
        for fut in futures:
            fut.cancel()
    if above + below > budget:
        return (_BUDGET, None, budget + 1)
    return (_UNSAT, None, above + below)


def _solve(
    g: Graph,
    kind: str,
    lo: int | None,
    hi: int | None,
    message: str,
    budget: int | None,
    workers: int,
):
    """Search ``kind`` at levels lo..hi in order up to the first satisfiable one.

    Levels below 1 are skipped.  ``lo`` None starts at a sound lower bound,
    and ``hi`` None stops at the trivial all-distinct bound.  Returns
    (level, witness, nodes), with level and witness None when every level is
    refuted.  Raises BudgetExceededError, with ``message`` filled in
    for the level it stopped at, when the node budget, which also bounds each
    group lookup, runs out.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown parameter kind {kind!r}")
    spec = _KINDS[kind]
    if lo is None:
        # No class of a total dominator coloring dominates its own members;
        # a proper total coloring gives a vertex and its edges distinct colors.
        lo = 2 if spec.dominating else g.max_degree() + 1 if spec.proper and spec.edges else 1
    if hi is None:
        # One color per colored element, and at least one for an edge kind.
        hi = g.n * spec.vertices + g.edge_count() * spec.edges
        hi = hi if spec.vertices else max(hi, 1)
    budget = _resolve_budget(budget)
    nodes = 0
    pool = None
    if workers > 1:
        # Imported here, so that a one-worker run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(budget,))

    levels = range(max(lo, 1), hi + 1)
    data = None
    token = _check_budget.set(budget)
    try:
        search = _Search(g, kind) if levels else None
        for level in levels:
            status, data, used = _run_level(search, level, budget - nodes, pool)
            nodes += used
            if status == _SAT:
                break
            if status == _BUDGET:
                raise BudgetExceededError(
                    "node budget exhausted " + message.format(kind=kind, level=level),
                    nodes=nodes,
                )
        else:
            level = None
    finally:
        _check_budget.reset(token)
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    witness = None if data is None else _witness_from(g, kind, data)
    return level, witness, nodes


def exact_parameter(
    g: Graph,
    kind: str,
    cap: int | None = None,
    *,
    budget: int | None = None,
    workers: int = 1,
) -> OracleResult:
    """Compute a coloring parameter exactly, with a witness.

    Tries each level from a sound lower bound up to ``cap`` (default: the
    trivial all-distinct bound) and returns at the first satisfiable one.
    ``value`` is None if every level up to the cap was refuted. Raises
    BudgetExceededError when the node budget runs out first.
    """
    start = time.perf_counter()
    level, witness, nodes = _solve(
        g, kind, None, cap,
        "searching {kind} at {level} colors; all levels below {level} are refuted",
        budget, workers,
    )
    return OracleResult(kind, level, witness, nodes, time.perf_counter() - start)


def lower_bound_certificate(
    g: Graph,
    kind: str,
    value: int,
    *,
    budget: int | None = None,
    workers: int = 1,
) -> bool:
    """True iff exhaustive search refutes every coloring with value-1 colors."""
    level, _, _ = _solve(g, kind, value - 1, value - 1, "refuting {kind} at {level} colors", budget, workers)
    return level is None


def upper_bound_witness(
    g: Graph,
    kind: str,
    value: int,
    *,
    budget: int | None = None,
    workers: int = 1,
):
    """A witness coloring with at most ``value`` colors, or None.

    Satisfiability check at one level, for bound verification without the
    cost of refuting smaller levels first.
    """
    _, witness, _ = _solve(g, kind, value, value, "searching {kind} at {level} colors", budget, workers)
    return witness
