"""Unlabeled-graph enumeration for sweeps and desk-scale property checks.

Graphs are generated by canonical augmentation (B. D. McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998).  Each graph of order n is
made from the representatives of order n-1 by adding a vertex v joined to a
mask of the parent's vertices, one mask per orbit of the parent's group on
masks.  A child is accepted only if v lies in its canonical cell: refine the
child's adjacency masks (the parent's, with v's bit added) to stability from
one cell with the automorphism search's own step, and take the deletable
vertices (those whose removal leaves a graph of the family) of the highest
cell among them.  The cells are ordered by isomorphism-invariant counts and
refine the degree order, so a deletable vertex of higher degree than v
rejects the child before any refinement.

When that cell is one orbit of the child's group, McKay's argument shows that
exactly one accepted child falls in each isomorphism class, so the child is
new with no isomorphism test.  Whether it is depends only on the class.  When
it is not, more than one child of the class may be accepted; such children go
to a pool that keeps the first of each class by an exact isomorphism test.
Of the connected graphs, 1 class of order 7 goes there (2 children) and 19
of order 8 (43 children).

Whether an automorphism maps v to another vertex of the cell is one search
on the child's masks, from v individualized against that vertex.
Representatives are the accepted children in the order of their parents and
masks.  This scales to order 8 (11117 connected graphs), which covers
everything the built-in sweeps need.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .autos import (
    Permutation,
    _first_isomorphism,
    _partition,
    _Path,
    _stabilizer_chain,
    _step,
    _walk,
    vertex_orbits,
)
from .graphs import Graph, empty_graph, iter_bits

__all__ = ["all_graphs", "connected_graphs", "all_trees", "regular_graphs"]

# Given a parent, whether a vertex w of the parent may be deleted from the
# child that joins a new vertex to a mask: whether removing it leaves a graph
# of the family.  The new vertex itself always may be.
Deletable = Callable[[Graph], Callable[[int, int], bool]]


def _mask_images(perm: Sequence[int]) -> list[int]:
    """The image of every mask of perm's points, indexed by mask."""
    images = [0]
    for u in range(len(perm)):
        bit = 1 << perm[u]
        images += [x | bit for x in images]
    return images


def _mask_orbit_reps(parent: Graph, masks: Sequence[int]) -> list[int]:
    """The first mask of each orbit of Aut(parent) on ``masks``, which the
    group maps onto themselves, in the order of ``masks``."""
    generators = _stabilizer_chain(parent).generators
    if not generators:
        return list(masks)
    tables = [_mask_images(perm) for perm in generators]
    seen = set()
    reps = []
    for mask in masks:
        if mask in seen:
            continue
        reps.append(mask)
        seen.add(mask)
        orbit = [mask]
        for x in orbit:
            for images in tables:
                y = images[x]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
    return reps


def _canonical_cell(
    adj: list[int], mask: int, deletable: Callable[[int, int], bool]
) -> list[int] | None:
    """The deletable vertices of the highest stable cell, if the new vertex
    (the last) is among them; else None.

    Cell ids are offsets, and each step lays a cell's fragments out inside
    its own offset range, so a vertex ranked above another stays above it:
    the refinement stops as soon as no deletable vertex shares v's cell, or
    one is ranked above it.  The first step splits the one cell by degree,
    so a deletable vertex of higher degree rejects the child before any step
    is run.
    """
    v = len(adj) - 1
    degree = mask.bit_count()
    rivals = []
    for w in range(v):
        if adj[w].bit_count() >= degree and deletable(mask, w):
            if adj[w].bit_count() > degree:
                return None
            rivals.append(w)
    ids, cells, wide, queue = _partition([0] * len(adj))
    while rivals and queue:
        _step(adj, None, ids, cells, wide, queue)
        top = ids[v]
        if any(ids[w] > top for w in rivals):
            return None
        rivals = [w for w in rivals if ids[w] == top]
    return [v, *rivals]


def _one_orbit(g: Graph, cell: list[int]) -> bool:
    """Whether the vertices of ``cell`` form one orbit of Aut(g)."""
    if len(cell) == 1:
        return True
    v = cell[0]
    path = _Path(g, [int(u == v) for u in range(g.n)])
    found: list[Permutation] = []
    orbits = list(range(g.n))
    for w in cell[1:]:
        if orbits[w] == orbits[v]:
            continue
        # The first automorphism mapping v to w, if any.
        phi = next(_walk(path, 0, g.adj, _partition([int(u == w) for u in range(g.n)]), False), None)
        if phi is None:
            return False
        found.append(phi)
        orbits = vertex_orbits(found, g.n)
    return True


def _augment(parents: Iterable[Graph], masks: Sequence[int], deletable: Deletable) -> tuple[Graph, ...]:
    """One representative per class of the children of ``parents`` (all of
    one order) by one new vertex joined to one of ``masks``, whose removal
    ``deletable`` allows."""
    out: list[Graph] = []
    # Pooled children by degree sequence.
    pool: dict[tuple, list[_Path]] = {}
    for parent in parents:
        v = parent.n
        bit = 1 << v
        may_delete = deletable(parent)
        for mask in _mask_orbit_reps(parent, masks):
            adj = [m | bit if mask >> u & 1 else m for u, m in enumerate(parent.adj)]
            adj.append(mask)
            cell = _canonical_cell(adj, mask, may_delete)
            if cell is None:
                continue
            child = Graph(v + 1, tuple(adj))
            if not _one_orbit(child, cell):
                bucket = pool.setdefault(tuple(sorted(m.bit_count() for m in adj)), [])
                if any(_first_isomorphism(seen, child) is not None for seen in bucket):
                    continue
                bucket.append(_Path(child))
            out.append(child)
    return tuple(out)


def _any_vertex(parent: Graph) -> Callable[[int, int], bool]:
    return lambda mask, w: True


def _non_cut(parent: Graph) -> Callable[[int, int], bool]:
    """The child stays connected without w when the mask meets every
    component of the parent without w."""
    full = (1 << parent.n) - 1
    split = []
    for w in range(parent.n):
        alive = full & ~(1 << w)
        components = []
        while alive:
            reach = frontier = alive & -alive
            while frontier:
                grown = 0
                for u in iter_bits(frontier):
                    grown |= parent.adj[u]
                frontier = grown & alive & ~reach
                reach |= frontier
            components.append(reach)
            alive &= ~reach
        split.append(components)
    return lambda mask, w: all(mask & c for c in split[w])


def _leaf(parent: Graph) -> Callable[[int, int], bool]:
    return lambda mask, w: parent.adj[w].bit_count() + (mask >> w & 1) == 1


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """Every graph of order n, one representative per isomorphism class."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (empty_graph(1),)
    return _augment(all_graphs(n - 1), range(1 << (n - 1)), _any_vertex)


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """Every connected graph of order n, one per isomorphism class.

    Augmentation never leaves the connected world: each connected graph has
    a vertex whose removal keeps it connected (a leaf of a spanning tree),
    so attaching one new vertex with a nonempty neighborhood to each smaller
    connected graph reaches every class.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (empty_graph(1),)
    return _augment(connected_graphs(n - 1), range(1, 1 << (n - 1)), _non_cut)


@lru_cache(maxsize=None)
def all_trees(n: int) -> tuple[Graph, ...]:
    """Every tree of order n, one per isomorphism class."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (empty_graph(1),)
    return _augment(all_trees(n - 1), [1 << v for v in range(n - 1)], _leaf)


def regular_graphs(degree: int, n: int) -> tuple[Graph, ...]:
    """Connected degree-regular graphs of order exactly n."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return tuple(g for g in connected_graphs(n) if g.degrees() == [degree] * n)
