"""Unlabeled-graph enumeration for sweeps and desk-scale property checks.

Graphs are generated by canonical augmentation (B. D. McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998).  Each graph of order n is
made from the representatives of order n-1 by adding a vertex v joined to a
mask of the parent's vertices, one mask per orbit of the parent's group on
masks.  A child is accepted only if v lies in its canonical cell: refine the
child's adjacency masks to stability with the automorphism search's own
step, and take the deletable vertices (those whose removal leaves a graph of
the family) of the highest cell among them.  The cells are ordered by
isomorphism-invariant counts and refine the degree order, so each candidate
first meets a degree test read off the parent: one vertex mask per degree
threshold gives, for a mask of size d, the parent's vertices of degree above
d in the child and those of degree d.  A deletable one of higher degree
rejects the child before it is built; at order 8 that is three candidates
in four.  With no deletable one of degree d, v's cell is {v}.  Else the
refinement starts from the degree partition, laid out and queued as the
first step from one cell leaves it, and stops once v's cell holds no other
deletable vertex or one ranks above it.

When that cell is one orbit of the child's group, McKay's argument shows that
exactly one accepted child falls in each isomorphism class, so the child is
new with no isomorphism test.  Whether it is depends only on the class.  When
it is not, more than one child of the class may be accepted; such children go
to a pool that keeps the first of each class by an exact isomorphism test.
Of the connected graphs, 1 class of order 7 goes there (2 children) and 19
of order 8 (43 children).

A cell of more than one vertex is a cell of the child's stable partition,
where the refinement ended.  Whether an automorphism maps v to another
vertex w of it is one search from that partition with v individualized,
against it with w individualized, so the partition is refined once per
candidate child, not again for each pair.  Representatives are the accepted
children in the order of their parents and masks; their tables are
symmetric by construction, so they skip the Graph constructor's check.  This
scales to order 8 (11117 connected graphs), which covers everything the
built-in sweeps need.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .autos import (
    Permutation,
    _degree_start,
    _first_isomorphism,
    _individualize,
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


def _degree_masks(adj: Sequence[int]) -> list[int]:
    """``at_least[k]``, the vertices of degree at least k, for k = 0..n+1."""
    at_least = [0] * (len(adj) + 2)
    for u, m in enumerate(adj):
        for k in range(m.bit_count() + 1):
            at_least[k] |= 1 << u
    return at_least


def _canonical_cell(
    parent_adj: Sequence[int], at_least: list[int], mask: int, deletable: Callable[[int, int], bool]
) -> tuple[list[int], list[int], tuple | None] | None:
    """The child's adjacency, the deletable vertices of its highest stable
    cell, and its stable partition (cell ids, cells, wide cells), if the new
    vertex v (the last) is among those vertices; else None.

    The child joins v to ``mask`` of the parent, whose ``_degree_masks`` are
    ``at_least``.  The cells refine the degree order, so a deletable vertex
    of higher degree than v rejects the child before it is built, and the
    refinement starts from the degree partition.  Cell ids are offsets, and
    each step lays a cell's fragments out inside its own offset range, so a
    vertex ranked above another stays above it: the refinement stops as soon
    as no deletable vertex shares v's cell, or one is ranked above it.  When
    the cell has more than one vertex, the refinement has ended on an empty
    queue, so the partition is stable; when the cell is {v} it may be None.
    """
    d = mask.bit_count()
    higher = at_least[d + 1] | at_least[d] & mask
    if any(deletable(mask, w) for w in iter_bits(higher)):
        return None
    rivals = [w for w in iter_bits((at_least[d] | at_least[d - 1] & mask) & ~higher) if deletable(mask, w)]
    v = len(parent_adj)
    bit = 1 << v
    adj = [m | bit if mask >> u & 1 else m for u, m in enumerate(parent_adj)]
    adj.append(mask)
    if not rivals:
        return adj, [v], None
    ids, cells, wide, queue, _ = _degree_start(adj)
    while rivals and queue:
        _step(adj, None, ids, cells, wide, queue)
        top = ids[v]
        if any(ids[w] > top for w in rivals):
            return None
        rivals = [w for w in rivals if ids[w] == top]
    return adj, [v, *rivals], (ids, cells, wide)


def _one_orbit(g: Graph, cell: list[int], stable: tuple | None) -> bool:
    """Whether the vertices of ``cell``, a cell of g's ``stable`` partition
    (not read when the cell is one vertex), form one orbit of Aut(g)."""
    if len(cell) == 1:
        return True
    v = cell[0]
    path = _Path(g, start=_individualize(*stable, v))
    found: list[Permutation] = []
    orbits = list(range(g.n))
    for w in cell[1:]:
        if orbits[w] == orbits[v]:
            continue
        # The first automorphism mapping v to w, if any.
        phi = next(_walk(path, 0, g.adj, _individualize(*stable, w), False), None)
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
        at_least = _degree_masks(parent.adj)
        may_delete = deletable(parent)
        for mask in _mask_orbit_reps(parent, masks):
            found = _canonical_cell(parent.adj, at_least, mask, may_delete)
            if found is None:
                continue
            adj, cell, stable = found
            # The table is symmetric and loop-free by construction.
            child = Graph._unchecked(len(adj), tuple(adj))
            if not _one_orbit(child, cell, stable):
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
