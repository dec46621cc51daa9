"""Unlabeled-graph enumeration for sweeps and desk-scale property checks.

Graphs are generated by vertex augmentation and deduplicated up to
isomorphism, using cheap invariant buckets with exact isomorphism tests
inside each bucket. This scales comfortably to order 8 (11117 connected
graphs), which covers everything the built-in sweeps need.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .autos import _first_isomorphism, _Path
from .graphs import Graph, empty_graph

__all__ = ["all_graphs", "connected_graphs", "all_trees", "regular_graphs"]


def _fingerprint(g: Graph) -> tuple:
    degs = g.degrees()
    local = sorted(
        (degs[v], tuple(sorted(degs[u] for u in g.neighbors(v)))) for v in range(g.n)
    )
    return (g.n, g.edge_count(), tuple(local))


def _dedup(candidates: Iterable[Graph]) -> tuple[Graph, ...]:
    # Each representative keeps its side of the searches, so it is refined
    # once however many candidates meet it.  Buckets are keyed by the
    # fingerprint's hash: a collision only merges two buckets, whose pairs
    # are still tested exactly.
    buckets: dict[int, list[_Path]] = {}
    out: list[Graph] = []
    for g in candidates:
        bucket = buckets.setdefault(hash(_fingerprint(g)), [])
        if any(_first_isomorphism(seen, g) is not None for seen in bucket):
            continue
        bucket.append(_Path(g, compact=True))
        out.append(g)
    return tuple(out)


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """Every graph of order n, one representative per isomorphism class."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (empty_graph(1),)
    return _dedup(
        parent.add_vertex(mask)
        for parent in all_graphs(n - 1)
        for mask in range(1 << (n - 1))
    )


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
    return _dedup(
        parent.add_vertex(mask)
        for parent in connected_graphs(n - 1)
        for mask in range(1, 1 << (n - 1))
    )


@lru_cache(maxsize=None)
def all_trees(n: int) -> tuple[Graph, ...]:
    """Every tree of order n, one per isomorphism class."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (empty_graph(1),)
    return _dedup(
        parent.add_vertex(1 << v) for parent in all_trees(n - 1) for v in range(n - 1)
    )


def regular_graphs(degree: int, n: int) -> tuple[Graph, ...]:
    """Connected degree-regular graphs of order exactly n."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return tuple(g for g in connected_graphs(n) if g.degrees() == [degree] * n)
