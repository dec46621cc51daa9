"""Enumeration counts against the published sequences, checks by canonical
forms that do not use the library's isomorphism search, and sanity checks."""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import defaultdict

import pytest

from symcol import families
from symcol.autos import automorphisms, find_isomorphism, vertex_orbits
from symcol.families import all_graphs, all_trees, connected_graphs, regular_graphs
from symcol.graphs import complete_graph, cycle_graph, encode_graph6, path_graph, star_graph

ALL_COUNTS = [1, 2, 4, 11, 34, 156, 1044]
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
# SHA-256 of connected_graphs(8)'s graph6 strings, one a line.
CONNECTED_8_DIGEST = "1c0794317c1ee7d1f0ea5722ca93e9de54d8ea6de29e07199f087942ef381e8b"


def test_all_graph_counts():
    for n, want in enumerate(ALL_COUNTS, start=1):
        assert len(all_graphs(n)) == want


def test_connected_graph_counts():
    for n, want in enumerate(CONNECTED_COUNTS, start=1):
        got = connected_graphs(n)
        assert len(got) == want
        assert all(g.is_connected() for g in got)


def test_enumeration_is_not_charged_to_the_node_budget(monkeypatch):
    # The built-in orders bound the enumeration's searches, so one node of
    # budget leaves every family whole.
    monkeypatch.setenv("SYMCOL_BUDGET", "1")
    assert len(connected_graphs.__wrapped__(7)) == CONNECTED_COUNTS[6]
    assert len(all_graphs.__wrapped__(6)) == ALL_COUNTS[5]
    assert len(all_trees.__wrapped__(10)) == TREE_COUNTS[9]


def _local_profile(g):
    degs = g.degrees()
    return sorted((degs[v], sorted(degs[u] for u in g.neighbors(v))) for v in range(g.n))


def test_exact_pool_alone_gives_the_same_classes(monkeypatch):
    # With no cell taken for one orbit, every accepted child goes through
    # the pool's isomorphism tests, which must then keep one per class.
    graphs, trees = connected_graphs(7), all_trees(8)
    pooled = []

    def never_one_orbit(g, cell, stable):
        pooled.append(g)
        return False

    monkeypatch.setattr(families, "_one_orbit", never_one_orbit)
    for fresh, normal in ((connected_graphs.__wrapped__(7), graphs),
                          (all_trees.__wrapped__(8), trees)):
        assert len(fresh) == len(normal)
        by_profile = defaultdict(list)
        for h in normal:
            by_profile[repr(_local_profile(h))].append(h)
        for g in fresh:
            matches = [h for h in by_profile[repr(_local_profile(g))]
                       if find_isomorphism(g, h) is not None]
            assert len(matches) == 1, g
    assert len(pooled) >= len(graphs) + len(trees)


def _brute_form(g, tables):
    """The least edge bitset over all n! relabelings of g."""
    n = g.n
    ids = [u * n + v for u, v in g.edges()]
    return min(sum(map(table.__getitem__, ids)) for table in tables)


@pytest.mark.parametrize("family, first_mask", [(all_graphs, 0), (connected_graphs, 1)])
def test_families_match_brute_force_canonical_forms(family, first_mask):
    # Every graph of order n is a graph of order n-1 plus a vertex (a
    # connected one, plus a vertex whose removal keeps it connected), so
    # by induction from order 1 the forms of all one-vertex extensions of
    # order n-1's output are those of every graph of order n.
    prev = family(1)
    for n in range(2, 7):
        tables = [
            [1 << (min(p[u], p[v]) * n + max(p[u], p[v])) for u in range(n) for v in range(n)]
            for p in itertools.permutations(range(n))
        ]
        forms = [_brute_form(g, tables) for g in family(n)]
        assert len(set(forms)) == len(forms), n
        extensions = {
            _brute_form(p.add_vertex(mask), tables)
            for p in prev
            for mask in range(first_mask, 1 << (n - 1))
        }
        assert set(forms) == extensions, n
        prev = family(n)


def _ahu(tree):
    """The tree's AHU string, least over its centers as roots."""
    degree = tree.degrees()
    layer = [v for v in range(tree.n) if degree[v] <= 1]
    left = tree.n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for u in tree.neighbors(v):
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt

    def encode(v, parent):
        return "(" + "".join(sorted(encode(u, v) for u in tree.neighbors(v) if u != parent)) + ")"

    return min(encode(c, -1) for c in layer)


def test_trees_match_ahu_strings():
    # Every tree of order n is a tree of order n-1 plus a leaf.
    prev = all_trees(1)
    for n in range(2, 11):
        forms = [_ahu(t) for t in all_trees(n)]
        assert len(set(forms)) == len(forms), n
        assert set(forms) == {_ahu(t.add_vertex(1 << v)) for t in prev for v in range(n - 1)}, n
        prev = all_trees(n)


def test_canonical_cell_is_invariant_under_relabelling():
    # Put each vertex x of g last in turn, the rest in a seeded random order:
    # the canonical cell must be found exactly when x lies in it, and must
    # then be the same set of g's vertices.
    rng = random.Random(47)
    for n in range(1, 7):
        for g in connected_graphs(n):
            found = {}
            for x in range(n):
                rest = [y for y in range(n) if y != x]
                rng.shuffle(rest)
                perm = [0] * n
                for position, y in enumerate([*rest, x]):
                    perm[y] = position
                h = g.relabel(perm)
                parent = [m & ~(1 << (n - 1)) for m in h.adj[:-1]]
                child = families._canonical_cell(parent, families._degree_masks(parent), h.adj[n - 1],
                                                 lambda mask, w: True)
                if child is not None:
                    cell = child[1]
                    found[x] = {y for y in range(n) if perm[y] in cell}
            assert found and all(back == found.keys() for back in found.values()), g


def test_connected_graph_count_order_8():
    assert len(connected_graphs(8)) == 11117


def test_connected_graphs_of_order_8_are_pinned():
    lines = "".join(encode_graph6(g) + "\n" for g in connected_graphs(8))
    assert hashlib.sha256(lines.encode()).hexdigest() == CONNECTED_8_DIGEST


def _orbit_verdicts(monkeypatch, build):
    """(child, cell, verdict) for every child whose cell ``_one_orbit``
    judges while ``build()`` runs, and what ``build()`` returned."""
    real = families._one_orbit
    verdicts = []

    def recorded(g, cell, stable):
        verdict = real(g, cell, stable)
        verdicts.append((g, cell, verdict))
        return verdict

    monkeypatch.setattr(families, "_one_orbit", recorded)
    return verdicts, build()


def test_one_orbit_matches_the_orbits_of_the_group(monkeypatch):
    # The orbit test from the stable partition against the vertex orbits of
    # the full group, on every accepted child of orders up to 7.
    wide = 0
    for family in (connected_graphs, all_trees):
        for n in range(2, 8):
            verdicts, _ = _orbit_verdicts(monkeypatch, lambda: family.__wrapped__(n))
            for g, cell, verdict in verdicts:
                orbit = vertex_orbits(automorphisms(g).generators, g.n)
                assert verdict == (len({orbit[u] for u in cell}) == 1), (encode_graph6(g), cell)
                wide += len(cell) > 1
    assert wide > 100


@pytest.mark.parametrize("n, children, classes", [(7, 2, 1), (8, 43, 19)])
def test_exact_pool_sizes(monkeypatch, n, children, classes):
    # The children whose canonical cell is not one orbit, and the classes
    # the pool keeps of them, as the module docstring gives them.
    verdicts, out = _orbit_verdicts(monkeypatch, lambda: connected_graphs.__wrapped__(n))
    pooled = [g for g, _, verdict in verdicts if not verdict]
    kept = {id(g) for g in out}
    assert len(pooled) == children
    assert sum(id(g) in kept for g in pooled) == classes


def test_no_duplicates_order_6():
    graphs = connected_graphs(6)
    for i, g in enumerate(graphs):
        for h in graphs[i + 1 :]:
            assert find_isomorphism(g, h) is None


def test_tree_counts():
    for n, want in enumerate(TREE_COUNTS, start=1):
        got = all_trees(n)
        assert len(got) == want
        assert all(g.is_tree() for g in got)


def test_known_members_present():
    six = connected_graphs(6)
    for target in (cycle_graph(6), complete_graph(6), path_graph(6), star_graph(6)):
        assert any(find_isomorphism(target, g) for g in six)


def test_regular_graphs():
    assert len(regular_graphs(2, 5)) == 1  # C5 only
    assert len(regular_graphs(4, 5)) == 1  # K5 only
    assert len(regular_graphs(3, 6)) == 2  # K_{3,3} and the prism
    assert len(regular_graphs(3, 5)) == 0  # odd sum of degrees
    cubic8 = regular_graphs(3, 8)
    assert len(cubic8) == 5
    assert all(g.is_regular() and g.degree(0) == 3 for g in cubic8)


def test_bad_order():
    with pytest.raises(ValueError):
        all_graphs(0)
    with pytest.raises(ValueError):
        connected_graphs(-1)
    with pytest.raises(ValueError):
        all_trees(0)
    with pytest.raises(ValueError):
        regular_graphs(-1, 4)
