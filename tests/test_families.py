"""Enumeration counts against the published sequences, plus sanity checks."""

from __future__ import annotations

import pytest

from symcol import autos
from symcol.autos import find_isomorphism
from symcol.families import all_graphs, all_trees, connected_graphs, regular_graphs
from symcol.graphs import complete_graph, cycle_graph, path_graph, star_graph

ALL_COUNTS = [1, 2, 4, 11, 34, 156, 1044]
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]


def test_all_graph_counts():
    for n, want in enumerate(ALL_COUNTS, start=1):
        assert len(all_graphs(n)) == want


def test_connected_graph_counts():
    for n, want in enumerate(CONNECTED_COUNTS, start=1):
        got = connected_graphs(n)
        assert len(got) == want
        assert all(g.is_connected() for g in got)


def test_dedup_survives_digest_collisions(monkeypatch):
    # With every round digest equal, the representatives' searches prune
    # only on stability, so the checks at the leaves must keep the classes
    # apart.
    graphs, trees = connected_graphs(7), all_trees(8)
    monkeypatch.setattr(autos, "_digest", lambda trace: 0)
    assert connected_graphs.__wrapped__(7) == graphs
    assert all_trees.__wrapped__(8) == trees


def test_connected_graph_count_order_8():
    assert len(connected_graphs(8)) == 11117


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
