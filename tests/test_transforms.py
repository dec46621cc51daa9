"""Transformations: shapes, label layout, and the middle/line correspondence."""

from __future__ import annotations

import json
import math
import random

import pytest

from symcol.families import all_graphs, connected_graphs
from symcol.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    encode_graph6,
    path_graph,
    petersen_graph,
    random_graph,
    star_graph,
)
from symcol.transforms import (
    central,
    endline,
    line_graph,
    middle,
    middle_to_line_of_endline,
    subdivision,
)


def _sample_graphs() -> list[Graph]:
    rng = random.Random(11)
    out = [
        path_graph(2),
        path_graph(5),
        cycle_graph(3),
        cycle_graph(6),
        complete_graph(4),
        complete_graph(5),
        star_graph(6),
    ]
    while len(out) < 20:
        g = random_graph(rng.randint(4, 7), 0.5, rng)
        if g.is_connected():
            out.append(g)
    return out


def test_subdivision_shape():
    for g in _sample_graphs():
        n, m = g.n, g.edge_count()
        s = subdivision(g)
        assert s.graph.n == n + m
        assert s.graph.edge_count() == 2 * m
        assert s.part1 == tuple(range(n))
        assert s.part2 == tuple(range(n, n + m))
        for v in range(n):
            assert s.graph.degree(v) == g.degree(v)
        for w in s.part2:
            assert s.graph.degree(w) == 2
            u, v = s.origin[w]
            assert set(s.graph.neighbors(w)) == {u, v}
        assert s.graph.is_bipartite() is not None
        assert s.subdivided(*s.origin[s.part2[0]]) == s.part2[0]
    s2 = subdivision(path_graph(2)).graph
    assert s2.n == 3 and sorted(s2.degrees()) == [1, 1, 2] and s2.is_connected()


def test_subdivision_of_triangle_is_hexagon():
    s = subdivision(complete_graph(3)).graph
    assert s.n == 6 and s.edge_count() == 6
    assert all(s.degree(v) == 2 for v in range(6))
    assert s.is_connected()


def test_central_shape():
    for g in _sample_graphs():
        n, m = g.n, g.edge_count()
        c = central(g)
        assert c.graph.n == n + m
        assert c.graph.edge_count() == math.comb(n, 2) + m
        if g.is_connected() and n >= 4:
            for v in c.part1:
                assert c.graph.degree(v) == n - 1
            for w in c.part2:
                assert c.graph.degree(w) == 2
    # For complete graphs the complement adds nothing.
    k4 = complete_graph(4)
    assert central(k4).graph == subdivision(k4).graph
    p3 = path_graph(3)
    assert central(p3).graph.n == 5
    assert central(p3).graph.edge_count() == 5


def test_middle_shape():
    for g in _sample_graphs():
        n, m = g.n, g.edge_count()
        mid = middle(g)
        expected = 2 * m + sum(math.comb(d, 2) for d in g.degrees())
        assert mid.graph.n == n + m
        assert mid.graph.edge_count() == expected
    m2 = middle(path_graph(2)).graph
    assert m2.n == 3 and sorted(m2.degrees()) == [1, 1, 2] and m2.is_connected()
    assert middle(path_graph(3)).graph.edge_count() == 5


def test_parts_and_origins_agree_across_transforms():
    for g in _sample_graphs():
        s, c, m = subdivision(g), central(g), middle(g)
        assert s.part1 == c.part1 == m.part1
        assert s.part2 == c.part2 == m.part2
        assert s.origin == c.origin == m.origin
        # Subdivision edges embed in both central and middle graphs.
        for w in s.part2:
            for u in s.graph.neighbors(w):
                assert c.graph.has_edge(u, w)
                assert m.graph.has_edge(u, w)


def test_endline_shape():
    for g in _sample_graphs():
        plus = endline(g)
        assert plus.graph.n == 2 * g.n
        assert plus.graph.edge_count() == g.edge_count() + g.n
        for v in range(g.n):
            assert plus.graph.degree(v) == g.degree(v) + 1
            assert plus.origin[g.n + v] == v
            assert plus.graph.degree(g.n + v) == 1
    assert endline(Graph(1, (0,))).graph == path_graph(2)


def test_connectivity_is_preserved():
    for g in _sample_graphs():
        if not g.is_connected():
            continue
        for t in (subdivision(g), central(g), middle(g), endline(g)):
            assert t.graph.is_connected()


def test_line_graph_small_cases():
    lg, labels = line_graph(path_graph(4))
    assert lg == path_graph(3)
    assert labels == ((0, 1), (1, 2), (2, 3))
    lg, _ = line_graph(complete_graph(3))
    assert lg == complete_graph(3)
    lg, _ = line_graph(star_graph(4))
    assert lg == complete_graph(3)


def test_line_graph_matches_the_pairwise_definition():
    # Vertices a < b of the line graph are adjacent iff edges a and b meet.
    for n in range(1, 8):
        for g in all_graphs(n):
            edges = g.edges()
            pairs = [(a, b) for b in range(len(edges)) for a in range(b)
                     if set(edges[a]) & set(edges[b])]
            assert line_graph(g) == (Graph.from_edges(len(edges), pairs), tuple(edges))


def test_middle_is_line_of_endline():
    for g in _sample_graphs():
        image = middle_to_line_of_endline(g)
        mid = middle(g).graph
        lg, _ = line_graph(endline(g).graph)
        assert sorted(image) == list(range(mid.n))
        assert mid.relabel(image) == lg


def test_tagged_graph_json():
    doc = subdivision(path_graph(3)).to_json()
    assert doc["part1"] == [0, 1, 2]
    assert doc["origin"] == {"3": [0, 1], "4": [1, 2]}
    assert isinstance(doc["graph6"], str)
    with pytest.raises(KeyError):
        subdivision(path_graph(3)).subdivided(0, 2)


def _pinned_graphs() -> list[Graph]:
    rng = random.Random(35)
    out = [Graph(0, ())]
    for n in range(1, 7):
        out += all_graphs(n)
    out += connected_graphs(7)
    out += [complete_graph(12), petersen_graph()]
    out += [random_graph(n, rng.uniform(0.05, 0.3), rng) for n in range(30, 61, 6)]
    return out


def test_transforms_follow_their_edge_rules():
    # Each transform against the graph from_edges builds from its rule,
    # written out here: subdivision vertex n + k sits on edge k of
    # g.edges(), pendant n + v hangs off v.
    for g in _pinned_graphs():
        n, edges = g.n, g.edges()
        m = len(edges)
        sub = [(x, n + k) for k, e in enumerate(edges) for x in e]
        meets = [(a, b) for b in range(m) for a in range(b) if set(edges[a]) & set(edges[b])]
        gaps = [(i, j) for j in range(n) for i in range(j) if not g.has_edge(i, j)]
        origin = {n + k: e for k, e in enumerate(edges)}
        cases = [
            (subdivision(g), sub, origin),
            (central(g), sub + gaps, origin),
            (middle(g), sub + [(n + a, n + b) for a, b in meets], origin),
            (endline(g), edges + [(v, n + v) for v in range(n)], {n + v: v for v in range(n)}),
        ]
        for t, rule, added in cases:
            h = Graph.from_edges(n + len(added), rule)
            assert t.graph == h and Graph(h.n, t.graph.adj) == h, g
            assert (t.base, t.part1, t.part2) == (g, tuple(range(n)), tuple(added))
            assert t.origin == added and list(t.origin) == list(added)
            for w, e in added.items():
                if isinstance(e, tuple):
                    assert t.subdivided(*e) == t.subdivided(*reversed(e)) == w
            if n:
                doc = {"graph6": encode_graph6(h), "part1": list(range(n)),
                       "origin": {str(w): list(e) if isinstance(e, tuple) else e
                                  for w, e in added.items()}}
                assert json.dumps(t.to_json()) == json.dumps(doc)
        line, labels = line_graph(g)
        h = Graph.from_edges(m, meets)
        assert line == h and Graph(h.n, line.adj) == h and labels == tuple(edges), g
