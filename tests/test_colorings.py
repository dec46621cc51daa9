"""Verifier behavior: properness, profiles, AVD, TDC, preservation."""

from __future__ import annotations

import math
import random
import time

import pytest

from symcol import colorings
from symcol.autos import ELEMENT_CAP, automorphisms, compose
from symcol.colorings import (
    TDCPartition,
    TotalColoring,
    color_profile,
    coloring_from_json,
    coloring_to_json,
    is_avd_total,
    is_distinguishing,
    is_proper,
    is_tdc,
    preserves,
)
from symcol.graphs import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_graph,
    star_graph,
)
from symcol.families import connected_graphs
from symcol.transforms import central, endline, middle


def total_of(g, vertex_colors, edge_colors_by_index):
    return TotalColoring.from_sequences(g, vertex_colors, edge_colors_by_index)


def test_proper_kinds():
    k2 = complete_graph(2)
    assert is_proper(k2, total_of(k2, [1, 2], [3]), "total")
    assert not is_proper(k2, total_of(k2, [1, 1], None), "vertex")
    assert not is_proper(k2, total_of(k2, [1, 2], [2]), "total")
    p3 = path_graph(3)
    assert is_proper(p3, total_of(p3, None, [1, 2]), "edge")
    assert not is_proper(p3, total_of(p3, None, [1, 1]), "edge")
    star = star_graph(4)
    assert not is_proper(star, total_of(star, None, [1, 2, 1]), "edge")


def test_coverage_errors():
    p3 = path_graph(3)
    with pytest.raises(ValueError, match="vertex colors"):
        is_proper(p3, TotalColoring(None, {(0, 1): 1, (1, 2): 2}), "vertex")
    with pytest.raises(ValueError, match="missing"):
        is_proper(p3, TotalColoring((1, 2, 1), {(0, 1): 1}), "total")
    with pytest.raises(ValueError, match="non-edges"):
        is_proper(p3, TotalColoring(None, {(0, 1): 1, (1, 2): 2, (0, 2): 3}), "edge")
    with pytest.raises(ValueError, match="kind"):
        is_proper(p3, total_of(p3, [1, 2, 1], None), "half")
    with pytest.raises(ValueError):
        TotalColoring((0, 1, 2), None)  # colors must be positive


def test_profiles_and_avd():
    k2 = complete_graph(2)
    f = total_of(k2, [1, 2], [3])
    assert color_profile(k2, f, 0) == frozenset({1, 3})
    assert color_profile(k2, f, 1) == frozenset({2, 3})
    assert is_avd_total(k2, f)
    # A proper total coloring of P3 whose end vertices mirror each other.
    p3 = path_graph(3)
    g_ok = total_of(p3, [1, 3, 1], [2, 4])
    assert is_avd_total(p3, g_ok)  # profiles {1,2}, {2,3,4}, {1,4}
    g_bad = total_of(p3, [3, 1, 3], [2, 2])
    with pytest.raises(ValueError):
        is_avd_total(p3, g_bad)  # improper: equal colors on adjacent edges
    k3 = complete_graph(3)
    f5 = total_of(k3, [1, 2, 3], [3, 2, 1])  # edges (0,1)=3,(0,2)=2,(1,2)=1
    assert is_proper(k3, f5, "total")
    assert not is_avd_total(k3, f5)  # all profiles are {1,2,3}


def test_avd_total_matches_the_profile_definition():
    # Seeded random proper total colorings over palettes of max degree + 1
    # to + 3 colors, small enough that both verdicts occur.
    rng = random.Random(16)
    verdicts = set()
    for g in [g for n in range(1, 6) for g in connected_graphs(n)]:
        items = list(range(g.n)) + g.edges()
        for _ in range(20):
            rng.shuffle(items)
            palette = range(1, g.max_degree() + 2 + rng.randint(0, 2))
            vc, ec = [0] * g.n, {}
            for item in items:
                vertex = isinstance(item, int)
                ends = {item} if vertex else set(item)
                used = {c for e, c in ec.items() if ends & set(e)}
                used |= {vc[u] for u in (g.neighbors(item) if vertex else ends)}
                free = [c for c in palette if c not in used]
                if not free:
                    break
                if vertex:
                    vc[item] = rng.choice(free)
                else:
                    ec[item] = rng.choice(free)
            else:
                f = TotalColoring(tuple(vc), ec)
                assert is_proper(g, f, "total")
                expected = all(
                    color_profile(g, f, u) != color_profile(g, f, v) for u, v in g.edges()
                )
                assert is_avd_total(g, f) == expected, (g, f)
                verdicts.add(expected)
    assert verdicts == {True, False}


def greedy_total_coloring(g, order):
    """Greedy proper total coloring, coloring vertices then edges in `order`."""
    vc = [0] * g.n
    ec = {}
    for item in order:
        if isinstance(item, int):
            used = {vc[u] for u in g.neighbors(item)}
            used |= {c for (a, b), c in ec.items() if item in (a, b)}
            vc[item] = min(c for c in range(1, g.n * g.n + 2) if c not in used)
        else:
            u, v = item
            used = {vc[u], vc[v]}
            used |= {c for (a, b), c in ec.items() if {a, b} & {u, v}}
            ec[(u, v)] = min(c for c in range(1, g.n * g.n + 2) if c not in used)
    return TotalColoring(tuple(vc), ec)


def test_proper_total_needs_max_degree_plus_one_colors():
    rng = random.Random(2)
    for _ in range(25):
        g = random_graph(rng.randint(2, 8), 0.5, rng)
        if g.edge_count() == 0:
            continue
        order = list(range(g.n)) + g.edges()
        rng.shuffle(order)
        f = greedy_total_coloring(g, order)
        assert is_proper(g, f, "total")
        assert f.palette_size() >= g.max_degree() + 1


def test_tdc():
    k2 = complete_graph(2)
    assert is_tdc(k2, TDCPartition((frozenset({0}), frozenset({1}))))
    star = star_graph(4)
    p = TDCPartition((frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3})))
    assert is_tdc(star, p)
    e3 = empty_graph(3)
    assert not is_tdc(e3, TDCPartition((frozenset({0, 1, 2}),)))
    with pytest.raises(ValueError, match="independent"):
        is_tdc(k2, TDCPartition((frozenset({0, 1}),)))
    with pytest.raises(ValueError, match="cover"):
        is_tdc(star, TDCPartition((frozenset({0}),)))
    with pytest.raises(ValueError, match="overlap"):
        is_tdc(k2, TDCPartition((frozenset({0}), frozenset({0, 1}))))
    with pytest.raises(ValueError, match="empty"):
        is_tdc(k2, TDCPartition((frozenset(), frozenset({0}), frozenset({1}))))
    # A vertex must dominate an entire class, not merely meet it.
    p4 = path_graph(4)
    p = TDCPartition((frozenset({0, 2}), frozenset({1, 3})))
    assert not is_tdc(p4, p)  # vertex 0 sees only one vertex of class 2


def test_preserves():
    p3 = path_graph(3)
    f = TotalColoring((1, 3, 2), None)
    reversal = (2, 1, 0)
    assert not preserves(reversal, p3, f)
    assert preserves((0, 1, 2), p3, f)
    assert preserves(reversal, p3, TotalColoring((1, 2, 1), None))
    assert preserves(reversal, p3, TotalColoring((1, 1, 1), {(0, 1): 2, (1, 2): 2}))
    assert not preserves(reversal, p3, TotalColoring(None, {(0, 1): 2, (1, 2): 3}))
    with pytest.raises(ValueError):
        preserves((1, 0, 2), p3, f)  # not an automorphism of P3


def test_preserving_set_is_closed_under_composition():
    rng = random.Random(31)
    for _ in range(15):
        g = random_graph(6, 0.5, rng)
        f = TotalColoring(tuple(rng.randint(1, 2) for _ in range(6)), None)
        group = automorphisms(g)
        keepers = [p for p in group if preserves(p, g, f)]
        keeper_set = set(keepers)
        for p in keepers:
            for q in keepers:
                assert compose(p, q) in keeper_set


def test_is_distinguishing():
    k2 = complete_graph(2)
    assert not is_distinguishing(k2, TotalColoring((1, 1), None), "vertex")
    assert is_distinguishing(k2, TotalColoring((1, 2), None), "vertex")
    c5 = cycle_graph(5)
    distinct = TotalColoring(tuple(range(1, 6)), None)
    assert is_distinguishing(c5, distinct, "vertex")
    # Distinguishing by edges only: the vertex part is ignored for kind=edge.
    p3 = path_graph(3)
    f = TotalColoring((1, 1, 1), {(0, 1): 1, (1, 2): 2})
    assert is_distinguishing(p3, f, "edge")
    assert not is_distinguishing(p3, f, "vertex")
    assert is_distinguishing(p3, f, "total")


def _distinguishing_by_enumeration(g, f, kind):
    """Reference verdict: test every element of the full group."""
    view = TotalColoring(
        None if kind == "edge" else f.vertex_colors,
        None if kind == "vertex" else f.edge_colors,
    )
    identity = tuple(range(g.n))
    return not any(p != identity and preserves(p, g, view) for p in automorphisms(g))


def test_distinguishing_matches_full_enumeration():
    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    graphs += [t(g).graph for n in range(1, 6) for g in connected_graphs(n)
               for t in (central, middle, endline)]
    rng = random.Random(59)
    verdicts = {True: 0, False: 0}
    for g in graphs:
        edges = g.edges()
        for colors in (1, 2, 3):
            for kind in ("vertex", "edge", "total"):
                for _ in range(3):
                    f = TotalColoring(
                        tuple(rng.randint(1, colors) for _ in range(g.n)),
                        {e: rng.randint(1, colors) for e in edges},
                    )
                    expected = _distinguishing_by_enumeration(g, f, kind)
                    assert is_distinguishing(g, f, kind) == expected, (g, f, kind)
                    verdicts[expected] += 1
    assert sum(verdicts.values()) == len(graphs) * 27
    assert min(verdicts.values()) > 1000


def test_distinguishing_searches_the_graph_itself(monkeypatch):
    # Edge colors label the edges of the searched graph, so C(K7) is searched
    # on its own 28 vertices, not through the 70 of its subdivision graph.
    searched = []
    real = colorings._nontrivial_automorphism
    monkeypatch.setattr(
        colorings, "_nontrivial_automorphism",
        lambda g, *rest: searched.append(g.n) or real(g, *rest),
    )
    c = central(complete_graph(7)).graph
    f = TotalColoring(tuple(1 + v % 3 for v in range(c.n)),
                      {e: 1 + k % 2 for k, e in enumerate(c.edges())})
    for kind in ("edge", "total"):
        searched.clear()
        is_distinguishing(c, f, kind)
        assert searched == [28], kind


def test_distinguishing_star_past_the_group_order_cap():
    star = star_graph(12)  # K1,11: its group has order 11!
    assert math.factorial(11) > ELEMENT_CAP
    distinct = TotalColoring(tuple(range(1, 13)), None)
    two = TotalColoring(tuple(1 + v % 2 for v in range(12)), None)
    for f, expected in ((distinct, True), (two, False)):
        start = time.perf_counter()
        assert is_distinguishing(star, f, "vertex") is expected
        assert time.perf_counter() - start < 1.0


def test_distinguishing_is_monotone_under_refinement():
    rng = random.Random(41)
    checked = 0
    while checked < 40:
        g = random_graph(rng.randint(4, 7), 0.5, rng)
        colors = [rng.randint(1, 2) for _ in range(g.n)]
        f = TotalColoring(tuple(colors), None)
        if not is_distinguishing(g, f, "vertex"):
            continue
        refined = list(colors)
        v = rng.randrange(g.n)
        refined[v] = max(colors) + 1  # split v off its class
        assert is_distinguishing(g, TotalColoring(tuple(refined), None), "vertex")
        checked += 1


def test_json_round_trip():
    g = path_graph(3)
    f = total_of(g, [1, 2, 1], [3, 4])
    doc = coloring_to_json(g, f)
    assert doc["vertex_colors"] == [1, 2, 1]
    assert doc["edge_colors"] == [[0, 1, 3], [1, 2, 4]]
    g2, f2 = coloring_from_json(doc)
    assert g2 == g and f2.vertex_colors == f.vertex_colors and f2.edge_colors == f.edge_colors
    doc = coloring_to_json(g, TotalColoring((1, 1, 1), None))
    assert doc["edge_colors"] is None
    _, f3 = coloring_from_json(doc)
    assert f3.edge_colors is None
