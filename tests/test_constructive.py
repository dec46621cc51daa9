"""Constructions: promised bounds, internal verification, and precondition sweeps."""

from __future__ import annotations

import collections
import itertools
import random

import pytest

from symcol import colorings, constructive
from symcol.autos import automorphisms
from symcol.colorings import TotalColoring, is_avd_total, is_distinguishing, is_proper, is_tdc
from symcol.constructive import (
    ConstructionResult,
    avd_coloring_central_join,
    avd_coloring_central_regular,
    avd_coloring_subdivision,
    bipartite_edge_coloring,
    dist_edge_coloring_central,
    dist_edge_coloring_endline,
    dist_vertex_coloring_central,
    dist_vertex_coloring_middle,
    list_edge_coloring_bipartite,
    tdc_central,
    tdc_central_tree,
    tdc_to_complement,
    total_coloring_central,
    total_dist_coloring_central_regular,
    total_dist_coloring_subdivision,
)
from symcol.errors import ConstructionDefectError, NotApplicableError
from symcol.families import all_graphs, all_trees, connected_graphs, regular_graphs
from symcol.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    join,
    path_graph,
    parse_graph6,
    random_graph,
    star_graph,
)
from symcol.oracles import exact_parameter
from symcol.transforms import central, endline, line_graph, middle_to_line_of_endline, subdivision


@pytest.fixture(scope="module")
def connected8() -> list[Graph]:
    return list(connected_graphs(8))


def _broom(total: int, hub_degree: int) -> Graph:
    """Star with ``hub_degree`` leaves, one leaf extended into a path."""
    edges = [(0, i) for i in range(1, hub_degree + 1)]
    edges += [(i, i + 1) for i in range(hub_degree, total - 1)]
    return Graph.from_edges(total, edges)


def test_bipartite_edge_coloring_uses_exactly_max_degree():
    cases = [
        (complete_bipartite(3, 3), 3),
        (path_graph(4), 2),
        (subdivision(complete_graph(4)).graph, 3),
    ]
    for g, k in cases:
        f = bipartite_edge_coloring(g)
        assert is_proper(g, f, "edge")
        assert len(f.palette()) == k == g.max_degree()
    for t in all_trees(6) + all_trees(7):
        f = bipartite_edge_coloring(t)
        assert is_proper(t, f, "edge")
        assert len(f.palette()) == t.max_degree()
    with pytest.raises(NotApplicableError):
        bipartite_edge_coloring(complete_graph(3))


def test_list_edge_coloring_respects_lists():
    g = cycle_graph(4)
    lists = {(0, 1): {1, 2}, (1, 2): {2, 3}, (2, 3): {3, 4}, (0, 3): {4, 1}}
    f = list_edge_coloring_bipartite(g, lists)
    assert is_proper(g, f, "edge")
    for e, allowed in lists.items():
        assert f.edge(*e) in allowed
    # Identical lists reduce to a plain proper coloring within max degree.
    h = complete_bipartite(3, 4)
    same = {e: set(range(1, 5)) for e in h.edges()}
    f2 = list_edge_coloring_bipartite(h, same)
    assert is_proper(h, f2, "edge")
    assert f2.palette() <= set(range(1, 5))
    with pytest.raises(ValueError):
        list_edge_coloring_bipartite(g, {e: {1} for e in g.edges()})
    with pytest.raises(NotApplicableError):
        list_edge_coloring_bipartite(complete_graph(3), {})


def test_list_edge_coloring_takes_the_larger_end_degree_per_edge():
    # S(K1,5): the hub's edges need 5 colors, a leaf's edge only 2, since
    # its other end, a subdividing vertex, has degree 2.
    s = subdivision(star_graph(6)).graph
    lists = {e: ({1, 2, 3, 4, 5} if 0 in e else {1, 2}) for e in s.edges()}
    f = list_edge_coloring_bipartite(s, lists)
    assert is_proper(s, f, "edge")
    assert all(f.edge(*e) in allowed for e, allowed in lists.items())
    leaf_edge = next(e for e in s.edges() if 0 not in e)
    hub_edge = next(e for e in s.edges() if 0 in e)
    for e, short in ((leaf_edge, {1}), (hub_edge, {1, 2, 3, 4})):
        with pytest.raises(ValueError, match="below its degree bound"):
            list_edge_coloring_bipartite(s, {**lists, e: short})


def _color_keeping_permutations(g: Graph, ec: dict) -> list[tuple[int, ...]]:
    """Each automorphism of C(g) that keeps the edge colors ``ec``, by brute
    force over the permutations of the original vertices.

    For n >= 4 those have degree n-1 >= 3 and the subdividing vertices
    degree 2, and a subdividing vertex is fixed by its two neighbors, so
    every automorphism of C(g) is a permutation of the original vertices
    extended through the subdividing ones.
    """
    cent = central(g)
    c = cent.graph
    found = []
    for perm in itertools.permutations(range(g.n)):
        if any(not g.has_edge(perm[a], perm[b]) for a, b in g.edges()):
            continue
        phi = list(perm) + [cent.subdivided(perm[a], perm[b]) for a, b in
                            (cent.origin[w] for w in range(g.n, c.n))]
        if all(c.has_edge(phi[u], phi[v]) for u, v in c.edges()) and all(
            ec[tuple(sorted((phi[u], phi[v])))] == color for (u, v), color in ec.items()
        ):
            found.append(tuple(phi))
    return found


def test_central_edge_coloring_golden_witnesses():
    # The complete/cycle case orients every edge from the earlier to the
    # later end of a vertex order (color 1, then 2, at its subdividing
    # vertex); the colorings are deterministic, so some are frozen here.
    goldens = {
        complete_graph(4): {
            (0, 4): 1, (0, 5): 1, (0, 7): 1, (1, 4): 2, (1, 6): 1, (1, 8): 1,
            (2, 5): 2, (2, 6): 2, (2, 9): 1, (3, 7): 2, (3, 8): 2, (3, 9): 2,
        },
        cycle_graph(4): {
            (0, 2): 1, (0, 4): 1, (0, 6): 1, (1, 3): 1, (1, 4): 2,
            (1, 5): 1, (2, 5): 2, (2, 7): 1, (3, 6): 2, (3, 7): 2,
        },
        cycle_graph(5): {
            (0, 2): 1, (0, 3): 1, (0, 5): 1, (0, 8): 1, (1, 3): 1,
            (1, 4): 1, (1, 5): 2, (1, 6): 1, (2, 4): 1, (2, 6): 2,
            (2, 7): 1, (3, 7): 2, (3, 9): 1, (4, 8): 2, (4, 9): 2,
        },
    }
    for g, expected in goldens.items():
        r = dist_edge_coloring_central(g)
        assert r.coloring.edge_colors == expected
        assert r.palette_size == 2
    k5 = dist_edge_coloring_central(complete_graph(5))
    assert k5.palette_size == 2 and k5.promised_bound == 2
    # Proved distinguishing without the library's automorphism search: the
    # sweep's cycle representatives carry labels that are not in cycle order.
    graphs = [f(n) for f in (complete_graph, cycle_graph) for n in range(4, 8)]
    graphs += [parse_graph6(s) for s in ("Cr", "DqK", "EqGW", "FqGOW")]
    for g in graphs:
        r = dist_edge_coloring_central(g)
        assert r.palette_size == 2, g
        assert _color_keeping_permutations(g, r.coloring.edge_colors) == [
            tuple(range(r.graph.n))
        ], g
    # Orienting each edge from its smaller label instead leaves two sources
    # on these two, and a reflection swaps them.
    for s in ("Cr", "EqGW"):
        g = parse_graph6(s)
        cent = central(g)
        by_label = {e: 1 for e in cent.graph.edges()}
        for a, b in g.edges():
            by_label[tuple(sorted((b, cent.subdivided(a, b))))] = 2
        assert len(_color_keeping_permutations(g, by_label)) > 1, s


def test_central_edge_coloring_by_pairs_is_distinguishing_by_brute_force():
    # Without the library's automorphism search.  K1,4 has Δ = k², so the
    # root uses every pair; relabeled, its root 0 is a leaf.  In W6, 0 is
    # universal and a is not; in K5 minus the edge 34 both are universal.
    # Cq is P4 with 0 and a in the middle: only the complement edges at 0
    # keep them apart.
    star_leaf_root = Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    k5_minus_34 = Graph.from_edges(5, [e for e in complete_graph(5).edges() if e != (3, 4)])
    wheel = join(Graph.from_edges(1, []), cycle_graph(5))
    cube = Graph.from_edges(8, [(v, v ^ 1 << i) for v in range(8) for i in range(3)
                                if v < v ^ 1 << i])
    graphs = [path_graph(5), parse_graph6("Cq"), star_graph(5), star_leaf_root, wheel,
              k5_minus_34, complete_bipartite(3, 3), complete_bipartite(2, 4), cube]
    assert wheel.degrees()[:2] == [5, 3] and k5_minus_34.degrees()[:2] == [4, 4]
    for g in graphs:
        r = dist_edge_coloring_central(g)
        assert r.notes[0].startswith("breadth-first pairs"), g
        assert r.palette_size <= r.promised_bound, g
        assert _color_keeping_permutations(g, r.coloring.edge_colors) == [
            tuple(range(r.graph.n))
        ], g


def test_central_edge_coloring_examples():
    r = dist_edge_coloring_central(star_graph(6))
    assert r.promised_bound == 3 and r.palette_size <= 3
    r = dist_edge_coloring_central(path_graph(5))
    assert r.palette_size <= 2
    with pytest.raises(NotApplicableError):
        dist_edge_coloring_central(path_graph(3))
    with pytest.raises(NotApplicableError):
        dist_edge_coloring_central(Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)]))


def test_central_edge_coloring_sweep_orders_4_to_7():
    for n in range(4, 8):
        for g in connected_graphs(n):
            r = dist_edge_coloring_central(g)
            assert r.palette_size <= r.promised_bound


def test_central_edge_coloring_past_64_vertices():
    # The ceil(sqrt(max degree)) bound holds at every order; C(K30) has 435
    # vertices.  K_n and C_n take 2 colors.
    for n in range(10, 31, 5):
        for g in (complete_graph(n), cycle_graph(n)):
            assert dist_edge_coloring_central(g).palette_size == 2, g
    rng = random.Random(40)
    graphs = [g for g in (random_graph(40, 0.15, rng) for _ in range(100)) if g.is_connected()]
    assert len(graphs) == 94
    for g in graphs:
        r = dist_edge_coloring_central(g)
        assert r.palette_size <= r.promised_bound


def test_central_vertex_coloring_examples():
    r = dist_vertex_coloring_central(star_graph(5))
    assert r.palette_size == 2 and r.promised_bound == 2
    r = dist_vertex_coloring_central(complete_graph(4))
    assert r.palette_size == 2
    r = dist_vertex_coloring_central(star_graph(13))
    assert r.palette_size == 4 and r.promised_bound == 4
    # A rigid tree takes its bound of 2: one color would do, but telling that
    # needs a group search beyond the final check, and the marked edge needs
    # a second color.
    rigid = Graph.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    assert automorphisms(rigid).order == 1
    r = dist_vertex_coloring_central(rigid)
    assert r.palette_size == 2 == r.promised_bound
    # A cubic bipartite graph of order 10 on which a's pairs match r's and
    # only moving a's last child to the next free pair keeps r and a apart.
    r = dist_vertex_coloring_central(parse_graph6("I??{uR_[?"))
    assert r.palette_size == 2


def test_marked_bfs_total_coloring_within_the_bound():
    # The oracle is only the reference here: its minimum bounds the palette
    # from below.
    for n in range(4, 7):
        for g in connected_graphs(n):
            k = constructive._sqrt_ceil(g.max_degree())
            f = constructive._marked_bfs_total_coloring(g, k)
            assert set(f.edge_colors) == set(g.edges()), g
            palette = len(f.palette())
            assert exact_parameter(g, "Dpp").value <= palette <= k, g
            assert palette == dist_vertex_coloring_central(g).palette_size, g


def _total_color_keeping_permutations(g: Graph, f: TotalColoring) -> list[tuple[int, ...]]:
    """Each permutation of g's vertices that maps edges onto edges and keeps
    the vertex and edge colors of ``f``, by brute force."""
    vc, ec = f.vertex_colors, f.edge_colors
    return [
        perm for perm in itertools.permutations(range(g.n))
        if all(vc[perm[v]] == vc[v] for v in range(g.n))
        and all(ec.get(tuple(sorted((perm[a], perm[b])))) == c for (a, b), c in ec.items())
    ]


def test_marked_bfs_total_coloring_is_distinguishing_by_brute_force():
    # Without the library's automorphism search.  Eqlo takes the triangle
    # repair; K3,3 (Es\o) recolors a non-tree down edge of a, and the Wagner
    # graph (GsP`ow) moves a's last child.  K4,4 is regular and
    # triangle-free, and needs no repair.
    graphs = [path_graph(4), cycle_graph(5), complete_bipartite(3, 3), complete_bipartite(4, 4)]
    graphs += [parse_graph6(s) for s in ("Dqo", "Eqlo", "GsP`ow")]
    for g in graphs:
        f = constructive._marked_bfs_total_coloring(g, constructive._sqrt_ceil(g.max_degree()))
        assert _total_color_keeping_permutations(g, f) == [tuple(range(g.n))], g


def test_central_vertex_coloring_sweep_orders_4_to_7():
    for n in range(4, 8):
        for g in connected_graphs(n):
            r = dist_vertex_coloring_central(g)
            assert r.palette_size <= r.promised_bound


def test_endline_extension():
    p3 = path_graph(3)
    g = TotalColoring(None, {(0, 1): 1, (1, 2): 2})
    ext = dist_edge_coloring_endline(p3, g)
    assert ext.distinguishing
    assert ext.coloring.edge_colors[(0, 3)] == 1
    assert ext.coloring.edge_colors[(2, 5)] == 1
    # A single vertex has a one-edge endline graph whose ends swap freely.
    ext = dist_edge_coloring_endline(Graph(1, (0,)), TotalColoring(None, {}))
    assert not ext.distinguishing
    # No 2-color distinguishing edge coloring of K4 exists (checked by
    # exhaustive search), so the smallest usable witness has 3 colors.
    k4 = complete_graph(4)
    assert exact_parameter(k4, "Dp", cap=2).value is None
    w = exact_parameter(k4, "Dp", cap=3).witness
    ext = dist_edge_coloring_endline(k4, w)
    assert ext.distinguishing and len(ext.coloring.palette()) <= 3
    with pytest.raises(ValueError):
        dist_edge_coloring_endline(p3, TotalColoring(None, {(0, 1): 1, (1, 2): 1}))


def test_middle_vertex_coloring_examples():
    r = dist_vertex_coloring_middle(cycle_graph(5))
    assert r.palette_size == 2 and r.promised_bound == 2
    r = dist_vertex_coloring_middle(star_graph(4))
    assert r.palette_size <= 3
    r = dist_vertex_coloring_middle(path_graph(4))
    assert r.palette_size <= 2


def test_middle_vertex_coloring_sweep_orders_3_to_7():
    for n in range(3, 8):
        for g in connected_graphs(n):
            r = dist_vertex_coloring_middle(g)
            assert r.palette_size <= g.max_degree()


def test_middle_vertex_coloring_matches_the_endline_route():
    # The route through an edge coloring of G+ and the labels of L(G+),
    # rebuilt from public pieces and the marked breadth-first coloring.
    for n in range(3, 7):
        for g in connected_graphs(n):
            plus = endline(g).graph
            if g.is_cycle():
                plus_ec = dict.fromkeys(plus.edges(), 1)
                plus_ec[(0, g.n)] = plus_ec[(0, min(g.neighbors(0)))] = 2
            else:
                ext = dist_edge_coloring_endline(g, constructive._marked_bfs_edge_coloring(g))
                assert ext.distinguishing, g
                plus_ec = ext.coloring.edge_colors
            _, labels = line_graph(plus)
            expected = tuple(plus_ec[labels[k]] for k in middle_to_line_of_endline(g))
            assert dist_vertex_coloring_middle(g).coloring.vertex_colors == expected, g


def test_middle_vertex_coloring_asks_no_oracle(refuse_oracles):
    graphs = [g for n in range(3, 7) for g in connected_graphs(n)]
    for g in graphs + [cycle_graph(n) for n in range(3, 13)]:
        r = dist_vertex_coloring_middle(g)
        assert r.palette_size <= max(2, g.max_degree()), g


def test_marked_bfs_edge_coloring_distinguishes_within_max_degree():
    # The oracle is only the reference here: its minimum bounds the palette
    # from below.
    for n in range(3, 7):
        for g in connected_graphs(n):
            if g.is_cycle():
                continue
            f = constructive._marked_bfs_edge_coloring(g)
            assert set(f.edge_colors) == set(g.edges()), g
            assert is_distinguishing(g, f, "edge"), g
            delta = g.max_degree()
            if delta >= 3:
                assert list(f.edge_colors.values()).count(1) == 1, g
            assert exact_parameter(g, "Dp").value <= len(f.palette()) <= max(2, delta), g


def test_middle_vertex_coloring_makes_one_colored_search(monkeypatch):
    searched = []
    real = constructive.is_distinguishing
    monkeypatch.setattr(
        constructive, "is_distinguishing", lambda g, *rest: searched.append(g) or real(g, *rest)
    )
    for g in (cycle_graph(5), path_graph(4), star_graph(4), complete_graph(4)):
        searched.clear()
        r = dist_vertex_coloring_middle(g)
        assert searched == [r.graph], g


def test_total_coloring_central_within_two_past_max_degree():
    for n in range(3, 8):
        for g in all_graphs(n):
            if n == 3 and not g.is_connected():
                continue
            r = total_coloring_central(g)
            assert is_proper(r.graph, r.coloring, "total"), g
            assert r.palette_size <= r.promised_bound == r.graph.max_degree() + 2 == n + 1, g
            if n % 2 and g.is_regular() and g.is_connected() and n >= 5:
                # The square of 4.5 at odd order: the spare is never needed.
                assert r.coloring == total_dist_coloring_central_regular(g).coloring, g
                assert r.palette_size == n, g
    # Orders 1-3: the square colors K1, 2K1, K2 and 3K1 within n + 1, and
    # refuses only K2 + K1, whose central graph is the 4-cycle.
    for g in (empty_graph(1), empty_graph(2), path_graph(2), empty_graph(3)):
        r = total_coloring_central(g)
        assert is_proper(r.graph, r.coloring, "total"), g
        assert r.palette_size <= g.n + 1 <= r.promised_bound, g
    with pytest.raises(NotApplicableError):
        total_coloring_central(Graph.from_edges(3, [(0, 1)]))
    for g in (path_graph(3), complete_graph(3)):
        r = total_coloring_central(g)
        assert r.palette_size == r.promised_bound == 4, g


def test_total_coloring_central_regular_odd():
    for g in [cycle_graph(5), complete_graph(5), cycle_graph(7)]:
        r = total_dist_coloring_central_regular(g)
        assert r.palette_size == g.n == r.promised_bound
        assert is_proper(r.graph, r.coloring, "total")
    # Even order now takes the square of order n + 1 with a perfect matching
    # on the spare symbol, and still needs only n colors.
    r = total_dist_coloring_central_regular(cycle_graph(6))
    assert r.palette_size == 6 == r.promised_bound
    assert is_proper(r.graph, r.coloring, "total")
    with pytest.raises(NotApplicableError):
        total_dist_coloring_central_regular(path_graph(5))


def test_total_dist_central_regular_odd_orders():
    for g in [cycle_graph(5), complete_graph(5), cycle_graph(7), complete_graph(7)]:
        r = total_dist_coloring_central_regular(g)
        assert r.palette_size == g.n
        # The square diagonal is idempotent, so the original vertices all
        # wear different colors.
        assert len(set(r.coloring.vertex_colors[: g.n])) == g.n


def test_total_dist_central_regular_even_orders():
    seen_gated = 0
    for n in (6, 8):
        for d in range(2, n - 1):
            for g in regular_graphs(d, n):
                try:
                    r = total_dist_coloring_central_regular(g)
                except NotApplicableError:
                    seen_gated += 1
                    continue
                assert r.palette_size <= g.n
    assert seen_gated == 0
    # K8 less a perfect matching, shown distinguishing with no automorphism
    # search: only the originals have degree 7 in C(G), and their colors
    # differ, so a color-keeping automorphism fixes each of them; each
    # subdivision vertex is the only one joining its two neighbors, so it is
    # fixed too.
    g = parse_graph6("Gr~v~w")
    r = total_dist_coloring_central_regular(g)
    c, vc = r.graph, r.coloring.vertex_colors
    assert r.palette_size <= 8 and is_proper(c, r.coloring, "total")
    assert len(set(vc[:8])) == 8
    assert [c.degree(v) for v in range(c.n)] == [7] * 8 + [2] * (c.n - 8)
    assert len({c.adj[w] for w in range(8, c.n)}) == c.n - 8


def _matchable(g: Graph, left: frozenset[int]) -> bool:
    """Whether the vertices ``left`` of g have a perfect matching, by brute force."""
    if not left:
        return True
    v = min(left)
    return any(_matchable(g, left - {v, u}) for u in g.neighbors(v) if u in left)


def test_perfect_matching_agrees_with_brute_force():
    for n in range(2, 8):
        for g in connected_graphs(n):
            mate = constructive._perfect_matching(g)
            assert (mate is not None) == _matchable(g, frozenset(range(n))), g
            if mate is not None:
                assert all(mate[mate[v]] == v and g.has_edge(v, mate[v]) for v in range(n)), g


def test_total_dist_central_regular_complete_even(refuse_oracles):
    # C(K_n) = S(K_n): only the originals have degree n - 1, and their
    # colors differ, so a color-keeping automorphism fixes each of them, and
    # each subdivision vertex is the only common neighbor of its two ends.
    for n in (6, 8, 10, 12):
        r = total_dist_coloring_central_regular(complete_graph(n))
        c, vc = r.graph, r.coloring.vertex_colors
        assert r.palette_size <= r.promised_bound == n, n
        assert is_proper(c, r.coloring, "total"), n
        assert len(set(vc[:n])) == n, n
        assert [c.degree(v) for v in range(c.n)] == [n - 1] * n + [2] * (c.n - n), n
        assert len({c.adj[w] for w in range(n, c.n)}) == c.n - n, n


def test_total_dist_central_regular_needs_a_perfect_matching(refuse_oracles):
    # A connected cubic graph of order 16 with no perfect matching.
    g = parse_graph6("Or[?GGB?w??@?A?@_?{GO")
    assert g.n == 16 and g.is_connected() and g.is_regular() and g.max_degree() == 3
    assert not _matchable(g, frozenset(range(16)))
    assert constructive._perfect_matching(g) is None
    with pytest.raises(NotApplicableError):
        total_dist_coloring_central_regular(g)


def _random_regular(n: int, d: int, rng: random.Random) -> Graph:
    """A d-regular graph of order n: a circulant whose edges are then
    switched at random, ab and ce into ac and be, whenever that keeps the
    graph simple."""
    edges = {tuple(sorted((v, (v + s) % n))) for v in range(n) for s in range(1, d // 2 + 1)}
    edges |= {(v, v + n // 2) for v in range(n // 2)} if d % 2 else set()
    for _ in range(10 * len(edges)):
        (a, b), (c, e) = rng.sample(sorted(edges), 2)
        ac, be = tuple(sorted((a, c))), tuple(sorted((b, e)))
        if len({a, b, c, e}) == 4 and ac not in edges and be not in edges:
            edges -= {(a, b), (c, e)}
            edges |= {ac, be}
    return Graph.from_edges(n, edges)


def test_total_dist_central_regular_past_desk_scale(refuse_oracles):
    rng = random.Random(45)
    graphs = [cycle_graph(n) for n in (12, 20, 30, 34)] + [complete_bipartite(5, 5)]
    while len(graphs) < 25:
        n = rng.randrange(9, 31)
        g = _random_regular(n, rng.choice((3, 4, 5)) if n % 2 == 0 else 4, rng)
        if g.is_connected():
            graphs.append(g)
    for g in graphs:
        assert g.is_regular(), g
        r = total_dist_coloring_central_regular(g)
        assert r.palette_size <= r.promised_bound == g.n, g
        assert len(set(r.coloring.vertex_colors[: g.n])) == g.n, g


def test_subdivision_total_dist_examples():
    r = total_dist_coloring_subdivision(star_graph(5))
    assert r.palette_size == 5 and r.promised_bound == 5
    r = total_dist_coloring_subdivision(path_graph(5))
    assert r.promised_bound == 3
    r = total_dist_coloring_subdivision(complete_graph(5))
    assert r.palette_size == 6 and r.promised_bound == 6
    r = total_dist_coloring_subdivision(cycle_graph(5))
    assert r.palette_size == 4 == r.promised_bound
    # The oracle is only the reference here: 4 colors are the minimum.
    assert exact_parameter(r.graph, "chi2D", cap=4).value == 4
    with pytest.raises(NotApplicableError):
        total_dist_coloring_subdivision(path_graph(4))


def test_subdivided_cycle_pattern_is_kept_by_no_rotation_or_reflection():
    # Every automorphism of C_n, built by hand, lifted to S(C_n): a base map
    # sends the subdivision vertex of {u, v} to that of its image edge.
    for n in range(5, 41):
        cycle = cycle_graph(n)
        sub = subdivision(cycle)
        r = total_dist_coloring_subdivision(cycle)
        f = r.coloring
        assert f.vertex_colors is not None and f.edge_colors is not None
        assert is_proper(r.graph, f, "total"), n
        assert r.palette_size == 4 == r.promised_bound, n
        maps = [[(k + v) % n for v in range(n)] for k in range(1, n)]
        maps += [[(k - v) % n for v in range(n)] for k in range(n)]
        for base in maps:
            lift = base + [sub.subdivided(base[a], base[b]) for a, b in cycle.edges()]
            moved_vertex = any(
                f.vertex_colors[lift[x]] != c for x, c in enumerate(f.vertex_colors)
            )
            moved_edge = any(
                f.edge_colors[tuple(sorted((lift[x], lift[y])))] != c
                for (x, y), c in f.edge_colors.items()
            )
            assert moved_vertex or moved_edge, (n, base)


def test_subdivision_total_dist_sweep_orders_5_to_7():
    for n in range(5, 8):
        for g in connected_graphs(n):
            r = total_dist_coloring_subdivision(g)
            s_delta = subdivision(g).graph.max_degree()
            assert r.promised_bound in (s_delta + 1, s_delta + 2)


def test_avd_central_regular_examples():
    r = avd_coloring_central_regular(cycle_graph(6))
    assert r.palette_size == 7 == r.promised_bound
    r = avd_coloring_central_regular(complete_graph(6))
    assert r.palette_size == 7
    r = avd_coloring_central_regular(cycle_graph(5))
    assert r.palette_size <= 7
    with pytest.raises(NotApplicableError):
        avd_coloring_central_regular(path_graph(6))


def test_avd_central_regular_sweep_orders_5_to_8():
    for n in range(5, 9):
        for d in range(2, n):
            for g in regular_graphs(d, n):
                r = avd_coloring_central_regular(g)
                extra = 2 if n % 2 == 0 else 3
                assert r.promised_bound == r.graph.max_degree() + extra
                assert is_avd_total(r.graph, r.coloring)


def test_avd_subdivision_examples():
    r = avd_coloring_subdivision(star_graph(6))
    assert r.palette_size == 6 == r.promised_bound
    r = avd_coloring_subdivision(complete_graph(6))
    assert r.palette_size == 6
    # A broom long enough to contain two adjacent degree-2 vertices.
    broom = _broom(8, 5)
    assert any(
        broom.degree(u) == 2 and broom.degree(v) == 2 for u, v in broom.edges()
    )
    r = avd_coloring_subdivision(broom)
    assert r.palette_size == 6
    with pytest.raises(NotApplicableError):
        avd_coloring_subdivision(star_graph(5))


def test_avd_subdivision_sweep_orders_6_to_8(connected8):
    pools = [connected_graphs(6), connected_graphs(7), connected8]
    for pool in pools:
        for g in pool:
            if g.max_degree() < 5:
                continue
            r = avd_coloring_subdivision(g)
            assert r.palette_size <= g.max_degree() + 1


def _oracle_witness(g: Graph, kind: str, cap: int) -> TotalColoring:
    res = exact_parameter(g, kind, cap=cap)
    assert res.value is not None
    return res.witness


def test_join_part_colorings_within_their_palettes(refuse_oracles):
    # Every graph of orders 2-7 (1,251 graphs): AVD within n + 2 colors, for
    # parts of unequal orders.  K2 and K2 + K1 take the walk pattern.
    for n in range(2, 8):
        for g in all_graphs(n):
            f = constructive._central_part_coloring(g, n + 2)
            assert is_avd_total(central(g).graph, f) and len(f.palette()) <= n + 2, g


def test_avd_join_covers_bipartite_and_self_joins():
    e2, e3 = empty_graph(2), empty_graph(3)
    p3, k3 = path_graph(3), complete_graph(3)
    # Unequal part sizes take AVD inputs.
    c1 = _oracle_witness(central(e2).graph, "chi2a", 4)
    c2 = _oracle_witness(central(e3).graph, "chi2a", 5)
    r = avd_coloring_central_join(e2, e3, c1, c2)
    assert r.palette_size <= 7 == r.promised_bound
    assert r.graph == central(complete_bipartite(2, 3)).graph
    # Equal part sizes take plain proper total inputs.
    for part in (e2, e3, p3, k3):
        f = _oracle_witness(central(part).graph, "chi2", part.n + 1)
        r = avd_coloring_central_join(part, part, f, f)
        assert r.promised_bound == 2 * part.n + 2
        assert is_avd_total(r.graph, r.coloring)
    bad = TotalColoring(
        tuple(1 for _ in range(central(e2).graph.n)), {(0, 1): 2}
    )
    with pytest.raises(ValueError):
        avd_coloring_central_join(e2, e2, bad, bad)


def test_join_graph_shape():
    j = join(empty_graph(2), empty_graph(3))
    assert j == complete_bipartite(2, 3)
    j = join(complete_graph(2), complete_graph(3))
    assert j.is_complete()


def test_tdc_central_examples():
    p = tdc_central(cycle_graph(5))
    assert len(p.classes) == 5
    assert is_tdc(central(cycle_graph(5)).graph, p)
    p = tdc_central(path_graph(6))
    assert len(p.classes) == 6
    with pytest.raises(NotApplicableError):
        tdc_central(star_graph(6))
    with pytest.raises(NotApplicableError):
        tdc_central(path_graph(4))


def test_tdc_central_sweep_orders_5_to_8(connected8):
    pools = [connected_graphs(5), connected_graphs(6), connected_graphs(7), connected8]
    for pool, n in zip(pools, range(5, 9)):
        for g in pool:
            if g.max_degree() > n - 3:
                continue
            p = tdc_central(g)
            assert len(p.classes) == n
            q = tdc_to_complement(p, g)
            assert len(q.classes) <= n
            assert is_tdc(g.complement(), q)


def test_tdc_central_tree_cases():
    star = tdc_central_tree(star_graph(5))
    assert len(star.classes) == 5
    broom = tdc_central_tree(_broom(6, 4))
    assert len(broom.classes) == 6
    p6 = tdc_central_tree(path_graph(6))
    assert p6 == tdc_central(path_graph(6))
    for n in range(5, 9):
        for t in all_trees(n):
            p = tdc_central_tree(t)
            assert len(p.classes) <= n
            assert is_tdc(central(t).graph, p)
    with pytest.raises(NotApplicableError):
        tdc_central_tree(cycle_graph(5))
    with pytest.raises(NotApplicableError):
        tdc_central_tree(path_graph(4))


def test_oracle_chitd_central_within_tdc_central_order_7():
    # The paper's bound chi_td(C(G)) <= n for Delta <= n - 3, checked against
    # the exact value on all 353 such graphs of order 7.
    checked = 0
    for g in connected_graphs(7):
        if g.max_degree() > 4:
            continue
        cent = central(g).graph
        res = exact_parameter(cent, "chitd", cap=7)
        assert res.value is not None and res.value <= len(tdc_central(g).classes), g
        assert is_tdc(cent, res.witness)
        checked += 1
    assert checked == 353


def test_oracle_chitd_central_tree_within_tdc_central_tree():
    checked = 0
    for n in range(5, 11):
        for t in all_trees(n):
            cent = central(t).graph
            res = exact_parameter(cent, "chitd", cap=n)
            assert res.value is not None and res.value <= len(tdc_central_tree(t).classes), t
            assert is_tdc(cent, res.witness)
            checked += 1
    assert checked == 196


def test_tdc_to_complement_repairs_oracle_partitions():
    # Oracle partitions mix subdivision vertices into classes arbitrarily,
    # exercising the repair path that rebuilds lost domination.
    for n in (5, 6):
        for g in connected_graphs(n):
            if g.max_degree() > n - 3:
                continue
            cent = central(g).graph
            res = exact_parameter(cent, "chitd", cap=n)
            if res.value is None:
                continue
            q = tdc_to_complement(res.witness, g)
            assert len(q.classes) <= len(res.witness.classes)
            assert is_tdc(g.complement(), q)
    from symcol.colorings import TDCPartition

    # Both neighbors of subdivision vertex 5 sit in mixed classes, so no
    # class lands inside its neighborhood and the partition is not a TDC.
    not_tdc = TDCPartition(
        (
            frozenset({0, 7}),
            frozenset({1, 8}),
            frozenset({2}),
            frozenset({3}),
            frozenset({4}),
            frozenset({5}),
            frozenset({6}),
            frozenset({9}),
        )
    )
    with pytest.raises(ValueError):
        tdc_to_complement(not_tdc, cycle_graph(5))


def test_construction_result_enforces_bound():
    r = dist_edge_coloring_central(path_graph(4))
    with pytest.raises(ConstructionDefectError):
        ConstructionResult(r.graph, r.coloring, 5, 4, "3.2")
    doc = r.to_json()
    assert doc["tag"] == "3.2" and doc["palette_size"] <= doc["promised_bound"]


def _join_parts():
    k3 = complete_graph(3)
    witness = exact_parameter(central(k3).graph, "chi2", cap=4).witness
    return k3, k3, witness, witness


# One input per tag of the final-check table: the construction, a thunk for
# its arguments, the defect message of each row as the construction raised it
# before the table, and how often each verifier ran on that input then.
FINAL_CHECK_CASES = {
    "3.2": (dist_edge_coloring_central, lambda: (cycle_graph(5),),
            ["central edge coloring is preserved by a nontrivial automorphism"],
            {"is_distinguishing": 1}),
    "3.4": (dist_vertex_coloring_central, lambda: (cycle_graph(5),),
            ["lifted vertex coloring is preserved by a nontrivial automorphism"],
            {"is_distinguishing": 1}),
    "3.6": (dist_vertex_coloring_middle, lambda: (cycle_graph(5),),
            ["middle-graph vertex coloring is preserved by a nontrivial automorphism"],
            {"is_distinguishing": 1}),
    "4.5": (total_dist_coloring_central_regular, lambda: (cycle_graph(6),),
            ["total coloring is not proper",
             "total coloring is preserved by a nontrivial automorphism"],
            {"is_proper": 3, "is_distinguishing": 1}),
    "4.9": (total_dist_coloring_subdivision, lambda: (path_graph(5),),
            ["subdivision total coloring is not proper",
             "subdivision total coloring is preserved by a nontrivial automorphism"],
            {"is_proper": 1, "is_distinguishing": 1}),
    "5.1": (avd_coloring_central_regular, lambda: (cycle_graph(5),),
            ["square-driven coloring is not AVD"],
            {"is_proper": 3, "is_avd_total": 1}),
    "5.3": (avd_coloring_subdivision, lambda: (star_graph(6),),
            ["subdivision coloring is not AVD"],
            {"is_proper": 2, "is_avd_total": 1}),
    "5.5": (avd_coloring_central_join, _join_parts,
            ["join coloring is not AVD"],
            {"is_proper": 3, "is_avd_total": 1}),
    "6.1": (tdc_to_complement, lambda: (tdc_central(cycle_graph(5)), cycle_graph(5)),
            ["complement partition is not total dominating"],
            {"is_tdc": 2}),
    "6.2": (tdc_central, lambda: (cycle_graph(5),),
            ["central partition is not total dominating"],
            {"is_tdc": 1}),
    "appendix-tree": (tdc_central_tree, lambda: (star_graph(5),),
                      ["tree partition is not total dominating"],
                      {"is_tdc": 1}),
    "tcc-central": (total_coloring_central, lambda: (path_graph(5),),
                    ["central total coloring is not proper"],
                    {"is_proper": 3}),
}


def test_every_final_check_row_raises_its_defect(monkeypatch):
    assert set(FINAL_CHECK_CASES) == set(constructive.FINAL_CHECKS)
    for tag, rows in constructive.FINAL_CHECKS.items():
        build, arguments, messages, _ = FINAL_CHECK_CASES[tag]
        assert len(rows) == len(messages), tag
        args = arguments()
        build(*args)
        for (prop, _), message in zip(rows, messages):
            with monkeypatch.context() as m:
                m.setitem(constructive.PROPERTIES, prop, lambda g, f: False)
                with pytest.raises(ConstructionDefectError) as err:
                    build(*args)
            assert str(err.value) == message, (tag, prop)


def test_final_checks_run_no_verifier_more_often(monkeypatch):
    calls = collections.Counter()
    for name in ("is_proper", "is_avd_total", "is_tdc", "is_distinguishing"):
        real = getattr(colorings, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module in (colorings, constructive):
            monkeypatch.setattr(module, name, counted)
    for tag, (build, arguments, _, most) in FINAL_CHECK_CASES.items():
        args = arguments()
        calls.clear()
        build(*args)
        assert all(count <= most.get(name, 0) for name, count in calls.items()), (tag, calls)
