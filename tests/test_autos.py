"""Automorphism enumeration against a naive matcher, plus lifts and the chain."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from symcol import autos
from symcol.autos import (
    automorphisms,
    check_aut_chain,
    compose,
    find_isomorphism,
    invert,
    is_automorphism,
    lift_to_central,
    lift_to_endline,
    vertex_orbits,
)
from symcol.errors import BudgetExceededError
from symcol.families import all_graphs, connected_graphs
from symcol.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    petersen_graph,
    random_graph,
    random_tree,
    star_graph,
)
from symcol.transforms import central, endline, line_graph, middle, subdivision


def naive_automorphisms(g) -> list[tuple[int, ...]]:
    """Plain backtracking matcher, no refinement; the independent oracle."""
    found = []
    partial: list[int] = []
    used = [False] * g.n

    def extend() -> None:
        v = len(partial)
        if v == g.n:
            found.append(tuple(partial))
            return
        for u in range(g.n):
            if used[u]:
                continue
            if g.degree(u) != g.degree(v):
                continue
            if all(g.has_edge(u, partial[w]) == g.has_edge(v, w) for w in range(v)):
                used[u] = True
                partial.append(u)
                extend()
                partial.pop()
                used[u] = False

    extend()
    return found


def test_group_matches_naive_enumeration():
    rng = random.Random(3)
    samples = [
        path_graph(5),
        cycle_graph(6),
        complete_graph(4),
        star_graph(6),
        complete_bipartite(2, 3),
        complete_bipartite(3, 3),
    ]
    while len(samples) < 18:
        samples.append(random_graph(rng.randint(4, 7), 0.5, rng))
    for g in samples:
        expected = sorted(naive_automorphisms(g))
        got = list(automorphisms(g).elements)
        assert got == expected


def test_known_group_orders():
    for n in range(2, 7):
        assert automorphisms(complete_graph(n)).order == math.factorial(n)
        assert automorphisms(path_graph(n)).order == 2
    for n in range(3, 8):
        assert automorphisms(cycle_graph(n)).order == 2 * n
    assert automorphisms(star_graph(5)).order == math.factorial(4)
    assert automorphisms(empty_graph(1)).order == 1


def test_chain_matches_full_search_on_small_graphs():
    # Every leaf of the unpruned search is an automorphism, so the chain's
    # elements must be exactly the leaves.
    for n in range(1, 7):
        for g in connected_graphs(n):
            for h in (g, line_graph(g)[0], subdivision(g).graph, central(g).graph,
                      middle(g).graph, endline(g).graph):
                group = automorphisms(h)
                leaves = autos._search(autos._Path(h), h, [0] * h.n)
                assert group.elements == tuple(sorted(leaves))
                assert group.order == len(group.elements)
                assert all(is_automorphism(h, p) for p in group.generators)


def test_chain_matches_naive_matcher_on_small_graphs():
    # Independent of the search: the chain against plain backtracking.
    for n in range(1, 7):
        for g in connected_graphs(n):
            assert automorphisms(g).elements == tuple(sorted(naive_automorphisms(g))), g


def test_find_isomorphism_across_relabelings():
    rng = random.Random(29)
    for n in range(1, 8):
        for g in connected_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            found = find_isomorphism(g, h)
            assert found is not None and g.relabel(found) == h, (g, perm)


def _brute_isomorphic(g, h) -> bool:
    edges = g.edges()
    return any(all(h.has_edge(p[u], p[v]) for u, v in edges)
               for p in itertools.permutations(range(g.n)))


def test_find_isomorphism_rejects_pairs_alike_in_early_rounds():
    # Equal degree sequences make the first refinement round agree.  Of
    # order 7, only pairs that also agree on the multiset of (degree, sorted
    # neighbor degrees) are kept, so the second round agrees too and the
    # difference shows in a later round or only after individualizing.
    def profile(g):
        degs = g.degrees()
        return sorted((degs[v], sorted(degs[u] for u in g.neighbors(v))) for v in range(g.n))

    pairs = []
    for n in range(4, 8):
        for g, h in itertools.combinations(connected_graphs(n), 2):
            if sorted(g.degrees()) == sorted(h.degrees()) and (n < 7 or profile(g) == profile(h)):
                pairs.append((g, h))
    assert len(pairs) > 150
    for g, h in pairs:
        assert not _brute_isomorphic(g, h), (g, h)
        assert find_isomorphism(g, h) is None and find_isomorphism(h, g) is None, (g, h)
        h2 = h.relabel(tuple(reversed(range(h.n))))
        assert find_isomorphism(g, h2) is None, (g, h2)


def test_kept_paths_find_exactly_the_isomorphisms():
    # One path per graph, kept for every search against it as the family
    # pool keeps them: a map it returns must be an isomorphism, and it must
    # find one whenever one exists.  The graphs of all_graphs(n) are
    # pairwise non-isomorphic.
    for n in range(1, 6):
        graphs = all_graphs(n)
        shift = [(v + 1) % n for v in range(n)]
        for g in graphs:
            path = autos._Path(g)
            for h in graphs:
                for target in (h, h.relabel(shift)):
                    found = autos._first_isomorphism(path, target)
                    assert (found is not None) == (g is h), (g, target)
                    assert found is None or g.relabel(found) == target


def test_unit_start_is_the_first_step_from_one_cell():
    # An unlabelled path started from one cell lays out the degree
    # partition itself; it must be the partition, queue and trace the
    # generic first step leaves, orders 0 and 1 and regular graphs included.
    graphs = [Graph(0, ())] + [g for n in range(1, 7) for g in all_graphs(n)]
    graphs += connected_graphs(7)
    assert any(g.is_regular() and g.n > 1 for g in graphs)
    for g in graphs:
        ids, cells, wide, queue = autos._partition([0] * g.n)
        traces = [autos._step(g.adj, None, ids, cells, wide, queue)] if queue else []
        path = autos._Path(g)
        assert path.parts == [(ids, cells, wide)], g
        assert list(path.queue) == list(queue) and path.traces == traces, g


def _transforms(g):
    return (g, line_graph(g)[0], subdivision(g).graph, central(g).graph,
            middle(g).graph, endline(g).graph)


def _run_steps(adj, layers, part):
    """Run the engine's steps on ``part`` until stable; return the traces.

    After every step the partition must be consistent: each vertex lies in
    the cell mask of its id, the cells tile 0..n-1 at their offsets, and the
    wide set holds exactly the ids of the cells with more than one vertex."""
    ids, cells, wide, queue = part
    traces = []
    while queue:
        traces.append(autos._step(adj, layers, ids, cells, wide, queue))
        _check_layout(ids, cells, wide)
    return traces


def _check_layout(ids, cells, wide):
    n = len(ids)
    starts = sorted(set(ids))
    assert all(cells[ids[v]] >> v & 1 for v in range(n))
    assert sum(cells[c] for c in starts) == (1 << n) - 1
    bounds = starts + [n]
    assert all(cells[c].bit_count() == bounds[i + 1] - c for i, c in enumerate(starts))
    assert wide == {c for c in starts if cells[c].bit_count() > 1}


def _blocks(colors):
    """A coloring as a set partition."""
    classes = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, set()).add(v)
    return {frozenset(cell) for cell in classes.values()}


def _coarsest_equitable(labelled, colors):
    """The coarsest equitable partition refining ``colors``, by rounds of
    sorted (color, label) neighbor profiles; ``labelled[v]`` lists the pairs
    (u, l) of the edges {v, u} labelled l.  Independent of symcol.autos."""
    while True:
        keys = [(colors[v], sorted((colors[u], l) for u, l in labelled[v]))
                for v in range(len(colors))]
        distinct = sorted({repr(k) for k in keys})
        new = [distinct.index(repr(k)) for k in keys]
        if len(set(new)) == len(set(colors)):
            return _blocks(new)
        colors = new


def _check_coarsest_equitable(g, labels=None):
    labelled = [[] for _ in range(g.n)]
    for (u, v), label in zip(g.edges(), labels or [0] * g.edge_count()):
        labelled[u].append((v, label))
        labelled[v].append((u, label))
    path = autos._Path(g, labels=labels)
    part = autos._partition([0] * g.n)
    _run_steps(g.adj, path.layers, part)
    ids, cells, wide, _ = part
    assert _blocks(ids) == _coarsest_equitable(labelled, [0] * g.n), g
    for v in range(g.n):
        child = autos._individualize(ids, cells, wide, v)
        _check_layout(*child[:3])
        _run_steps(g.adj, path.layers, child)
        pinned = ids.copy()
        pinned[v] = g.n
        assert _blocks(child[0]) == _coarsest_equitable(labelled, pinned), (g, v)


def test_refinement_reaches_the_coarsest_equitable_partition():
    # Hopcroft's rule leaves the largest fragment of an unqueued cell out of
    # the queue; a split it drops would leave a partition that is stable for
    # the engine and not equitable.
    for n in range(1, 7):
        for g in all_graphs(n):
            for h in _transforms(g):
                _check_coarsest_equitable(h)


def test_labelled_refinement_reaches_the_coarsest_equitable_partition():
    # C(K4) is 12 subdivision edges; label them by three edge colors, two
    # ways, and the Petersen graph's edges by four.
    c = central(complete_graph(4)).graph
    m = c.edge_count()
    for labels in ([k % 3 for k in range(m)], [k // 4 for k in range(m)]):
        _check_coarsest_equitable(c, labels)
    rng = random.Random(41)
    p = petersen_graph()
    _check_coarsest_equitable(p, [rng.randrange(4) for _ in range(p.edge_count())])
    # C4 + K2 with the K2 labelled 1: a weight that let two label-0 edges sum
    # like one label-1 edge would leave all six vertices in one cell.
    g = disjoint_union(cycle_graph(4), path_graph(2))
    _check_coarsest_equitable(g, [int(u >= 4) for u, _ in g.edges()])


def test_traces_are_invariant_under_relabelling():
    # Cell ids are offsets of an ordered partition built from invariant
    # counts, so a relabelled graph takes the same steps, and vertex x of g
    # and its image perm[x] get the same cell id, from the unit partition
    # and from individualizing corresponding vertices.
    rng = random.Random(43)
    for n in range(1, 7):
        for g in connected_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            part_g, part_h = autos._partition([0] * n), autos._partition([0] * n)
            assert _run_steps(g.adj, None, part_g) == _run_steps(h.adj, None, part_h), g
            assert all(part_g[0][x] == part_h[0][perm[x]] for x in range(n)), g
            for x in range(n):
                child_g = autos._individualize(*part_g[:3], x)
                child_h = autos._individualize(*part_h[:3], perm[x])
                assert _run_steps(g.adj, None, child_g) == _run_steps(h.adj, None, child_h), (g, x)
                # Equal ids at corresponding vertices give equal cell sizes too.
                assert all(child_g[0][y] == child_h[0][perm[y]] for y in range(n)), (g, x)


def test_chain_check_builds_no_elements(monkeypatch):
    def no_elements(group):
        raise AssertionError("the chain check multiplied out a group")

    monkeypatch.setattr(autos.AutGroup, "elements", property(no_elements))
    for g, order in ((complete_graph(8), math.factorial(8)),
                     (complete_graph(9), math.factorial(9)),
                     (star_graph(10), math.factorial(9))):
        rep = check_aut_chain(g)
        assert rep.passed and rep.base_order == order


def test_chain_check_builds_the_line_graph_once(monkeypatch):
    # Every Graph but those of the validating constructor is built here.
    built = []
    real = Graph._unchecked

    def counted(n, adj):
        built.append(real(n, adj))
        return built[-1]

    monkeypatch.setattr(Graph, "_unchecked", staticmethod(counted))
    for g in (complete_graph(5), path_graph(6), star_graph(5), petersen_graph()):
        line = line_graph(g)[0]
        built.clear()
        assert check_aut_chain(g).passed
        assert built.count(line) == 1, g


def test_petersen_group_order():
    g = petersen_graph()
    assert sorted(naive_automorphisms(g)) == list(automorphisms(g).elements)
    assert automorphisms(g).order == 120


def test_group_axioms_spot_check():
    for g in (complete_graph(5), cycle_graph(6), central(star_graph(5)).graph):
        group = automorphisms(g)
        members = set(group.elements)
        assert tuple(range(g.n)) in members
        rng = random.Random(5)
        pool = list(group.elements)
        for _ in range(min(200, len(pool) ** 2)):
            p, q = rng.choice(pool), rng.choice(pool)
            assert compose(p, q) in members
            assert invert(p) in members


def test_caps_raise(monkeypatch):
    # The node budget bounds a search, not the graph's order: S65 takes
    # 2,080 search nodes.
    monkeypatch.setenv("SYMCOL_BUDGET", "2079")
    with pytest.raises(BudgetExceededError, match="node budget of 2079") as info:
        automorphisms(empty_graph(65))
    assert info.value.nodes == 2080
    monkeypatch.setenv("SYMCOL_BUDGET", "2080")
    group = automorphisms(empty_graph(65))
    assert group.order == math.factorial(65) and group.nodes == 2080
    monkeypatch.delenv("SYMCOL_BUDGET")
    with pytest.raises(BudgetExceededError, match="group order exceeds the cap of 10000000"):
        automorphisms(complete_graph(11)).elements


def test_budget_verdicts_do_not_depend_on_the_group_cache(monkeypatch):
    # C(K8)'s group takes 28 search nodes, so budget 1 stops its search,
    # also after a search at the default budget has found it: no group is
    # kept between calls.
    g = central(complete_graph(8)).graph
    h = Graph.from_edges(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()])
    monkeypatch.setenv("SYMCOL_BUDGET", "1")
    for warm in (False, True):
        if warm:
            monkeypatch.delenv("SYMCOL_BUDGET")
            assert automorphisms(g).nodes == 28
            assert find_isomorphism(g, h) is not None
            monkeypatch.setenv("SYMCOL_BUDGET", "1")
        with pytest.raises(BudgetExceededError, match="automorphism search") as info:
            automorphisms(g)
        assert info.value.nodes == 2
        with pytest.raises(BudgetExceededError, match="automorphism search"):
            find_isomorphism(g, h)
    monkeypatch.setenv("SYMCOL_BUDGET", "28")
    assert automorphisms(g).order == math.factorial(8)


def test_chain_holds_past_64_vertices():
    # Aut(G) = Aut(C(G)) = Aut(M(G)) at every order; C(G) of these graphs
    # has several hundred vertices, and the chain's searches are held only
    # to the node budget.
    rng = random.Random(30)
    graphs = [g for g in (random_graph(30, 0.2, rng) for _ in range(100)) if g.is_connected()]
    assert len(graphs) == 99
    graphs += [random_tree(30, rng) for _ in range(30)]
    graphs += [complete_graph(n) for n in range(5, 16)]
    for g in graphs:
        report = check_aut_chain(g)
        assert report.passed, report.graph6


def test_find_isomorphism():
    c5 = cycle_graph(5)
    phi = find_isomorphism(c5, c5.complement())
    assert phi is not None
    assert c5.relabel(phi) == c5.complement()
    assert find_isomorphism(complete_graph(3), path_graph(3)) is None
    # Same degree sequence, different graphs.
    from symcol.graphs import Graph

    prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    assert find_isomorphism(prism, complete_bipartite(3, 3)) is None
    rng = random.Random(9)
    for _ in range(20):
        g = random_graph(7, 0.5, rng)
        perm = list(range(7))
        rng.shuffle(perm)
        h = g.relabel(perm)
        found = find_isomorphism(g, h)
        assert found is not None and g.relabel(found) == h


def test_vertex_orbits():
    star = star_graph(5)
    orbits = vertex_orbits(automorphisms(star), star.n)
    assert orbits[0] == 0 and len(set(orbits[1:])) == 1
    cyc = cycle_graph(6)
    assert set(vertex_orbits(automorphisms(cyc), 6)) == {0}


def test_lift_to_central():
    g = star_graph(4)  # center 0, leaves 1..3
    alpha = (0, 2, 1, 3)  # swap two leaves
    pi = lift_to_central(alpha, g)
    cg = central(g)
    assert is_automorphism(cg.graph, pi)
    assert pi[cg.subdivided(0, 1)] == cg.subdivided(0, 2)
    assert pi[cg.subdivided(0, 3)] == cg.subdivided(0, 3)
    assert lift_to_central(tuple(range(4)), g) == tuple(range(cg.graph.n))
    with pytest.raises(ValueError):
        lift_to_central((1, 0, 2, 3), g)  # swaps center with a leaf: not an automorphism


def test_lift_to_endline():
    g = cycle_graph(4)
    rotation = (1, 2, 3, 0)
    pi = lift_to_endline(rotation, g)
    plus = endline(g)
    assert is_automorphism(plus.graph, pi)
    assert pi[4:] == (5, 6, 7, 4)
    assert lift_to_endline(tuple(range(4)), g) == tuple(range(8))
    with pytest.raises(ValueError):
        lift_to_endline((1, 0, 2, 3), g)


def test_lifts_are_automorphisms_on_samples():
    rng = random.Random(13)
    samples = [star_graph(4), path_graph(4), complete_graph(5)]
    while len(samples) < 10:
        g = random_graph(rng.randint(4, 6), 0.5, rng)
        if g.is_connected():
            samples.append(g)
    for g in samples:
        base = automorphisms(g)
        cg = central(g).graph
        plus = endline(g).graph
        central_group = automorphisms(cg)
        endline_group = automorphisms(plus)
        assert central_group.order == base.order
        assert endline_group.order == base.order
        for alpha in base:
            assert is_automorphism(cg, lift_to_central(alpha, g))
            assert is_automorphism(plus, lift_to_endline(alpha, g))


def test_central_groups_preserve_parts_and_are_rigid_over_part1():
    rng = random.Random(17)
    samples = [cycle_graph(4), cycle_graph(5), star_graph(5), complete_graph(4)]
    while len(samples) < 12:
        g = random_graph(rng.randint(4, 6), 0.5, rng)
        if g.is_connected():
            samples.append(g)
    for g in samples:
        cg = central(g)
        part1 = set(cg.part1)
        identity = tuple(range(cg.graph.n))
        for psi in automorphisms(cg.graph):
            assert {psi[v] for v in part1} == part1
            if all(psi[v] == v for v in part1):
                assert psi == identity


def test_endline_groups_preserve_parts_and_are_rigid_over_part1():
    rng = random.Random(19)
    samples = [path_graph(3), cycle_graph(5), star_graph(4)]
    while len(samples) < 10:
        g = random_graph(rng.randint(3, 6), 0.5, rng)
        if g.is_connected():
            samples.append(g)
    for g in samples:
        plus = endline(g)
        part1 = set(plus.part1)
        identity = tuple(range(plus.graph.n))
        for psi in automorphisms(plus.graph):
            assert {psi[v] for v in part1} == part1
            if all(psi[v] == v for v in part1):
                assert psi == identity


def test_subdivision_group_matches_base_except_cycles():
    for g, equal in [
        (star_graph(5), True),
        (path_graph(5), True),
        (complete_graph(4), True),
        (cycle_graph(5), False),
    ]:
        base = automorphisms(g).order
        sub = automorphisms(subdivision(g).graph).order
        assert (sub == base) is equal
    assert automorphisms(subdivision(cycle_graph(5)).graph).order == 20


def test_check_aut_chain():
    rep = check_aut_chain(star_graph(5))
    assert rep.applicable and rep.passed
    assert rep.base_order == 24
    assert rep.line_order == rep.subdivision_order == rep.central_order == 24
    assert rep.middle_order == rep.endline_order == 24

    rep = check_aut_chain(path_graph(5))
    assert rep.passed and rep.base_order == 2

    rep = check_aut_chain(cycle_graph(5))
    assert not rep.applicable and "cycle" in rep.reason

    rep = check_aut_chain(path_graph(4))
    assert not rep.applicable

    doc = check_aut_chain(star_graph(5)).to_json()
    assert doc["passed"] is True and doc["orders"]["base"] == 24


def _lifted_transforms(g, group):
    """(graph, lifted generators of Aut(g), preferred base) for g itself and
    each transform check 2.11 compares, lifted by the public lift maps."""
    cent = [lift_to_central(a, g) for a in group.generators]
    return [
        (g, list(group.generators), group.base),
        (line_graph(g)[0], [tuple(x - g.n for x in p[g.n:]) for p in cent], ()),
        (subdivision(g).graph, cent, group.base),
        (central(g).graph, cent, group.base),
        (middle(g).graph, cent, group.base),
        (endline(g).graph, [lift_to_endline(a, g) for a in group.generators], group.base),
    ]


def test_seeded_chains_find_the_whole_group():
    # Seeds change which branches a chain searches, never its group: on every
    # connected graph of orders 1-7, cycles and small orders included, each
    # seeded order is the unseeded one, the generators (every seed but the
    # identity among them) are automorphisms, and each level's transversal
    # fixes the base points before it and maps that level's point to
    # distinct points.
    for n in range(1, 8):
        for g in connected_graphs(n):
            for h, known, points in _lifted_transforms(g, automorphisms(g)):
                seeded = autos._stabilizer_chain(h, math.inf, points, known)
                assert seeded.order == automorphisms(h).order, (g, h)
                assert set(known) - {tuple(range(h.n))} <= set(seeded.generators), (g, h)
                assert all(is_automorphism(h, p) for p in seeded.generators), (g, h)
                for i, reps in enumerate(seeded.transversals):
                    assert all(t[b] == b for t in reps for b in seeded.base[:i]), (g, h)
                    assert len({t[seeded.base[i]] for t in reps}) == len(reps), (g, h)


def test_seeded_chains_search_past_a_proper_subgroup():
    # S(C_n) is C_2n, of order 4n, where the lifts of Aut(C_n) give 2n;
    # L(K4) is the octahedron, of order 48, where those of Aut(K4) give 24.
    for n in range(5, 9):
        g = cycle_graph(n)
        group = automorphisms(g)
        h, known, points = _lifted_transforms(g, group)[2]
        assert group.order == 2 * n
        assert autos._stabilizer_chain(h, math.inf, points, known).order == 4 * n
    g = complete_graph(4)
    group = automorphisms(g)
    h, known, points = _lifted_transforms(g, group)[1]
    assert group.order == 24
    assert autos._stabilizer_chain(h, math.inf, points, known).order == 48


def test_seeded_central_chain_searches_no_branch():
    # Aut(C(K6)) is the lift of Aut(K6): seeded with the lifted generators
    # and K6's base, every orbit is reached before any search.
    g = complete_graph(6)
    h, known, points = _lifted_transforms(g, automorphisms(g))[3]
    assert automorphisms(h).nodes == 15
    seeded = autos._stabilizer_chain(h, math.inf, points, known)
    assert seeded.nodes == 0 and seeded.order == math.factorial(6)


def test_seeded_chain_takes_any_known_elements():
    # Known elements need not fix any base point, and the preferred base
    # need not be a base of the seeds: random group elements (the identity
    # too) and random base points still give the group, element for element.
    rng = random.Random(32)
    for g in (petersen_graph(), central(star_graph(5)).graph, complete_bipartite(3, 4)):
        group = automorphisms(g)
        for k in (1, 2, 5):
            known = rng.sample(group.elements, k) + [tuple(range(g.n))]
            for points in ((), tuple(rng.sample(range(g.n), 3))):
                seeded = autos._stabilizer_chain(g, math.inf, points, known)
                assert seeded.elements == group.elements, (g, known, points)
        # A path with a preferred base, searched against its own graph,
        # finds every automorphism once.
        path = autos._Path(g, base=(g.n - 1,))
        assert sorted(autos._search(path, g, [0] * g.n)) == list(group.elements), g
    # Petersen is vertex-transitive, so a preferred point is the first base point.
    assert autos._stabilizer_chain(petersen_graph(), math.inf, (7, 3)).base[0] == 7


def test_check_aut_chain_past_order_seven():
    # Acceptance gate 1 runs the chain over every graph up to order 7.  Dense
    # random graphs are mostly rigid, so every other sample is a random tree.
    rng = random.Random(23)
    graphs = [petersen_graph(), complete_bipartite(3, 5)]
    while len(graphs) < 32:
        n = rng.randint(8, 10)
        g = random_tree(n, rng) if len(graphs) % 2 else random_graph(n, rng.uniform(0.25, 0.6), rng)
        if g.is_connected() and not g.is_cycle():
            graphs.append(g)
    for g in graphs:
        assert check_aut_chain(g).passed, g


def test_chain_theorem_on_drawn_graphs():
    # The paper's theorem past the orders gate 1 covers: the six group orders
    # agree and both lifts exhaust, on connected non-cycle graphs of order 5-10.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def connected_non_cycles(draw):
        n = draw(st.integers(5, 10))
        # A random spanning tree (each vertex joins an earlier one) plus
        # any set of extra pairs keeps the graph connected.
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pairs = [(u, v) for v in range(n) for u in range(v)]
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
        g = Graph.from_edges(n, sorted(edges))
        hypothesis.assume(not g.is_cycle())
        return g

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @hypothesis.given(connected_non_cycles())
    def check(g):
        assert check_aut_chain(g).passed

    check()
