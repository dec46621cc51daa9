"""Search engine cross-checked against unpruned reference enumerations."""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import math
import multiprocessing
import os
import random
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from symcol import autos, oracles
from symcol.autos import _lift_through, automorphisms, invert
from symcol.colorings import (
    TDCPartition,
    TotalColoring,
    is_avd_total,
    is_distinguishing,
    is_proper,
    is_tdc,
)
from symcol.errors import BudgetExceededError, NotApplicableError
from symcol.families import all_graphs, connected_graphs
from symcol.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    paw_graph,
    petersen_graph,
    star_graph,
)
from symcol.oracles import (
    PARAM_KINDS,
    OracleResult,
    exact_parameter,
    lower_bound_certificate,
    upper_bound_witness,
)
from symcol.transforms import central


# --- reference implementations, deliberately unpruned -----------------------


def naive_auts(g):
    out = []
    for p in itertools.permutations(range(g.n)):
        if all(
            g.has_edge(p[u], p[v]) == g.has_edge(u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            out.append(p)
    return out


def brute_param(g, kind):
    """Minimal color count by plain product enumeration over all colorings."""
    n = g.n
    edges = g.edges()
    m = len(edges)
    eidx = {e: i for i, e in enumerate(edges)}
    auts = [p for p in naive_auts(g) if p != tuple(range(n))]

    def edge_image(p, k):
        u, v = edges[k]
        a, b = p[u], p[v]
        return eidx[(a, b) if a < b else (b, a)]

    def proper_total(vc, ec):
        for k, (u, v) in enumerate(edges):
            if vc[u] == vc[v] or ec[k] == vc[u] or ec[k] == vc[v]:
                return False
        for i in range(m):
            for j in range(i + 1, m):
                if ec[i] == ec[j] and set(edges[i]) & set(edges[j]):
                    return False
        return True

    def accepted(assign):
        vc, ec = assign[:n], assign[n:]
        if kind == "D":
            return not any(all(vc[p[v]] == vc[v] for v in range(n)) for p in auts)
        if kind == "Dp":
            ec = assign
            return not any(
                all(ec[edge_image(p, k)] == ec[k] for k in range(m)) for p in auts
            )
        if kind == "Dpp":
            return not any(
                all(vc[p[v]] == vc[v] for v in range(n))
                and all(ec[edge_image(p, k)] == ec[k] for k in range(m))
                for p in auts
            )
        if kind == "chitd":
            colors = assign
            if any(colors[u] == colors[v] for u, v in edges):
                return False
            for v in range(n):
                if not any(
                    members and all(g.has_edge(v, u) for u in members)
                    for c in set(colors)
                    for members in [[u for u in range(n) if colors[u] == c]]
                ):
                    return False
            return True
        if not proper_total(vc, ec):
            return False
        if kind == "chi2":
            return True
        if kind == "chi2a":
            prof = [
                frozenset([vc[v]] + [ec[k] for k in range(m) if v in edges[k]])
                for v in range(n)
            ]
            return all(prof[u] != prof[v] for u, v in edges)
        if kind == "chi2D":
            return not any(
                all(vc[p[v]] == vc[v] for v in range(n))
                and all(ec[edge_image(p, k)] == ec[k] for k in range(m))
                for p in auts
            )
        raise AssertionError(kind)

    size = {"D": n, "Dp": m, "Dpp": n + m, "chitd": n}.get(kind, n + m)
    for level in range(1, size + 1):
        for assign in itertools.product(range(1, level + 1), repeat=size):
            if accepted(assign):
                return level
    return None


def assert_valid(g, res):
    w = res.witness
    if res.kind == "chitd":
        assert isinstance(w, TDCPartition)
        assert is_tdc(g, w)
        assert len(w.classes) == res.value
        return
    assert isinstance(w, TotalColoring)
    assert w.palette_size() == res.value
    if res.kind in ("chi2", "chi2D", "chi2a"):
        assert is_proper(g, w, "total")
    if res.kind == "chi2a":
        assert is_avd_total(g, w)
    if res.kind == "D":
        assert is_distinguishing(g, w, "vertex")
    elif res.kind == "Dp":
        assert is_distinguishing(g, w, "edge")
    elif res.kind in ("Dpp", "chi2D"):
        assert is_distinguishing(g, w, "total")


# --- cross-validation -------------------------------------------------------

SMALL = {
    "D": [path_graph(3), path_graph(4), cycle_graph(4), cycle_graph(5), cycle_graph(6),
          complete_graph(4), complete_graph(5), star_graph(4), paw_graph()],
    "Dp": [path_graph(4), complete_graph(3), star_graph(4), cycle_graph(4),
           cycle_graph(5), complete_graph(4)],
    "Dpp": [path_graph(3), cycle_graph(4), complete_graph(3), star_graph(4)],
    "chi2": [complete_graph(2), path_graph(3), complete_graph(3), path_graph(4),
             cycle_graph(4)],
    "chi2a": [complete_graph(2), path_graph(3), complete_graph(3), path_graph(4),
              cycle_graph(4)],
    "chi2D": [path_graph(3), complete_graph(3), cycle_graph(4)],
    "chitd": [complete_graph(2), path_graph(3), path_graph(4), cycle_graph(4),
              complete_graph(4), star_graph(5), cycle_graph(6)],
}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_engine_matches_reference(kind):
    for g in SMALL[kind]:
        res = exact_parameter(g, kind)
        assert res.value == brute_param(g, kind), (kind, g)
        assert_valid(g, res)


def test_known_values():
    assert exact_parameter(complete_graph(4), "D").value == 4
    assert exact_parameter(complete_graph(5), "D").value == 5
    assert exact_parameter(complete_graph(6), "Dp").value == 2
    assert exact_parameter(complete_graph(3), "chi2").value == 3
    assert exact_parameter(cycle_graph(5), "chi2").value == 4
    assert exact_parameter(complete_graph(4), "chi2").value == 5
    assert exact_parameter(complete_graph(4), "chi2a").value == 5


def test_certificates():
    assert lower_bound_certificate(complete_graph(2), "D", 2)
    assert lower_bound_certificate(complete_graph(3), "chi2", 3)
    assert not lower_bound_certificate(complete_graph(3), "chi2", 4)
    assert not lower_bound_certificate(complete_graph(3), "chi2", 5)
    assert lower_bound_certificate(cycle_graph(5), "chi2", 4)
    assert lower_bound_certificate(complete_graph(4), "chi2a", 5)


def test_upper_bound_witness():
    assert upper_bound_witness(cycle_graph(5), "chi2", 3) is None
    w = upper_bound_witness(cycle_graph(5), "chi2", 4)
    assert w is not None and is_proper(cycle_graph(5), w, "total")
    assert upper_bound_witness(cycle_graph(5), "chi2", 0) is None


def test_value_matches_certificate():
    for g, kind in [(cycle_graph(5), "D"), (complete_graph(4), "chi2"),
                    (path_graph(4), "chitd")]:
        value = exact_parameter(g, kind).value
        assert lower_bound_certificate(g, kind, value)
        assert not lower_bound_certificate(g, kind, value + 1)


def test_not_applicable():
    with pytest.raises(NotApplicableError):
        exact_parameter(complete_graph(2), "Dp")
    with pytest.raises(NotApplicableError):
        exact_parameter(empty_graph(3), "chitd")
    with pytest.raises(NotApplicableError):
        exact_parameter(Graph.from_edges(3, [(0, 1)]), "chitd")


def test_cap_exceeded():
    res = exact_parameter(complete_graph(4), "D", cap=2)
    assert res.value is None and res.witness is None
    assert res.nodes > 0


def test_budget_errors(monkeypatch):
    with pytest.raises(BudgetExceededError) as info:
        exact_parameter(cycle_graph(6), "chi2", budget=5)
    assert info.value.nodes is not None
    monkeypatch.setenv("SYMCOL_BUDGET", "4")
    with pytest.raises(BudgetExceededError):
        exact_parameter(cycle_graph(6), "chi2")
    monkeypatch.delenv("SYMCOL_BUDGET")
    with pytest.raises(BudgetExceededError):
        lower_bound_certificate(cycle_graph(6), "chi2", 4, budget=5)


def test_malformed_budget_variable_is_named(monkeypatch):
    monkeypatch.setenv("SYMCOL_BUDGET", "abc")
    with pytest.raises(ValueError, match="SYMCOL_BUDGET"):
        exact_parameter(cycle_graph(6), "chi2")
    assert exact_parameter(cycle_graph(6), "chi2", budget=10**6).value == 3


def _no_products(transversals, identity):
    raise AssertionError("a product of the group was formed")


def _no_masks(*args):
    raise AssertionError("a mask of the group was built")


def test_element_cap_bounds_the_search_masks(monkeypatch):
    # A search may hold n masks per vertex while it builds the pair masks,
    # then the live mask, one per colorable element and one per pair of
    # them, each of a word per 64 group elements.  D on K9: 81 + 46 masks
    # of 5,670 words, under the cap.  Dp on K10: 100 + 1,036 masks of
    # 56,700 words, past it.  Dp on K2 + 11K1: only 2 masks for its one
    # edge, but 169 of its 13 vertices' images, of 1,247,400 words, past it.
    monkeypatch.setattr(autos, "_products", _no_products)
    k9 = complete_graph(9)
    res = exact_parameter(k9, "D")
    assert res.value == 9 and is_distinguishing(k9, res.witness, "vertex")
    monkeypatch.setattr(oracles, "_moved_masks", _no_masks)
    k2_11k1 = Graph.from_edges(13, [(0, 1)])
    for g in (complete_graph(10), k2_11k1):
        with pytest.raises(BudgetExceededError, match="exceed the cap of 10000000 words"):
            exact_parameter(g, "Dp")


def test_dp_not_applicable_is_read_off_the_graph(monkeypatch):
    # A nontrivial symmetry fixes every edge iff the graph has two isolated
    # vertices or a K2 component, so Dp is refused before any mask is built:
    # K2 + 9K1 has 2 * 9! symmetries.  On every graph of orders 1-6 the rule
    # agrees with the masks on whether some nontrivial element moves no edge.
    for n in range(1, 7):
        for g in all_graphs(n):
            group = automorphisms(g)
            live, _, _ = oracles._moved_masks(group.transversals, g, list(range(n, n + g.edge_count())))
            try:
                oracles._Search(g, "Dp")
                refused = False
            except NotApplicableError:
                refused = True
            assert refused == (live.bit_count() < group.order - 1), g
    monkeypatch.setattr(oracles, "_moved_masks", _no_masks)
    for g in (Graph.from_edges(11, [(0, 1)]), Graph.from_edges(3, [(0, 1)]), empty_graph(2)):
        with pytest.raises(NotApplicableError, match="fixes every colorable element"):
            exact_parameter(g, "Dp")


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_live_pairs_are_the_lifted_nontrivial_elements():
    # Bit i of the search's masks stands for the i-th product of the group's
    # transversals.  The live mask must hold each nontrivial element, lifted
    # to vertices and edges, exactly once, and each pair of colorable
    # elements must be paired, once, with exactly the elements that map one
    # onto the other.
    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    graphs += [petersen_graph(), central(star_graph(7)).graph]
    for g in graphs:
        group = automorphisms(g)
        index = g.edge_index()
        identity = tuple(range(g.n))
        products = autos._products(group.transversals, identity)
        lifted = {phi: _lift_through(phi, g.n, index)
                  for phi in group.elements if phi != identity}
        for kind in ("D", "Dp", "Dpp", "chi2D"):
            try:
                search = oracles._Search(g, kind)
            except NotApplicableError:
                assert kind == "Dp", (g, kind)
                continue
            members = [products[i] for i in _bits(search.live)]
            assert len(members) == len(lifted) and set(members) == set(lifted), (g, kind)
            expected: dict[frozenset, set] = {}
            for phi, elem in lifted.items():
                for e in search.universe:
                    if elem[e] != e:
                        expected.setdefault(frozenset((e, elem[e])), set()).add(phi)
            found = {}
            for p, e in enumerate(search.order):
                for x, mask in search.kills[p]:
                    assert x in search.order[:p] and frozenset((x, e)) not in found, (g, kind)
                    found[frozenset((x, e))] = {products[i] for i in _bits(mask)}
            assert found == expected, (g, kind)


def test_live_mask_matches_a_list_filter():
    # Force the search down seeded random partial colorings and, at every
    # node on the way, compare its live mask with the list filter it
    # replaced: an (element, inverse) pair dies when either maps the newly
    # colored e onto an element of another color.
    rng = random.Random(29)
    for g in (central(star_graph(7)).graph, petersen_graph()):
        group = automorphisms(g)
        index = g.edge_index()
        identity = tuple(range(g.n))
        elems = [_lift_through(phi, g.n, index)
                 for phi in autos._products(group.transversals, identity)]
        pairs = [(i, elem, invert(elem)) for i, elem in enumerate(elems)
                 if elem != tuple(range(len(elem)))]
        for kind in ("D", "Dp", "Dpp", "chi2D"):
            search = oracles._Search(g, kind)
            level = g.max_degree() + 2 if kind == "chi2D" else 3
            seen = []
            dfs = search._dfs

            def recorded(p, live, seen=seen, dfs=dfs):
                seen.append((p, live))
                return dfs(p, live)

            search._dfs = recorded
            depths = []
            for _ in range(15):
                prefix, top = [], 0
                for _ in range(rng.randrange(1, search.N + 1)):
                    c = 1 if rng.random() < 0.6 else rng.randint(1, min(level, top + 1))
                    prefix.append(c)
                    top = max(top, c)
                seen.clear()
                search.run(level, 10**6, prefix=tuple(prefix), stop_depth=len(prefix))
                live, colors = pairs, [0] * (g.n + g.edge_count())
                for p, mask in seen:
                    assert _bits(mask) == [i for i, _, _ in live], (kind, prefix, p)
                    if p < len(prefix):
                        e = search.order[p]
                        c = colors[e] = prefix[p]
                        live = [(i, s, t) for i, s, t in live
                                if colors[s[e]] in (0, c) and colors[t[e]] in (0, c)]
                depths.append(seen[-1][0])
            assert max(depths) >= 4, (kind, depths)


def test_pruning_by_settled_elements_keeps_every_level():
    # A node is dropped when a live group element fixes every uncolored
    # element.  The same search with its settled masks zeroed drops none:
    # at every level up to the value the two must agree on status and
    # assignment, and the pruned one may only take fewer nodes.
    graphs = [g for n in range(2, 7) for g in connected_graphs(n)]
    graphs += [petersen_graph(), central(star_graph(7)).graph, central(cycle_graph(5)).graph]
    saved = 0
    for g in graphs:
        for kind in ("D", "Dp", "Dpp", "chi2D"):
            try:
                pruned = oracles._Search(g, kind)
            except NotApplicableError:
                continue
            unpruned = oracles._Search(g, kind)
            unpruned.settled = [0] * len(pruned.settled)
            level = g.max_degree() + 1 if kind == "chi2D" else 1
            while True:
                status, data, nodes = pruned.run(level, 10**7)
                base_status, base_data, base_nodes = unpruned.run(level, 10**7)
                assert (status, data) == (base_status, base_data), (g, kind, level)
                assert nodes <= base_nodes, (g, kind, level)
                saved += base_nodes - nodes
                if status == "sat":
                    break
                level += 1
    assert saved > 0


def test_distinguishing_number_of_central_stars_is_ceil_sqrt():
    # D(C(K1,k)) = ceil(sqrt(k)): the central graphs of stars are the
    # sharpness examples of the ceil(sqrt(max degree)) bound.
    for k in range(3, 9):
        g = central(star_graph(k + 1)).graph
        res = exact_parameter(g, "D")
        assert res.value == 1 + math.isqrt(k - 1), k
        assert is_distinguishing(g, res.witness, "vertex"), k


def test_bad_kind():
    # Every public entry refuses an unknown kind, with or without a cap.
    for call in (lambda: exact_parameter(path_graph(3), "chromatic"),
                 lambda: exact_parameter(path_graph(3), "chromatic", cap=3),
                 lambda: lower_bound_certificate(path_graph(3), "X", 2),
                 lambda: upper_bound_witness(path_graph(3), "X", 2)):
        with pytest.raises(ValueError, match="unknown parameter kind"):
            call()


@pytest.mark.parametrize("kind", PARAM_KINDS)
def test_order_0_is_not_applicable_to_any_kind(kind):
    # The order-0 graph has nothing to color, whatever the entry point, cap
    # or bound; it once gave Dp value 1 with an empty coloring and the other
    # kinds None.
    g = Graph(0, ())
    for call in (lambda: exact_parameter(g, kind), lambda: exact_parameter(g, kind, cap=2),
                 lambda: lower_bound_certificate(g, kind, 1),
                 lambda: upper_bound_witness(g, kind, 1)):
        with pytest.raises(NotApplicableError, match="order-0 graph"):
            call()


def test_chitd_budget_covers_its_own_levels():
    # chitd starts at 2 colors: K4 refutes 2 and 3 in 2 + 3 nodes, and level
    # 4 takes 4 more.  A budget of 5 stops at the first node of level 4.
    assert exact_parameter(complete_graph(4), "chitd").nodes == 9
    with pytest.raises(BudgetExceededError, match="searching chitd at 4 colors") as info:
        exact_parameter(complete_graph(4), "chitd", budget=5)
    assert info.value.nodes == 6


DETERMINISM_CASES = [
    (cycle_graph(5), "D"),
    (complete_graph(4), "chi2"),
    (cycle_graph(4), "chitd"),
    (cycle_graph(5), "Dp"),
    (complete_graph(3), "chi2a"),
]


def test_worker_determinism():
    # C(K1,7) and K8 add distinguishing searches that prune settled
    # symmetries in the collection pass and in the slices alike.
    pruned = [(central(star_graph(8)).graph, "D"), (central(star_graph(8)).graph, "Dp"),
              (complete_graph(8), "D")]
    for g, kind in DETERMINISM_CASES + pruned:
        seq = exact_parameter(g, kind, workers=1)
        par = exact_parameter(g, kind, workers=2)
        assert (seq.value, seq.witness, seq.nodes) == (par.value, par.witness, par.nodes), (kind, g)


def test_workers_take_the_budget_of_the_call(monkeypatch):
    # Each worker builds its search, group lookup included, under the budget
    # the call resolved; one node from its environment would stop it.
    # Spawned workers do not inherit that budget.  The oracles import the
    # pool class when they start a pool, so the patch is read then.
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        functools.partial(ProcessPoolExecutor, mp_context=spawn))
    g = central(star_graph(5)).graph
    monkeypatch.setenv("SYMCOL_BUDGET", "1")
    runs = [_outcome(lambda: exact_parameter(g, "D", budget=10**6, workers=w)) for w in (1, 2)]
    assert runs[0] == runs[1] and runs[0][0] == 2


def test_one_worker_runs_load_no_process_pool():
    # The pool's module pulls in multiprocessing, and concurrent.futures
    # pulls in logging; only a run with more than one worker should pay for
    # them.
    probe = ("import sys, symcol.cli; print(*(name in sys.modules for name in "
             "('concurrent.futures.process', 'multiprocessing', 'concurrent.futures', 'logging')))")
    src = str(Path(oracles.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False"] * 4


def test_group_lookup_is_held_to_the_budget_cold_and_warm(monkeypatch):
    # C(K8)'s group takes 28 search nodes, so one node stops the D search
    # before it forms any product, also after a lookup at the default
    # budget has found the group.
    g = central(complete_graph(8)).graph
    monkeypatch.setattr(autos, "_products", _no_products)
    for _ in ("cold", "warm"):
        with pytest.raises(BudgetExceededError, match="automorphism search"):
            exact_parameter(g, "D", budget=1)
        assert automorphisms(g).nodes == 28


def test_worker_reuses_its_search_across_slices():
    g = central(star_graph(5)).graph
    key = (g.n, g.adj, "D")
    oracles._worker_search.cache_clear()
    for level, prefix in ((3, (1,)), (3, (1, 2)), (2, (1, 1)), (2, (1, 2)), (3, (1,))):
        fresh = oracles._Search(g, "D").run(level, 10**6, prefix=prefix)
        assert oracles._worker_run((key, level, prefix, 10**6)) == fresh
    assert oracles._worker_search.cache_info().misses == 1
    other = (g.n, g.adj, "Dp")
    oracles._worker_run((other, 2, (1,), 10**6))
    assert oracles._worker_search.cache_info().misses == 2
    assert oracles._worker_search(*other).kind == "Dp"
    oracles._worker_search.cache_clear()


def test_one_search_per_call_and_kind(monkeypatch):
    built = []
    search = oracles._Search

    def counted(g, kind, *args):
        built.append(kind)
        return search(g, kind, *args)

    monkeypatch.setattr(oracles, "_Search", counted)
    assert exact_parameter(central(star_graph(7)).graph, "D").value == 3
    assert built == ["D"]
    built.clear()
    assert exact_parameter(complete_graph(4), "chitd").value == 4
    assert built == ["chitd"]
    built.clear()
    # An empty level range builds nothing.
    assert lower_bound_certificate(complete_graph(4), "D", 1)
    assert built == []


def _outcome(call):
    try:
        result = call()
    except BudgetExceededError as exc:
        return ("budget-exceeded", str(exc), exc.nodes)
    if isinstance(result, OracleResult):
        return (result.value, result.witness, result.nodes)
    return result


@pytest.mark.parametrize(
    "g, kind",
    [
        (central(complete_graph(4)).graph, "chi2a"),
        (petersen_graph(), "Dpp"),
        (central(cycle_graph(5)).graph, "chi2"),
        *DETERMINISM_CASES,
    ],
    ids=["C(K4)-chi2a", "Petersen-Dpp", "C(C5)-chi2", "C5-D", "K4-chi2", "C4-chitd",
         "C5-Dp", "K3-chi2a"],
)
def test_tight_budgets_do_not_depend_on_workers(g, kind):
    full = exact_parameter(g, kind)
    n = full.nodes
    for budget in (n - 1, n, math.ceil(1.05 * n)):
        calls = [
            lambda w: exact_parameter(g, kind, budget=budget, workers=w),
            lambda w: lower_bound_certificate(g, kind, full.value, budget=budget, workers=w),
            lambda w: upper_bound_witness(g, kind, full.value, budget=budget, workers=w),
        ]
        outcomes = []
        for call in calls:
            outcomes.append(_outcome(lambda: call(1)))
            assert outcomes[-1] == _outcome(lambda: call(2)), (kind, budget)
        assert (outcomes[0][0] == "budget-exceeded") == (budget < n)


# --- the chitd search, which uses no symmetry --------------------------------


def _chromatic_number(g):
    """The least k for which some assignment of k colors, tried vertex by
    vertex, is a proper vertex coloring."""

    def colorable(k, colors):
        v = len(colors)
        return v == g.n or any(
            colorable(k, colors + [c]) for c in range(k)
            if all(colors[u] != c for u in g.neighbors(v) if u < v)
        )

    return next(k for k in range(1, g.n + 1) if colorable(k, []))


def _chitd_outcome(g):
    try:
        return exact_parameter(g, "chitd")
    except NotApplicableError:
        return None


def test_chitd_search_looks_up_no_group(monkeypatch):
    def refuse(g):
        raise AssertionError("the chitd search needs no automorphism group")

    monkeypatch.setattr(oracles, "automorphisms", refuse)
    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    # Groups of order 25!, and a star of 66 vertices.
    graphs += [complete_graph(25), star_graph(26), star_graph(66)]
    for g in graphs:
        _chitd_outcome(g)
    assert exact_parameter(petersen_graph(), "chitd").nodes == 483
    assert exact_parameter(central(cycle_graph(8)).graph, "chitd").nodes == 305
    assert exact_parameter(central(_sharp6()).graph, "chitd", cap=6).nodes == 171


def test_chitd_is_at_least_the_chromatic_number():
    # chitd starts at 2 colors, not at the chromatic number: the levels
    # below it must be refuted by the search itself.
    for n in range(2, 7):
        for g in connected_graphs(n):
            res = exact_parameter(g, "chitd")
            assert res.value >= _chromatic_number(g), g
            assert is_tdc(g, res.witness), g


# --- forward checking of total domination ------------------------------------


def _sharp6():
    """K6 minus a Hamiltonian cycle, whose central graph needs all 6 classes."""
    return Graph.from_edges(
        6, [(u, v) for u, v in complete_graph(6).edges() if not cycle_graph(6).has_edge(u, v)]
    )


# chitd values and witness classes of searches that ran to the end before the
# search checked domination forward (C(K5) took 2,685,713 nodes, C(C9)
# 2,065,100).  The check prunes only subtrees without a solution, so the first
# solution in branch order stays the same.
CHITD_PINNED = [
    ("C(C8)", central(cycle_graph(8)).graph, None, 7,
     [[0, 1], [2], [3, 4], [5], [6, 8, 9, 10, 11, 12, 14], [7], [13, 15]]),
    ("C(sharp6)", central(_sharp6()).graph, 6, 6,
     [[0, 2], [1, 6, 7, 9, 11, 13, 14], [3], [4], [5], [8, 10, 12]]),
    ("C(C9)", central(cycle_graph(9)).graph, None, 7,
     [[0, 1], [2], [3, 4], [5], [6, 7], [8], [9, 10, 11, 12, 13, 14, 15, 16, 17]]),
    ("C(K5)", central(complete_graph(5)).graph, None, 8,
     [[0, 1], [2], [3], [4], [5, 6, 7, 8, 9, 13, 14], [10], [11], [12]]),
    ("Petersen", petersen_graph(), None, 6,
     [[0, 2, 8], [1, 3, 5], [4], [6], [7], [9]]),
]


@pytest.mark.parametrize(
    "g, cap, value, classes", [case[1:] for case in CHITD_PINNED],
    ids=[case[0] for case in CHITD_PINNED],
)
def test_chitd_forward_check_keeps_values_and_witnesses(g, cap, value, classes):
    res = exact_parameter(g, "chitd", cap=cap, budget=10**5)
    doc = res.to_json(g)
    assert (doc["value"], doc["witness"]) == (value, {"classes": classes})
    assert is_tdc(g, res.witness)


def test_chitd_forward_check_reaches_central_c10():
    # Without the check this search ran past 3 * 10**6 nodes.
    g = central(cycle_graph(10)).graph
    res = exact_parameter(g, "chitd", budget=10**5)
    assert res.value == 8
    assert is_tdc(g, res.witness)


def test_parameter_relations_on_drawn_graphs():
    # Dpp <= min(D, Dp): a distinguishing vertex or edge coloring stays
    # distinguishing under any colors of the other elements.  A proper total
    # coloring underlies every chi2D and chi2a coloring, and a proper vertex
    # coloring every total dominator coloring.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def connected(draw):
        n = draw(st.integers(1, 6))
        # A random spanning tree plus any set of extra pairs.
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pairs = [(u, v) for v in range(n) for u in range(v)]
        if pairs:
            edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
        return Graph.from_edges(n, sorted(edges))

    def value(g, kind):
        try:
            return exact_parameter(g, kind).value
        except NotApplicableError:
            return None

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @hypothesis.given(connected())
    def check(g):
        v = {kind: value(g, kind) for kind in oracles.PARAM_KINDS}
        for other in ("D", "Dp"):
            if v["Dpp"] is not None and v[other] is not None:
                assert v["Dpp"] <= v[other], (g, other)
        assert v["chi2"] <= v["chi2D"] and v["chi2"] <= v["chi2a"], g
        if v["chitd"] is not None:
            assert _chromatic_number(g) <= v["chitd"], g

    check()
