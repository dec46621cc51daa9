"""Acceptance gates.  Each test prints one verdict line, even under capture.

Every gate checks certified values: each expected value is either the
oracle's answer confirmed by a witness that an independent check accepts,
or a bound that a construction promises in its docstring.  Two claims that
earlier versions of gates 3 and 8 asserted are false and are no longer
checked:

- "D'(C(K_{1,5})) = 3".  The hub is the only vertex of degree 5 whose
  neighbours all have degree 2, so the group is S_5 on the five branches;
  two colors give each branch one of four color pairs and a K_5 edge breaks
  the remaining tie, so D' = 2.  Gate 3 checks a hand-built 2-coloring by
  brute force over all 720 maps of the degree-5 vertices.
- "C(K_6) refuses Delta + 1 AVD total colors".  K_6 has no non-adjacent
  pairs, so C(K_6) = S(K_6), where every edge joins a degree-5 vertex to a
  degree-2 one and every proper total coloring is AVD; construction 5.3
  gives one with 6 = Delta + 1 colors, which gate 8 checks.
"""

from __future__ import annotations

import itertools
import math
import random
import sys

from symcol.autos import automorphisms, check_aut_chain
from symcol.colorings import (
    TotalColoring,
    is_avd_total,
    is_distinguishing,
    is_proper,
    is_tdc,
)
from symcol.constructive import (
    avd_coloring_central_join,
    avd_coloring_central_regular,
    avd_coloring_subdivision,
    dist_edge_coloring_central,
    dist_vertex_coloring_central,
    dist_vertex_coloring_middle,
    tdc_central,
    tdc_central_tree,
    tdc_to_complement,
    total_dist_coloring_central_regular,
)
from symcol.families import all_trees, connected_graphs, regular_graphs
from symcol.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_graph,
    random_tree,
    star_graph,
)
from symcol.latin import check_structure, icls
from symcol.oracles import (
    exact_parameter,
    lower_bound_certificate,
    upper_bound_witness,
)
from symcol.transforms import central, middle, subdivision

VERDICT_LINES: list[str] = []


def _announce(num: int, title: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {num:>2} {verdict}  {title}"
    if failures:
        extra = f"; +{len(failures) - 1} more" if len(failures) > 1 else ""
        line += f"  [{failures[0]}{extra}]"
    VERDICT_LINES.append(line)
    print(line, flush=True)
    assert not failures, "\n".join(failures)


def _ceil_sqrt(x: int) -> int:
    return 1 + math.isqrt(x - 1) if x > 1 else 1


def test_01_automorphism_group_chain():
    failures = []
    checked = 0
    for n in (5, 6, 7):
        skipped = 0
        for g in connected_graphs(n):
            report = check_aut_chain(g)
            if not report.applicable:
                skipped += 1
                continue
            checked += 1
            if not report.all_equal:
                failures.append(f"group orders differ on {report.graph6}")
            elif not report.lifts_exhaust:
                failures.append(f"lifts do not exhaust on {report.graph6}")
        if skipped != 1:
            failures.append(f"{skipped} graphs skipped at order {n}, "
                            "expected only the cycle")
    if checked != (21 - 1) + (112 - 1) + (853 - 1):
        failures.append(f"checked {checked} graphs, expected 983")
    _announce(1, "automorphism group orders agree across all five transforms "
                 "(connected non-cycles, orders 5-7)", failures)


def test_02_distinguishing_colorings_of_central_graphs():
    failures = []
    for n in (4, 5, 6, 7):
        for g in connected_graphs(n):
            bound = _ceil_sqrt(g.max_degree())
            for op, kind in ((dist_edge_coloring_central, "edge"),
                             (dist_vertex_coloring_central, "vertex")):
                try:
                    res = op(g)
                except Exception as exc:  # noqa: BLE001 - gate reports anything
                    failures.append(f"{kind} op failed on order {n}: {exc}")
                    continue
                if res.palette_size > bound:
                    failures.append(
                        f"{kind} palette {res.palette_size} > {bound} on order {n}"
                    )
    _announce(2, "central-graph edge and vertex distinguishing colorings stay "
                 "within ceil(sqrt(max degree)) (orders 4-7)", failures)


def _automorphisms_by_hand(g: Graph) -> list[tuple[int, ...]]:
    """The whole automorphism group of a graph whose degree-2 vertices each
    sit between two vertices of other degrees, no two of them on the same
    pair, found without the refinement engine.

    An automorphism keeps degrees, so it permutes the other vertices among
    themselves, and the image of each degree-2 vertex is then forced by the
    images of its two neighbours.  Extending every permutation of the other
    vertices and keeping the extensions that map edges onto edges therefore
    lists every automorphism exactly once.
    """
    small = [v for v in range(g.n) if g.degree(v) == 2]
    big = [v for v in range(g.n) if g.degree(v) != 2]
    by_ends = {frozenset(g.neighbors(w)): w for w in small}
    assert len(by_ends) == len(small), "two degree-2 vertices share a pair"
    assert all(end in big for ends in by_ends for end in ends)
    edges = {frozenset(e) for e in g.edges()}
    found = []
    for image in itertools.permutations(big):
        phi = [0] * g.n
        for v, w in zip(big, image):
            phi[v] = w
        for ends, w in by_ends.items():
            target = by_ends.get(frozenset(phi[v] for v in ends))
            if target is None:
                break
            phi[w] = target
        else:
            if {frozenset((phi[u], phi[v])) for u, v in edges} == edges:
                found.append(tuple(phi))
    return found


def _preserving(group: list[tuple[int, ...]],
                f: TotalColoring) -> list[tuple[int, ...]]:
    """The group elements that keep every edge color of f."""
    assert f.edge_colors is not None
    return [phi for phi in group
            if all(f.edge(phi[u], phi[v]) == c
                   for (u, v), c in f.edge_colors.items())]


def _star_central_two_coloring() -> TotalColoring:
    """A distinguishing 2-edge-coloring of the central graph of the star with
    five leaves: branch i (hub to leaf i through its subdivision vertex)
    carries its own color pair, except branches 4 and 5 which share (2, 2)
    and are told apart by the leaf-to-leaf edge {1, 4}, colored 2."""
    tagged = central(star_graph(6))
    pairs = {1: (1, 1), 2: (1, 2), 3: (2, 1), 4: (2, 2), 5: (2, 2)}
    ec = {e: 1 for e in tagged.graph.edges()}
    for leaf, (near, far) in pairs.items():
        w = tagged.subdivided(0, leaf)
        ec[(0, w)] = near
        ec[(leaf, w)] = far
    ec[(1, 4)] = 2
    return TotalColoring(None, ec)


def test_03_star_central_sharpness_values():
    failures = []
    expected = {(5, "Dp"): 2, (5, "D"): 2, (6, "Dp"): 2, (6, "D"): 3}
    witnesses = {}
    for (order, kind), claim in sorted(expected.items()):
        cent = central(star_graph(order)).graph
        res = exact_parameter(cent, kind, cap=4)
        witnesses[order, kind] = res.witness
        if res.value != claim:
            failures.append(
                f"{kind} of the order-{order} star's central graph is "
                f"{res.value}, certified {claim}"
            )
    cent = central(star_graph(6)).graph
    group = _automorphisms_by_hand(cent)
    if len(group) != 120:
        failures.append(f"central graph of K1,5 has {len(group)} automorphisms "
                        "by hand, expected 120")
    identity = [tuple(range(cent.n))]
    for name, f in (("hand-built", _star_central_two_coloring()),
                    ("oracle", witnesses[6, "Dp"])):
        if f is None or f.palette_size() > 2 or _preserving(group, f) != identity:
            failures.append(f"{name} 2-edge-coloring of the central graph of "
                            "K1,5 is not distinguishing by hand")
    _announce(3, "distinguishing number and index of star central graphs "
                 "match the certified values; a 2-color distinguishing edge "
                 "coloring of the central graph of K1,5 survives a "
                 "brute-force check of its 120 automorphisms", failures)


def test_04_middle_graph_distinguishing():
    failures = []
    for n in (3, 4, 5, 6):
        for g in connected_graphs(n):
            res = dist_vertex_coloring_middle(g)
            if res.palette_size > max(2, g.max_degree()):
                failures.append(f"middle palette {res.palette_size} on order {n}")
            if upper_bound_witness(middle(g).graph, "Dp", 3) is None:
                failures.append(f"no 3-color distinguishing edge coloring, order {n}")
    for n in (3, 4, 5, 6):
        value = exact_parameter(middle(cycle_graph(n)).graph, "D", cap=3).value
        if value != 2:
            failures.append(f"D of the middle graph of the {n}-cycle is {value}")
    _announce(4, "middle-graph vertex colorings stay within the max degree and "
                 "cycle middles need exactly 2 colors", failures)


TABLE_ORDER_7 = (
    (1, 5, 2, 6, 3, 7, 4),
    (5, 2, 6, 3, 7, 4, 1),
    (2, 6, 3, 7, 4, 1, 5),
    (6, 3, 7, 4, 1, 5, 2),
    (3, 7, 4, 1, 5, 2, 6),
    (7, 4, 1, 5, 2, 6, 3),
    (4, 1, 5, 2, 6, 3, 7),
)


def _exists_icls(order: int) -> bool:
    cells = [[0] * order for _ in range(order)]
    for i in range(order):
        cells[i][i] = i + 1
    slots = [(i, j) for i in range(order) for j in range(i + 1, order)]

    def fill(pos: int) -> bool:
        if pos == len(slots):
            return True
        i, j = slots[pos]
        for value in range(1, order + 1):
            if value in cells[i] or value in cells[j]:
                continue
            cells[i][j] = cells[j][i] = value
            if fill(pos + 1):
                return True
            cells[i][j] = cells[j][i] = 0
        return False

    return fill(0)


def test_05_latin_square_golden_and_structure():
    failures = []
    if icls(4).rows != TABLE_ORDER_7:
        failures.append("order-7 square differs from the golden table")
    for k in range(1, 51):
        flags = check_structure(icls(k))
        if not (flags.latin and flags.commutative and flags.idempotent
                and flags.anticirculant):
            failures.append(f"structure flag false at k={k}")
            break
    if _exists_icls(2) or _exists_icls(4):
        failures.append("even order admitted an idempotent commutative square")
    _announce(5, "order-7 Latin square matches the golden table; structure "
                 "holds through k=50; no even-order squares exist", failures)


def _odd_regulars() -> list[Graph]:
    found = []
    for n in (5, 7):
        for d in range(2, n):
            for g in regular_graphs(d, n):
                if g.is_connected():
                    found.append(g)
    return found


def test_06_total_distinguishing_central_odd_regular():
    failures = []
    regs = _odd_regulars()
    if len(regs) != 6:
        failures.append(f"expected 6 odd-order regular graphs, found {len(regs)}")
    for g in regs:
        res = total_dist_coloring_central_regular(g)
        if res.palette_size != g.n:
            failures.append(f"palette {res.palette_size} != {g.n} on order {g.n}")
        if not is_proper(res.graph, res.coloring, "total"):
            failures.append(f"coloring not proper on order {g.n}")
        if not is_distinguishing(res.graph, res.coloring, "total"):
            failures.append(f"coloring not distinguishing on order {g.n}")
    for g in (cycle_graph(5), complete_graph(5)):
        cent = central(g).graph
        value = exact_parameter(cent, "chi2D", cap=cent.max_degree() + 2).value
        if value != cent.max_degree() + 1:
            failures.append(f"exact total distinguishing chromatic is {value}")
    _announce(6, "central graphs of odd-order regular graphs take proper "
                 "total distinguishing colorings with exactly max degree + 1 "
                 "colors", failures)


def test_07_total_chromatic_bounds_for_central_graphs():
    failures = []
    for n in (3, 4, 5):
        for g in connected_graphs(n):
            cent = central(g).graph
            d = cent.max_degree()
            value = exact_parameter(cent, "chi2D", cap=d + 2).value
            if value not in (d + 1, d + 2):
                failures.append(f"distinguishing total chromatic {value}, order {n}")
    for n in (3, 4, 5, 6):
        for g in connected_graphs(n):
            cent = central(g).graph
            if upper_bound_witness(cent, "chi2", cent.max_degree() + 2) is None:
                failures.append(f"no total coloring at max degree + 2, order {n}")
    _announce(7, "central graphs sit within one of max degree + 1 or + 2 for "
                 "distinguishing total colorings and satisfy the total "
                 "coloring bound", failures)


def test_08_avd_type_two_for_even_regular_central():
    failures = []
    for d in (2, 3, 4):
        for g in regular_graphs(d, 6):
            if not g.is_connected():
                continue
            res = avd_coloring_central_regular(g)
            cent = central(g).graph
            if res.palette_size > cent.max_degree() + 2:
                failures.append(f"AVD palette {res.palette_size} at degree {d}")
            if not is_avd_total(res.graph, res.coloring):
                failures.append(f"coloring not AVD at degree {d}")
    cent = central(cycle_graph(6)).graph
    if not lower_bound_certificate(cent, "chi2a", cent.max_degree() + 2):
        failures.append(
            "central graph of the 6-cycle admits an AVD total coloring with "
            "max degree + 1 colors; the claimed impossibility fails"
        )
    # K6 has no non-adjacent pairs, so its central graph is its subdivision,
    # where every edge joins a degree-5 vertex to a degree-2 one: any proper
    # total coloring is AVD, and construction 5.3 uses max degree + 1 colors.
    k6 = complete_graph(6)
    cent = central(k6).graph
    if lower_bound_certificate(cent, "chi2a", cent.max_degree() + 2):
        failures.append("oracle refutes AVD total colorings of the central "
                        "graph of K6 with max degree + 1 colors")
    res = avd_coloring_subdivision(k6)
    if set(res.graph.edges()) != set(cent.edges()):
        failures.append("central graph of K6 differs from its subdivision")
    elif (res.coloring.palette_size() != cent.max_degree() + 1
          or not is_avd_total(cent, res.coloring)):
        failures.append("construction 5.3 gives no max degree + 1 AVD total "
                        "coloring of the central graph of K6")
    _announce(8, "even-order regular central graphs take AVD colorings at max "
                 "degree + 2; the 6-cycle's refuses max degree + 1, K6's "
                 "takes it", failures)


def _broom(total: int, hub_degree: int) -> Graph:
    edges = [(0, i) for i in range(1, hub_degree + 1)]
    edges += [(i, i + 1) for i in range(hub_degree, total - 1)]
    return Graph.from_edges(total, edges)


def _avd_subdivision_inputs() -> list[Graph]:
    graphs = [
        star_graph(6), star_graph(7),
        _broom(7, 5), _broom(8, 5), _broom(9, 5), _broom(8, 6), _broom(10, 6),
    ]
    rng = random.Random(20250819)
    while len(graphs) < 13:
        t = random_tree(rng.randint(9, 13), rng)
        if t.max_degree() in (5, 6):
            graphs.append(t)
    while len(graphs) < 20:
        g = random_graph(rng.randint(8, 11), 0.35, rng)
        if g.is_connected() and g.max_degree() in (5, 6):
            graphs.append(g)
    return graphs


def test_09_avd_colorings_of_subdivisions():
    failures = []
    cases = {"A": 0, "B": 0, "C": 0}
    graphs = _avd_subdivision_inputs()
    if len(graphs) != 20:
        failures.append(f"generated {len(graphs)} graphs, expected 20")
    for g in graphs:
        for u, v in g.edges():
            two = (g.degree(u) == 2) + (g.degree(v) == 2)
            cases["ABC"[two]] += 1
        res = avd_coloring_subdivision(g)
        if res.palette_size != g.max_degree() + 1:
            failures.append(
                f"palette {res.palette_size} != {g.max_degree() + 1} "
                f"(order {g.n})"
            )
        if not is_avd_total(res.graph, res.coloring):
            failures.append(f"coloring not AVD on order {g.n}")
    for label, count in sorted(cases.items()):
        if count < 3:
            failures.append(f"endpoint-degree case {label} hit only {count} times")
    _announce(9, "subdivision AVD colorings hit exactly max degree + 1 colors "
                 "on 20 generated graphs covering all endpoint-degree cases",
              failures)


def test_10_avd_colorings_of_join_central_graphs():
    failures = []
    pairs = [
        (empty_graph(2), empty_graph(2)),
        (empty_graph(2), empty_graph(3)),
        (empty_graph(3), empty_graph(3)),
        (path_graph(3), path_graph(3)),
        (complete_graph(3), complete_graph(3)),
    ]
    for g1, g2 in pairs:
        if g1.n == g2.n:
            c1 = upper_bound_witness(central(g1).graph, "chi2", g1.n + 1)
            c2 = upper_bound_witness(central(g2).graph, "chi2", g2.n + 1)
        else:
            c1 = upper_bound_witness(central(g1).graph, "chi2a", g1.n + 2)
            c2 = upper_bound_witness(central(g2).graph, "chi2a", g2.n + 2)
        res = avd_coloring_central_join(g1, g2, c1, c2)
        bound = res.graph.max_degree() + 3
        if res.palette_size > bound:
            failures.append(
                f"join palette {res.palette_size} > {bound} "
                f"({g1.n}+{g2.n} parts)"
            )
        if not is_avd_total(res.graph, res.coloring):
            failures.append(f"join coloring not AVD ({g1.n}+{g2.n} parts)")
    _announce(10, "central graphs of joins take AVD colorings within max "
                  "degree + 3", failures)


def test_11_total_dominator_partitions():
    failures = []
    for n in (5, 6):
        for g in connected_graphs(n):
            if g.max_degree() > n - 3:
                continue
            p = tdc_central(g)
            if len(p.classes) != n or not is_tdc(central(g).graph, p):
                failures.append(f"central partition invalid on order {n}")
                continue
            q = tdc_to_complement(p, g)
            if not is_tdc(g.complement(), q):
                failures.append(f"complement partition invalid on order {n}")
    sharp = complete_graph(6).complement()
    edges = [(u, v) for u, v in complete_graph(6).edges()
             if not cycle_graph(6).has_edge(u, v)]
    sharp = Graph.from_edges(6, edges)
    value = exact_parameter(central(sharp).graph, "chitd", cap=6).value
    if value != 6:
        failures.append(f"sharpness graph needs {value} classes, expected 6")
    for n in (5, 6):
        for t in all_trees(n):
            p = tdc_central_tree(t)
            if len(p.classes) > n or not is_tdc(central(t).graph, p):
                failures.append(f"tree partition invalid on order {n}")
    _announce(11, "total dominator partitions of central graphs verify, carry "
                  "to complements, and the sharpness example needs all 6 "
                  "classes", failures)


def test_12_oracle_self_consistency():
    failures = []
    for g in connected_graphs(4):
        plain = exact_parameter(g, "chi2").value
        avd = exact_parameter(g, "chi2a", cap=g.n + 3).value
        dist = exact_parameter(g, "chi2D", cap=g.n + 3).value
        if not (plain <= avd and plain <= dist):
            failures.append(f"ordering violated: {plain}, {avd}, {dist}")
        cent = central(g).graph
        cplain = exact_parameter(cent, "chi2").value
        cdist = exact_parameter(cent, "chi2D", cap=cent.max_degree() + 2).value
        if not cplain <= cdist:
            failures.append(f"central ordering violated: {cplain}, {cdist}")
    for n, claim in ((4, 5), (5, 7)):
        value = exact_parameter(complete_graph(n), "chi2a", cap=n + 3).value
        if value != claim:
            failures.append(f"AVD total chromatic of K{n} is {value}, not {claim}")
    for g, kind, cap in ((central(cycle_graph(5)).graph, "chi2D", 6),
                         (complete_graph(5), "chi2a", 8)):
        serial = exact_parameter(g, kind, cap=cap)
        parallel = exact_parameter(g, kind, cap=cap, workers=4)
        if serial.value != parallel.value or serial.witness != parallel.witness:
            failures.append(f"worker counts disagree on {kind}")
    _announce(12, "oracle values respect containment order, match known "
                  "clique values, and are deterministic across worker counts",
              failures)
