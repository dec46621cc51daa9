"""Golden digests of the automorphism engine's and the oracles' outputs.

Each digest is SHA-256 over a JSON line per case, so a change to the search
that keeps every group but moves a generator, a transversal, a node count,
a verifier's first automorphism or a family representative shows here, and
so does a change to an oracle that keeps its values but moves a witness or
a node count.
"""

from __future__ import annotations

import functools
import hashlib
import json

from symcol import autos, colorings
from symcol.autos import automorphisms, check_aut_chain
from symcol.colorings import coloring_to_json
from symcol.constructive import dist_edge_coloring_central, dist_vertex_coloring_middle
from symcol.errors import NotApplicableError
from symcol.families import all_graphs, all_trees, connected_graphs
from symcol.graphs import cycle_graph, encode_graph6, petersen_graph, star_graph
from symcol.oracles import exact_parameter
from symcol.transforms import central, endline, line_graph, middle, subdivision

CHAIN_DIGEST = "7064c795aed046efc165def3a70c3fa82650bc7a94ba237e0480998c35a96d31"
CHAIN_REPORTS_DIGEST = "2587211fd245531cdb3ac2fb04cd904bb06379cd0d75393645a5c72198f45402"
VERIFIER_DIGEST = "9da4a36eab320ff3a8f0884a3e2012d9c1b27680c3a7eaa0eb3c24cf395f076e"
FAMILIES_DIGEST = "99812f5dce38769955b7f363e1973f238dcd41bbbfd0cf395be29f92424bd3e2"
ORACLES_DIGEST = "0dc66a881ecebfd141dda7ad41a2f3e680721720ccc48fba86bc360501c7056c"
ORACLE_NODES_DIGEST = "0fbbef68f59a8777f4c18e3f25d9296afd843785dc41c8b79381f38a931df49c"
PROPER_ORACLES_DIGEST = "7011da4b26fc7e711b0c18a0cc96cce1a83ac0c41a6208515a298efcfde6002e"


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(row, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()


def _chain_rows():
    for n in range(1, 8):
        for g in connected_graphs(n):
            for kind, h in (("base", g), ("line", line_graph(g)[0]),
                            ("subdivision", subdivision(g).graph), ("central", central(g).graph),
                            ("middle", middle(g).graph), ("endline", endline(g).graph)):
                group = automorphisms(h)
                yield [encode_graph6(g), kind, group.generators, group.transversals, group.nodes]


def test_automorphism_groups_of_the_chain_are_pinned():
    # The six groups check 2.11 compares, on every connected graph of
    # orders 1-7: generators, transversals and search nodes.
    assert _digest(_chain_rows()) == CHAIN_DIGEST


def test_chain_reports_are_pinned():
    # check_aut_chain's reports on every connected graph of orders 1-7: the
    # seeded transform searches keep every order and verdict.
    rows = (check_aut_chain(g).to_json() for n in range(1, 8) for g in connected_graphs(n))
    assert _digest(rows) == CHAIN_REPORTS_DIGEST


def _verifier_rows(monkeypatch):
    searches = []
    real = colorings._nontrivial_automorphism

    def recorded(g, colors, labels):
        found = real(g, colors, labels)
        searches.append((g, list(colors), labels, found))
        return found

    monkeypatch.setattr(colorings, "_nontrivial_automorphism", recorded)
    for tag, build in (("3.2", dist_edge_coloring_central), ("3.6", dist_vertex_coloring_middle)):
        for n in range(4, 7):
            for g in connected_graphs(n):
                searches.clear()
                build(g)
                for h, colors, labels, found in searches:
                    # The same search again, on its own path, for its node count.
                    path = autos._Path(h, colors, labels)
                    identity = tuple(range(h.n))
                    again = next((p for p in autos._search(path, h, colors) if p != identity), None)
                    assert again == found
                    yield [tag, encode_graph6(g), encode_graph6(h), colors, labels, found, path.nodes]


def test_verifier_searches_are_pinned(monkeypatch):
    # The distinguishing verifier's colored searches inside constructions
    # 3.2 and 3.6 on orders 4-6: the first automorphism other than the
    # identity, and the nodes it took.
    rows = list(_verifier_rows(monkeypatch))
    assert len(rows) > 200
    assert _digest(rows) == VERIFIER_DIGEST


def test_family_representatives_are_pinned():
    rows = [[name, n, [encode_graph6(g) for g in family(n)]]
            for name, family, top in (("connected", connected_graphs, 7), ("trees", all_trees, 9),
                                      ("all", all_graphs, 5))
            for n in range(1, top + 1)]
    assert _digest(rows) == FAMILIES_DIGEST


def _oracle_graphs():
    graphs = [g for n in range(2, 7) for g in connected_graphs(n)]
    return graphs + [petersen_graph(), central(star_graph(7)).graph, central(cycle_graph(5)).graph]


@functools.cache
def _oracle_rows():
    rows = []
    for g in _oracle_graphs():
        for kind in ("D", "Dp", "Dpp", "chi2D"):
            try:
                r = exact_parameter(g, kind)
            except NotApplicableError:
                rows.append(([encode_graph6(g), kind, "not-applicable"], None))
                continue
            rows.append(([encode_graph6(g), kind, r.value, coloring_to_json(g, r.witness)], r.nodes))
    return rows


def test_distinguishing_oracles_are_pinned():
    # D, Dp, Dpp and chi2D on every connected graph of orders 2-6, Petersen,
    # C(K1,6) and C(C5): value (or not-applicable) and witness.  Pruning the
    # search may cut nodes but must keep this digest.
    rows = _oracle_rows()
    assert len(rows) == 580
    assert _digest(row for row, _ in rows) == ORACLES_DIGEST


def test_distinguishing_oracle_nodes_are_pinned():
    # The nodes each of those searches took.
    rows = _oracle_rows()
    assert _digest([*row[:2], nodes] for row, nodes in rows) == ORACLE_NODES_DIGEST


def test_proper_oracles_are_pinned():
    # chi2, chi2a and chitd on the same graphs: value, witness (a coloring,
    # or chitd's partition) and nodes.
    rows = []
    for g in _oracle_graphs():
        for kind in ("chi2", "chi2a", "chitd"):
            doc = exact_parameter(g, kind).to_json(g)
            del doc["seconds"]
            rows.append([encode_graph6(g), doc])
    assert len(rows) == 435
    assert _digest(rows) == PROPER_ORACLES_DIGEST
