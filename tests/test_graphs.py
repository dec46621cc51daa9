"""Graph substrate: construction, generators, and graph6 round trips."""

from __future__ import annotations

import pickle
import random
import types

import pytest

from symcol.errors import Graph6Error
from symcol.families import connected_graphs
from symcol.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diamond_graph,
    disjoint_union,
    empty_graph,
    encode_graph6,
    generate,
    join,
    parse_graph6,
    path_graph,
    paw_graph,
    petersen_graph,
    random_graph,
    star_graph,
)


def reference_graph6(n: int, edges: set[tuple[int, int]]) -> str:
    """Independent graph6 encoder used as the oracle for the package one.

    Deliberately written in a different style (bit strings) so a shared bug
    with the production encoder is unlikely.
    """
    assert 1 <= n <= 258047
    bitstring = ""
    for j in range(1, n):
        for i in range(j):
            bitstring += "1" if (i, j) in edges or (j, i) in edges else "0"
    while len(bitstring) % 6 != 0:
        bitstring += "0"
    if n <= 62:
        out = chr(n + 63)
    else:
        # 126, then n as 18 bits in three 6-bit groups.
        digits = format(n, "018b")
        out = "~" + "".join(chr(int(digits[k : k + 6], 2) + 63) for k in (0, 6, 12))
    for k in range(0, len(bitstring), 6):
        out += chr(int(bitstring[k : k + 6], 2) + 63)
    return out


def test_validation_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # self-loop at 0
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (2,))  # neighbor out of range
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])


def test_from_edges_checks_what_it_builds():
    # from_edges skips the table re-check, so its own checks are the guard.
    for n, edges in ((-1, []), (3, [(1, 1)]), (3, [(0, 3)]), (3, [(-1, 2)])):
        with pytest.raises(ValueError):
            Graph.from_edges(n, edges)
    g = Graph.from_edges(4, [(2, 0), (1, 2), (0, 2), (3, 1)])
    assert g == Graph(4, (0b0100, 0b1100, 0b0011, 0b0010))
    assert hash(g) == hash(Graph(4, g.adj)) and g.edges() == [(0, 2), (1, 2), (1, 3)]
    assert Graph.from_edges(0, []) == Graph(0, ())


def test_edges_are_column_major():
    g = complete_graph(4)
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert g.edge_index()[(1, 3)] == 4


def test_cached_edges_cannot_be_changed_by_callers():
    # Both are built once per graph and shared by every caller.
    g = complete_graph(4)
    edges = g.edges()
    edges.append((5, 6))
    edges[0] = (2, 3)
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    with pytest.raises(TypeError):
        g.edge_index()[(0, 1)] = 9
    assert g.edge_index()[(0, 1)] == 0
    # A graph that cached them still pickles, for the worker pools.
    assert pickle.loads(pickle.dumps(g)).edge_index() == g.edge_index()


def test_basic_queries():
    g = path_graph(4)
    assert g.degrees() == [1, 2, 2, 1]
    assert g.edge_count() == 3
    assert g.has_edge(1, 2) and not g.has_edge(0, 3)
    assert g.neighbors(1) == [0, 2]
    assert g.max_degree() == 2 and g.min_degree() == 1


def test_generators_shapes():
    assert generate("complete", 3).edge_count() == 3
    assert generate("path", 4).degrees() == [1, 2, 2, 1]
    kb = generate("complete_bipartite", 2, 3)
    assert kb.edge_count() == 6
    assert sorted(kb.degrees(), reverse=True) == [3, 3, 2, 2, 2]
    assert star_graph(5).degrees() == [4, 1, 1, 1, 1]
    assert cycle_graph(6).is_cycle()
    assert petersen_graph().degrees() == [3] * 10
    assert paw_graph().degrees() == [2, 2, 3, 1]
    assert diamond_graph().edge_count() == 5
    with pytest.raises(ValueError):
        generate("tree", 4)
    with pytest.raises(ValueError):
        generate("cycle", 0)


def test_classification():
    assert path_graph(5).is_tree()
    assert not cycle_graph(5).is_tree()
    assert cycle_graph(5).is_cycle()
    assert not complete_graph(4).is_cycle()
    assert complete_graph(3).is_cycle()  # K3 and C3 coincide
    assert complete_graph(4).is_complete()
    assert cycle_graph(4).is_regular()
    assert empty_graph(3).is_regular()
    assert not path_graph(3).is_regular()


def test_connectivity_and_bfs():
    g = disjoint_union(path_graph(2), path_graph(2))
    assert not g.is_connected()
    assert path_graph(1).is_connected()
    assert empty_graph(0).is_connected()
    dist, parent = cycle_graph(6).bfs(0)
    assert dist == [0, 1, 2, 3, 2, 1]
    assert parent[3] in (2, 4)
    dist2, _ = g.bfs(0)
    assert dist2 == [0, 1, -1, -1]


def test_bipartite_detection():
    parts = complete_bipartite(2, 3).is_bipartite()
    assert parts is not None
    left, right = parts
    assert left == 0b00011 and right == 0b11100
    assert cycle_graph(5).is_bipartite() is None
    assert cycle_graph(6).is_bipartite() is not None


def test_complement_involution_and_relabel():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(6, 0.5, rng)
        assert g.complement().complement() == g
    assert complete_graph(4).complement() == empty_graph(4)
    assert empty_graph(1).complement() == empty_graph(1)
    g = path_graph(3)
    assert g.relabel([2, 1, 0]) == g
    assert star_graph(4).relabel([1, 0, 2, 3]).degree(1) == 3


def test_join_shapes():
    assert join(empty_graph(2), empty_graph(3)) == complete_bipartite(2, 3)
    wheel = join(complete_graph(1), cycle_graph(4))
    assert wheel.degree(0) == 4
    assert wheel.edge_count() == 8
    g1, g2 = path_graph(3), cycle_graph(4)
    j = join(g1, g2)
    assert j.edge_count() == g1.edge_count() + g2.edge_count() + g1.n * g2.n
    for v in range(g1.n):
        assert j.degree(v) == g1.degree(v) + g2.n


def test_graph6_known_values():
    assert encode_graph6(complete_graph(4)) == "C~"
    assert encode_graph6(empty_graph(1)) == "@"
    assert encode_graph6(complete_graph(3)) == "Bw"
    assert parse_graph6("C~") == complete_graph(4)
    assert parse_graph6("@") == empty_graph(1)
    assert parse_graph6("Bw") == complete_graph(3)
    # Orders from 63 on take "~" and the order in three 6-bit groups; the
    # format's own example is order 63, "~??~".
    assert encode_graph6(empty_graph(63)).startswith("~??~")
    assert encode_graph6(complete_graph(64))[:4] == "~?@?"


def test_graph6_matches_reference_encoder():
    rng = random.Random(20260819)
    for _ in range(1000):
        n = rng.randint(1, 14)
        g = random_graph(n, rng.random(), rng)
        expected = reference_graph6(n, set(g.edges()))
        assert encode_graph6(g) == expected
        assert parse_graph6(expected) == g
    for g in (path_graph(62), complete_graph(10), petersen_graph(), star_graph(30)):
        assert parse_graph6(encode_graph6(g)) == g


def test_graph6_round_trip_at_both_header_widths():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        n = draw(st.one_of(st.integers(1, 62), st.integers(63, 90)))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = {(u, v) for u, v in draw(st.lists(pairs, max_size=3 * n)) if u != v}
        return Graph.from_edges(n, sorted(edges))

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @hypothesis.given(graphs())
    def check(g):
        text = encode_graph6(g)
        assert text == reference_graph6(g.n, set(g.edges()))
        assert (text[0] == "~") == (g.n >= 63)
        assert parse_graph6(text) == g

    check()


def test_parsed_graph6_tables_pass_the_validating_constructor():
    # parse_graph6 builds its graph without the re-check: its tables must
    # still be ones the checked constructor accepts.
    for n in range(1, 8):
        for g in connected_graphs(n):
            parsed = parse_graph6(encode_graph6(g))
            assert parsed == g
            assert Graph(g.n, parsed.adj) == parsed


def test_graph6_error_offsets():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("")
    assert err.value.offset == 0
    with pytest.raises(Graph6Error) as err:
        parse_graph6("~??")  # 4-byte order header cut short
    assert err.value.offset == 0 and "truncated order header" in str(err.value)
    with pytest.raises(Graph6Error) as err:
        parse_graph6("~~??????")  # the 8-byte header of orders past 258047
    assert err.value.offset == 0
    with pytest.raises(Graph6Error) as err:
        parse_graph6("~??" + chr(40))  # header byte below 63
    assert err.value.offset == 3
    with pytest.raises(Graph6Error) as err:
        parse_graph6("~??~")  # order 63 with no edge bytes
    assert err.value.offset == 4
    with pytest.raises(Graph6Error) as err:
        parse_graph6("?")  # order 0, which encode_graph6 refuses too
    assert err.value.offset == 0
    with pytest.raises(Graph6Error) as err:
        parse_graph6("C")  # K4-sized header with no edge bytes
    assert err.value.offset == 1
    with pytest.raises(Graph6Error) as err:
        parse_graph6("C~~")  # one byte too many
    assert err.value.offset == 2
    with pytest.raises(Graph6Error) as err:
        parse_graph6("B" + chr(40))  # edge byte below 63
    assert err.value.offset == 1
    with pytest.raises(Graph6Error) as err:
        parse_graph6("A" + chr(63 + 8))  # padding bit set for n=2
    assert err.value.offset == 1
    with pytest.raises(ValueError):
        # The refusal reads only the order; validating a Graph this big takes seconds.
        encode_graph6(types.SimpleNamespace(n=258048))
    with pytest.raises(ValueError):
        encode_graph6(empty_graph(0))
