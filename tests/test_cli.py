"""Command-line surface: JSON shapes, exit codes, sweep caching and resume."""

import json
import random
import time
from types import SimpleNamespace

import pytest

from symcol import cli, colorings, constructive, errors
from symcol.cli import CHECKS, main, run_check
from symcol.families import all_graphs, connected_graphs
from symcol.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    encode_graph6,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_graph,
    random_tree,
    star_graph,
)
from symcol.transforms import central

K4 = encode_graph6(complete_graph(4))
C5 = encode_graph6(cycle_graph(5))
K15 = encode_graph6(star_graph(6))
# Graphs with no vertex that their whole automorphism group fixes, whose
# groups 4.9 searches in more than one node.
K5 = encode_graph6(complete_graph(5))
K33 = encode_graph6(complete_bipartite(3, 3))


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_transform_json(capsys):
    code, out, _ = run_cli(capsys, "transform", "--kind", "central", "--in", C5)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "central"
    assert doc["part1"] == [0, 1, 2, 3, 4]
    assert parse_graph6(doc["graph6"]).n == 10
    assert doc["origin"]["5"] == [0, 1]


def test_transform_line_labels(capsys):
    code, out, _ = run_cli(capsys, "transform", "--kind", "line", "--in", K4)
    assert code == 0
    doc = json.loads(out)
    lg = parse_graph6(doc["graph6"])
    assert lg.n == 6
    labels = [tuple(e) for e in doc["labels"]]
    assert sorted(labels) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for i in range(6):
        for j in range(i + 1, 6):
            share = bool(set(labels[i]) & set(labels[j]))
            assert lg.has_edge(i, j) == share


def test_aut_small_group_lists_elements(capsys):
    code, out, _ = run_cli(capsys, "aut", "--in", C5)
    assert code == 0
    doc = json.loads(out)
    assert doc["group_order"] == 10
    assert len(doc["elements"]) == 10
    assert [0, 1, 2, 3, 4] in doc["elements"]


def test_aut_chain_report(capsys):
    code, out, _ = run_cli(capsys, "aut", "--in", K15, "--chain")
    assert code == 0
    doc = json.loads(out)
    assert doc["applicable"] and doc["passed"]
    assert doc["orders"]["base"] == 120
    assert set(doc["orders"]) == {
        "base", "line", "subdivision", "central", "middle", "endline",
    }


def test_construct_pass_and_out_file(capsys, tmp_path):
    out_file = tmp_path / "coloring.json"
    code, out, err = run_cli(
        capsys, "construct", "--theorem", "4.5", "--in", C5,
        "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["tag"] == "4.5"
    assert doc["palette_size"] <= doc["promised_bound"]
    assert json.loads(out_file.read_text()) == doc
    assert str(out_file) in err


def test_construct_not_applicable_exit(capsys):
    code, out, _ = run_cli(capsys, "construct", "--theorem", "3.2", "--in", "A_")
    assert code == 1
    assert json.loads(out)["verdict"] == "not-applicable"


def test_oracle_not_applicable_exit(capsys):
    # K2's swap fixes its only edge; an isolated vertex cannot be dominated.
    for param, graph6 in (("Dp", "A_"), ("chitd", "A?")):
        code, out, _ = run_cli(capsys, "oracle", "--param", param, "--in", graph6)
        assert code == 1, param
        doc = json.loads(out)
        assert doc["error"] == "not-applicable" and doc["detail"], param


def test_construct_tdc_partition_output(capsys):
    code, out, _ = run_cli(capsys, "construct", "--theorem", "6.2", "--in", C5)
    assert code == 0
    doc = json.loads(out)
    assert doc["class_count"] == 5
    covered = sorted(v for cls in doc["classes"] for v in cls)
    assert covered == list(range(10))


def test_construct_join_two_graphs(capsys):
    k3 = encode_graph6(complete_graph(3))
    code, out, _ = run_cli(
        capsys, "construct", "--theorem", "5.5", "--in", k3, "--in2", k3,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["palette_size"] <= doc["promised_bound"]


def test_verify_roundtrip_and_failure_exit(capsys, tmp_path):
    out_file = tmp_path / "coloring.json"
    run_cli(capsys, "construct", "--theorem", "4.5", "--in", C5,
            "--out", str(out_file))
    code, out, _ = run_cli(
        capsys, "verify", "--property", "proper-total",
        "--coloring", str(out_file),
    )
    assert code == 0
    assert json.loads(out) == {"property": "proper-total", "holds": True}

    code, out, _ = run_cli(
        capsys, "verify", "--property", "distinguishing",
        "--coloring", str(out_file),
    )
    assert code == 0 and json.loads(out)["holds"]

    doc = json.loads(out_file.read_text())
    doc["vertex_colors"] = [1] * len(doc["vertex_colors"])
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, "verify", "--property", "proper-total", "--coloring", str(broken),
    )
    assert code == 1
    assert json.loads(out)["holds"] is False


def test_verify_tdc(capsys, tmp_path):
    part_file = tmp_path / "partition.json"
    run_cli(capsys, "construct", "--theorem", "6.2", "--in", C5,
            "--out", str(part_file))
    cent6 = json.loads(
        run_cli(capsys, "transform", "--kind", "central", "--in", C5)[1]
    )["graph6"]
    code, out, _ = run_cli(
        capsys, "verify", "--property", "tdc", "--in", cent6,
        "--coloring", str(part_file),
    )
    assert code == 0 and json.loads(out)["holds"]


def test_oracle_json_and_refuted_cap(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--param", "Dp", "--in", K4,
                           "--cap", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "Dp"
    assert doc["value"] is None and doc["witness"] is None
    assert doc["nodes"] > 0

    code, out, _ = run_cli(capsys, "oracle", "--param", "Dp", "--in", K4,
                           "--cap", "3")
    doc = json.loads(out)
    assert code == 0 and doc["value"] == 3
    assert doc["witness"]["edge_colors"]


def test_oracle_budget_exceeded_exit(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--param", "Dp", "--in", K4,
                           "--budget", "3")
    assert code == 1
    assert json.loads(out)["error"] == "budget-exceeded"


def test_construct_and_aut_budget_exceeded_exit(capsys, monkeypatch):
    # C(P33) and S(P33) have 65 vertices; only the node budget bounds their
    # searches.
    p33 = encode_graph6(path_graph(33))
    code, out, _ = run_cli(capsys, "construct", "--theorem", "3.4", "--in", p33)
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    code, out, _ = run_cli(capsys, "aut", "--chain", "--in", p33)
    assert code == 0 and json.loads(out)["passed"]
    # The groups of K5 and of C(K8) take 10 and 28 search nodes.
    assert run_check(K5, "2.11", 1)["verdict"] == "budget-exceeded"
    ck8 = encode_graph6(central(complete_graph(8)).graph)
    monkeypatch.setenv("SYMCOL_BUDGET", "1")
    for argv in (("aut", "--in", ck8), ("oracle", "--param", "D", "--in", ck8)):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "budget-exceeded" and "automorphism search" in doc["detail"]
    # 4.9 searches the group of K3,3 for a vertex that it fixes.
    code, out, _ = run_cli(capsys, "construct", "--theorem", "4.9", "--in", K33)
    assert code == 1 and json.loads(out)["verdict"] == "budget-exceeded"


def test_caps_bound_searches_and_element_lists_not_group_orders(capsys):
    # A group's order needs no elements, so `aut` reports 12! for K12.
    code, out, _ = run_cli(capsys, "aut", "--in", encode_graph6(complete_graph(12)))
    assert code == 0
    doc = json.loads(out)
    assert doc["group_order"] == 479001600 and "elements" not in doc
    # The D search tracks every element of the group, and 11! is past the
    # element cap: it stops before multiplying the group out.
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "oracle", "--param", "D", "--in",
                           encode_graph6(complete_graph(11)))
    assert time.perf_counter() - start < 5.0
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "budget-exceeded" and "exceed the cap" in doc["detail"]
    # C(P25) has 49 vertices, inside the search cap.
    code, out, _ = run_cli(capsys, "construct", "--theorem", "3.4",
                           "--in", encode_graph6(path_graph(25)))
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_construct_writes_graph6_past_order_62(capsys):
    # K11 less two disjoint edges ("J]~~~~~~~~_"), and less three: their
    # central graphs have 64 and 63 vertices, past graph6's one-byte header.
    k11 = complete_graph(11).edges()
    for gone, order in (({(0, 1), (2, 3)}, 64), ({(0, 1), (2, 3), (4, 5)}, 63)):
        g = Graph.from_edges(11, [e for e in k11 if e not in gone])
        code, out, _ = run_cli(capsys, "construct", "--theorem", "3.2", "--in", encode_graph6(g))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert parse_graph6(doc["graph6"]).n == order


def test_latin_csv(capsys):
    code, out, _ = run_cli(capsys, "latin", "--k", "3")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 5 and all(len(r) == 5 for r in rows)
    assert [int(rows[i][i]) for i in range(5)] == [1, 2, 3, 4, 5]


def test_usage_errors_exit_two(capsys, tmp_path):
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys, "transform", "--kind", "central")[0] == 2
    assert run_cli(capsys, "sweep", "--check", "3.2",
                   "--report", "r.jsonl")[0] == 2  # no --max-order
    code, _, err = run_cli(capsys, "sweep", "--check", "3.2", "--max-order",
                           "9", "--report", "r.jsonl")
    assert code == 2 and "order 8" in err
    assert run_cli(capsys, "latin", "--k", "1")[0] == 2
    assert run_cli(capsys, "construct", "--theorem", "5.5", "--in", C5)[0] == 2
    code, _, err = run_cli(capsys, "aut", "--in", "?")
    assert code == 2 and "invalid graph6 input" in err
    for edgeless in ("@", "A?"):
        code, out, err = run_cli(capsys, "transform", "--kind", "line", "--in", edgeless)
        assert (code, out) == (2, "") and "no edges" in err, edgeless
    report = str(tmp_path / "r.jsonl")
    for low in ("-1", "0"):
        code, _, err = run_cli(capsys, "sweep", "--check", "3.2", "--min-order", low,
                               "--max-order", "4", "--report", report)
        assert code == 2 and "--min-order" in err, low
    for option, value in (("--workers", "0"), ("--workers", "-3"), ("--budget", "-1")):
        for argv in (("oracle", "--param", "D", "--in", C5),
                     ("sweep", "--check", "3.2", "--max-order", "4", "--report", report)):
            code, out, err = run_cli(capsys, *argv, option, value)
            assert (code, out) == (2, "") and option in err, (argv, option, value)
    for value in ("0", "-3"):
        code, out, err = run_cli(capsys, "oracle", "--param", "D", "--in", C5, "--cap", value)
        assert (code, out) == (2, "") and "--cap" in err, value
    assert run_cli(capsys, "sweep", "--check", "3.2", "--family", "regular",
                   "--degree", "-1", "--max-order", "4", "--report", report)[0] == 2
    not_json = tmp_path / "not.json"
    not_json.write_text("{ not json")
    no_classes = tmp_path / "no_classes.json"
    no_classes.write_text(json.dumps({"graph6": C5}))
    bad_graph6 = tmp_path / "bad_graph6.json"
    bad_graph6.write_text(json.dumps({"graph6": "!!bad!!", "vertex_colors": [1]}))
    letter_member = tmp_path / "letter_member.json"
    letter_member.write_text(json.dumps({"classes": [["a"], [1, 2, 3, 4]]}))
    fraction_member = tmp_path / "fraction_member.json"
    fraction_member.write_text(json.dumps({"classes": [[0.5], [1, 2, 3, 4]]}))
    for prop, path in [("avd", tmp_path / "missing.json"), ("avd", not_json),
                       ("tdc", no_classes), ("proper-total", bad_graph6),
                       ("tdc", letter_member), ("tdc", fraction_member)]:
        code, _, err = run_cli(capsys, "verify", "--property", prop, "--in", C5,
                               "--coloring", str(path))
        assert code == 2 and "--coloring" in err
    out_path = tmp_path / "missing" / "x.json"
    code, _, err = run_cli(capsys, "construct", "--theorem", "3.2", "--in", C5,
                           "--out", str(out_path))
    assert code == 2 and "--out" in err
    code, _, err = run_cli(capsys, "sweep", "--check", "3.2", "--file",
                           str(tmp_path / "missing.g6"), "--report", report)
    assert code == 2 and "--file" in err
    code, _, err = run_cli(capsys, "sweep", "--check", "3.2", "--max-order", "4",
                           "--report", str(not_json / "r.jsonl"))
    assert code == 2 and "--report" in err


def test_malformed_budget_variable_exits_two(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SYMCOL_BUDGET", "abc")
    report = tmp_path / "r.jsonl"
    for argv in (
        ("oracle", "--param", "D", "--in", C5),
        ("construct", "--theorem", "3.2", "--in", C5),
        ("sweep", "--check", "3.2", "--max-order", "4", "--report", str(report)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and "SYMCOL_BUDGET" in err, argv
    assert not report.exists() and not report.with_suffix(".cache").exists()


def test_run_check_record_shape():
    record = run_check(C5, "3.2")
    assert record["verdict"] == "pass"
    assert record["achieved"] <= record["promised_bound"]
    assert record["error"] is None
    assert set(record) == {
        "graph6", "check", "verdict", "promised_bound", "achieved",
        "oracle_value", "seconds", "error",
    }
    assert run_check("A_", "3.2")["verdict"] == "not-applicable"


# One graph per sweep check on which that check applies.
SWEEP_CASES = {
    "2.11": path_graph(5),
    "3.2": cycle_graph(5),
    "3.4": cycle_graph(5),
    "3.6": cycle_graph(5),
    "4.5": cycle_graph(5),
    "4.9": cycle_graph(5),
    "5.1": cycle_graph(5),
    "5.3": star_graph(6),
    "6.1": cycle_graph(5),
    "6.2": cycle_graph(5),
    "appendix-tree": star_graph(6),
    "tcc-central": cycle_graph(5),
}


def test_sweep_cases_cover_every_sweep_check():
    assert set(SWEEP_CASES) == {t for t, (cmds, _) in CHECKS.items() if "sweep" in cmds}


@pytest.mark.parametrize("check", list(SWEEP_CASES))
def test_run_check_passes_every_sweep_check(check):
    record = run_check(encode_graph6(SWEEP_CASES[check]), check)
    assert record["verdict"] == "pass" and record["error"] is None
    if check == "2.11":  # the order chain promises no bound
        assert record["promised_bound"] is None and record["achieved"] is None
    else:
        assert record["achieved"] <= record["promised_bound"]


def test_sweep_report_cache_and_resume(capsys, tmp_path):
    report = tmp_path / "report.jsonl"
    args = ["sweep", "--check", "3.2", "--family", "all-connected",
            "--min-order", "4", "--max-order", "5",
            "--report", str(report)]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    summary = json.loads(out)
    assert summary["total"] == 27 and summary["pass"] == 27
    first = report.read_bytes()
    lines = [json.loads(line) for line in first.decode().splitlines()]
    assert len(lines) == 27
    assert all(r["check"] == "3.2" for r in lines)

    (journal,) = (tmp_path / "report.cache").glob("*.jsonl")
    cached = [json.loads(line) for line in journal.read_text().splitlines()]
    assert len(cached) == 27 and all("verdict" in r for r in cached)
    assert sorted(r["graph6"] for r in cached) == sorted(r["graph6"] for r in lines)

    # Second run answers from the cache and reproduces the report exactly.
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out) == summary
    assert report.read_bytes() == first


def test_sweep_parallel_matches_serial(capsys, tmp_path):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    base = ["sweep", "--check", "2.11", "--family", "all-connected",
            "--min-order", "5", "--max-order", "5"]
    run_cli(capsys, *base, "--report", str(serial))
    run_cli(capsys, *base, "--report", str(parallel),
            "--cache", str(tmp_path / "pc"), "--workers", "4")

    def strip_seconds(path):
        rows = []
        for line in path.read_text().splitlines():
            row = json.loads(line)
            row.pop("seconds")
            rows.append(row)
        return rows

    assert strip_seconds(serial) == strip_seconds(parallel)


def test_sweep_file_family_and_failure_reproduction(capsys, tmp_path):
    listing = tmp_path / "graphs.txt"
    listing.write_text(f"{C5}\n{K4}\n")
    report = tmp_path / "file.jsonl"
    code, out, _ = run_cli(capsys, "sweep", "--check", "3.4",
                           "--family", "all-connected",
                           "--file", str(listing), "--report", str(report))
    assert code == 0
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    assert [r["graph6"] for r in rows] == [C5, K4]

    # Any recorded graph6 feeds straight back into the one-shot command.
    for row in rows:
        code, out, _ = run_cli(capsys, "construct", "--theorem", "3.4",
                               "--in", row["graph6"])
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"


def test_sweep_corrupt_cache_entry_recomputed(capsys, tmp_path):
    report = tmp_path / "r.jsonl"
    args = ["sweep", "--check", "3.2", "--family", "all-connected",
            "--min-order", "4", "--max-order", "4", "--report", str(report)]
    run_cli(capsys, *args)
    first = report.read_text().splitlines(keepends=True)
    (journal,) = (tmp_path / "r.cache").glob("*.jsonl")
    entries = journal.read_text().splitlines(keepends=True)
    redone = json.loads(entries[0])["graph6"]
    journal.write_text("".join(["{ not json\n"] + entries[1:]))
    code, _, err = run_cli(capsys, *args)
    assert code == 0
    assert "discarding corrupt cache entry" in err

    def strip_seconds(line):
        row = json.loads(line)
        row.pop("seconds")
        return row

    # Cached records replay byte for byte; the recomputed one carries a new
    # wall-clock time, so it is compared without its seconds field.
    second = report.read_text().splitlines(keepends=True)
    assert len(second) == len(first)
    for old, new in zip(first, second):
        if json.loads(old)["graph6"] == redone:
            assert strip_seconds(new) == strip_seconds(old)
        else:
            assert new == old


def test_sweep_recomputes_a_cache_entry_with_an_unknown_verdict(capsys, tmp_path, monkeypatch):
    # A journal record whose verdict no check gives is discarded like any
    # other corrupt entry, and its graph recomputed; with every record's
    # seconds pinned, the report matches a clean run byte for byte.
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    report = tmp_path / "r.jsonl"
    args = ["sweep", "--check", "3.2", "--min-order", "4", "--max-order", "4",
            "--report", str(report)]
    _, summary, _ = run_cli(capsys, *args)
    clean = report.read_bytes()
    (journal,) = (tmp_path / "r.cache").glob("*.jsonl")
    entries = journal.read_text().splitlines(keepends=True)
    record = json.loads(entries[0])
    record["verdict"] = "bogus"
    journal.write_text("".join([json.dumps(record, sort_keys=True) + "\n"] + entries[1:]))
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert "discarding corrupt cache entry" in err
    assert out == summary
    assert report.read_bytes() == clean


def test_sweep_resumes_after_interrupt(capsys, tmp_path, monkeypatch):
    def args(report):
        return ["sweep", "--check", "3.2", "--min-order", "4", "--max-order", "4",
                "--report", str(report)]

    def rows(path):
        out = [json.loads(line) for line in path.read_text().splitlines()]
        for row in out:
            row.pop("seconds")
        return out

    whole = tmp_path / "whole.jsonl"
    run_cli(capsys, *args(whole))
    graphs = [row["graph6"] for row in rows(whole)]

    computed = []

    def interrupted_run_check(graph6, *rest):
        computed.append(graph6)
        if len(computed) == 3:
            raise KeyboardInterrupt
        return run_check(graph6, *rest)

    monkeypatch.setattr(cli, "run_check", interrupted_run_check)
    report = tmp_path / "r.jsonl"
    with pytest.raises(KeyboardInterrupt):
        main(args(report))
    assert computed == graphs[:3]
    code, _, _ = run_cli(capsys, *args(report))
    assert code == 0
    # Only the interrupted graph and those after it are computed again.
    assert computed[3:] == graphs[2:]
    assert rows(report) == rows(whole)


def test_sweep_recomputes_a_torn_last_journal_line(capsys, tmp_path, monkeypatch):
    report = tmp_path / "r.jsonl"
    args = ["sweep", "--check", "3.2", "--min-order", "4", "--max-order", "4",
            "--report", str(report)]
    run_cli(capsys, *args)
    whole = record_rows(report)
    (journal,) = (tmp_path / "r.cache").glob("*.jsonl")
    text = journal.read_text()
    last = text.splitlines()[-1]
    torn = last[: len(last) // 2]
    # A run killed in the middle of its last append.
    journal.write_text(text[: len(text) - len(last) - 1] + torn)

    computed = []

    def counted_run_check(graph6, *rest):
        computed.append(graph6)
        return run_check(graph6, *rest)

    monkeypatch.setattr(cli, "run_check", counted_run_check)
    code, _, err = run_cli(capsys, *args)
    assert code == 0 and "discarding corrupt cache entry" in err
    assert computed == [json.loads(last)["graph6"]]
    assert record_rows(report) == whole

    def parses(line):
        try:
            return "verdict" in json.loads(line)
        except ValueError:
            return False

    lines = journal.read_text().splitlines()
    assert len(lines) == len(whole) + 1
    assert [line for line in lines if not parses(line)] == [torn]
    # The mended journal answers a third run in full.
    first = report.read_bytes()
    code, _, _ = run_cli(capsys, *args)
    assert code == 0 and len(computed) == 1 and report.read_bytes() == first


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cold_sweep_leaves_one_file_in_its_cache(capsys, tmp_path, workers):
    cache = tmp_path / "c"
    code, out, _ = run_cli(capsys, "sweep", "--check", "2.11", "--min-order", "4",
                           "--max-order", "5", "--report", str(tmp_path / "r.jsonl"),
                           "--cache", str(cache), "--workers", workers)
    assert code == 0 and json.loads(out)["total"] == 27
    assert len(list(cache.iterdir())) == 1


def test_sweep_cache_keyed_by_budget(capsys, tmp_path):
    args = ["sweep", "--check", "2.11", "--min-order", "5",
            "--max-order", "5", "--report", str(tmp_path / "r.jsonl")]
    code, out, _ = run_cli(capsys, *args, "--budget", "1")
    summary = json.loads(out)
    assert code == 0 and (summary["budget_exceeded"], summary["pass"]) == (11, 9)
    # A budget-exceeded verdict must not be replayed under another budget.
    code, out, _ = run_cli(capsys, *args)
    summary = json.loads(out)
    assert code == 0 and (summary["budget_exceeded"], summary["pass"]) == (0, 20)


def test_sweep_tcc_check(capsys, tmp_path):
    report = tmp_path / "tcc.jsonl"
    code, out, _ = run_cli(capsys, "sweep", "--check", "tcc-central",
                           "--family", "all-trees", "--min-order", "3",
                           "--max-order", "5", "--report", str(report))
    assert code == 0
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    assert len(rows) == 6
    for row in rows:
        assert row["verdict"] == "pass"
        assert row["achieved"] <= row["promised_bound"]


def test_invalid_graph6_message(capsys):
    code, _, err = run_cli(capsys, "aut", "--in", "!!bad!!")
    assert code == 2
    assert "invalid graph6" in err


@pytest.mark.parametrize("theorem", ["3.2", "3.4", "3.6", "4.9", "6.2"])
def test_construct_tags_on_c5(capsys, theorem):
    code, out, _ = run_cli(capsys, "construct", "--theorem", theorem,
                           "--in", C5)
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def record_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        row = json.loads(line)
        row.pop("seconds")
        rows.append(row)
    return rows


def test_sweep_budget_reaches_searches_inside_constructions(capsys, tmp_path):
    # 4.9 searches the group of K3,3 for a vertex that it fixes, which one
    # node cannot finish.
    listing = tmp_path / "k33.txt"
    listing.write_text(f"{K33}\n")
    args = ["sweep", "--check", "4.9", "--file", str(listing),
            "--report", str(tmp_path / "r.jsonl")]
    code, out, _ = run_cli(capsys, *args, "--budget", "1")
    assert code == 0 and json.loads(out)["budget_exceeded"] == 1
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and json.loads(out)["pass"] == 1


def test_run_check_budget_does_not_outlive_its_check():
    assert run_check(K33, "4.9", 1)["verdict"] == "budget-exceeded"
    assert run_check(K33, "4.9")["verdict"] == "pass"


def test_run_check_reads_the_budget_variable_once(monkeypatch):
    reads = []

    class Environ(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    petersen = encode_graph6(petersen_graph())
    monkeypatch.setattr(errors, "os", SimpleNamespace(environ=Environ(SYMCOL_BUDGET="10000000")))
    assert run_check(petersen, "2.11")["verdict"] == "pass"
    assert reads == ["SYMCOL_BUDGET"]
    # A malformed value still fails the record, not the caller.
    monkeypatch.setattr(errors, "os", SimpleNamespace(environ=Environ(SYMCOL_BUDGET="abc")))
    record = run_check(petersen, "2.11")
    assert (record["verdict"], record["error"]) == (
        "fail", "SYMCOL_BUDGET must be an integer node count, not 'abc'")


def test_central_edge_check_on_complete_graphs_and_cycles_spends_no_oracle_node():
    # 3.2 orients K_n and C_n, so one node of budget is never touched; C(K10)
    # has 55 vertices.
    for n in range(4, 11):
        for g in (complete_graph(n), cycle_graph(n)):
            assert run_check(encode_graph6(g), "3.2", 1)["verdict"] == "pass", n


def _past_desk_scale() -> list[Graph]:
    """K8-K12, K1,9-K1,12, three cycles, the Petersen graph, three connected
    G(30, 0.2) and three random trees of order 30."""
    rng = random.Random(30)
    dense = [g for g in (random_graph(30, 0.2, rng) for _ in range(10)) if g.is_connected()]
    rng = random.Random(31)
    graphs = ([complete_graph(n) for n in range(8, 13)]
              + [star_graph(n) for n in range(9, 13)]
              + [cycle_graph(n) for n in (12, 20, 30)] + [petersen_graph()]
              + dense[:3] + [random_tree(30, rng) for _ in range(3)])
    assert len(graphs) == 19
    return graphs


def test_middle_check_passes_past_desk_scale():
    # 3.6 asks no oracle, so no node budget stops it.
    for g in _past_desk_scale():
        record = run_check(encode_graph6(g), "3.6")
        assert record["verdict"] == "pass", g
        assert record["achieved"] <= max(2, g.max_degree())


def test_subdivision_check_asks_no_oracle(refuse_oracles):
    graphs = [g for n in range(5, 8) for g in connected_graphs(n)] + _past_desk_scale()
    for g in graphs + [cycle_graph(n) for n in range(5, 32)]:
        record = run_check(encode_graph6(g), "4.9")
        assert record["verdict"] == "pass", g
        assert record["achieved"] <= record["promised_bound"], g


def test_central_total_check_asks_no_oracle(refuse_oracles):
    graphs = [g for n in range(3, 7) for g in connected_graphs(n)] + _past_desk_scale()
    graphs += [star_graph(40), cycle_graph(31), complete_graph(13)]
    for g in graphs:
        record = run_check(encode_graph6(g), "tcc-central")
        assert record["verdict"] == "pass", g
        assert record["achieved"] <= record["promised_bound"] == g.n + 1, g


def test_central_vertex_check_asks_no_oracle(refuse_oracles):
    graphs = [g for n in range(4, 7) for g in connected_graphs(n)] + _past_desk_scale()
    graphs += [complete_bipartite(4, 4), complete_bipartite(9, 9), star_graph(13)]
    for g in graphs:
        record = run_check(encode_graph6(g), "3.4")
        assert record["verdict"] == "pass", g
        assert record["achieved"] <= record["promised_bound"], g


def test_join_of_parts_of_orders_2_to_5_asks_no_oracle(capsys, refuse_oracles):
    parts = [g for n in range(2, 6) for g in all_graphs(n)]
    # Every pair of parts of one order, and every pair of different orders
    # in both places; equal orders take proper part colorings, unequal ones
    # AVD colorings.  A failed input or final check raises.
    pairs = [(a, b) for i, a in enumerate(parts) for j, b in enumerate(parts)
             if a.n != b.n or i <= j]
    assert len(pairs) == 1304 + 674
    for a, b in pairs:
        assert CHECKS["5.5"][1](a, b).tag == "5.5", (a, b)
    cli_pairs = [(cycle_graph(7), star_graph(8)), (star_graph(6), complete_graph(6))]
    cli_pairs += [(g, g) for g in (cycle_graph(7), star_graph(7), empty_graph(6))]
    for a, b in cli_pairs:
        code, out, _ = run_cli(capsys, "construct", "--theorem", "5.5",
                               "--in", encode_graph6(a), "--in2", encode_graph6(b))
        assert code == 0 and json.loads(out)["verdict"] == "pass", (a, b)


def test_join_colors_a_part_given_twice_once(capsys, monkeypatch, refuse_oracles):
    calls = []
    real_square = constructive._square_total_central

    def square(g, *args):
        calls.append(g)
        return real_square(g, *args)

    monkeypatch.setattr(constructive, "_square_total_central", square)
    for part in (complete_graph(12), complete_graph(3)):
        calls.clear()
        g6 = encode_graph6(part)
        code, out, _ = run_cli(capsys, "construct", "--theorem", "5.5", "--in", g6, "--in2", g6)
        assert code == 0 and json.loads(out)["verdict"] == "pass", part
        assert calls == [part], part


def test_sweep_budget_verdicts_do_not_depend_on_workers(capsys, tmp_path):
    # 4.9 searches the groups of K5 and K3,3 in more than one node; C5 and
    # C7 take a fixed pattern, and their final checks are settled at the
    # first.
    listing = tmp_path / "graphs.txt"
    c7 = encode_graph6(cycle_graph(7))
    listing.write_text("".join(f"{g6}\n" for g6 in (K5, K33, C5, c7)))
    reports = []
    for workers in ("1", "2"):
        report = tmp_path / f"w{workers}.jsonl"
        run_cli(capsys, "sweep", "--check", "4.9", "--file", str(listing),
                "--report", str(report), "--cache", str(tmp_path / f"c{workers}"),
                "--budget", "1", "--workers", workers)
        reports.append(record_rows(report))
    assert reports[0] == reports[1]
    assert [r["verdict"] for r in reports[0]] == [
        "budget-exceeded", "budget-exceeded", "pass", "pass",
    ]


def test_sweep_cache_keyed_by_source_digest(capsys, tmp_path, monkeypatch):
    listing = tmp_path / "c5.txt"
    listing.write_text(f"{C5}\n")
    report = tmp_path / "r.jsonl"
    args = ["sweep", "--check", "3.2", "--file", str(listing), "--report", str(report)]
    run_cli(capsys, *args)
    (journal,) = (tmp_path / "r.cache").glob("*.jsonl")
    (line,) = journal.read_text().splitlines()
    tampered = dict(json.loads(line), verdict="fail", error="stale")
    journal.write_text(json.dumps(tampered) + "\n")
    code, out, _ = run_cli(capsys, *args)
    assert code == 1 and json.loads(out)["fail"] == 1  # replayed from the cache
    # Edited sources give a new digest, so the stale record is recomputed.
    monkeypatch.setattr(cli, "_source_digest", lambda: "edited sources")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and json.loads(out)["pass"] == 1
    assert record_rows(report)[0]["verdict"] == "pass"
    # The journal of the earlier digest is pruned.
    (journal,) = (tmp_path / "r.cache").iterdir()
    assert journal.name.startswith("edited sources-")


def test_sweep_prunes_other_source_versions_from_its_cache(capsys, tmp_path):
    # Journals of another digest, and the per-record files and unprefixed
    # journals of earlier versions, go; this version's journals of other
    # checks and budgets, and files that are not the cache's, stay.
    cache = tmp_path / "c"
    listing = tmp_path / "c5.txt"
    listing.write_text(f"{C5}\n")
    args = ["sweep", "--file", str(listing), "--report", str(tmp_path / "r.jsonl"),
            "--cache", str(cache)]
    run_cli(capsys, *args, "--check", "2.11")
    run_cli(capsys, *args, "--check", "3.2", "--budget", "10")
    kept = sorted(cache.iterdir())
    assert len(kept) == 2
    stale = ["a" * 64 + ".json", "b" * 64 + ".jsonl", "c" * 64 + "-" + "d" * 64 + ".jsonl"]
    for name in stale + ["notes.txt"]:
        (cache / name).write_text("{}\n")
    code, out, _ = run_cli(capsys, *args, "--check", "3.2")
    assert code == 0 and json.loads(out)["pass"] == 1
    left = sorted(cache.iterdir())
    assert set(kept) < set(left) and cache / "notes.txt" in left
    assert len(left) == 4 and not any(cache / name in left for name in stale)


def test_sweep_records_build_no_coloring_json(monkeypatch):
    # A record reads the palette and the bound off the construction's
    # result; only `construct` turns the coloring into JSON.
    graphs = [C5, K4, K15, encode_graph6(petersen_graph())]
    checks = ["3.2", "3.4", "3.6", "4.5", "4.9", "5.1", "5.3"]

    def records():
        rows = [run_check(g6, check) for g6 in graphs for check in checks]
        for row in rows:
            row.pop("seconds")
        return rows

    before = records()
    assert sum(row["achieved"] is not None for row in before) > 15

    def refuse(*args):
        raise AssertionError("a sweep record built a coloring's JSON")

    monkeypatch.setattr(colorings, "coloring_to_json", refuse)
    assert records() == before
