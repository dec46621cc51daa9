"""Command-line front end.

One-shot subcommands print exactly one JSON document on standard output
(latin prints CSV); diagnostics go to standard error.  Exit codes: 0 success,
1 verification or construction failure, 2 usage errors.  Sweeps write one
JSON record per graph to a report file, and append each finished record to
one journal per (check, budget, sources) in the record cache, so that a
rerun, or a killed run resumed, recomputes only what it lacks.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import hashlib
import json
import os
import re
import sys
import time
from pathlib import Path
from typing import Callable, Iterable

from .autos import automorphisms, check_aut_chain
from .colorings import TDCPartition, coloring_from_json
from .constructive import (
    PROPERTIES,
    ConstructionResult,
    _central_part_coloring,
    avd_coloring_central_join,
    avd_coloring_central_regular,
    avd_coloring_subdivision,
    dist_edge_coloring_central,
    dist_vertex_coloring_central,
    dist_vertex_coloring_middle,
    tdc_central,
    tdc_central_tree,
    tdc_to_complement,
    total_coloring_central,
    total_dist_coloring_central_regular,
    total_dist_coloring_subdivision,
)
from .errors import (
    BudgetExceededError,
    ConstructionDefectError,
    Graph6Error,
    NotApplicableError,
    _check_budget,
    _resolve_budget,
)
from .families import all_trees, connected_graphs, regular_graphs
from .graphs import Graph, encode_graph6, parse_graph6
from .latin import icls
from .oracles import PARAM_KINDS, exact_parameter
from .transforms import central, endline, line_graph, middle, subdivision

MAX_BUILTIN_ORDER = 8


class _UsageError(Exception):
    """Bad invocation; reported on stderr with exit code 2."""


def _print_json(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _parse_graph(text: str) -> Graph:
    try:
        return parse_graph6(text.strip())
    except Graph6Error as exc:
        raise _UsageError(f"invalid graph6 input: {exc}") from exc


# --- one-shot subcommands -----------------------------------------------------


def _line_doc(g: Graph) -> dict:
    if g.edge_count() == 0:
        raise _UsageError("the line graph of a graph with no edges has no vertices, "
                          "and graph6 has no order-0 form")
    lg, labels = line_graph(g)
    return {"graph6": encode_graph6(lg), "labels": [list(e) for e in labels]}


# Every transform by --kind, in listing order: a function of the graph
# returning its document.
_TRANSFORMS = {
    "subdivision": lambda g: subdivision(g).to_json(),
    "central": lambda g: central(g).to_json(),
    "middle": lambda g: middle(g).to_json(),
    "endline": lambda g: endline(g).to_json(),
    "line": _line_doc,
}


def _cmd_transform(args: argparse.Namespace) -> int:
    doc = _TRANSFORMS[args.kind](_parse_graph(args.graph))
    doc["kind"] = args.kind
    _print_json(doc)
    return 0


def _cmd_aut(args: argparse.Namespace) -> int:
    g = _parse_graph(args.graph)
    if args.chain:
        _print_json(check_aut_chain(g).to_json())
        return 0
    group = automorphisms(g)
    doc = {"graph6": encode_graph6(g), "group_order": group.order}
    if group.order <= 10**4:
        doc["elements"] = [list(p) for p in group.elements]
    _print_json(doc)
    return 0


def _check_run_limits(args: argparse.Namespace) -> None:
    if args.workers < 1:
        raise _UsageError("--workers must be at least 1")
    if args.budget is not None and args.budget < 0:
        raise _UsageError("--budget must be at least 0")
    if getattr(args, "cap", None) is not None and args.cap < 1:  # oracle only
        raise _UsageError("--cap must be at least 1")


def _cmd_oracle(args: argparse.Namespace) -> int:
    _check_run_limits(args)
    g = _parse_graph(args.graph)
    res = exact_parameter(g, args.param, cap=args.cap, budget=args.budget, workers=args.workers)
    _print_json(res.to_json(g))
    return 0


def _cmd_latin(args: argparse.Namespace) -> int:
    if args.k < 2:
        raise _UsageError("--k must be at least 2")
    sys.stdout.write(icls(args.k).to_csv())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.coloring).read_text())
        if args.property == "tdc":
            if not all(type(v) is int for c in doc["classes"] for v in c):
                raise ValueError("class members must be integer vertices")
            f = TDCPartition(tuple(frozenset(c) for c in doc["classes"]))
        else:
            g, f = coloring_from_json(doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _UsageError(f"cannot read --coloring {args.coloring}: {exc!r}") from exc
    if args.property == "tdc":
        if args.graph is None:
            raise _UsageError("--property tdc requires --in for the graph")
        g = _parse_graph(args.graph)
    elif args.graph is not None and _parse_graph(args.graph) != g:
        raise _UsageError("--in disagrees with the coloring's graph")
    try:
        holds = PROPERTIES[args.property](g, f)
    except ValueError as exc:
        what = "partition" if args.property == "tdc" else "coloring"
        print(f"symcol: {what} rejected: {exc}", file=sys.stderr)
        holds = False
    _print_json({"property": args.property, "holds": holds})
    return 0 if holds else 1


def _document(value: dict | ConstructionResult) -> dict:
    """A check's ``construct`` document: a construction's JSON, or its own."""
    return {**value.to_json(), "verdict": "pass"} if isinstance(value, ConstructionResult) else value


def _partition_doc(tag: str, g: Graph, partition: TDCPartition, bound: int) -> dict:
    return {
        "tag": tag,
        "graph6": encode_graph6(g),
        "classes": [sorted(c) for c in partition.classes],
        "class_count": len(partition.classes),
        "promised_bound": bound,
        "verdict": "pass",
    }


def _complement_doc(g: Graph) -> dict:
    p = tdc_central(g)
    return _partition_doc("6.1", g.complement(), tdc_to_complement(p, g), len(p.classes))


def _join_doc(g: Graph, g2: Graph | None) -> ConstructionResult:
    if g2 is None:
        raise _UsageError("--theorem 5.5 takes the second part via --in2")
    # Proper part colorings within n + 1 for equal orders, AVD ones within
    # n + 2 for unequal orders.  A part given twice is colored once.
    extra = 1 if g.n == g2.n else 2
    c1 = _central_part_coloring(g, g.n + extra)
    c2 = c1 if g2 == g else _central_part_coloring(g2, g2.n + extra)
    return avd_coloring_central_join(g, g2, c1, c2)


def _chain_doc(g: Graph) -> dict:
    report = check_aut_chain(g)
    if not report.applicable:
        raise NotApplicableError(report.reason)
    return {"verdict": "pass" if report.passed else "fail"}


_CONSTRUCT, _SWEEP = ("construct",), ("sweep",)
_BOTH = _CONSTRUCT + _SWEEP

# Every check by tag, in listing order: the subcommands that accept it, and
# a function of (graph, second graph) returning its construction result or
# its document; a sweep reads a result's palette and bound, not its JSON.
# No check asks an oracle; its automorphism searches, the verifiers'
# included, read the budget that run_check sets.  The lambdas look each
# construction up by name when called, so a wrapper bound to that name here
# later is the one that runs.
CHECKS = {
    "2.11": (_SWEEP, lambda g, _: _chain_doc(g)),
    "3.2": (_BOTH, lambda g, _: dist_edge_coloring_central(g)),
    "3.4": (_BOTH, lambda g, _: dist_vertex_coloring_central(g)),
    "3.6": (_BOTH, lambda g, _: dist_vertex_coloring_middle(g)),
    "4.5": (_BOTH, lambda g, _: total_dist_coloring_central_regular(g)),
    "4.9": (_BOTH, lambda g, _: total_dist_coloring_subdivision(g)),
    "5.1": (_BOTH, lambda g, _: avd_coloring_central_regular(g)),
    "5.3": (_BOTH, lambda g, _: avd_coloring_subdivision(g)),
    "5.5": (_CONSTRUCT, _join_doc),
    "6.1": (_BOTH, lambda g, _: _complement_doc(g)),
    "6.2": (_BOTH, lambda g, _: _partition_doc("6.2", central(g).graph, tdc_central(g), g.n)),
    "appendix-tree": (
        _BOTH,
        lambda g, _: _partition_doc("appendix-tree", central(g).graph, tdc_central_tree(g), g.n),
    ),
    "tcc-central": (_SWEEP, lambda g, _: total_coloring_central(g)),
}


def _tags(command: str) -> list[str]:
    return [tag for tag, (commands, _) in CHECKS.items() if command in commands]


def _attempt(run: Callable[[], dict | ConstructionResult]) -> dict | ConstructionResult:
    """What ``run`` returns, or a verdict document with a ``detail`` for the
    failure it raised."""
    try:
        return run()
    except NotApplicableError as exc:
        verdict, detail = "not-applicable", str(exc)
    except BudgetExceededError as exc:
        verdict, detail = "budget-exceeded", str(exc)
    except (ConstructionDefectError, ValueError) as exc:
        verdict, detail = "fail", str(exc)
    return {"verdict": verdict, "detail": detail}


def _cmd_construct(args: argparse.Namespace) -> int:
    g = _parse_graph(args.graph)
    g2 = _parse_graph(args.graph2) if args.graph2 else None
    doc = _attempt(lambda: _document(CHECKS[args.theorem][1](g, g2)))
    if doc["verdict"] != "pass":
        _print_json(doc)
        return 1
    if args.out:
        try:
            Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise _UsageError(f"cannot write --out {args.out}: {exc}") from exc
        print(f"symcol: wrote {args.out}", file=sys.stderr)
    _print_json(doc)
    return 0


# --- sweeps --------------------------------------------------------------------


def run_check(graph6: str, check: str, budget: int | None = None) -> dict:
    """One ReportRecord-shaped dict for one graph and one check."""
    record = {
        "graph6": graph6,
        "check": check,
        "verdict": "pass",
        "promised_bound": None,
        "achieved": None,
        "oracle_value": None,
        "seconds": 0.0,
        "error": None,
    }
    start = time.perf_counter()

    def run() -> dict:
        # Resolved once, so that no search of the check reads SYMCOL_BUDGET
        # again, and set for this check only, so that no budget outlives it.
        token = _check_budget.set(_resolve_budget(budget))
        try:
            return CHECKS[check][1](parse_graph6(graph6), None)
        finally:
            _check_budget.reset(token)

    doc = _attempt(run)
    if isinstance(doc, ConstructionResult):
        doc = {"verdict": "pass", "promised_bound": doc.promised_bound, "palette_size": doc.palette_size}
    record["verdict"] = doc["verdict"]
    record["promised_bound"] = doc.get("promised_bound")
    record["achieved"] = doc.get("palette_size", doc.get("class_count"))
    record["error"] = doc.get("detail")
    record["seconds"] = round(time.perf_counter() - start, 3)
    return record


# Every built-in family by --family, in listing order: a function of the
# order and --degree returning its graphs.
_FAMILIES = {
    "all-connected": lambda n, degree: connected_graphs(n),
    "all-trees": lambda n, degree: all_trees(n),
    "regular": lambda n, degree: regular_graphs(degree, n),
}


def _family_graphs(args: argparse.Namespace) -> Iterable[str]:
    if args.file:
        try:
            text = Path(args.file).read_text()
        except OSError as exc:
            raise _UsageError(f"cannot read --file {args.file}: {exc}") from exc
        for line in text.splitlines():
            line = line.strip()
            if line:
                yield line
        return
    if args.max_order is None:
        raise _UsageError("built-in families need --max-order")
    if args.max_order > MAX_BUILTIN_ORDER:
        raise _UsageError(
            f"built-in enumeration stops at order {MAX_BUILTIN_ORDER}; "
            "use --file for larger graphs"
        )
    lo = 1 if args.min_order is None else args.min_order
    if lo < 1:
        raise _UsageError("--min-order must be at least 1")
    if args.family == "regular" and (args.degree is None or args.degree < 0):
        raise _UsageError("--family regular needs a --degree of at least 0")
    for n in range(lo, args.max_order + 1):
        for g in _FAMILIES[args.family](n, args.degree):
            yield encode_graph6(g)


@functools.cache
def _source_digest() -> str:
    """SHA-256 over the package's .py sources, so that editing the code
    retires every cached record; computed once, on first use."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(f"{path.name}\n".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _journal_path(cache_dir: Path, check: str, budget: int | None) -> Path:
    # Searches given no budget read SYMCOL_BUDGET, so both are keyed.
    text = f"{check}\n{budget}\n{os.environ.get('SYMCOL_BUDGET')}"
    return cache_dir / f"{_source_digest()}-{hashlib.sha256(text.encode()).hexdigest()}.jsonl"


def _prune_cache(cache_dir: Path) -> None:
    """Delete the journals of other source digests and the unprefixed files
    of earlier versions; this digest's journals of every check stay."""
    for path in cache_dir.iterdir():
        name = re.fullmatch(r"(?:([0-9a-f]{64})-)?[0-9a-f]{64}\.jsonl?", path.name)
        if name and name[1] != _source_digest():
            path.unlink(missing_ok=True)


# Every verdict a record can carry; a sweep's summary counts each.
_VERDICTS = ("pass", "fail", "not-applicable", "budget-exceeded")


def _read_journal(name: str, data: bytes, check: str) -> dict[str, dict]:
    """The first valid record of each graph in a journal's bytes; every
    other line, a torn last one or one with an unknown verdict included, is
    reported and skipped."""
    records: dict[str, dict] = {}
    for number, line in enumerate(data.splitlines(), 1):
        try:
            record = json.loads(line)
            if not (isinstance(record, dict) and record.get("verdict") in _VERDICTS
                    and isinstance(record.get("graph6"), str) and record.get("check") == check):
                raise ValueError("not a record")
        except ValueError as exc:
            print(f"symcol: discarding corrupt cache entry {name} line {number}: {exc}",
                  file=sys.stderr)
            continue
        records.setdefault(record["graph6"], record)
    return records


def _write_atomic(path: Path, text: str) -> None:
    # A reader, or a run killed mid-write, sees the old file or the new one.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_run_limits(args)
    graphs = list(_family_graphs(args))
    report_path = Path(args.report)
    cache_dir = Path(args.cache) if args.cache else report_path.with_suffix(".cache")
    journal_path = _journal_path(cache_dir, args.check, args.budget)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        _prune_cache(cache_dir)
        # Unbuffered, so each record is one write(2) on an O_APPEND descriptor.
        journal = open(journal_path, "a+b", buffering=0)
    except OSError as exc:
        option = "--cache" if args.cache else "--report"
        raise _UsageError(f"cannot make the record cache {cache_dir} for {option}: {exc}") from exc

    with journal:
        journal.seek(0)
        data = journal.read()
        records = _read_journal(journal_path.name, data, args.check)
        if data and not data.endswith(b"\n"):
            # A run killed mid-append left a torn line; keep it apart from the next.
            journal.write(b"\n")
        todo = [graph6 for graph6 in dict.fromkeys(graphs) if graph6 not in records]

        def finish(record: dict) -> None:
            # Journalled as soon as it completes, so a killed sweep resumes from here.
            records[record["graph6"]] = record
            journal.write((json.dumps(record, sort_keys=True) + "\n").encode())

        if todo and args.workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
                futures = [pool.submit(run_check, graph6, args.check, args.budget)
                           for graph6 in todo]
                for fut in concurrent.futures.as_completed(futures):
                    finish(fut.result())
        else:
            for graph6 in todo:
                finish(run_check(graph6, args.check, args.budget))

    # Records land in the report in enumeration order so that a resumed run
    # reproduces the file byte for byte.
    counts = dict.fromkeys(_VERDICTS, 0)
    lines = []
    for graph6 in graphs:
        counts[records[graph6]["verdict"]] += 1
        lines.append(json.dumps(records[graph6], sort_keys=True) + "\n")
    _write_atomic(report_path, "".join(lines))
    summary = {
        "check": args.check,
        "total": len(graphs),
        **{verdict.replace("-", "_"): count for verdict, count in counts.items()},
        "report": str(report_path),
    }
    _print_json(summary)
    return 1 if counts["fail"] else 0


# --- argument parsing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcol",
        description="Graph transformations, automorphism tools, coloring "
        "constructions, and exact search oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="apply a graph transformation")
    p.set_defaults(handler=_cmd_transform)
    p.add_argument("--kind", required=True, choices=list(_TRANSFORMS))
    p.add_argument("--in", dest="graph", required=True, metavar="GRAPH6")

    p = sub.add_parser("aut", help="automorphism group or transform-chain report")
    p.set_defaults(handler=_cmd_aut)
    p.add_argument("--in", dest="graph", required=True, metavar="GRAPH6")
    p.add_argument("--chain", action="store_true",
                   help="compare group orders across the transformed graphs")

    p = sub.add_parser("construct", help="run a coloring construction")
    p.set_defaults(handler=_cmd_construct)
    p.add_argument("--theorem", required=True, choices=_tags("construct"))
    p.add_argument("--in", dest="graph", required=True, metavar="GRAPH6")
    p.add_argument("--in2", dest="graph2", metavar="GRAPH6",
                   help="second part for the join construction")
    p.add_argument("--out", help="also write the result JSON to this file")

    p = sub.add_parser("verify", help="check a stored coloring or partition")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--property", required=True, choices=list(PROPERTIES))
    p.add_argument("--coloring", required=True, metavar="FILE")
    p.add_argument("--in", dest="graph", metavar="GRAPH6",
                   help="graph (required for tdc, optional cross-check otherwise)")

    p = sub.add_parser("oracle", help="exact parameter search")
    p.set_defaults(handler=_cmd_oracle)
    p.add_argument("--param", required=True, choices=list(PARAM_KINDS))
    p.add_argument("--in", dest="graph", required=True, metavar="GRAPH6")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("latin", help="print an idempotent commutative square as CSV")
    p.set_defaults(handler=_cmd_latin)
    p.add_argument("--k", type=int, required=True,
                   help="parameter k; the square has order 2k-1")

    p = sub.add_parser("sweep", help="run one check across a graph family")
    p.set_defaults(handler=_cmd_sweep)
    p.add_argument("--check", required=True, choices=_tags("sweep"))
    p.add_argument("--family", default="all-connected", choices=list(_FAMILIES))
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--min-order", type=int, default=None)
    p.add_argument("--degree", type=int, default=None,
                   help="degree for the regular family")
    p.add_argument("--file", help="file of graph6 strings, one per line")
    p.add_argument("--report", required=True, help="JSONL report path")
    p.add_argument("--cache", default=None,
                   help="cache directory (default: <report>.cache)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--budget", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _resolve_budget(None)
    except ValueError as exc:  # a malformed SYMCOL_BUDGET stops every command up front
        print(f"symcol: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"symcol: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        _print_json({"error": "budget-exceeded", "detail": str(exc)})
        return 1
    except NotApplicableError as exc:
        _print_json({"error": "not-applicable", "detail": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
