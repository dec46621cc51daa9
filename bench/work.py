"""One benchmark process: build a workload's inputs, run it once, judge it.

run.py starts this script in a fresh interpreter for every unit it times, so
symcol's process-wide caches (the families lru_cache and the automorphism
group cache) start empty, and every sweep unit gets an empty record cache:

    python3 work.py --workload NAME --mode MODE --seed N --ref-before R
                    --launched T --tmp DIR [--workers K] [--tiny]

Modes:
  setup   import symcol and build the inputs, nothing else;
  cold    setup, then the timed work: the sweeps on an empty cache, or one
          pass over the oracle queries;
  warm    setup, then the warm work, repeated for at least three seconds:
          the sweeps again on the cache a cold unit filled, or, after a
          cold pass, passes over the queries the group cache can serve;
  traced  cold and then warm work at one worker, with every public function
          wrapped by tracer.Tracer and a single warm pass.

``--launched`` is the parent's CLOCK_MONOTONIC reading just before it started
this process, so setup_s covers interpreter start, import and input
building; ``--ref-before`` is the parent's speed.probe() just before that.
Set-up and the timed work of a cold unit are also reported scaled to the
reference machine speed (speed.py) as setup_scaled_s and scaled_s.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Warm passes repeat until they have taken this long; warm_s is the fastest.
# The work is small and a shared machine's speed can swing for seconds at a
# time, so the minimum is the steadier estimate of what a warm rerun costs.
WARM_MIN_S = 3.0


def build_graphs() -> dict:
    """The oracle inputs, built through the public API."""
    from symcol import graphs as G
    from symcol import transforms as T

    cycle6 = G.cycle_graph(6)
    # Complement of C6: the sharpness example of construction 6.2.
    sharp6 = G.Graph.from_edges(
        6, [e for e in G.complete_graph(6).edges() if not cycle6.has_edge(*e)])
    return {
        "C(C8)": T.central(G.cycle_graph(8)).graph,
        "C(sharp6)": T.central(sharp6).graph,
        "C(K1,6)": T.central(G.star_graph(7)).graph,
        "C(C5)": T.central(G.cycle_graph(5)).graph,
        "C(K4)": T.central(G.complete_graph(4)).graph,
        "K5": G.complete_graph(5),
        "Petersen": G.petersen_graph(),
    }


@contextlib.contextmanager
def _scaler(mode: str, out: dict):
    """In a timed (cold) unit, sample the machine's speed while the work
    runs: ``out`` gets the work's time without the probes as ``wall_s`` and
    at nominal speed as ``scaled_s``.  Other modes time the work unprobed."""
    if mode != "cold":
        yield
        return
    with speed.Scaler() as scaler:
        yield
    out["wall_s"], out["scaled_s"] = scaler.raw_s, scaler.scaled_s


# --- sweeps ----------------------------------------------------------------------


def run_sweeps(wl, tmp: Path, suffix: str, workers: int) -> float:
    """Run every check of ``wl`` through the command line; the wall time."""
    from symcol import cli

    start = time.perf_counter()
    for check in wl.checks:
        argv = ["sweep", "--check", check, "--family", "all-connected",
                "--min-order", str(wl.min_order), "--max-order", str(wl.max_order),
                "--report", str(tmp / f"{check}{suffix}.jsonl"),
                "--cache", str(tmp / "cache"), "--workers", str(workers)]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    return time.perf_counter() - start


def judge_sweeps(wl, tmp: Path, suffix: str) -> tuple[int, int, list[str]]:
    """Gate every report; a warm report must also equal the cold one."""
    attempted = failed = 0
    problems: list[str] = []
    for check in wl.checks:
        path = tmp / f"{check}{suffix}.jsonl"
        try:
            records = [json.loads(line) for line in path.read_text().splitlines()]
        except (OSError, ValueError) as exc:
            records = []
            problems.append(f"{check}: unreadable report: {exc}")
        a, f, p = workloads.sweep_failures(wl, check, records)
        cold = tmp / f"{check}.jsonl"
        if suffix and path.exists() and cold.exists() and path.read_bytes() != cold.read_bytes():
            f = a
            p.append(f"{check}: the cached rerun changed the report")
        attempted, failed, problems = attempted + a, failed + f, problems + p
    return attempted, failed, problems


def run_sweep_unit(wl, tmp: Path, workers: int, mode: str) -> dict:
    """Cold sweeps on an empty cache; or, in mode "warm", reruns on the cache
    a cold unit filled, repeated for WARM_MIN_S; a traced unit does both,
    with a single rerun, so that the cache hit ratio reads one half."""
    out: dict = {"ops": wl.ops_per_pass(), "records": 0}
    verdicts = []
    if mode != "warm":
        with _scaler(mode, out):
            out["wall_s"] = run_sweeps(wl, tmp, "", workers)
        out["records"] += wl.ops_per_pass()
        verdicts.append(judge_sweeps(wl, tmp, ""))
    if mode != "cold":
        warm = []
        while not warm or (mode == "warm" and sum(warm) < WARM_MIN_S):
            warm.append(run_sweeps(wl, tmp, ".warm", workers))
            out["records"] += wl.ops_per_pass()
            verdicts.append(judge_sweeps(wl, tmp, ".warm"))
        out["warm_s"] = min(warm)
    out["verdict"] = (sum(v[0] for v in verdicts), sum(v[1] for v in verdicts),
                      [p for v in verdicts for p in v[2]])
    return out


# --- oracles ---------------------------------------------------------------------


def run_queries(queries, graphs: dict, workers: int) -> tuple[float, list[dict]]:
    """One pass over ``queries``; the wall time and one outcome per query."""
    from symcol import oracles

    outcomes = []
    start = time.perf_counter()
    for q in queries:
        t = time.perf_counter()
        if q.certificate:
            res = oracles.lower_bound_certificate(graphs[q.graph], q.kind, q.value, workers=workers)
            outcome = {"name": q.name, "value": res, "nodes": None}
        else:
            res = oracles.exact_parameter(graphs[q.graph], q.kind, q.cap, workers=workers)
            outcome = {"name": q.name, "value": res.value, "nodes": res.nodes, "result": res}
        outcome["seconds"] = time.perf_counter() - t
        outcomes.append(outcome)
    return time.perf_counter() - start, outcomes


def _witness_json(g, witness) -> str | None:
    from symcol.colorings import TDCPartition, coloring_to_json

    if witness is None:
        return None
    doc = witness.to_json() if isinstance(witness, TDCPartition) else coloring_to_json(g, witness)
    return json.dumps(doc, sort_keys=True)


def _verified(g, kind: str, value: int, w) -> bool:
    """Whether the public verifier for ``kind`` accepts ``w`` with ``value`` colors."""
    from symcol import colorings as C

    try:
        if kind == "chitd":
            return len(w.classes) == value and C.is_tdc(g, w)
        if len(w.palette()) != value:
            return False
        if kind in ("D", "Dp", "Dpp"):
            return C.is_distinguishing(g, w, {"D": "vertex", "Dp": "edge", "Dpp": "total"}[kind])
        if kind == "chi2a":
            return C.is_avd_total(g, w)
        proper = C.is_proper(g, w, "total")
        return proper and (kind != "chi2D" or C.is_distinguishing(g, w, "total"))
    except ValueError:
        return False


def judge_queries(wl, passes: list[list[dict]], graphs: dict) -> tuple[tuple, dict[str, str]]:
    """Re-check every witness with the public verifier for its kind; the
    verdict, and the first pass's witnesses as canonical JSON by query."""
    by_name = {q.name: q for q in wl.queries}
    attempted = failed = 0
    problems: list[str] = []
    for outcomes in passes:
        for o in outcomes:
            res = o.pop("result", None)
            if res is not None:
                q = by_name[o["name"]]
                g = graphs[q.graph]
                o["verified"] = res.witness is not None and _verified(g, q.kind, res.value, res.witness)
                o["witness"] = _witness_json(g, res.witness)
        asked = tuple(by_name[o["name"]] for o in outcomes)
        a, f, p = workloads.query_failures(outcomes, asked)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    witnesses = {o["name"]: o["witness"] for o in passes[0] if "witness" in o}
    return (attempted, failed, problems), witnesses


def run_oracle_unit(wl, seed: int, graphs: dict, workers: int, mode: str) -> dict:
    """The cold pass over the seed-shuffled queries; in mode "warm" then
    passes over the queries the group cache serves, repeated for WARM_MIN_S;
    a traced unit makes one such pass."""
    order = wl.ordered_queries(seed)
    out: dict = {}
    with _scaler(mode, out):
        out["wall_s"], cold = run_queries(order, graphs, workers)
    out.update({
        "ops": len(order),
        "per_query": {o["name"]: [o["seconds"], o["nodes"]] for o in cold},
        "passes": [cold],
    })
    if mode != "cold":
        cached = [q for q in order if q.kind in workloads.GROUP_KINDS]
        warm = []
        while not warm or (mode == "warm" and sum(t for t, _ in warm) < WARM_MIN_S):
            warm.append(run_queries(cached, graphs, workers))
        out["warm_s"] = min(t for t, _ in warm)
        out["passes"] += [outcomes for _, outcomes in warm]
    return out


# --- entry -------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("setup", "cold", "warm", "traced"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--ref-before", type=float, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    wl = workloads.get(args.workload, args.tiny)

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    from symcol import cli, families  # noqa: F401  (import is part of set-up)

    imported_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.launched
    with speed.Scaler() as scaler:
        if wl.is_sweep:
            for n in range(wl.min_order, wl.max_order + 1):
                families.connected_graphs(n)
            graphs = {}
        else:
            graphs = build_graphs()
    # Start and import are scaled by the probes on either side of them, the
    # input building by the scaler's own probes.
    ref = (args.ref_before + scaler.samples[0][2]) / 2
    out: dict = {"setup_s": imported_s + scaler.raw_s,
                 "setup_scaled_s": imported_s * speed.NOMINAL_S / ref + scaler.scaled_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if wl.is_sweep:
        out.update(run_sweep_unit(wl, args.tmp, args.workers, args.mode))
    else:
        out.update(run_oracle_unit(wl, args.seed, graphs, args.workers, args.mode))
    if tracer is not None:
        tracer.uninstall()
        out["metrics"] = tracer.metrics(out["records"] if wl.is_sweep else 0)
    if not wl.is_sweep:
        out["verdict"], out["witnesses"] = judge_queries(wl, out.pop("passes"), graphs)
    out.pop("records", None)
    out["attempted"], out["failed"], out["problems"] = out.pop("verdict")
    # Pool workers have been joined, so RUSAGE_CHILDREN covers them.
    out["peak_rss_kib"] = max(resource.getrusage(who).ru_maxrss
                              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
