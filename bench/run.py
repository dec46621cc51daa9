"""Run one workload of the symcol benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

NAME is dist-sweep, chain-sweep or oracle-exact (see BENCHMARK.json for why
each exists), or ``all``, which runs every workload with ``--trace 0`` and
then ``--trace 1``.  Every unit of work runs in a fresh interpreter
(work.py) with an empty scratch directory, because symcol's caches live for
the whole process.

With ``--trace 0`` the run repeats cold units while another unit, processes
included, still fits in ``--seconds`` (always at least one).  It reports
the end-to-end metrics: medians over units for times, the median of at
least three set-ups (and one second of them) for setup_s, and the peak RSS
of any process of a unit.  Times are scaled to a fixed reference speed of
the machine (speed.py), because a shared machine's own speed drifts by tens
of percent over tens of seconds; setup_s is scaled the same way.  The raw
median wall time and rate are printed for reference, not reported.  With ``--trace 1`` it runs one untraced unit
followed by its warm rerun, the same unit traced (work.py --mode
traced) and, for an oracle workload, one untraced cold unit at
``workloads.PAR_WORKERS`` workers; it reports the per-layer metrics.  Every
metric is printed as ``name value unit``; the last line of standard output
is the JSON result.  ``--tiny`` shrinks the inputs for the self-test.
Files are written only under the checkout, in ``.bench_tmp/``, which is
removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# setup_s is the median of at least this many set-ups, taking this long in all.
SETUP_SAMPLES = 3
SETUP_MIN_S = 1.0
DEADLINE_S = 170.0


class RunFailed(Exception):
    """A benchmark process crashed or ran out of time."""


class Runner:
    def __init__(self, seed: int, tiny: bool, tmp_root: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.tmp_root = tmp_root
        self.deadline = 0.0
        self.env = dict(os.environ, TMPDIR=str(tmp_root), PYTHONHASHSEED="0")

    def child(self, wl: workloads.Workload, mode: str, tmp: Path, workers: int | None = None) -> dict:
        cmd = [sys.executable, str(BENCH_DIR / "work.py"), "--workload", wl.name,
               "--mode", mode, "--seed", str(self.seed), "--tmp", str(tmp)]
        if workers is not None:
            cmd += ["--workers", str(workers)]
        if self.tiny:
            cmd.append("--tiny")
        cmd += ["--ref-before", repr(speed.probe()),
                "--launched", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
        # A session of its own, so that a timeout also stops the pool workers.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env,
                                cwd=ROOT, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunFailed(f"{wl.name} {mode} unit ran past the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            raise RunFailed(f"{wl.name} {mode} unit exited with code {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        for problem in result.get("problems", ())[:20]:
            print(f"{wl.name}: {problem}", file=sys.stderr)
        return result

    def fresh(self, wl: workloads.Workload, mode: str, workers: int | None = None) -> dict:
        """One unit in a fresh interpreter with an empty scratch directory.
        A sweep's warm unit is a cold process followed by a warm one on the
        cache it filled; an oracle unit runs in one process."""
        tmp = Path(tempfile.mkdtemp(dir=self.tmp_root))
        try:
            if not (wl.is_sweep and mode == "warm"):
                return self.child(wl, mode, tmp, workers)
            unit = self.child(wl, "cold", tmp, workers)
            rerun = self.child(wl, "warm", tmp, workers)
            unit["warm_s"] = rerun["warm_s"]
            unit["attempted"] += rerun["attempted"]
            unit["failed"] += rerun["failed"]
            return unit
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def timed(self, wl: workloads.Workload, seconds: float) -> tuple[dict, int, int]:
        units, elapsed = [], []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            units.append(self.fresh(wl, "cold"))
            elapsed.append(time.monotonic() - began)
            if time.monotonic() - start + statistics.median(elapsed) > seconds:
                break
        setups = [u["setup_scaled_s"] for u in units]
        while len(setups) < SETUP_SAMPLES or sum(setups) < SETUP_MIN_S:
            setups.append(self.fresh(wl, "setup")["setup_scaled_s"])
        ops = sum(u["ops"] for u in units)
        walls = [u["wall_s"] for u in units]
        scaled = [u["scaled_s"] for u in units]
        metrics = {
            "setup_s": statistics.median(setups),
            "scaled_wall_s": statistics.median(scaled),
            "scaled_ops_per_s": ops / sum(scaled),
            # Set-up-only processes do less than a unit, so they cannot peak higher.
            "peak_rss_mb": max(u["peak_rss_kib"] for u in units) / 1024,
        }
        # Unscaled times, for reference only: they follow the machine's drift.
        print(f"{wl.name} wall_s {statistics.median(walls)} s")
        print(f"{wl.name} ops_per_s {ops / sum(walls)} 1/s")
        print(f"{wl.name}: {len(units)} unit(s), {len(setups)} set-ups", file=sys.stderr)
        return (metrics, sum(u["attempted"] for u in units), sum(u["failed"] for u in units))

    def traced(self, wl: workloads.Workload) -> tuple[dict, int, int]:
        base = self.fresh(wl, "warm")
        traced = self.fresh(wl, "traced")
        metrics = traced["metrics"]
        metrics["warm_s"] = base["warm_s"]
        metrics["trace_overhead_ratio"] = traced["wall_s"] / base["wall_s"] - 1
        attempted = base["attempted"] + traced["attempted"]
        failed = base["failed"] + traced["failed"]
        useful = scaling = 0.0
        if not wl.is_sweep:
            workers = workloads.PAR_WORKERS
            par = self.fresh(wl, "cold", workers=workers)
            a, f, problems = workloads.witness_mismatches(base["witnesses"], par["witnesses"])
            for problem in problems:
                print(f"{wl.name}: {problem}", file=sys.stderr)
            attempted += par["attempted"] + a
            failed += par["failed"] + f
            one, many = base["per_query"], par["per_query"]
            for name in sorted(one):
                (t1, n1), (t2, n2) = one[name], many[name]
                nodes = f" nodes {n1}/{n2} = {n1 / n2:.4f}" if n1 is not None else ""
                print(f"{wl.name}: {name}: time {t1:.4f}/({workers}*{t2:.4f}) = "
                      f"{t1 / (workers * t2):.4f}{nodes}")
            exact = [k for k in one if one[k][1] is not None]
            useful = sum(one[k][1] for k in exact) / sum(many[k][1] for k in exact)
            scaling = sum(t for t, _ in one.values()) / (
                workers * sum(t for t, _ in many.values()))
        metrics["oracles.useful_node_ratio"] = useful
        metrics["oracles.scaling_eff"] = scaling
        return metrics, attempted, failed


def run_one(name: str, trace: int, args, runner: Runner) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.get(name, args.tiny)
    runner.deadline = time.monotonic() + DEADLINE_S
    if trace:
        metrics, attempted, failed = runner.traced(wl)
        wanted = spec["per_layer"]
    else:
        metrics, attempted, failed = runner.timed(wl, args.seconds)
        wanted = spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    for key, m in result["metrics"].items():
        print(f"{name} {key} {m['value']} {m['unit']}")
    print(f"{name} failed_ratio {failed / attempted} ratio")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "symcol" / "__init__.py").is_file():
        print(f"run.py: no symcol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(dir=tmp_parent))
    runner = Runner(args.seed, args.tiny, tmp_root)
    if args.workload == "all":
        runs = [(name, trace) for name in workloads.WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    try:
        results = [run_one(name, trace, args, runner) for name, trace in runs]
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        if not any(tmp_parent.iterdir()):
            tmp_parent.rmdir()
    if len(results) == 1:
        (result,) = results
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}.{key}": m for (name, _), r in zip(runs, results)
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
