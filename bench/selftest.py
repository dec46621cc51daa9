"""Self-test of the benchmark harness on tiny inputs (orders up to 5, two
cheap oracle queries).

    python3 bench/selftest.py

It checks that every run prints every metric BENCHMARK.json names, with its
unit, and that the correctness gates trip when an expected value is
perturbed.  It takes under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import work  # noqa: E402  (puts the checkout's src on sys.path)
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class MetricsEmitted(unittest.TestCase):
    def check(self, trace: int, kind: str) -> None:
        wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                lines, result = _run(name, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), set(wanted))
                for metric, unit in wanted.items():
                    got = result["metrics"][metric]
                    self.assertEqual(got["unit"], unit)
                    self.assertIsInstance(got["value"], (int, float))
                    if not trace:
                        self.assertGreater(got["value"], 0, metric)
                    self.assertIn(f"{name} {metric} {got['value']} {unit}", lines)
                self.assertIn(f"{name} failed_ratio 0.0 ratio", lines)

    def test_end_to_end(self) -> None:
        self.check(0, "end_to_end")

    def test_per_layer(self) -> None:
        self.check(1, "per_layer")


class GatesTrip(unittest.TestCase):
    def setUp(self) -> None:
        (ROOT / ".bench_tmp").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))

    def tearDown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_sweep_gate(self) -> None:
        for name in ("dist-sweep", "chain-sweep"):
            wl = workloads.get(name, tiny=True)
            work.run_sweeps(wl, self.tmp / name, "", 1)
            self.assertEqual(work.judge_sweeps(wl, self.tmp / name, "")[1], 0)
            perturbed = dict(workloads.CONNECTED_COUNTS)
            perturbed[5] += 1
            with mock.patch.object(workloads, "CONNECTED_COUNTS", perturbed):
                self.assertGreater(work.judge_sweeps(wl, self.tmp / name, "")[1], 0, name)
        wl = workloads.get("chain-sweep", tiny=True)
        report = self.tmp / "chain-sweep" / "2.11.jsonl"
        records = [json.loads(line) for line in report.read_text().splitlines()]
        records[-1]["verdict"] = "not-applicable"
        self.assertEqual(workloads.sweep_failures(wl, "2.11", records)[1], 1)

    def test_oracle_gate(self) -> None:
        wl = workloads.get("oracle-exact", tiny=True)
        graphs = work.build_graphs()
        outcomes = lambda: [work.run_queries(wl.queries, graphs, 1)[1]]  # noqa: E731
        self.assertEqual(work.judge_queries(wl, outcomes(), graphs)[0][1], 0)
        q = wl.queries[0]
        bumped = dataclasses.replace(wl, queries=(dataclasses.replace(q, value=q.value + 1),
                                                  *wl.queries[1:]))
        self.assertEqual(work.judge_queries(bumped, outcomes(), graphs)[0][1], 1)
        # A parallel witness that differs from the one-worker witness fails.
        _, witnesses = work.judge_queries(wl, outcomes(), graphs)
        self.assertEqual(workloads.witness_mismatches(witnesses, dict(witnesses))[1], 0)
        self.assertEqual(workloads.witness_mismatches(witnesses, {**witnesses, q.name: "{}"})[1], 1)


if __name__ == "__main__":
    unittest.main()
