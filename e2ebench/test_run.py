#!/usr/bin/env python3
"""The benchmark's own test: each workload runs in its --quick shape, untraced
and traced, and every metric BENCHMARK.json declares must be printed by name
with its unit, both in the metric table and in the final JSON line.

From the repository root:

    python3 e2ebench/test_run.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("e3_paper", "fleet_10k", "chaos_day")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_quick(workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=1200)


class QuickWorkloads(unittest.TestCase):
    def check(self, workload, trace):
        spec = load_spec()
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        proc = run_quick(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:] + proc.stderr[-4000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

        declared = spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        table = [line.replace("|", " ").split() for line in lines[:-1]]
        for metric in declared:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float), metric["name"])
            self.assertTrue(
                any(row[:1] == [metric["name"]] and metric["unit"] in row for row in table),
                "table row missing for " + metric["name"])
        if trace:
            path = os.path.join(ROOT, ".bench_out", workload + "-seed3.trace.json")
            with open(path) as f:
                names = {e["name"] for e in json.load(f)["traceEvents"]}
            self.assertTrue({"setup.construct", "setup.start", "setup.stabilize",
                             "run.slice", "offline.incidents", "offline.export"} <= names)

    def test_e3_paper(self):
        self.check("e3_paper", 0)

    def test_e3_paper_traced(self):
        self.check("e3_paper", 1)

    def test_fleet_10k(self):
        self.check("fleet_10k", 0)

    def test_fleet_10k_traced(self):
        self.check("fleet_10k", 1)

    def test_chaos_day(self):
        self.check("chaos_day", 0)

    def test_chaos_day_traced(self):
        self.check("chaos_day", 1)


if __name__ == "__main__":
    unittest.main()
