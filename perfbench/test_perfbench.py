#!/usr/bin/env python3
"""Tests of the perfbench benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the perfbench binary (as run.py does), then checks the percentile
sample rule and metric-name rule, that the binary's metric lists are the
ones BENCHMARK.json names, that every workload prints exactly those
end-to-end metrics, that two seeds generate different inputs but the same
metric names, and that one seed run twice reads the same modeled time on
the workloads whose modeled clock is deterministic. Takes a few minutes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
BATCH = ["table2_paper", "table2_amd_window", "mesh_outofcore"]
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    MANIFEST = json.load(f)
END_TO_END = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}


def run_binary(*args):
    proc = subprocess.run([run.BINARY, *args], cwd=run.ROOT, capture_output=True,
                          text=True, check=False)
    return proc.returncode, proc.stdout


def result(workload, seed, seconds=1, trace=0):
    code, out = run_binary("--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace))
    res = json.loads(out.strip().splitlines()[-1])
    return code, res


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        cls.results = {}

    def run_once(self, workload, seed):
        key = (workload, seed)
        if key not in self.results:
            code, res = result(workload, seed)
            self.assertEqual(code, 0, f"{workload} seed {seed} exited {code}")
            self.results[key] = res
        return self.results[key]

    def check_shape(self, res):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual({name: m["unit"] for name, m in res["metrics"].items()},
                         END_TO_END)
        for name, m in res["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(set(m), {"value", "unit"})
            self.assertGreater(m["value"], 0, name)

    def test_selftest(self):
        code, out = run_binary("--selftest")
        self.assertEqual(code, 0, out)

    def test_manifest_matches_benchmark_json(self):
        code, out = run_binary("--manifest")
        self.assertEqual(code, 0)
        lists = json.loads(out)
        self.assertEqual(list(lists["end_to_end"].items()),
                         [(m["name"], m["unit"]) for m in MANIFEST["end_to_end"]])
        self.assertEqual(list(lists["per_layer"].items()),
                         [(m["name"], m["unit"]) for m in MANIFEST["per_layer"]])

    def test_seeds_change_inputs_not_metric_names(self):
        for workload in BATCH + ["fleet_replay"]:
            digests = {run_binary("--inputs-digest", "--workload", workload,
                                  "--seed", str(seed))[1] for seed in (1, 2)}
            self.assertEqual(len(digests), 2, workload)
        for workload in BATCH:
            a, b = self.run_once(workload, 1), self.run_once(workload, 2)
            self.check_shape(a)
            self.check_shape(b)

    def test_same_seed_same_sim(self):
        for workload in BATCH:
            first = self.run_once(workload, 1)["metrics"]["sim_ms"]["value"]
            _, again = result(workload, 1)
            self.assertEqual(first, again["metrics"]["sim_ms"]["value"], workload)

    def test_fleet_runs_two_passes(self):
        # Two passes of 500 jobs even when one would fill --seconds.
        code, res = result("fleet_replay", 3, seconds=1)
        self.assertEqual(code, 0)
        self.assertEqual(res["attempted"], 1000)
        self.check_shape(res)

    def test_traced_run_prints_every_per_layer_metric(self):
        code, res = result("fleet_replay", 3, trace=1)
        self.assertEqual(code, 0)
        self.assertTrue(res["correct"])
        self.assertEqual({name: m["unit"] for name, m in res["metrics"].items()},
                         {m["name"]: m["unit"] for m in MANIFEST["per_layer"]})
        # The fleet's traced loops have the 1000 jobs its p99 needs.
        self.assertGreater(res["metrics"]["service.job_wall_ms_p99"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
