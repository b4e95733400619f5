#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

- every workload runs at the shortest length, untraced and traced, and
  reports a correct result;
- the metric names each run prints are exactly BENCHMARK.json's
  end_to_end names (untraced) or per_layer names (traced), with units;
- serve-short's traced run gives the service layer a share above 0;
- sim_cycles repeats exactly for one seed across two runs, and moves
  with the seed;
- in a directory holding only BENCHMARK.json and the benchmark's own
  files, the command exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, seed=1, trace=0, cwd=ROOT, seconds=1):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):

    def check_run(self, workload, trace):
        proc = run(workload, trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        res = result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        wanted = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
        # The human-readable report names the same metrics.
        printed = {line.split()[1] for line in proc.stdout.splitlines()
                   if line.startswith("metric ")}
        self.assertEqual(printed, {m["name"] for m in wanted})
        return res

    def test_smoke_every_workload(self):
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    res = self.check_run(w["name"], trace)
                    if not trace:
                        for m in BENCH["end_to_end"]:
                            self.assertGreater(
                                res["metrics"][m["name"]]["value"], 0,
                                m["name"])

    def test_service_share_on_serve_short(self):
        # The service's own part of a request is a few percent, so the
        # replay needs a few dozen request pairs to resolve it.
        proc = run("serve-short", trace=1, seconds=8)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertGreater(
            result(proc)["metrics"]["share.service"]["value"], 0)

    def test_sim_cycles_repeat_for_a_seed(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                cycles = [result(run(w["name"], seed=s))["metrics"]
                          ["sim_cycles"]["value"] for s in (7, 7, 8)]
                self.assertEqual(cycles[0], cycles[1])
                self.assertNotEqual(cycles[0], cycles[2])

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path))
            proc = run(BENCH["workloads"][0]["name"], cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
