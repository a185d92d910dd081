#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced, on tiny
inputs for one second. Checks that the run is correct, that ok_frac is 1 and
that every metric BENCHMARK.json names is printed with its unit.

    python3 perfbench/test_smoke.py        (from the repository root)
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{r.returncode}:\n{r.stdout[-3000:]}")
    return json.loads(lines[-1]), r.stdout


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        s = spec()
        result, out = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = s["per_layer"] if trace else s["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        if not trace:
            self.assertEqual(result["metrics"]["ok_frac"]["value"], 1)
            for m in wanted:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])


def _add(workload, trace):
    setattr(Smoke, f"test_{workload}_trace{trace}",
            lambda self: self.check(workload, trace))


for _w in [w["name"] for w in spec()["workloads"]]:
    for _t in (0, 1):
        _add(_w, _t)


if __name__ == "__main__":
    unittest.main()
