#!/usr/bin/env python3
"""The benchmark's own tests: short runs of every workload through
run.py, as the benchmark is run for real.

    python3 perfbench/test_perfbench.py

Checks that
  - a minimal-length run of each workload passes its output checks, with
    and without tracing, and the traced run writes a Chrome trace;
  - the metric names and units printed are exactly those of
    BENCHMARK.json (run.py refuses any other set);
  - two runs on the same seed print identical deterministic counts
    (shipped bytes, storage blocks read, result and decision digests,
    reject ratio, plan-cache hits).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, trace_out=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    return proc


def deterministic_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("deterministic "):
            return json.loads(line[len("deterministic "):])
    raise AssertionError("no deterministic line in:\n" + stdout)


class PerfbenchTest(unittest.TestCase):

    def check_result(self, proc, expected):
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            [(n, m["unit"]) for n, m in result["metrics"].items()],
            [(m["name"], m["unit"]) for m in expected])
        return result

    def test_untraced_runs_are_correct_and_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, 7, 0)
                result = self.check_result(first, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                second = run(workload, 7, 0)
                self.check_result(second, SPEC["end_to_end"])
                self.assertEqual(deterministic_line(first.stdout),
                                 deterministic_line(second.stdout))

    def test_traced_runs_write_spans(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = os.path.join(ROOT, ".bench_build",
                                   "test-trace-%s.json" % workload)
                proc = run(workload, 3, 1, trace_out=out)
                self.check_result(proc, SPEC["per_layer"])
                self.assertIn("per-layer self time", proc.stdout)
                with open(out) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                self.assertTrue(all(e["ph"] == "X" and e["dur"] >= 0
                                    for e in events))
                os.remove(out)

    def test_same_seed_traced_and_untraced_agree(self):
        # The traced run drives the layers one by one; its deterministic
        # counts must equal those of the untraced run on the same seed.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                plain = run(workload, 11, 0)
                traced = run(workload, 11, 1)
                self.assertEqual(plain.returncode, 0, plain.stderr[-4000:])
                self.assertEqual(traced.returncode, 0, traced.stderr[-4000:])
                self.assertEqual(deterministic_line(plain.stdout),
                                 deterministic_line(traced.stdout))


if __name__ == "__main__":
    unittest.main()
