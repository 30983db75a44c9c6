#!/usr/bin/env python3
"""End-to-end benchmark of cgq: builds the benchmark binary from this
checkout's sources, runs one workload in its own process and prints the
result.

    python3 perfbench/run.py --workload geo_report --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout. The build goes to `.bench_build/` there.
With `--trace 0` the result's metrics are the end-to-end metrics of
BENCHMARK.json; with `--trace 1` they are its per-layer metrics, and the
spans of the traced run are written as Chrome trace JSON (`--trace-out`,
default `.bench_build/trace-<workload>-<seed>.json`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every output check passed and the printed metrics are exactly the
ones BENCHMARK.json declares, with the same units.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BINARY = os.path.join(CMAKE_DIR, "cgq_perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configures (once) and builds the benchmark binary; build output goes
    to stderr so standard output stays the benchmark's own."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("no cgq sources in %s (missing %s)" % (ROOT, required))
    os.makedirs(CMAKE_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "cgq_perfbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def check_metrics(result, expected):
    """The result must carry exactly the declared metrics and units, each a
    finite number."""
    keys = ["correct", "attempted", "failed", "metrics"]
    if sorted(result) != sorted(keys):
        return "result keys %s, expected %s" % (sorted(result), keys)
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if sorted(metrics) != sorted(want):
        return "metrics %s, expected %s" % (sorted(metrics), sorted(want))
    for name, m in metrics.items():
        if m.get("unit") != want[name]:
            return "metric %s has unit %r, expected %r" % (
                name, m.get("unit"), want[name])
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(
                m["value"]):
            return "metric %s is not a finite number" % name
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    build()

    traced = args.trace == "1"
    trace_out = args.trace_out or os.path.join(
        BUILD_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
    scratch = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scratch", scratch]
    if traced:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, code=3)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        fail("benchmark exited with code %d" % proc.returncode, code=1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(stdout)
        fail("no result line", code=4)
    problem = check_metrics(
        result, spec["per_layer"] if traced else spec["end_to_end"])
    if problem is None and not traced:
        zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
        if zero:
            problem = "end-to-end metrics read 0: %s" % ", ".join(zero)
    if problem is None and not result["correct"]:
        problem = "output checks failed"
    if problem is None and result["failed"]:
        problem = "%d of %d ops failed" % (result["failed"],
                                           result["attempted"])
    if problem is not None:
        sys.stderr.write(stdout)
        fail(problem, code=4)
    if traced:
        print("trace written to %s" % os.path.relpath(trace_out, ROOT))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
