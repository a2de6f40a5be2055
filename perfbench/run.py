#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the engine libraries and the benchmark program from source into
$CARGO_TARGET_DIR (default .bench_build), runs its self-tests, then
one measured run. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
holding the end-to-end metrics of BENCHMARK.json with --trace 0 and its
per-layer metrics with --trace 1. Exits non-zero, without a result line,
when the sources are missing or the build fails, and with exit code 1 when
an output check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout):
    """Runs cmd with stdout sent to stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def no_aslr_prefix():
    """setarch -R runs the benchmark without address-space randomisation: the
    set-up time otherwise moves by up to 1.5x from one process to the next
    with the random heap and library layout."""
    if shutil.which("setarch") and subprocess.run(
            ["setarch", "-R", "true"], capture_output=True).returncode == 0:
        return ["setarch", "-R"]
    return []


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run(["cmake", "-S", "perfbench", "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", build_dir, "--target", "perfbench",
            "perfbench_selftest", "-j", jobs], BUILD_TIMEOUT_S) != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("BENCHMARK.json", "perfbench/CMakeLists.txt",
                   "src/CMakeLists.txt"):
        if not os.path.exists(needed):
            fail(f"{needed} not found; run from the root of a full checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build(build_dir)
    if run([os.path.join(build_dir, "perfbench_selftest")], 60) != 0:
        fail("benchmark self-tests failed")

    cmd = no_aslr_prefix() + [
        os.path.join(build_dir, "perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, f"trace-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"perfbench exited with code {proc.returncode}")
    raw = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            value = 0  # a layer this workload does not run
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
