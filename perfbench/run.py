#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and with it the simulator
library in src/) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the arithmetic self-test, then the measuring
program. With --trace 0 it also measures setup_s: the median, over several
fresh processes, of the host time from spawning the program to its first
timed unit. The last line of stdout is the result as one JSON object.
Build output goes to stderr. Exits non-zero if the build, the self-test or
any output check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("npb_consolidated", "web_open_loop", "fuzz_soak")
SETUP_PROBES = 7
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench", "perfbench_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def setup_seconds(binary, workload, seed):
    """Median host seconds from process spawn to the first timed unit."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
             "--setup-only"],
            stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            return None
        times.append(elapsed)
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1
    if subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        log("arithmetic self-test failed")
        return 1

    binary = os.path.join(build_dir, "perfbench")
    setup_s = None
    if args.trace == 0:
        setup_s = setup_seconds(binary, args.workload, args.seed)
        if setup_s is None:
            log("set-up probe failed")
            return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans-out", os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"no result line (exit code {proc.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)
    if setup_s is not None:
        print(f"  setup_s           {setup_s:.6f} s (median of {SETUP_PROBES} fresh processes, "
              "spawn to first timed unit)")
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
