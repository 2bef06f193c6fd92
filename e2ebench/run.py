#!/usr/bin/env python3
"""Build and run the full-stack Snooze benchmark for one workload.

From the repository root:

    python3 e2ebench/run.py --workload e3_paper --seed 1 --seconds 30 --trace 0

The first call configures and builds bench_e2e together with the src/
libraries in .bench_build/ (Release); later calls only let CMake confirm the
build is current. Build output goes to stderr. The report of bench_e2e goes
to stdout; its last line is the JSON result. With --trace 1 the benchmark-side
spans are also written to .bench_out/<workload>-seed<n>.trace.json.
See e2ebench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("e3_paper", "fleet_10k", "chaos_day")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def call(cmd, timeout, capture):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the snooze sources (src/) are not next to e2ebench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code, _ = call(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, False)
        if code != 0:
            die("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = call(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e", "-j", jobs],
                   BUILD_TIMEOUT_S, False)
    if code != 0:
        die("build failed")
    return os.path.join(BUILD_DIR, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="small shapes of each workload (the benchmark's own test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            OUT_DIR, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    code, out = call(cmd, RUN_TIMEOUT_S, True)
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        die("bench_e2e printed no result line (exit code %d)" % code)
    sys.exit(code)


if __name__ == "__main__":
    main()
