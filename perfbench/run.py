#!/usr/bin/env python3
"""Repository benchmark: build dcl1perf from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere inside a full checkout. The simulator is compiled
from ../src as a Release build with DCL1_CHECK=OFF into
.bench_build/perfbench at the checkout root (build output goes to
stderr), then dcl1perf runs one workload and its stdout is passed
through: the last line is the result JSON. `--workload all` runs every
workload untraced and traced, and exits 0 only if every run is correct.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("baseline-alexnet", "dcl1-alexnet", "baseline-stream")


def timeout_s(seconds):
    """A run takes --seconds plus a few seconds of set-up, checks and
    layer drivers; the timeout only ends a hung child."""
    return 2 * seconds + 60


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "gpu_system.hh")):
        sys.exit("perfbench: simulator sources not found at "
                 f"{os.path.join(ROOT, 'src')}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    )
    # Keep the compiler's temporary files inside the build directory.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "dcl1perf")


def run(binary, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s(seconds))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} exceeded {timeout_s(seconds)} s")
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.workload != "all":
        code, out = run(binary, args.workload, args.seed, args.seconds,
                        args.trace)
        sys.stdout.write(out)
        return code

    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run(binary, workload, args.seed, args.seconds, trace)
            sys.stdout.write(out)
            if code:
                return code
            all_correct &= json.loads(out.splitlines()[-1])["correct"]
    print("all workloads correct" if all_correct else "INCORRECT results")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
