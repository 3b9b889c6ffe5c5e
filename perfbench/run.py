#!/usr/bin/env python3
"""Builds and runs the mdac end-to-end decision benchmark.

    python3 perfbench/run.py --workload engine_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds
libmdac from src/ together with the benchmark (CMake, RelWithDebInfo)
into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench); later runs
only rebuild what changed. The benchmark's last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. The exit
code is non-zero when the build fails, a check fails, or the run errs.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("engine_hot", "pep_settree", "policy_churn")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds under a lock; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "engine.hpp")):
        sys.exit("perfbench: libmdac sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-8000:])
                sys.exit("perfbench: build step failed: " + " ".join(step))
    return out


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the checker rejects wrong outputs")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build()
    if args.selftest:
        return run([os.path.join(out, "mdac_perfbench_selftest")])
    return run([os.path.join(out, "mdac_perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", str(args.trace),
                "--policies", os.path.join(HERE, "policies")])


if __name__ == "__main__":
    sys.exit(main())
