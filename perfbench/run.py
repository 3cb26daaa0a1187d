#!/usr/bin/env python3
"""Build and run the hynapse pipeline benchmark.

    python3 perfbench/run.py --workload table_build --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench (Release) from this checkout into .bench_build/perfbench,
then runs it from the checkout root. Build output goes to stderr; the last
line of stdout is the result JSON (keys correct, attempted, failed,
metrics). --trace 1 runs the traced variant, which prints the per-layer
metrics and writes a Chrome trace under .bench_work/. --selftest builds and
runs the benchmark's own unit tests instead.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("table_build", "serve_mixed", "paper_sweep")


def build(target):
    """Configures (once) and builds `target`; exits non-zero on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("error: the hynapse sources are not next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("error: '%s' failed" % " ".join(cmd))
    return os.path.join(BUILD, target)


def main():
    if sys.argv[1:] == ["--selftest"]:
        binary = build("perfbench_tests")
        return subprocess.run([binary]).returncode
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    binary = build("perfbench")
    os.chdir(ROOT)
    # exec: the benchmark replaces this process, so nothing is left running.
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", repr(args.seconds),
                      "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
