#!/usr/bin/env python3
"""Repeat the benchmark over seeds and record how steady it is.

    python3 perfbench/steadiness.py --runs 10 --first-seed 101

Runs perfbench/run.py --trace 0 on every workload of BENCHMARK.json, once
per seed, for run_seconds each. For every end-to-end metric it keeps the ten
values, their median and quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median, and compares the spread with the metric's bound:
a spread above bound/3 is flagged. The record, with the environment line of
the first run and every run's op count and wall time, is written as JSON
(default perfbench/steadiness.json).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d\n%s" % (workload, seed, proc.stderr))
    env = next((l[4:] for l in lines if l.startswith("env ")), "{}")
    return json.loads(lines[-1]), json.loads(env), time.monotonic() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", default=os.path.join(HERE, "steadiness.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    record = {"run_seconds": spec["run_seconds"], "runs": args.runs,
              "seeds": list(range(args.first_seed,
                                  args.first_seed + args.runs)),
              "workloads": {}}
    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        ops = []
        wall_s = []
        for seed in record["seeds"]:
            result, env, wall = run_once(workload, seed, spec["run_seconds"])
            wall_s.append(round(wall, 1))
            record.setdefault("env", env)
            if not result["correct"] or result["failed"]:
                sys.exit("incorrect result: %s seed %d" % (workload, seed))
            ops.append(result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d (%d ops, %.0f s): %s" % (
                workload, seed, ops[-1], wall, " ".join(
                    "%s=%.4g" % (n, v[-1]) for n, v in values.items())),
                  flush=True)
        summary = {"ops": ops, "wall_s": wall_s}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread <= bounds[name] / 3
            steady = steady and (ok or name == "setup_s")
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds[name],
                             "below_third_of_bound": ok, "values": vals}
            print("  %-18s median %.5g  IQR/median %.4f  bound %.2f %s" % (
                name, med, spread, bounds[name], "" if ok else "<-- noisy"))
        record["workloads"][workload] = summary
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
