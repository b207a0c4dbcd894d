#!/usr/bin/env python3
"""Deterministic-counter self-check of the msn benchmark.

    python3 perfbench/test_counters.py [--seed N] [--seconds S]

Run from the repository root.  Makes two traced runs (--trace 1) of every
workload with the same seed and asserts that

  * every run is correct (no failed operation),
  * the DP and service work counters repeat exactly between the two runs,
  * the 30-pin stress net (`msn_cli gen --terminals 30 --seed 4`) still
    does the work recorded when the benchmark was defined.

These counts can gate an algorithmic claim exactly, where wall times
cannot.  Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("dp_nets", "closure_design", "serve_mix")
COUNTERS = (
    "core.mfs.comparisons",
    "core.msri.solutions_generated",
    "core.msri.join_candidates",
    "core.msri.max_set_size",
    "sta.dp_runs",
    "service.dp_runs",
)
# The 30-pin stress net's single RunMsri.
N30_ANCHORS = {
    "comparisons": 355_348_639,
    "solutions_generated": 194_476,
    "max_set_size": 5922,
}


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload}: run failed ({out.returncode})\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()

    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        runs = [traced_run(workload, args.seed, args.seconds)
                for _ in range(2)]
        for i, (_, result) in enumerate(runs):
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} run {i + 1}: {result['attempted']} attempted,"
                  f" {result['failed']} failed")
        first, second = (r[1]["metrics"] for r in runs)
        for name in COUNTERS:
            a, b = first[name]["value"], second[name]["value"]
            check(a == b, f"{workload} {name}: {a:.0f} == {b:.0f}")
        if workload == "dp_nets":
            for detail, _ in runs:
                for name, want in N30_ANCHORS.items():
                    got = detail["n30_counters"][name]
                    check(got == want, f"n30 {name}: {got:.0f} == {want}")
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
