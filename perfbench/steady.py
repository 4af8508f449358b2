#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py --workload fleet --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) and
prints, for every end-to-end metric, the median of the runs and the
quartile spread (Q3 - Q1) / median next to the bound BENCHMARK.json sets.
Exits 1 when any run fails or reports incorrect output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import quartile_spread  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode, proc.stderr[-2000:]))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append("%s=%.6g" % (name, m["value"]))
        print("seed %d: correct=%s %s" % (seed, result["correct"], " ".join(row)))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, xs in values.items():
        spread = quartile_spread(xs) if len(xs) >= 2 else float("nan")
        print("%-16s median %12.6g  spread %6.3f  bound %.3f%s"
              % (name, statistics.median(xs), spread, bounds.get(name, 0),
                 "" if spread < bounds.get(name, 0) / 3 else "  (above bound/3)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
