#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: runs one workload once per
seed, one run at a time, and prints each metric's median and quartiles
across the runs, and the interquartile range as a share of the median —
the figure the bounds in BENCHMARK.json are set against.

    python3 perfbench/spread.py --workload sweep_grid --seeds 1-10 --seconds 20
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    ap.add_argument("--seconds", default="20")
    args = ap.parse_args()

    values = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit("seed %d: exit %d\n%s" % (seed, done.returncode, done.stderr[-2000:]))
        result = json.loads(lines[-1])
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.4g" % (k, m["value"]) for k, m in result["metrics"].items())),
            flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("%-18s %12s %12s %12s %8s" % ("metric", "q1", "median", "q3", "spread"))
    for name, xs in values.items():
        s = stats.summarize(xs)
        print("%-18s %12.6g %12.6g %12.6g %8.4f" % (
            name, s["q1"], s["median"], s["q3"], stats.spread(xs)))


if __name__ == "__main__":
    main()
