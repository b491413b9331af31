#!/usr/bin/env python3
"""Appends one entry to BENCH_e2e.json, the trend record of perfbench's
untraced end-to-end numbers.

    python3 scripts/bench_e2e.py

Runs `python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0`
three times for every workload that BENCHMARK.json lists, with S its
`run_seconds`, and records for each workload and each end-to-end metric
the mean, the sample standard deviation and the unit of the three runs,
stamped with `git describe --always --dirty`, the UTC date and the CPU.
If any run fails, is not correct or reports a failed operation, nothing
is written and the exit status is 1. The record is a history, not a
baseline: regressions are judged by `bench-gate`, which times the parent
and the change on one host.
"""

import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "BENCH_e2e.json")
SEED = 1
RUNS = 3


def perfbench(workload, seconds):
    """One untraced perfbench run; its result line, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("bench_e2e: `%s` exited %d" % (" ".join(cmd), proc.returncode), file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        print("bench_e2e: %s: correct=%s, %d of %d operations failed; the report: %s"
              % (workload, result["correct"], result["failed"], result["attempted"],
                 lines[-2] if len(lines) > 1 else "none"), file=sys.stderr)
        return None
    return result


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = [(m["name"], m["unit"]) for m in bench["end_to_end"]]

    workloads = {}
    for w in (w["name"] for w in bench["workloads"]):
        results = []
        for run in range(1, RUNS + 1):
            print("bench_e2e: %s, run %d of %d" % (w, run, RUNS), file=sys.stderr)
            result = perfbench(w, seconds)
            if result is None:
                print("bench_e2e: nothing written", file=sys.stderr)
                return 1
            results.append(result)
        workloads[w] = {}
        for name, unit in metrics:
            values = [r["metrics"][name]["value"] for r in results]
            workloads[w][name] = {
                "mean": float("%.4g" % statistics.mean(values)),
                "stddev": float("%.4g" % statistics.stdev(values)),
                "unit": unit,
            }

    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True).stdout.strip()
    entry = {
        "commit": commit or "unknown",
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d"),
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "seed": SEED,
        "runs": RUNS,
        "seconds": seconds,
        "workloads": workloads,
    }
    history = []
    if os.path.exists(RECORD):
        with open(RECORD) as f:
            history = json.load(f)
    history.append(entry)
    with open(RECORD, "w") as f:
        json.dump(history, f, indent=2)
        f.write("\n")
    print("bench_e2e: appended the entry for %s to BENCH_e2e.json" % entry["commit"],
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
