#!/usr/bin/env python3
"""perfbench: the repository's layered end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. It builds the `vex` binary and the
in-process replay (`perfbench/replay`) with cargo, into $CARGO_TARGET_DIR
or `target/`, then runs one workload: sweep_grid, serve_submit, fuzz_diff
or trace_attribute (see perfbench/README.md). The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics for --trace 0 and the per-layer metrics of the
traced replay for --trace 1. Times and rates are each input's best
sample averaged over the run's inputs, `setup_s` the median of its probes.
The line before it is a report with the median, quartiles, sample count
and best of every metric. `--smoke` runs every workload
at minimal size, untraced and traced, with every output check on, and
exits 0 only if all of them pass.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)

# (name, unit, better) — the contract with BENCHMARK.json.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_cycles_per_s", "1/s", "higher"),
    ("request_s", "s", "lower"),
    ("cached_s", "s", "lower"),
]

# Reported beside the result on the workloads that have them.
EXTRAS = [("seeds_per_s", "1/s", "higher"), ("attribute_s", "s", "lower")]

PER_LAYER = [
    ("spec.parse_s", "s", "lower"),
    ("spec.expand_s", "s", "lower"),
    ("spec.points", "count", "lower"),
    ("compile.s", "s", "lower"),
    ("compile.calls", "count", "lower"),
    ("compile.useful_ratio", "ratio", "higher"),
    ("decode.s", "s", "lower"),
    ("decode.calls", "count", "lower"),
    ("engine.new_s", "s", "lower"),
    ("engine.run_s", "s", "lower"),
    ("engine.runs", "count", "lower"),
    ("engine.cycles", "count", "lower"),
    ("engine.ns_per_cycle", "ns", "lower"),
    ("mem.icache.filter_ratio", "ratio", "higher"),
    ("mem.tlb_hit_ratio", "ratio", "higher"),
    ("mem.tlb_walks", "count", "lower"),
    ("mem.dcache.accesses", "count", "lower"),
    ("gen.s", "s", "lower"),
    ("gen.programs", "count", "lower"),
    ("analyze.s", "s", "lower"),
    ("analyze.programs", "count", "lower"),
    ("analyze.clean_ratio", "ratio", "higher"),
    ("oracle.s", "s", "lower"),
    ("oracle.insts", "count", "lower"),
    ("oracle.compare_s", "s", "lower"),
    ("jobs.keys_s", "s", "lower"),
    ("jobs.keys_calls", "count", "lower"),
    ("journal.append_s", "s", "lower"),
    ("journal.appends", "count", "lower"),
    ("emit.s", "s", "lower"),
    ("serve.startup_s", "s", "lower"),
    ("serve.dispatch_s", "s", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.retries", "count", "lower"),
    ("serve.failed_points", "count", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.bytes", "B", "lower"),
    ("trace.sink_s", "s", "lower"),
    ("trace.file_s", "s", "lower"),
    ("trace.read_s", "s", "lower"),
    ("trace.attribute_s", "s", "lower"),
    ("trace.render_s", "s", "lower"),
    ("model.cycles", "cycles", "lower"),
    ("model.ipc", "ops/cycle", "higher"),
    ("model.bin.issue", "cycles", "higher"),
    ("model.bin.dmiss", "cycles", "lower"),
    ("model.bin.imiss", "cycles", "lower"),
    ("model.bin.branch", "cycles", "lower"),
    ("model.bin.memport", "cycles", "lower"),
    ("model.bin.commhold", "cycles", "lower"),
    ("model.bin.conflict", "cycles", "lower"),
    ("model.bin.unslotted", "cycles", "lower"),
    ("model.bin.retired", "cycles", "lower"),
    ("unaccounted_s", "s", "lower"),
    ("traced_total_s", "s", "lower"),
    ("tracing_overhead_s", "s", "lower"),
]


def build():
    """Builds `vex` and the replay; returns their paths. Exits 2 if either
    build fails (for instance outside a checkout of the repository)."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "target")
    target = os.path.join(ROOT, target)
    common = ["cargo", "build", "--release", "--offline", "-q", "--target-dir", target]
    steps = [
        common + ["-p", "vex-asm", "--bin", "vex"],
        common + ["--manifest-path", os.path.join(HERE, "replay", "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    release = os.path.join(target, "release")
    return os.path.join(release, "vex"), os.path.join(release, "perfbench-replay")


def run_workload(name, seed, seconds, traced, size, bins):
    """Runs one workload; returns (result, report)."""
    work = os.path.join(ROOT, ".bench_work", "%s-%d-%d" % (name, seed, os.getpid()))
    os.makedirs(work)
    run = workloads.Run(bins[0], bins[1], work, seed, seconds, traced, size)
    try:
        workloads.WORKLOADS[name](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if traced:
        metrics = {m: {"value": run.layers.get(m, 0.0), "unit": u} for m, u, _ in PER_LAYER}
    else:
        metrics = {m: {"value": end_to_end(run, m, better), "unit": u}
                   for m, u, better in END_TO_END}
    result = {
        "correct": not run.failures,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "summaries": {m: dict(stats.summarize(run.values(m)), unit=unit_of(m),
                              best=run.best(m, better_of(m) == "higher"))
                      for m in sorted(run.samples)},
        "peak_rss_mb": run.rss_mb,
        "failures": run.failures[:10],
    }
    if traced:
        report["layers"] = run.layers
    return result, report


def end_to_end(run, metric, better):
    """A metric's value in the result: the largest resident set for
    `peak_rss_mb`, the median of the set-up probes for `setup_s`, and the
    best sample per input (stats.best) for every time and rate."""
    if metric == "peak_rss_mb":
        return run.rss_mb
    if metric == "setup_s":
        return run.median(metric)
    return run.best(metric, better == "higher")


def unit_of(metric):
    return next((u for m, u, _ in END_TO_END + EXTRAS if m == metric), "s")


def better_of(metric):
    return next((b for m, _, b in END_TO_END + EXTRAS if m == metric), "lower")


def smoke(bins):
    """Every workload at minimal size, untraced and traced, all checks on."""
    ok = True
    for name in workloads.WORKLOADS:
        for traced in (False, True):
            result, report = run_workload(name, 1, 0, traced, "smoke", bins)
            line = "%-16s trace=%d correct=%s attempted=%d failed=%d" % (
                name, traced, result["correct"], result["attempted"], result["failed"])
            print(line + "".join("\n    " + f for f in report["failures"]))
            ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run every workload minimally")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")

    bins = build()
    if args.smoke:
        return smoke(bins)
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  "full", bins)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
