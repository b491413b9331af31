"""The four workloads.

Every run has the same shape: the in-process replay (the reference
outputs the checks compare against; the layer spans when the run is
traced), then cold `vex` processes sampled for `--seconds`, each checked
as it finishes, with the set-up probes spread among them. A failed
process or a wrong output counts one failed operation. At most one
simulation thread and one serve worker run at a time, so no more than two
processes are busy on a 2-vCPU host.
"""

import json
import os
import re
import socket
import time
from pathlib import Path

import proc
import stats

# Every mix of Figure 13(b), in the paper's order.
MIXES = ["llll", "lmmh", "mmmm", "llmm", "llmh", "llhh", "lmhh", "mmhh", "hhhh"]

# serve_submit's points have four threads, and its specs alternate between
# these technique halves (and the mixes): with one program per hardware
# thread the scheduler seed cannot change a point's work, so fresh seeds
# keep keys distinct without making requests differ in cost.
SERVE_THREADS = [4]
TECH_HALVES = [("CSMT", "CCSI AS", "COSI AS", "OOSI AS"), ("SMT", "CCSI NS", "COSI NS", "OOSI NS")]

# sweep_grid's samples alternate between grids at this many spec seeds.
SWEEP_SEEDS = 2

# trace_attribute's points: a stall-heavy low-ILP mix, a middle one and an
# issue-heavy high-ILP mix, each on four threads.
TRACE_POINTS = [("llll", "CSMT"), ("lmhh", "COSI NS"), ("hhhh", "OOSI AS")]

# Sizes of one run. `smoke` runs every workload minimally, checks on.
# Set-up probes and resumed sweeps (`cached`) run with every sample or
# session rather than in a block: the host's speed drifts over seconds,
# and short calls timed all at once would see one moment of it instead of
# the run's.
SIZES = {
    "full": {
        "min_samples": 4, "cached": 4,
        "sweep_mixes": MIXES, "sweep_techs": None, "sweep_threads": [2, 4],
        "serve_specs": 8, "serve_probes": 10, "min_sessions": 3,
        "fuzz_seeds": 500, "fuzz_probes": 3,
        "trace_points": TRACE_POINTS, "trace_scale": "paper", "trace_threads": 4,
    },
    "smoke": {
        "min_samples": 2, "cached": 1,
        "sweep_mixes": ["llll"], "sweep_techs": ["CSMT", "OOSI AS"], "sweep_threads": [2],
        "serve_specs": 2, "serve_probes": 1, "min_sessions": 1,
        "fuzz_seeds": 3, "fuzz_probes": 1,
        "trace_points": TRACE_POINTS[:1], "trace_scale": "quick", "trace_threads": 2,
    },
}

WALL_FIELD = re.compile(r'"wall_secs": [0-9.]+')
SUBMIT_LINE = re.compile(r"(\d+) points \S+ (\d+) cached, (\d+) newly scheduled, (\d+) failed")


def mask_wall(text):
    """A sweep JSON document with every wall time zeroed, as `--zero-wall`
    prints it."""
    return WALL_FIELD.sub('"wall_secs": 0.000000', text)


def derive(seed, salt):
    """A deterministic 30-bit value from the workload seed (splitmix64)."""
    z = (seed * 0x9E3779B97F4A7C15 + salt * 0xBF58476D1CE4E5B9 + 1) & (2**64 - 1)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return (z ^ (z >> 31)) & (2**30 - 1)


def spec_text(name, scale, seed, mixes, techniques=None, threads=None, inst_limit=None):
    """A sweep spec in the repository's TOML subset."""
    lines = ['name = "%s"' % name, 'scale = "%s"' % scale]
    if inst_limit is not None:
        lines.append("inst_limit = %d" % inst_limit)
    lines.append("seed = %d" % seed)
    if threads:
        lines.append("threads = [%s]" % ", ".join(str(t) for t in threads))
    if techniques:
        lines.append("techniques = [%s]" % ", ".join('"%s"' % t for t in techniques))
    lines.append("mixes = [%s]" % ", ".join('"%s"' % m for m in mixes))
    return "\n".join(lines) + "\n"


class Run:
    """One benchmark run: where it works, what it has measured, and the
    operations it attempted and saw fail."""

    def __init__(self, vex, replay, work, seed, seconds, traced, size):
        self.vex_bin = str(vex)
        self.replay_bin = str(replay)
        self.work = Path(work)
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.size = SIZES[size]
        self.attempted = 0
        self.failures = []
        self.samples = {}
        self.rss_mb = 0.0
        self.layers = {}
        self._n = 0

    def path(self, name):
        return str(self.work / name)

    def fresh(self, name):
        """The path of output file `name`, removed if an earlier sample left
        it: rewriting a file in place makes ext4 write it back to disk on
        close (`auto_da_alloc`), and that I/O would land in the samples."""
        path = self.path(name)
        if os.path.exists(path):
            os.remove(path)
        return path

    def write(self, name, text):
        path = self.path(name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def log(self, tag):
        self._n += 1
        return self.path("%04d-%s" % (self._n, tag))

    def add(self, metric, value, key=None):
        """Records one sample of `metric`; `key` names its input when the
        run measures inputs of different cost (grids, points, spec slots)."""
        self.samples.setdefault(metric, {}).setdefault(key, []).append(value)

    def values(self, metric):
        """Every sample of a metric, over all its inputs."""
        return [v for vs in self.samples.get(metric, {}).values() for v in vs]

    def median(self, metric):
        """The median of a metric's samples so far (0.0 without any)."""
        return stats.summarize(self.values(metric) or [0.0])["median"]

    def best(self, metric, higher=False):
        """The metric's best sample of each input, averaged over the inputs
        (0.0 without any samples); see stats.best."""
        return stats.best(self.samples.get(metric, {}).values(), higher)

    def op(self, done, tag, check=None):
        """Accounts one finished process: it fails on a non-zero exit or
        when `check(done)` names a problem. Returns whether it passed."""
        self.attempted += 1
        problem = None
        if done.code != 0:
            problem = "exit %d: %s" % (done.code, done.stderr.strip()[-400:])
        elif check is not None:
            problem = check(done)
        if problem:
            self.failures.append("%s: %s" % (tag, problem))
            return False
        return True

    def vex(self, args, tag, check=None):
        """Runs `vex ARGS...` cold; returns the measurement if it passed.
        Its peak resident set counts toward `peak_rss_mb`."""
        done = proc.run([self.vex_bin] + args, self.log(tag))
        self.rss_mb = max(self.rss_mb, done.rss_mb)
        return done if self.op(done, tag, check) else None

    def replay(self, args, tag):
        """Runs the in-process replay; returns the measurement if it passed.
        The replay is the benchmark's own process: its memory is not the
        program's, so it stays out of `peak_rss_mb`."""
        done = proc.run([self.replay_bin] + args, self.log(tag), timeout=170)
        return done if self.op(done, tag) else None

    def sample_loop(self, minimum, body, step=1):
        """Calls `body(i)` for about `--seconds`: at least `minimum` times, a
        whole number of `step`s, and not once more when less than half a
        sample's time is left."""
        started = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - started
            if i >= max(minimum, 1) and i % step == 0 and elapsed + elapsed / i / 2 >= self.seconds:
                return
            body(i)
            i += 1

    def trace_layers(self, spans_path, untraced_s, reference_engine_s=0.0):
        """Per-layer metrics from a replay's spans (traced runs only)."""
        with open(spans_path) as f:
            doc = json.load(f)
        try:
            layers, total, calls = stats.layer_ledger(doc["spans"])
        except ValueError as e:
            self.failures.append("trace: %s" % e)
            return
        counts = doc["counts"]
        c = lambda name: counts.get(name, 0)
        m = {name: layers.get(name, 0) / 1e9 for name in stats.SELF_TIME_METRICS}
        m["unaccounted_s"] = layers.get("unaccounted_s", 0) / 1e9
        m["traced_total_s"] = total / 1e9
        m["tracing_overhead_s"] = total / 1e9 - untraced_s
        m["spec.points"] = c("spec.points")
        m["compile.calls"] = calls.get("compile", 0)
        m["compile.useful_ratio"] = stats.ratio(c("compile.distinct"), calls.get("compile", 0))
        m["decode.calls"] = calls.get("decode", 0)
        m["engine.runs"] = calls.get("engine.run", 0)
        m["engine.cycles"] = c("engine.cycles")
        m["engine.ns_per_cycle"] = stats.ratio(m["engine.run_s"] * 1e9, c("engine.cycles"))
        m["mem.icache.filter_ratio"] = stats.ratio(c("mem.icache.filter_hits"), c("mem.icache.accesses"))
        m["mem.tlb_hit_ratio"] = stats.ratio(c("mem.tlb_hits"), c("mem.tlb_hits") + c("mem.tlb_walks"))
        m["mem.tlb_walks"] = c("mem.tlb_walks")
        m["mem.dcache.accesses"] = c("mem.dcache.accesses")
        m["gen.programs"] = calls.get("gen", 0)
        m["analyze.programs"] = c("analyze.programs")
        m["analyze.clean_ratio"] = stats.ratio(c("analyze.clean"), c("analyze.programs"))
        m["oracle.insts"] = c("oracle.insts")
        m["jobs.keys_calls"] = calls.get("jobs.key", 0)
        m["journal.appends"] = calls.get("journal.append", 0)
        m["trace.events"] = c("trace.events")
        m["trace.bytes"] = c("trace.bytes")
        m["trace.sink_s"] = m["engine.run_s"] - reference_engine_s if c("trace.events") else 0.0
        m["model.cycles"] = c("model.cycles")
        m["model.ipc"] = stats.ratio(c("model.ops"), c("model.cycles"))
        for b in ("issue", "dmiss", "imiss", "branch", "memport", "commhold", "conflict",
                  "unslotted", "retired"):
            m["model.bin." + b] = c("model.bin." + b)
        self.layers.update(m)


# ---- sweep_grid -----------------------------------------------------------

def sweep_grid(run):
    """One cold `vex sweep --workers 1` of the quick-scale paper grid. The
    samples alternate between grids at two spec seeds drawn from the
    workload seed: the 2-thread points' cost depends on the scheduler seed
    (about 7% between seeds), and two inputs per run shrink that share of
    the run-to-run spread."""
    z = run.size
    mixes, techs, threads = z["sweep_mixes"], z["sweep_techs"], z["sweep_threads"]
    grids = [run.write("grid-%d.toml" % k,
                       spec_text("grid", "quick", derive(run.seed, 1 + 10 * k), mixes, techs,
                                 threads))
             for k in range(SWEEP_SEEDS)]
    probe = run.write("probe.toml", spec_text("grid", "quick", derive(run.seed, 1), mixes, techs,
                                              threads, inst_limit=1))
    journal, spans = run.path("grid.vexj"), run.path("spans.json")
    if not run.replay(["sweep", spans, journal, str(run.work)] + grids, "replay"):
        return
    expected = []
    for k in range(len(grids)):
        with open(run.path("grid-%d.json" % k)) as f:
            expected.append(f.read())
    n_points = expected[0].count('"mix":')

    def check_cached(done):
        with open(run.path("cached.json")) as f:
            if f.read() != expected[0]:
                return "resumed sweep JSON differs from the in-process replay's to_json"
        if "(%d replayed from the journal)" % n_points not in done.stderr:
            return "not every point was replayed from the journal"
        return None

    def sample(i):
        k = i % len(grids)

        def check(done):
            with open(run.path("sample.json")) as f:
                text = f.read()
            if mask_wall(text) != expected[k]:
                return "sweep JSON differs from the in-process replay's to_json"
            doc = json.loads(text)
            cycles = sum(p["cycles"] for p in doc["points"])
            run.add("sim_cycles_per_s", cycles / sum(p["wall_secs"] for p in doc["points"]), k)
            return None

        done = run.vex(["sweep", grids[k], "--workers", "1", "--out", run.fresh("sample.json")],
                       "sweep", check)
        if done:
            run.add("wall_s", done.wall, k)
            run.add("cpu_s", done.cpu, k)
            run.add("request_s", done.wall, k)
        for _ in range(z["cached"]):
            done = run.vex(["sweep", grids[0], "--workers", "1", "--journal", journal, "--resume",
                            "--zero-wall", "--out", run.fresh("cached.json")], "resume",
                           check_cached)
            if done:
                run.add("cached_s", done.wall)
        done = run.vex(["sweep", probe, "--workers", "1", "--out", run.fresh("probe.json")],
                       "probe")
        if done:
            run.add("setup_s", done.wall)

    run.sample_loop(z["min_samples"], sample, step=len(grids))

    if run.traced:
        run.trace_layers(spans, run.best("wall_s"))


# ---- serve_submit ---------------------------------------------------------

def serve_submit(run):
    """Closed-loop `vex submit` against `vex serve --workers 1`: distinct
    cold specs, then each one resubmitted unchanged."""
    z = run.size
    cold_specs = []
    live = {"cached": 0, "points": 0, "retries": 0, "failed_points": 0}
    first_session = {}

    def session(s):
        for i in range(z["serve_probes"]):
            serve_session(run, "probe%d-%d" % (s, i), [], live)
        specs = []
        for i in range(z["serve_specs"]):
            name = "s%02d-%02d" % (s, i)
            text = spec_text(name, "quick", derive(run.seed, 1000 + 100 * s + i), [MIXES[i % 9]],
                             TECH_HALVES[i % 2], SERVE_THREADS)
            specs.append(run.write(name + ".toml", text))
        cold_specs.extend(specs)
        latency = serve_session(run, s, specs, live)
        if s == 0 and latency is not None:
            first_session.update(latency=latency, specs=specs)

    run.sample_loop(z["min_sessions"], session)

    ref_dir = run.work / "ref"
    ref_dir.mkdir(exist_ok=True)
    if run.replay(["serve-check", str(ref_dir)] + cold_specs, "serve-check"):
        for spec in cold_specs:
            stem = Path(spec).stem
            with open(ref_dir / (stem + ".json")) as f:
                expected = f.read()
            try:
                with open(run.path(stem + ".cold.json")) as f:
                    got = f.read()
            except OSError:
                continue  # the submission itself already failed
            if mask_wall(got) != expected:
                run.failures.append("%s: served outcome differs from an in-process SweepRunner run"
                                    % stem)

    if run.traced and first_session:
        spans = run.path("spans.json")
        if run.replay(["serve", spans, run.path("replay.vexj")] + first_session["specs"],
                      "replay"):
            run.trace_layers(spans, run.best("wall_s"))
            if "traced_total_s" in run.layers:
                run.layers["serve.dispatch_s"] = (first_session["latency"]
                                                  - run.layers["traced_total_s"])
    run.layers["serve.startup_s"] = run.median("setup_s")
    run.layers["serve.cache_hit_ratio"] = stats.ratio(live["cached"], live["points"])
    run.layers["serve.retries"] = live["retries"]
    run.layers["serve.failed_points"] = live["failed_points"]


def serve_session(run, s, specs, live):
    """Starts a server, waits for its worker, submits `specs` cold and then
    again, and drains it. Returns the session's summed request latency."""
    journal, port_file = run.path("serve-%s.vexj" % s), run.path("port-%s" % s)
    log = run.log("serve")
    started = time.perf_counter()
    server = proc.spawn([run.vex_bin, "serve", "--workers", "1", "--journal", journal,
                         "--port-file", port_file], log)
    try:
        addr = wait_ready(server, port_file)
        if addr is None:
            run.attempted += 1
            run.failures.append("serve: no worker connected within 30 s")
            return None
        run.add("setup_s", time.perf_counter() - started)
        if not specs:
            return None
        pool = [server.pid] + proc.children(server.pid)
        cpu0 = sum(proc.cpu_seconds(p) for p in pool)
        t0 = time.perf_counter()
        client_cpu, latency = 0.0, 0.0
        cycles = sim = 0.0
        for phase in ("cold", "cached"):
            for slot, spec in enumerate(specs):
                out = run.path(Path(spec).stem + "." + phase + ".json")

                def check(done, phase=phase, out=out, spec=spec):
                    m = SUBMIT_LINE.search(done.stderr)
                    if not m:
                        return "no submission summary on stderr"
                    total, cached, _new, failed = (int(g) for g in m.groups())
                    live["points"] += total
                    live["cached"] += cached
                    live["failed_points"] += failed
                    if phase == "cached":
                        if cached != total:
                            return "resubmission recomputed %d point(s)" % (total - cached)
                        with open(out) as a, open(run.path(Path(spec).stem + ".cold.json")) as b:
                            if a.read() != b.read():
                                return "resubmission answered differently from the first"
                    return None

                done = run.vex(["submit", spec, "--connect", addr, "--out", out, "--poll-ms", "2"],
                               "submit-" + phase, check)
                if not done:
                    continue
                client_cpu += done.cpu
                latency += done.wall
                run.add("request_s" if phase == "cold" else "cached_s", done.wall, slot)
                if phase == "cold":
                    with open(out) as f:
                        points = json.load(f)["points"]
                    cycles += sum(p["cycles"] for p in points)
                    sim += sum(p["wall_secs"] for p in points)
        run.add("wall_s", time.perf_counter() - t0)
        pool = [server.pid] + proc.children(server.pid)
        run.add("cpu_s", sum(proc.cpu_seconds(p) for p in pool) - cpu0 + client_cpu)
        run.rss_mb = max([run.rss_mb] + [proc.peak_rss_mb(p) for p in pool])
        if sim > 0:
            run.add("sim_cycles_per_s", cycles / sim)
        return latency
    finally:
        done = proc.stop(server, started, log)
        run.attempted += 1
        live["retries"] += done.stderr.count("lost point") + done.stderr.count("reaping worker")
        if done.code != 0:
            run.failures.append("serve: exit %d: %s" % (done.code, done.stderr.strip()[-400:]))
        for pid in proc.children(server.pid):
            proc.kill(pid)


def wait_ready(server, port_file, timeout=30.0):
    """Polls until the server has written its address and its worker's
    connection is established; returns the address, or None."""
    deadline = time.perf_counter() + timeout
    addr = None
    while time.perf_counter() < deadline and proc.alive(server.pid):
        if addr is None:
            try:
                with open(port_file) as f:
                    addr = f.read().strip() or None
            except OSError:
                pass
        if addr is not None and proc.tcp_established(
                int(addr.rsplit(":", 1)[1]),
                socket.AF_INET6 if addr.startswith("[") else socket.AF_INET):
            return addr
        time.sleep(0.0005)
    return None


# ---- fuzz_diff ------------------------------------------------------------

def fuzz_diff(run):
    """Cold `vex fuzz` over a seed range on the paper machine."""
    z = run.size
    base, n = derive(run.seed, 2), z["fuzz_seeds"]
    spans = run.path("spans.json")
    done = run.replay(["fuzz", str(base), str(n), spans], "replay")
    if not done:
        return
    cycles = int(re.search(r"cycles=(\d+)", done.stdout).group(1))

    def check(done):
        if "all runs byte-identical to the reference interpreter" not in done.stdout:
            return "no clean verdict on stdout"
        return None

    def sample(i):
        done = run.vex(["fuzz", "--seed-count", str(n), "--seed-base", str(base),
                        "--out", run.path("failure.vex")], "fuzz", check)
        if done:
            run.add("wall_s", done.wall)
            run.add("cpu_s", done.cpu)
            run.add("request_s", done.wall)
            if i > 0:
                run.add("cached_s", done.wall)
            run.add("sim_cycles_per_s", cycles / done.wall)
            run.add("seeds_per_s", n / done.wall)
        for _ in range(z["fuzz_probes"]):
            done = run.vex(["fuzz", "--seed-count", "1", "--size", "1", "--seed-base", str(base),
                            "--out", run.path("probe.vex")], "probe")
            if done:
                run.add("setup_s", done.wall)

    run.sample_loop(2, sample)

    if run.traced:
        run.trace_layers(spans, run.best("wall_s"))


# ---- trace_attribute ------------------------------------------------------

def trace_attribute(run):
    """Paper-scale `vex run --spec --trace` of four-thread points, then
    `vex trace --attribute --json` of each trace."""
    z = run.size
    points = []
    for i, (mix, tech) in enumerate(z["trace_points"]):
        name = "p%d-%s" % (i, mix)
        seed = derive(run.seed, 3 + i)
        spec = run.write(name + ".toml", spec_text(name, z["trace_scale"], seed, [mix], [tech],
                                                   [z["trace_threads"]]))
        probe = run.write(name + ".probe.toml", spec_text(name, z["trace_scale"], seed, [mix],
                                                          [tech], [z["trace_threads"]],
                                                          inst_limit=1))
        points.append((name, spec, probe))

    spans = run.path("spans.json")
    if not run.replay(["trace", spans, str(run.work)] + [spec for _, spec, _ in points], "replay"):
        return
    reference = {}
    for name, _, _ in points:
        with open(run.path(name + ".stats.json")) as f:
            reference[name] = json.load(f)

    def check_run(want):
        def check(done):
            m = re.search(r"^cycles\s+(\d+)$", done.stdout, re.M)
            if not m or int(m.group(1)) != want["cycles"]:
                return "traced run's cycles differ from the untraced run's"
            return None
        return check

    def sample(_):
        wall = cpu = cycles = sim = attribute = 0.0
        for name, spec, probe in points:
            want = reference[name]
            done = run.vex(["run", "--spec", probe, "--trace", run.fresh(name + ".probe.vext")],
                           "probe")
            if not done:
                return
            run.add("setup_s", done.wall, name)
            set_up = done.wall

            trace = run.fresh(name + ".vext")
            done = run.vex(["run", "--spec", spec, "--trace", trace], "run", check_run(want))
            if not done:
                return
            wall, cpu = wall + done.wall, cpu + done.cpu
            cycles += want["cycles"]
            sim += done.wall - set_up
            run.add("request_s", done.wall, name)

            out = run.fresh(name + ".attr.json")
            done = run.vex(["trace", "--attribute", trace, "--json", "--out", out], "attribute",
                           lambda _d: check_attribution(out, want))
            if not done:
                return
            wall, cpu = wall + done.wall, cpu + done.cpu
            attribute += done.wall
            run.add("cached_s", done.wall, name)
            os.remove(trace)
        run.add("wall_s", wall)
        run.add("cpu_s", cpu)
        run.add("attribute_s", attribute)
        if sim > 0:
            run.add("sim_cycles_per_s", cycles / sim)

    run.sample_loop(z["min_samples"], sample)

    if run.traced:
        run.trace_layers(spans, run.best("wall_s"),
                         sum(want["engine_s"] for want in reference.values()))


def check_attribution(path, want):
    """An attribution must bin every cycle of every context exactly once and
    agree with the untraced run's statistics."""
    with open(path) as f:
        attr = json.load(f)
    cycles = want["cycles"]
    if attr["total_cycles"] != cycles:
        return "attributed %d cycles, the untraced run took %d" % (attr["total_cycles"], cycles)
    for t in attr["threads"]:
        if sum(t["bins"].values()) != cycles or t["total"] != cycles:
            return "thread %d's bins do not sum to the run's cycles" % t["thread"]
    if [t["split_instructions"] for t in attr["threads"]] != want["split_instructions"]:
        return "per-thread split instructions differ from the untraced run"
    if [t["split_parts"] for t in attr["threads"]] != want["split_parts"]:
        return "per-thread split parts differ from the untraced run"
    if attr["merged_cycles"] != want["merged_cycles"]:
        return "merged cycles differ from the untraced run"
    if attr["memport_cycles"] != want["memport_stall_cycles"]:
        return "memory-port stall cycles differ from the untraced run"
    if attr["issue_cycles"] != cycles - want["empty_cycles"]:
        return "issue cycles differ from the untraced run's non-empty cycles"
    return None


WORKLOADS = {
    "sweep_grid": sweep_grid,
    "serve_submit": serve_submit,
    "fuzz_diff": fuzz_diff,
    "trace_attribute": trace_attribute,
}
