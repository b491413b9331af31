//! `perfbench-replay`: the in-process half of the perfbench benchmark.
//!
//! Each subcommand replays one workload's CLI path by calling the same
//! public functions the `vex` binary calls, in the same order, with a span
//! around every call into a crate ([`span::span`]). `perfbench/run.py`
//! uses the outputs two ways: as references for its output checks
//! (`to_json` documents, per-point statistics) and, on traced runs, as the
//! per-layer breakdown of the workload.
//!
//! ```text
//! perfbench-replay sweep SPANS JOURNAL OUT_DIR SPEC...
//! perfbench-replay serve-check OUT_DIR SPEC...
//! perfbench-replay serve SPANS JOURNAL SPEC...
//! perfbench-replay fuzz SEED_BASE SEED_COUNT SPANS
//! perfbench-replay trace SPANS TRACE_DIR SPEC...
//! ```

mod fuzz;
mod serve;
mod span;
mod sweep;
mod trace;

use span::{count, span};
use std::collections::HashSet;
use std::sync::Arc;
use vex_experiments::jobs::{key_of, PreparedMap};
use vex_experiments::program_digest;
use vex_isa::{MachineConfig, Program};
use vex_sim::{Engine, PreparedProgram, SimConfig, StopReason};
use vex_spec::{RunSpec, SweepSpec, WorkloadRef};

const USAGE: &str = "usage: perfbench-replay sweep|serve-check|serve|fuzz|trace ARGS... \
                     (see the module docs)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let result = match args.first().map(String::as_str) {
        Some("sweep") => sweep::main(rest),
        Some("serve-check") => serve::check(rest),
        Some("serve") => serve::main(rest),
        Some("fuzz") => fuzz::main(rest),
        Some("trace") => trace::main(rest),
        _ => Err(USAGE.to_string()),
    };
    if let Err(e) = result {
        eprintln!("perfbench-replay: {e}");
        std::process::exit(1);
    }
}

/// Reads a text file, naming it in the error.
fn read_text(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))
}

/// `SweepSpec::parse` under a `spec.parse` span.
fn parse_spec(text: &str) -> Result<SweepSpec, String> {
    span("spec.parse", || SweepSpec::parse(text)).map_err(|e| format!("bad spec: {e}"))
}

/// `SweepSpec::expand` under a `spec.expand` span.
fn expand(spec: &SweepSpec) -> Vec<RunSpec> {
    let points = span("spec.expand", || spec.expand());
    count("spec.points", points.len() as f64);
    points
}

thread_local! {
    static COMPILED: std::cell::RefCell<HashSet<(String, String)>> =
        std::cell::RefCell::new(HashSet::new());
}

/// `compile_benchmark_for` under a `compile` span; also tracks how many
/// distinct (benchmark, machine) programs the run compiled.
fn compile(name: &str, machine: &MachineConfig) -> Result<Arc<Program>, String> {
    let program = span("compile", || {
        vex_workloads::compile_benchmark_for(name, machine)
    })?;
    let fresh = COMPILED.with(|c| {
        c.borrow_mut()
            .insert((name.to_string(), format!("{machine:?}")))
    });
    if fresh {
        count("compile.distinct", 1.0);
    }
    Ok(program)
}

/// `PreparedProgram::prepare` under a `decode` span.
fn decode(program: Arc<Program>) -> PreparedProgram {
    span("decode", || PreparedProgram::prepare(program))
}

/// Mirror of `vex_experiments::prepare_programs` for built-in members:
/// compile, digest and decode every distinct (machine, member) program
/// once, each under its own span.
fn prepare(points: &[RunSpec]) -> Result<PreparedMap, String> {
    let mut prepared = PreparedMap::new();
    for p in points {
        for member in &p.mix.members {
            let key = (p.machine_index, member.as_str().to_string());
            if prepared.contains_key(&key) {
                continue;
            }
            let WorkloadRef::Builtin(name) = member else {
                return Err(format!("mix `{}` has a program-file member", p.mix.name));
            };
            let program = compile(name, &p.machine.config)?;
            let digest = span("jobs.digest", || program_digest(&program));
            prepared.insert(key, (decode(program), digest));
        }
    }
    Ok(prepared)
}

/// `key_of` under a `jobs.key` span.
fn point_key(run: &RunSpec, prepared: &PreparedMap) -> u64 {
    span("jobs.key", || key_of(run, prepared))
}

/// The prepared members of `run`, in mix order.
fn workload_of(run: &RunSpec, prepared: &PreparedMap) -> Vec<PreparedProgram> {
    run.mix
        .members
        .iter()
        .map(|m| {
            prepared[&(run.machine_index, m.as_str().to_string())]
                .0
                .clone()
        })
        .collect()
}

/// `Engine::with_prepared` + `Engine::run`, each under its own span, then
/// the run's counters: simulated cycles and the memory system's profile.
/// `observe_every` installs a no-op heartbeat hook at that cycle interval,
/// as `run_prepared_observed` does for a service worker.
fn simulate(
    cfg: SimConfig,
    workload: &[PreparedProgram],
    observe_every: Option<u64>,
) -> (Engine, StopReason) {
    let mut engine = span("engine.new", || Engine::with_prepared(cfg, workload));
    if let Some(every) = observe_every {
        engine.set_heartbeat(every, Box::new(|_| {}));
    }
    let stop = span("engine.run", || engine.run());
    record_engine(&engine);
    (engine, stop)
}

/// Counters of one finished engine run.
fn record_engine(engine: &Engine) {
    let s = &engine.stats;
    count("engine.cycles", s.cycles as f64);
    count("model.cycles", s.cycles as f64);
    count("model.ops", s.total_ops as f64);
    let p = engine.profile();
    count("mem.icache.accesses", p.icache.accesses as f64);
    count("mem.icache.filter_hits", p.icache.filter_hits as f64);
    count("mem.tlb_hits", p.tlb_hits as f64);
    count("mem.tlb_walks", p.page_walks as f64);
    count("mem.dcache.accesses", p.dcache.accesses as f64);
}
