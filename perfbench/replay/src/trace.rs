//! `trace SPANS TRACE_DIR SPEC...`: the `vex run --spec SPEC --trace T`
//! then `vex trace --attribute T --json` path, one single-point spec at a
//! time.
//!
//! Before the traced replay, each point is simulated once more without a
//! trace sink and without spans: its statistics are the reference the
//! benchmark checks the live attribution against, and its engine time is
//! what the traced run's extra time (the trace sink's cost) is measured
//! from.
//! Both go to `TRACE_DIR/<spec stem>.stats.json`.

use crate::span::{count, set_request, span};
use crate::{compile, decode, expand, parse_spec, read_text, record_engine};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use vex_isa::Program;
use vex_sim::{Engine, FileSink, PreparedProgram, SimStats};
use vex_spec::{SweepSpec, WorkloadRef};
use vex_trace::Bin;

/// Counter names of the attribution bins, in `Bin::ALL` order.
const BIN_COUNTERS: [&str; Bin::COUNT] = [
    "model.bin.issue",
    "model.bin.dmiss",
    "model.bin.imiss",
    "model.bin.branch",
    "model.bin.memport",
    "model.bin.commhold",
    "model.bin.conflict",
    "model.bin.unslotted",
    "model.bin.retired",
];

pub fn main(args: &[String]) -> Result<(), String> {
    let [spans, trace_dir, specs @ ..] = args else {
        return Err("usage: perfbench-replay trace SPANS TRACE_DIR SPEC...".to_string());
    };
    let dir = Path::new(trace_dir);
    let stem = |path: &str| -> Result<String, String> {
        Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .map(str::to_string)
            .ok_or_else(|| format!("bad spec path `{path}`"))
    };
    for path in specs {
        let (stats, engine_s) = reference(path)?;
        let out = dir.join(format!("{}.stats.json", stem(path)?));
        std::fs::write(&out, stats_json(&stats, engine_s))
            .map_err(|e| format!("writing `{}`: {e}", out.display()))?;
    }
    span("run", || -> Result<(), String> {
        for (i, path) in specs.iter().enumerate() {
            set_request(i as u64);
            let trace = dir.join(format!("{}.replay.vext", stem(path)?));
            span("request", || point(path, &trace))?;
        }
        Ok(())
    })?;
    crate::span::write(spans)
}

/// The untraced reference run: statistics and engine seconds.
fn reference(path: &str) -> Result<(SimStats, f64), String> {
    let spec = SweepSpec::parse(&read_text(path)?).map_err(|e| format!("bad spec: {e}"))?;
    let points = spec.expand();
    let [run] = points.as_slice() else {
        return Err(format!("`{path}` expands to {} points", points.len()));
    };
    let workload: Vec<PreparedProgram> = run
        .mix
        .members
        .iter()
        .map(|m| {
            vex_workloads::compile_benchmark_for(m.as_str(), &run.machine.config)
                .map(PreparedProgram::prepare)
        })
        .collect::<Result<_, _>>()?;
    let mut engine = Engine::with_prepared(run.to_sim_config(), &workload);
    let started = Instant::now();
    engine.run();
    Ok((engine.stats, started.elapsed().as_secs_f64()))
}

/// One point as the CLI runs it: compile the members, build the engine,
/// run it with a file sink, then read the trace back, attribute it and
/// render the JSON report.
fn point(spec_path: &str, trace: &Path) -> Result<(), String> {
    let spec = parse_spec(&read_text(spec_path)?)?;
    let points = expand(&spec);
    let [run] = points.as_slice() else {
        return Err(format!("`{spec_path}` expands to {} points", points.len()));
    };
    let machine = &run.machine.config;
    let programs: Vec<Arc<Program>> = run
        .mix
        .members
        .iter()
        .map(|m| match m {
            WorkloadRef::Builtin(name) => compile(name, machine),
            WorkloadRef::Path(p) => Err(format!("program-file member `{p}`")),
        })
        .collect::<Result<_, _>>()?;
    // `Engine::new`: one decode per distinct program.
    let prepared: Vec<PreparedProgram> = programs.into_iter().map(decode).collect();

    let mut engine = span("engine.new", || {
        Engine::with_prepared(run.to_sim_config(), &prepared)
    });
    let sink = span("trace.open", || FileSink::create(trace))?;
    engine.set_tracer(Box::new(sink));
    span("engine.run", || engine.run());
    if let Some(mut sink) = engine.take_tracer() {
        span("trace.close", || sink.finish())?;
    }
    record_engine(&engine);

    let (meta, events, bytes) = span("trace.read", || -> Result<_, String> {
        let bytes = std::fs::read(trace).map_err(|e| format!("{}: {e}", trace.display()))?;
        let (meta, events) = vex_trace::read_trace(&bytes)?;
        Ok((meta, events, bytes.len()))
    })?;
    count("trace.events", events.len() as f64);
    count("trace.bytes", bytes as f64);
    let attr = span("trace.attribute", || vex_trace::attribute(&meta, &events))?;
    span("trace.render", || vex_sim::attribution_json(&meta, &attr));
    for (bin, name) in Bin::ALL.iter().zip(BIN_COUNTERS) {
        count(name, attr.total(*bin) as f64);
    }
    Ok(())
}

/// The statistics the attribution of the same point must reproduce.
fn stats_json(s: &SimStats, engine_s: f64) -> String {
    let list = |f: &dyn Fn(&vex_sim::ThreadStats) -> u64| {
        let v: Vec<String> = s.per_thread.iter().map(|t| f(t).to_string()).collect();
        v.join(", ")
    };
    format!(
        "{{\"engine_s\": {engine_s}, \"cycles\": {}, \"empty_cycles\": {}, \
         \"merged_cycles\": {}, \"memport_stall_cycles\": {}, \"split_instructions\": [{}], \
         \"split_parts\": [{}]}}\n",
        s.cycles,
        s.empty_cycles,
        s.merged_cycles,
        s.memport_stall_cycles,
        list(&|t| t.split_instructions),
        list(&|t| t.split_parts),
    )
}
