//! The `vex serve` / `vex submit` path.
//!
//! `serve-check OUT_DIR SPEC...` runs each spec through an in-process
//! `SweepRunner` with zero wall times and writes `OUT_DIR/<spec stem>.json`:
//! the reference every live submission's outcome is checked against.
//!
//! `serve SPANS JOURNAL SPEC...` replays, per spec, one cold submission
//! and then one identical resubmission, calling what the client, the server
//! and the worker call for it: keying on both ends, the single-point
//! assignment print/parse, `prepare_programs`, the engine run, payload
//! encode/decode, `Journal::append` and the client's `to_json`. What the
//! replay cannot contain — connection accept, `WAIT` sleeps, polling,
//! framing, process start — is what the live latency has beyond it.

use crate::span::{count, set_request, span};
use crate::{expand, parse_spec, point_key, prepare, read_text, simulate, workload_of};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;
use vex_experiments::{
    single_point_spec, Journal, JournalEntry, PointResult, SweepOutcome, SweepRunner,
};
use vex_spec::{RunSpec, SweepSpec};

/// How often the live worker's heartbeat hook observes the cycle loop.
const OBSERVE_EVERY_CYCLES: u64 = 50_000;

pub fn check(args: &[String]) -> Result<(), String> {
    let [out_dir, specs @ ..] = args else {
        return Err("usage: perfbench-replay serve-check OUT_DIR SPEC...".to_string());
    };
    for path in specs {
        let spec = SweepSpec::parse(&read_text(path)?).map_err(|e| format!("{path}: {e}"))?;
        let outcome = SweepRunner::new(&spec)
            .workers(1)
            .deterministic_wall(true)
            .run()?;
        let stem = Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("bad spec path `{path}`"))?;
        let out = Path::new(out_dir).join(format!("{stem}.json"));
        std::fs::write(&out, outcome.to_json())
            .map_err(|e| format!("writing `{}`: {e}", out.display()))?;
    }
    Ok(())
}

/// The service's state the replay needs: the content-addressed result
/// cache and the journal behind it.
struct Service {
    cache: HashMap<u64, JournalEntry>,
    journal: Journal,
}

pub fn main(args: &[String]) -> Result<(), String> {
    let [spans, journal, specs @ ..] = args else {
        return Err("usage: perfbench-replay serve SPANS JOURNAL SPEC...".to_string());
    };
    let texts: Vec<String> = specs
        .iter()
        .map(|p| read_text(p))
        .collect::<Result<_, _>>()?;
    let mut service = Service {
        cache: HashMap::new(),
        journal: Journal::create(Path::new(journal))?,
    };
    span("run", || -> Result<(), String> {
        for (request, text) in texts.iter().chain(texts.iter()).enumerate() {
            set_request(request as u64);
            span("request", || submit(text, &mut service))?;
        }
        Ok(())
    })?;
    crate::span::write(spans)
}

/// Client keying: what `vex_experiments::spec_point_keys` does on each end.
fn keyed_points(text: &str) -> Result<(SweepSpec, Vec<(RunSpec, u64)>), String> {
    let spec = parse_spec(text)?;
    let points = expand(&spec);
    let prepared = prepare(&points)?;
    let keyed = points
        .into_iter()
        .map(|run| {
            let key = point_key(&run, &prepared);
            (run, key)
        })
        .collect();
    Ok((spec, keyed))
}

/// One `vex submit`: client keying, the server's enqueue, a worker run for
/// every point the cache lacks, then the client's fetch and `to_json`.
fn submit(text: &str, service: &mut Service) -> Result<(), String> {
    let (spec, client_points) = keyed_points(text)?;

    // Server: re-key the submission and queue the points it has not got.
    let (_, server_points) = keyed_points(text)?;
    let mut queued = Vec::new();
    for (run, key) in &server_points {
        if service.cache.contains_key(key) {
            count("serve.cached_points", 1.0);
        } else {
            queued.push((*key, span("spec.print", || single_point_spec(run).print())));
        }
        count("serve.points", 1.0);
    }

    for (key, assignment) in queued {
        let payload = work(&assignment, key)?;
        let entry = span("emit", || JournalEntry::from_payload(&payload))?;
        span("journal.append", || service.journal.append(&entry))?;
        service.cache.insert(key, entry);
    }

    // Client: fetch every point in expansion order and assemble the outcome.
    let mut results = Vec::with_capacity(client_points.len());
    for (run, key) in client_points {
        let entry = &service.cache[&key];
        let payload = span("emit", || entry.to_payload());
        let entry = span("emit", || JournalEntry::from_payload(&payload))?;
        results.push(PointResult {
            run,
            stats: entry.stats,
            stop: entry.stop,
            wall_secs: entry.wall_secs,
            key,
            resumed: false,
            attempts: 1,
        });
    }
    let outcome = SweepOutcome {
        spec,
        points: results,
        errors: Vec::new(),
    };
    span("emit", || outcome.to_json());
    Ok(())
}

/// A worker's assignment: parse the single-point spec, prepare and re-key
/// it, simulate it with the heartbeat hook installed, encode the result.
fn work(assignment: &str, key: u64) -> Result<String, String> {
    let spec = parse_spec(assignment)?;
    let points = expand(&spec);
    let [run] = points.as_slice() else {
        return Err(format!("assignment expands to {} points", points.len()));
    };
    let prepared = prepare(&points)?;
    if point_key(run, &prepared) != key {
        return Err(format!("assignment {key:016x} re-keys differently"));
    }
    let workload = workload_of(run, &prepared);
    let started = Instant::now();
    let (engine, stop) = simulate(run.to_sim_config(), &workload, Some(OBSERVE_EVERY_CYCLES));
    let entry = JournalEntry {
        key,
        label: run.label(),
        stop,
        wall_secs: started.elapsed().as_secs_f64(),
        stats: engine.stats,
    };
    Ok(span("emit", || entry.to_payload()))
}
