//! `sweep SPANS JOURNAL OUT_DIR SPEC...`: the `vex sweep --workers 1`
//! path.
//!
//! Mirrors `SweepRunner::run` for a spec of built-in mixes: parse, expand,
//! prepare every distinct program once, then key and simulate each point
//! in expansion order and emit `SweepOutcome::to_json` with zero wall
//! times — byte-for-byte what `vex sweep --zero-wall` prints — to
//! `OUT_DIR/<spec stem>.json`. Only the first spec's replay is traced, and
//! its points are journaled to JOURNAL, so `run.py` can time `vex sweep
//! --resume` answering from a complete journal. Any further specs are
//! replayed after it, for their reference documents only.

use crate::span::{set_request, span};
use crate::{expand, parse_spec, point_key, prepare, read_text, simulate, workload_of};
use std::path::Path;
use vex_experiments::{Journal, JournalEntry, PointResult, SweepOutcome};

pub fn main(args: &[String]) -> Result<(), String> {
    let [spans, journal, out_dir, first, rest @ ..] = args else {
        return Err("usage: perfbench-replay sweep SPANS JOURNAL OUT_DIR SPEC...".to_string());
    };
    set_request(0);
    let outcome = span("run", || replay(first, out_dir))?;
    crate::span::write(spans)?;
    for spec in rest {
        replay(spec, out_dir)?;
    }

    let mut j = Journal::create(Path::new(journal))?;
    for p in &outcome.points {
        j.append(&JournalEntry {
            key: p.key,
            label: p.run.label(),
            stop: p.stop,
            wall_secs: p.wall_secs,
            stats: p.stats.clone(),
        })?;
    }
    Ok(())
}

/// Replays one spec and writes its `to_json` beside the others.
fn replay(spec_path: &str, out_dir: &str) -> Result<SweepOutcome, String> {
    let text = read_text(spec_path)?;
    let spec = parse_spec(&text)?;
    let points = expand(&spec);
    let prepared = prepare(&points)?;
    let mut results = Vec::with_capacity(points.len());
    for run in points {
        let key = point_key(&run, &prepared);
        let workload = workload_of(&run, &prepared);
        let (engine, stop) = simulate(run.to_sim_config(), &workload, None);
        results.push(PointResult {
            run,
            stats: engine.stats,
            stop,
            wall_secs: 0.0,
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
    let json = span("emit", || outcome.to_json());
    let stem = Path::new(spec_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| format!("bad spec path `{spec_path}`"))?;
    let out = Path::new(out_dir).join(format!("{stem}.json"));
    std::fs::write(&out, json).map_err(|e| format!("writing `{}`: {e}", out.display()))?;
    Ok(outcome)
}
