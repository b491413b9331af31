//! The one sweep engine: expands a [`SweepSpec`] into deduplicated run
//! points, prepares every distinct (machine, workload-member) program
//! exactly once — compile for built-ins, a pluggable loader for `.vex` /
//! `.vexb` paths — shares each `Arc<DecodedProgram>` across all points it
//! appears in, fans the grid out over [`parallel_map_isolated`], and
//! returns structured results (with a JSON form for artifacts).
//!
//! Every sweep in the repository executes here: the figure modules,
//! the ablations, `bin/repro` and the `vex sweep` CLI are all thin
//! spec-builders over this runner.
//!
//! ## Crash safety and fault isolation
//!
//! Two independent layers (both off by default — the hot path of a plain
//! `run()` is unchanged; see `docs/ROBUSTNESS.md`):
//!
//! * **Journaling** ([`SweepRunner::journal`] / [`SweepRunner::resume`]):
//!   each completed point is appended to a [`Journal`] sidecar and fsynced
//!   before the sweep moves on. Resume replays the journal, skips every
//!   point whose content-addressed key is already recorded, and merges the
//!   replayed results into the outcome in expansion order.
//! * **Isolation** ([`SweepRunner::keep_going`]): every point is one job
//!   of [`parallel_map_isolated`], which catches its panic; a panicking or
//!   failing point becomes a structured [`PointError`] instead of tearing
//!   down the sweep. The default is fail-fast: the first failure stops new
//!   points from starting and the untouched tail is reported as skipped.
//!
//! Each point is attempted once. A point is a deterministic function of
//! its spec (the scheduler draws from a seeded generator), so running a
//! failed point again in the same process fails the same way, and a
//! process that dies takes every attempt with it. Retrying belongs to
//! `vex serve`, whose points run in worker processes.

use crate::jobs::{key_of, prepare_programs};
use crate::journal::{Journal, JournalEntry};
use crate::{
    default_workers, lock_clean, panic_message, parallel_map_isolated, FaultPlan, JobStatus,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;
use vex_isa::Program;
use vex_sim::{run_prepared_full, PreparedProgram, SimStats, StopReason};
use vex_spec::{RunSpec, SweepSpec};

/// Resolves a `.vex`/`.vexb` path to a program. The runner itself has no
/// parser dependency; the `vex` CLI plugs `vex_asm` in here.
pub type ProgramLoader<'a> = &'a (dyn Fn(&str) -> Result<Program, String> + Sync);

/// One simulated grid point.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// The fully-resolved point.
    pub run: RunSpec,
    /// Its statistics.
    pub stats: SimStats,
    /// How the simulation ended ([`StopReason::Exhausted`] marks a point
    /// the `max_cycles` watchdog cut off — `stats` is then partial).
    pub stop: StopReason,
    /// Wall-clock seconds of the simulation itself (program preparation
    /// is shared across points and excluded).
    pub wall_secs: f64,
    /// Content-addressed point identity (see [`crate::point_key`]).
    pub key: u64,
    /// True when this result was replayed from the journal instead of
    /// simulated in this process.
    pub resumed: bool,
    /// 1 when simulated in this process, 0 when replayed. It says no more
    /// than `resumed`, and stays only because `perfbench/replay` builds
    /// `PointResult` by struct literal; it goes when that replay does.
    pub attempts: u32,
}

/// How a point failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PointFailure {
    /// The point's job panicked; the payload text is kept.
    Panic(String),
    /// The point's job returned an error.
    Failed(String),
    /// Every worker process that `vex serve` gave the point crashed or
    /// hung, until its retry budget was spent; the last reason is kept.
    Crash(String),
    /// The point never ran: a fail-fast sweep aborted before it started.
    Skipped,
    /// No such point exists in the outcome (bad lookup coordinates).
    MissingPoint,
}

/// A structured per-point failure: which point, how many attempts were
/// spent, and what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointError {
    /// Content-addressed point identity (0 when the point is unknown).
    pub key: u64,
    /// Human-readable point label (`RunSpec::label()`).
    pub label: String,
    /// Attempts spent before giving up: 1 for a point the [`SweepRunner`]
    /// ran, 0 for one that never ran. An outcome from `vex serve` carries
    /// the service's count, which worker crashes can raise up to its
    /// retry budget.
    pub attempts: u32,
    /// The failure itself.
    pub cause: PointFailure,
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointFailure::Panic(msg) => write!(f, "panicked: {msg}"),
            PointFailure::Failed(msg) => write!(f, "failed: {msg}"),
            PointFailure::Crash(msg) => write!(f, "crashed: {msg}"),
            PointFailure::Skipped => write!(f, "skipped (sweep aborted by an earlier failure)"),
            PointFailure::MissingPoint => write!(f, "no such point in the sweep"),
        }
    }
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "point {}: {}", self.label, self.cause)?;
        if self.attempts > 1 {
            write!(f, " (after {} attempts)", self.attempts)?;
        }
        Ok(())
    }
}

impl From<PointError> for String {
    fn from(e: PointError) -> String {
        e.to_string()
    }
}

impl PointFailure {
    /// Short machine-readable tag for the JSON error table.
    pub fn tag(&self) -> &'static str {
        match self {
            PointFailure::Panic(_) => "panic",
            PointFailure::Failed(_) => "error",
            PointFailure::Crash(_) => "crash",
            PointFailure::Skipped => "skipped",
            PointFailure::MissingPoint => "missing",
        }
    }

    /// The failure's text (empty for `Skipped` and `MissingPoint`).
    pub fn message(&self) -> &str {
        match self {
            PointFailure::Panic(m) | PointFailure::Failed(m) | PointFailure::Crash(m) => m,
            PointFailure::Skipped | PointFailure::MissingPoint => "",
        }
    }
}

/// All results of a sweep, in expansion order (mix-major), plus the
/// errors of any points that did not complete.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The spec that was run.
    pub spec: SweepSpec,
    /// One result per completed grid point.
    pub points: Vec<PointResult>,
    /// One error per failed or skipped grid point (empty on success).
    pub errors: Vec<PointError>,
}

impl SweepOutcome {
    /// Statistics at a grid point, matched by mix name, technique label
    /// and thread count (the first machine that matches — single-machine
    /// specs have exactly one). A point that failed returns its recorded
    /// [`PointError`]; coordinates matching nothing return
    /// [`PointFailure::MissingPoint`].
    pub fn stats(&self, mix: &str, tech_label: &str, threads: u8) -> Result<&SimStats, PointError> {
        if let Some(p) = self.points.iter().find(|p| {
            p.run.mix.name == mix
                && p.run.technique.label() == tech_label
                && p.run.threads == threads
        }) {
            return Ok(&p.stats);
        }
        // The labels errors carry are `mix/TECH_LABEL/Nt/machine`.
        let prefix = format!("{mix}/{}/{threads}t/", tech_label.replace(' ', "_"));
        if let Some(e) = self.errors.iter().find(|e| e.label.starts_with(&prefix)) {
            return Err(e.clone());
        }
        Err(PointError {
            key: 0,
            label: format!("{mix}/{}/{threads}t/?", tech_label.replace(' ', "_")),
            attempts: 0,
            cause: PointFailure::MissingPoint,
        })
    }

    /// IPC at a grid point.
    pub fn ipc(&self, mix: &str, tech_label: &str, threads: u8) -> Result<f64, PointError> {
        Ok(self.stats(mix, tech_label, threads)?.ipc())
    }

    /// Structured results as a JSON document (hand-rolled: the build
    /// environment has no serde), one object per point plus the sweep
    /// header and an error table — the artifact format CI uploads.
    /// Resume provenance (`resumed`, `attempts`) is deliberately omitted
    /// so a resumed sweep's artifact is byte-identical to an
    /// uninterrupted one.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"spec\": \"{}\",", self.spec.name);
        let _ = writeln!(out, "  \"inst_limit\": {},", self.spec.inst_limit);
        let _ = writeln!(out, "  \"timeslice\": {},", self.spec.timeslice);
        let _ = writeln!(out, "  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            let s = &p.stats;
            let _ = write!(
                out,
                "    {{\"mix\": \"{}\", \"technique\": \"{}\", \"threads\": {}, \
                 \"machine\": \"{}\", \"seed\": {}, \"key\": \"{:016x}\", \
                 \"stop\": \"{}\", \"cycles\": {}, \"ops\": {}, \
                 \"insts\": {}, \"ipc\": {:.6}, \"merged_cycles\": {}, \
                 \"empty_cycles\": {}, \"wall_secs\": {:.6}}}",
                p.run.mix.name,
                p.run.technique.label().replace(' ', "_"),
                p.run.threads,
                p.run.machine.name,
                p.run.mix.seed,
                p.key,
                p.stop.tag(),
                s.cycles,
                s.total_ops,
                s.total_insts,
                s.ipc(),
                s.merged_cycles,
                s.empty_cycles,
                p.wall_secs,
            );
            let _ = writeln!(out, "{}", if i + 1 == self.points.len() { "" } else { "," });
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"errors\": [");
        for (i, e) in self.errors.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"label\": \"{}\", \"key\": \"{:016x}\", \"cause\": \"{}\", \
                 \"attempts\": {}, \"message\": \"{}\"}}",
                e.label,
                e.key,
                e.cause.tag(),
                e.attempts,
                json_escape(e.cause.message()),
            );
            let _ = writeln!(out, "{}", if i + 1 == self.errors.len() { "" } else { "," });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes a message for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Executes a [`SweepSpec`]. Build with [`SweepRunner::new`], optionally
/// cap [`SweepRunner::workers`] (benches use 1 for clean timing), plug a
/// [`SweepRunner::loader`] for path workloads, or switch on the crash
///-safety layers (journal / resume / keep-going), then
/// [`SweepRunner::run`].
pub struct SweepRunner<'a> {
    spec: &'a SweepSpec,
    workers: usize,
    loader: Option<ProgramLoader<'a>>,
    journal: Option<String>,
    resume: bool,
    keep_going: bool,
    fault: Option<&'a FaultPlan>,
    deterministic_wall: bool,
}

impl<'a> SweepRunner<'a> {
    /// A runner over `spec` with one worker per available core.
    pub fn new(spec: &'a SweepSpec) -> Self {
        SweepRunner {
            spec,
            workers: default_workers(),
            loader: None,
            journal: None,
            resume: false,
            keep_going: false,
            fault: None,
            deterministic_wall: false,
        }
    }

    /// Caps the fan-out (1 = serial, for timing-sensitive callers).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Plugs in a resolver for `.vex`/`.vexb` mix members.
    pub fn loader(mut self, loader: ProgramLoader<'a>) -> Self {
        self.loader = Some(loader);
        self
    }

    /// Journals every completed point to `path` (overrides the spec's
    /// `journal` key; without either, no journal is written).
    pub fn journal(mut self, path: &str) -> Self {
        self.journal = Some(path.to_string());
        self
    }

    /// Replays an existing journal before running: already-recorded
    /// points are merged from it instead of re-simulated. Requires a
    /// journal path.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Keep simulating the remaining points when one fails (default is
    /// fail-fast: stop starting new points after the first failure).
    pub fn keep_going(mut self, on: bool) -> Self {
        self.keep_going = on;
        self
    }

    /// Injects faults (test support; see [`FaultPlan`]).
    pub fn fault(mut self, plan: &'a FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Reports every `wall_secs` as zero, making sweep artifacts
    /// byte-reproducible — the crash-resume tests and CI diff them.
    pub fn deterministic_wall(mut self, on: bool) -> Self {
        self.deterministic_wall = on;
        self
    }

    /// Runs the whole grid: every distinct (machine, member) program is
    /// prepared once, then all points fan out in parallel.
    ///
    /// `Err` means the sweep could not run or could not keep its
    /// durability promise (spec problems, unloadable programs, journal
    /// I/O). Per-point simulation failures do **not** end up here — they
    /// are collected in [`SweepOutcome::errors`].
    pub fn run(&self) -> Result<SweepOutcome, String> {
        let points = self.spec.expand();
        if points.is_empty() {
            return Err(format!(
                "spec `{}` expands to no run points (empty axis)",
                self.spec.name
            ));
        }

        // Prepare each distinct (machine, member) program exactly once.
        // Keyed by machine *index* because machines with identical
        // geometry were already collapsed by `expand`. The digest feeds
        // the journal's content-addressed point keys. Shared with the
        // sweep service through the job model (`crate::jobs`).
        let prepared = prepare_programs(&points, self.loader)?;

        // Open the journal (if any) and replay prior progress (if resuming).
        let journal_path = self.journal.as_deref().or(self.spec.journal.as_deref());
        if self.resume && journal_path.is_none() {
            return Err("resume requested but no journal path is set".to_string());
        }
        let mut replayed: HashMap<u64, JournalEntry> = HashMap::new();
        let journal: Mutex<Option<Journal>> = Mutex::new(match journal_path {
            Some(path) if self.resume => {
                let (j, entries, _report) = Journal::open_resume(Path::new(path))?;
                for e in entries {
                    replayed.insert(e.key, e);
                }
                Some(j)
            }
            Some(path) => Some(Journal::create(Path::new(path))?),
            None => None,
        });
        // First journal-append failure; once set the sweep cannot keep
        // its durability promise and `run` returns `Err` at the end.
        let journal_err: Mutex<Option<String>> = Mutex::new(None);

        let zero_wall = self.deterministic_wall;
        let fault = self.fault;

        // One slot per expanded point, so replayed and simulated results
        // merge back in expansion order.
        let mut slots: Vec<Option<PointResult>> = Vec::with_capacity(points.len());
        let mut slot_ids: Vec<(u64, String)> = Vec::with_capacity(points.len());
        let mut jobs = Vec::new();
        let mut job_slot: Vec<usize> = Vec::new();
        for (index, run) in points.into_iter().enumerate() {
            let key = key_of(&run, &prepared);
            let label = run.label();
            slot_ids.push((key, label.clone()));

            if let Some(entry) = replayed.get(&key) {
                slots.push(Some(PointResult {
                    run,
                    stats: entry.stats.clone(),
                    stop: entry.stop,
                    wall_secs: if zero_wall { 0.0 } else { entry.wall_secs },
                    key,
                    resumed: true,
                    attempts: 0,
                }));
                continue;
            }
            slots.push(None);

            let workload: Vec<PreparedProgram> = run
                .mix
                .members
                .iter()
                .map(|m| {
                    prepared[&(run.machine_index, m.as_str().to_string())]
                        .0
                        .clone()
                })
                .collect();
            let journal = &journal;
            let journal_err = &journal_err;
            job_slot.push(index);
            jobs.push(move || -> Result<PointResult, String> {
                // A panic unwinds into `parallel_map_isolated`, which
                // catches it.
                if let Some(f) = fault {
                    if f.panic_at == Some(index) {
                        panic!("injected panic at point {index}");
                    }
                    if f.error_at == Some(index) {
                        return Err(format!("injected error at point {index}"));
                    }
                }
                let cfg = run.to_sim_config();
                let start = Instant::now();
                let (stats, stop) = run_prepared_full(&cfg, &workload);
                let wall_secs = if zero_wall {
                    0.0
                } else {
                    start.elapsed().as_secs_f64()
                };
                if let Some(j) = lock_clean(journal).as_mut() {
                    let entry = JournalEntry {
                        key,
                        label,
                        stop,
                        wall_secs,
                        stats: stats.clone(),
                    };
                    if let Err(e) = j.append(&entry) {
                        let mut latch = lock_clean(journal_err);
                        if latch.is_none() {
                            *latch = Some(e.clone());
                        }
                        return Err(format!("completed but could not be journaled: {e}"));
                    }
                }
                Ok(PointResult {
                    run,
                    stats,
                    stop,
                    wall_secs,
                    key,
                    resumed: false,
                    attempts: 1,
                })
            });
        }

        let statuses = parallel_map_isolated(jobs, self.workers, !self.keep_going);
        let mut errors = Vec::new();
        for (j, status) in statuses.into_iter().enumerate() {
            let slot = job_slot[j];
            let (attempts, cause) = match status {
                JobStatus::Done(result) => {
                    slots[slot] = Some(result);
                    continue;
                }
                JobStatus::Failed(msg) => (1, PointFailure::Failed(msg)),
                JobStatus::Panicked(payload) => {
                    (1, PointFailure::Panic(panic_message(payload.as_ref())))
                }
                JobStatus::Skipped => (0, PointFailure::Skipped),
            };
            let (key, label) = slot_ids[slot].clone();
            errors.push(PointError {
                key,
                label,
                attempts,
                cause,
            });
        }
        if let Some(e) = lock_clean(&journal_err).take() {
            return Err(format!("sweep journal lost durability: {e}"));
        }

        Ok(SweepOutcome {
            spec: self.spec.clone(),
            points: slots.into_iter().flatten().collect(),
            errors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_sim::{Scale, SimConfig, Technique};
    use vex_spec::MixSpec;

    fn small_spec() -> SweepSpec {
        let mut spec = SweepSpec::base(Scale {
            inst_limit: 1_000,
            timeslice: 500,
        });
        spec.techniques = vec![Technique::csmt(), Technique::smt()];
        spec.threads = vec![2];
        spec.mixes = vec![MixSpec::builtin("llll", 7)];
        spec
    }

    /// A spec-driven point must be bit-identical to the same point run
    /// directly through `run_workload` (shared decode must not matter).
    #[test]
    fn runner_matches_direct_run() {
        let mut spec = SweepSpec::base(Scale {
            inst_limit: 3_000,
            timeslice: 500,
        });
        spec.techniques = vec![Technique::ccsi(vex_sim::CommPolicy::AlwaysSplit)];
        spec.threads = vec![2];
        spec.mixes = vec![MixSpec::builtin("llhh", vex_spec::DEFAULT_SEED)];
        let outcome = SweepRunner::new(&spec).run().unwrap();
        assert_eq!(outcome.points.len(), 1);
        assert!(outcome.errors.is_empty());
        assert_eq!(outcome.points[0].stop, vex_sim::StopReason::InstLimit);
        assert_eq!(outcome.points[0].attempts, 1);
        assert!(!outcome.points[0].resumed);

        let cfg: SimConfig = spec.expand()[0].to_sim_config();
        let programs = vex_workloads::compile_mix(
            vex_workloads::MIXES
                .iter()
                .find(|m| m.name == "llhh")
                .unwrap(),
        );
        let direct = vex_sim::run_workload(&cfg, &programs);
        assert_eq!(outcome.points[0].stats, direct);
    }

    #[test]
    fn path_member_without_loader_is_an_error() {
        let mut spec = SweepSpec::base(Scale::QUICK);
        spec.mixes = vec![MixSpec {
            name: "disk".into(),
            members: vec![vex_spec::WorkloadRef::Path("nope.vexb".into())],
            seed: 1,
        }];
        let err = SweepRunner::new(&spec).run().unwrap_err();
        assert!(err.contains("no loader"), "{err}");
    }

    #[test]
    fn json_is_emitted_per_point() {
        let mut spec = small_spec();
        spec.name = "json-smoke".into();
        let outcome = SweepRunner::new(&spec).run().unwrap();
        let json = outcome.to_json();
        assert_eq!(json.matches("\"technique\"").count(), 2);
        assert!(json.contains("\"spec\": \"json-smoke\""), "{json}");
        assert!(json.contains("\"machine\": \"paper\""), "{json}");
        assert!(json.contains("\"stop\": \"inst_limit\""), "{json}");
        assert!(json.contains("\"errors\": ["), "{json}");
    }

    #[test]
    fn injected_panic_under_keep_going_fails_only_that_point() {
        let spec = small_spec();
        let plan = FaultPlan::panic_at(0);
        let outcome = SweepRunner::new(&spec)
            .fault(&plan)
            .keep_going(true)
            .run()
            .unwrap();
        assert_eq!(outcome.points.len(), 1);
        assert_eq!(outcome.errors.len(), 1);
        let e = &outcome.errors[0];
        assert!(matches!(&e.cause, PointFailure::Panic(m) if m.contains("injected panic")));
        // The failed point's lookup returns its error, the good one works.
        assert!(outcome.stats("llll", "CSMT", 2).is_err());
        assert!(outcome.stats("llll", "SMT", 2).is_ok());
    }

    #[test]
    fn fail_fast_skips_the_tail_serially() {
        let spec = small_spec();
        let plan = FaultPlan::error_at(0);
        let outcome = SweepRunner::new(&spec)
            .fault(&plan)
            .workers(1)
            .run()
            .unwrap();
        assert!(outcome.points.is_empty());
        assert_eq!(outcome.errors.len(), 2);
        assert!(matches!(outcome.errors[0].cause, PointFailure::Failed(_)));
        assert_eq!(outcome.errors[1].cause, PointFailure::Skipped);
    }

    #[test]
    fn missing_point_lookup_is_an_error_not_a_panic() {
        let spec = small_spec();
        let outcome = SweepRunner::new(&spec).run().unwrap();
        let err = outcome.stats("llll", "OOSI NS", 2).unwrap_err();
        assert_eq!(err.cause, PointFailure::MissingPoint);
    }

    #[test]
    fn resume_without_journal_is_an_error() {
        let spec = small_spec();
        let err = SweepRunner::new(&spec).resume(true).run().unwrap_err();
        assert!(err.contains("no journal path"), "{err}");
    }
}
