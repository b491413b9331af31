//! # vex-experiments — regenerating the paper's evaluation
//!
//! One module per figure of Gupta et al. (IPDPS-W 2010) §VI, plus the
//! ablation studies (their spec shapes are catalogued in `docs/SPECS.md`):
//!
//! * [`fig13`] — the benchmark characterisation table (IPCr / IPCp),
//! * [`fig14`] — CCSI speedups over CSMT (cluster-level merging),
//! * [`fig15`] — COSI and OOSI speedups over SMT (operation-level merging),
//! * [`fig16`] — absolute IPC of all eight techniques,
//! * [`ablate`] — cluster renaming, communication-split and timeslice
//!   sensitivity studies.
//!
//! Every module is a thin builder of declarative `vex_spec::SweepSpec`
//! values executed by the shared [`runner::SweepRunner`], which prepares
//! each distinct (machine, program) pair once and fans the grid out over
//! OS threads with [`parallel_map_isolated`]. Figures 14–16 all read one
//! [`SweepOutcome`] of `SweepSpec::paper_grid`, so each (mix, technique,
//! thread-count) point is simulated exactly once; a point that fails is
//! not run again in the same process, because it would fail the same way
//! (see [`runner`]). Absolute IPC values will not match a 2010
//! ST200-class testbed, but the *shape* — who wins, by what factor, where
//! NS hurts — is the reproduction target (see `docs/PERF.md` for how the
//! simulator's own throughput is tracked).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablate;
pub mod backoff;
pub mod fault;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod jobs;
pub mod journal;
pub mod runner;

pub use backoff::BackoffPolicy;
pub use fault::FaultPlan;
pub use jobs::{prepare_programs, single_point_spec, spec_point_keys};
pub use journal::{
    point_key, program_digest, FramedLog, Journal, JournalEntry, LockGuard, LogKind, ReplayReport,
};
pub use runner::{PointError, PointFailure, PointResult, SweepOutcome, SweepRunner};
/// The run-scale presets now live in `vex-sim` next to `SimConfig` (one
/// source of truth for instruction budgets and timeslices); re-exported
/// here for the experiment-facing API.
pub use vex_sim::Scale;
use vex_sim::{Align, Table};

/// Outcome of one job under [`parallel_map_isolated`].
pub enum JobStatus<T, E> {
    /// The job returned a value.
    Done(T),
    /// The job returned an error.
    Failed(E),
    /// The job panicked; the payload is what `catch_unwind` caught
    /// (readable via [`panic_message`]).
    Panicked(Box<dyn std::any::Any + Send>),
    /// The job never ran: an earlier failure aborted the map first
    /// (fail-fast mode only).
    Skipped,
}

/// Locks a mutex even if a previous holder panicked — the protected data
/// here (job slots, result slots) is only ever whole values, so a poison
/// marker carries no information worth dying for.
pub(crate) fn lock_clean<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs fallible `jobs` on up to `workers` OS threads with per-job fault
/// isolation: a panicking job is caught and recorded, never allowed to
/// poison shared state or tear down sibling jobs. Output order matches
/// input order. With `fail_fast`, the first non-`Done` outcome stops new
/// jobs from starting (already-running ones finish); the untouched tail
/// comes back as [`JobStatus::Skipped`].
pub fn parallel_map_isolated<T, E, F>(
    jobs: Vec<F>,
    workers: usize,
    fail_fast: bool,
) -> Vec<JobStatus<T, E>>
where
    T: Send,
    E: Send,
    F: FnOnce() -> Result<T, E> + Send,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = jobs.len();
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<JobStatus<T, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);

    std::thread::scope(|s| {
        for _ in 0..workers.max(1).min(n.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if abort.load(Ordering::SeqCst) {
                    *lock_clean(&results[i]) = Some(JobStatus::Skipped);
                    continue;
                }
                let job = lock_clean(&jobs[i])
                    .take()
                    .expect("each job index is claimed exactly once");
                let status = match catch_unwind(AssertUnwindSafe(job)) {
                    Ok(Ok(v)) => JobStatus::Done(v),
                    Ok(Err(e)) => JobStatus::Failed(e),
                    Err(payload) => JobStatus::Panicked(payload),
                };
                if fail_fast && !matches!(status, JobStatus::Done(_)) {
                    abort.store(true, Ordering::SeqCst);
                }
                *lock_clean(&results[i]) = Some(status);
            });
        }
    });

    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every index was claimed")
        })
        .collect()
}

/// Best-effort text of a caught panic payload (`panic!` with a string
/// literal or a formatted message covers everything in this codebase).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Number of worker threads to use for sweeps.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// A report table: the `labels` columns left-aligned, then the `numbers`
/// columns right-aligned.
fn table(labels: &[&str], numbers: &[&str]) -> Table {
    let columns: Vec<(&str, Align)> = labels
        .iter()
        .map(|&h| (h, Align::Left))
        .chain(numbers.iter().map(|&h| (h, Align::Right)))
        .collect();
    Table::new(&columns)
}

/// Formats a float with two decimals.
fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage with one decimal and sign.
fn pct(x: f64) -> String {
    format!("{x:+.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_map_keeps_going_and_records_each_failure() {
        let jobs: Vec<Box<dyn FnOnce() -> Result<i32, String> + Send>> = vec![
            Box::new(|| Ok(10)),
            Box::new(|| panic!("pow")),
            Box::new(|| Err("nope".to_string())),
            Box::new(|| Ok(40)),
        ];
        let out = parallel_map_isolated(jobs, 2, false);
        assert!(matches!(out[0], JobStatus::Done(10)));
        assert!(matches!(&out[1], JobStatus::Panicked(p) if panic_message(p.as_ref()) == "pow"));
        assert!(matches!(&out[2], JobStatus::Failed(e) if e == "nope"));
        assert!(matches!(out[3], JobStatus::Done(40)));
    }

    #[test]
    fn isolated_map_fail_fast_skips_the_tail() {
        // Serial worker so the claim order is fully deterministic.
        let jobs: Vec<Box<dyn FnOnce() -> Result<i32, String> + Send>> = vec![
            Box::new(|| Ok(1)),
            Box::new(|| Err("stop here".to_string())),
            Box::new(|| Ok(3)),
            Box::new(|| Ok(4)),
        ];
        let out = parallel_map_isolated(jobs, 1, true);
        assert!(matches!(out[0], JobStatus::Done(1)));
        assert!(matches!(&out[1], JobStatus::Failed(e) if e == "stop here"));
        assert!(matches!(out[2], JobStatus::Skipped));
        assert!(matches!(out[3], JobStatus::Skipped));
    }
}
