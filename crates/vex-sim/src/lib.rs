//! # vex-sim — cycle-accurate SMT clustered VLIW simulator
//!
//! This crate is the reproduction of the paper's contribution: a
//! multithreaded issue stage for clustered VLIW processors with
//! **cluster-level split-issue**, evaluated against the prior art:
//!
//! | merge \ split | none | cluster-level | operation-level |
//! |---------------|------|---------------|-----------------|
//! | cluster-level | CSMT | **CCSI**      | —               |
//! | operation-level | SMT | **COSI**     | OOSI            |
//!
//! The simulator is both *functional* (programs compute real results in
//! registers and memory) and *timing-accurate* at the cycle level, which is
//! what lets the test suite prove the paper's core correctness claim:
//! **split-issue never changes architectural results, only timing**.
//! See [`thread`] for the delay-buffer commit model, [`packet`] for the
//! merging hardware (Figure 7), [`engine`] for the per-cycle issue/commit
//! loop, stall model and timeslice multitasking.
//!
//! ## Quick example
//!
//! ```
//! use vex_compiler::{compile, ir::KernelBuilder};
//! use vex_isa::MachineConfig;
//! use vex_sim::{run_single, SimConfig, Technique};
//!
//! // A tiny program: add 1+2, store, halt.
//! let mut k = KernelBuilder::new("tiny");
//! let x = k.vreg();
//! k.movi(x, 1);
//! k.add(x, x, 2);
//! k.store(vex_compiler::ir::MemWidth::W, x, 0x100, 0, 1);
//! k.halt();
//! let program = std::sync::Arc::new(
//!     compile(&k.finish(), &MachineConfig::paper_4c4w()).unwrap(),
//! );
//!
//! let (engine, stats) = run_single(&program, Technique::csmt(), 1);
//! assert_eq!(engine.contexts[0].mem.read_u32(0x100), 3);
//! assert!(stats.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod decode;
pub mod engine;
pub mod oracle;
pub mod packet;
pub mod profile;
pub mod report;
pub mod rng;
pub mod stats;
pub mod table;
pub mod thread;
pub mod threaded;

pub use config::{
    CommPolicy, MemoryMode, MergePolicy, MtMode, Scale, SimConfig, SplitPolicy, Technique,
};
pub use decode::{DecodedInst, DecodedProgram};
pub use engine::{Engine, PreparedProgram, StopReason};
pub use oracle::{interpret, OracleState};
pub use packet::{Packet, MAX_CLUSTERS};
pub use profile::{CacheProfile, Profile};
pub use report::{attribution_json, render_attribution};
pub use stats::{speedup_pct, SimStats, ThreadStats};
pub use table::{Align, Table};
pub use thread::ThreadCtx;
pub use threaded::{Kind, ThreadedOp};
pub use vex_mem::MemConfig;
// The trace stream's types are part of the simulator's public surface
// (`Engine::set_tracer` takes a `TraceSink`); re-export the crate so
// downstream users need not name `vex-trace` separately.
pub use vex_trace::{
    attribute, Attribution, Bin, ClusterUse, FileSink, RingSink, TraceEvent, TraceMeta, TraceSink,
    NO_CTX,
};

use std::sync::Arc;
use vex_isa::Program;

/// Runs a multiprogrammed workload under `cfg` and returns the statistics.
pub fn run_workload(cfg: &SimConfig, programs: &[Arc<Program>]) -> SimStats {
    let (engine, _) = run_programs(cfg, programs);
    engine.stats
}

/// Runs a workload under `cfg` and returns the finished engine (for
/// architectural-state inspection: register files, memory digests) along
/// with the stop reason. This is the single entry point the `vex` CLI
/// drives; [`run_workload`] and [`run_single`] are conveniences over it.
pub fn run_programs(cfg: &SimConfig, programs: &[Arc<Program>]) -> (Engine, StopReason) {
    let mut engine = Engine::new(cfg.clone(), programs);
    let reason = engine.run();
    (engine, reason)
}

/// Runs a workload of pre-decoded programs under `cfg` and returns the
/// statistics. Sweep harnesses use this entry so one [`PreparedProgram`]
/// decode serves every grid point the program appears in.
pub fn run_prepared(cfg: &SimConfig, workload: &[PreparedProgram]) -> SimStats {
    run_prepared_full(cfg, workload).0
}

/// [`run_prepared`] plus the [`StopReason`] — the crash-safe sweep runner
/// needs to record whether a point terminated normally or was cut off by
/// the `max_cycles` watchdog ([`StopReason::Exhausted`]).
pub fn run_prepared_full(cfg: &SimConfig, workload: &[PreparedProgram]) -> (SimStats, StopReason) {
    let mut engine = Engine::with_prepared(cfg.clone(), workload);
    let reason = engine.run();
    (engine.stats, reason)
}

/// [`run_prepared_full`] with a periodic liveness hook: `hook` observes
/// the current cycle roughly every `every_cycles` simulated cycles while
/// the run loops (see [`Engine::set_heartbeat`]). Statistics are
/// bit-identical to the unobserved entry points — the sweep service's
/// worker processes use this to heartbeat their supervisor from inside a
/// busy cycle loop.
pub fn run_prepared_observed(
    cfg: &SimConfig,
    workload: &[PreparedProgram],
    every_cycles: u64,
    hook: Box<dyn FnMut(u64) + Send>,
) -> (SimStats, StopReason) {
    let mut engine = Engine::with_prepared(cfg.clone(), workload);
    engine.set_heartbeat(every_cycles, hook);
    let reason = engine.run();
    (engine.stats, reason)
}

/// Runs `n_copies` contexts of one program to completion (no respawn, no
/// instruction limit) — the setup used by the functional-equivalence tests.
/// Returns the finished engine (for architectural state inspection) and the
/// statistics.
pub fn run_single(
    program: &Arc<Program>,
    technique: Technique,
    n_copies: u8,
) -> (Engine, SimStats) {
    let cfg = SimConfig {
        technique,
        n_threads: n_copies.max(1),
        mt_mode: crate::config::MtMode::Simultaneous,
        respawn: false,
        inst_limit: u64::MAX,
        timeslice: u64::MAX,
        max_cycles: 200_000_000,
        memory: MemoryMode::Real,
        ..SimConfig::paper(technique, n_copies.max(1))
    };
    let programs: Vec<Arc<Program>> = (0..n_copies.max(1)).map(|_| Arc::clone(program)).collect();
    let mut engine = Engine::new(cfg, &programs);
    let reason = engine.run();
    assert_eq!(
        reason,
        StopReason::AllRetired,
        "program `{}` did not halt within the cycle bound",
        program.name
    );
    let stats = engine.stats.clone();
    (engine, stats)
}
