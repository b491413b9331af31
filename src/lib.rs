//! # clustered-vliw-smt — facade crate
//!
//! Re-exports the whole reproduction stack of Gupta, Sánchez & Llosa,
//! *"A Low Cost Split-Issue Technique to Improve Performance of SMT
//! Clustered VLIW Processors"* (IPDPS Workshops, 2010) so downstream users
//! can depend on one crate:
//!
//! * [`isa`] — the VEX-like clustered VLIW instruction set and machine model.
//! * [`mem`] — set-associative caches and functional memory.
//! * [`compiler`] — the mini VLIW compiler (BUG cluster assignment + list
//!   scheduling).
//! * [`sim`] — the cycle-accurate multithreaded simulator implementing the
//!   paper's contribution: cluster-level split-issue (CCSI/COSI) next to
//!   CSMT, SMT and operation-level split-issue (OOSI).
//! * [`workloads`] — the twelve calibrated benchmark kernels and the nine
//!   workload mixes of Figure 13.
//! * [`trace`] — the schema'd binary cycle-attribution trace stream and
//!   its replay into per-thread, per-cycle cause bins; see `docs/TRACE.md`.
//! * [`spec`] — declarative run/sweep specifications (TOML-subset parser,
//!   canonical printer, grid expansion); see `docs/SPECS.md`.
//! * [`experiments`] — the shared sweep runner plus the harness
//!   regenerating every figure of the evaluation.
//! * [`serve`] — the fault-tolerant sweep service (`vex serve`): a
//!   supervised worker-process pool with heartbeats, crash retries on a
//!   fixed backoff, a content-addressed result cache and graceful drain.
//! * [`asm`] — textual VEX assembly frontend, disassembler and the `.vexb`
//!   binary program format behind the `vex` CLI.
//! * [`gen`] — seeded random program generation and the differential
//!   harness checking every technique point against the in-order
//!   reference interpreter (`vex fuzz`).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

pub use vex_asm as asm;
pub use vex_compiler as compiler;
pub use vex_experiments as experiments;
pub use vex_gen as gen;
pub use vex_isa as isa;
pub use vex_mem as mem;
pub use vex_serve as serve;
pub use vex_sim as sim;
pub use vex_spec as spec;
pub use vex_trace as trace;
pub use vex_workloads as workloads;
