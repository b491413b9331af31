//! # vex-compiler — a miniature VLIW compiler for the VEX-like ISA
//!
//! The paper compiles its benchmarks with the VEX C compiler, an HP/ST ST200
//! derivative of the Multiflow compiler using Trace Scheduling and the
//! Bottom-Up-Greedy (BUG) cluster-assignment algorithm. That toolchain is
//! proprietary and unavailable, so this crate reimplements the parts the
//! evaluation depends on:
//!
//! * an SSA-less register-transfer [`ir`] in which the workloads are written;
//! * [`cluster`]: BUG-style cluster assignment of virtual registers with
//!   load balancing and author pinning;
//! * [`schedule`]: a latency-cognizant list scheduler with a full resource
//!   model, automatic inter-cluster `send`/`recv` insertion and two-phase
//!   branch lowering (compare ≥ 2 cycles before the branch);
//! * [`regalloc`]: dedicated-register allocation onto the 64 GPRs / 8 branch
//!   registers per cluster;
//! * a schedule [`verify`] pass that independently re-checks every
//!   dependence latency and resource bound (also used as a property-test
//!   oracle).
//!
//! The pipeline is exposed as [`compile`]:
//!
//! ```
//! use vex_compiler::{compile, ir::{KernelBuilder, Val}};
//! use vex_isa::MachineConfig;
//!
//! let mut k = KernelBuilder::new("double");
//! let x = k.vreg();
//! k.movi(x, 21);
//! k.add(x, Val::V(x), Val::V(x));
//! k.halt();
//! let program = compile(&k.finish(), &MachineConfig::paper_4c4w()).unwrap();
//! assert!(program.validate(&MachineConfig::paper_4c4w()).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod ir;
pub mod regalloc;
pub mod schedule;
pub mod verify;

use vex_isa::{MachineConfig, Program};

/// Compiler failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Too many live virtual registers pinned/assigned to one cluster.
    OutOfRegisters {
        /// Cluster that ran out.
        cluster: u8,
        /// Registers demanded.
        needed: u32,
        /// Registers available.
        available: u32,
        /// GPR (`false`) or branch register (`true`) file.
        breg: bool,
    },
    /// The kernel is malformed (dangling block, bad fallthrough, etc.).
    Malformed(String),
    /// The independent schedule verifier found a violation (compiler bug).
    BadSchedule(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::OutOfRegisters {
                cluster,
                needed,
                available,
                breg,
            } => write!(
                f,
                "cluster {cluster}: {needed} {} needed, {available} available",
                if *breg {
                    "branch registers"
                } else {
                    "registers"
                }
            ),
            CompileError::Malformed(m) => write!(f, "malformed kernel: {m}"),
            CompileError::BadSchedule(m) => write!(f, "schedule verification failed: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiles a kernel to a VLIW [`Program`] for machine `m`.
///
/// Passes: cluster assignment → inter-cluster transfer legalisation →
/// per-block list scheduling → schedule verification → register allocation →
/// emission (with explicit NOPs for empty cycles, branch-target patching and
/// code layout).
pub fn compile(kernel: &ir::Kernel, m: &MachineConfig) -> Result<Program, CompileError> {
    kernel.check()?;
    let assignment = cluster::assign_clusters(kernel, m);
    let legal = cluster::legalize_xfers(kernel, &assignment, m);
    let scheduled = schedule::schedule_kernel(&legal, m)?;
    verify::verify_schedule(&legal, &scheduled, m)?;
    let alloc = regalloc::allocate(&legal, m)?;
    let program = schedule::emit(legal, &scheduled, &alloc, m);
    program
        .validate(m)
        .map_err(|e| CompileError::BadSchedule(format!("emitted program invalid: {e}")))?;
    Ok(program)
}
