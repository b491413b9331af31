//! The cross-technique differential harness.
//!
//! The paper's §V-B invariant — no effect of a partially issued
//! instruction is architecturally visible before its last part issues —
//! implies that all 8 technique points of Figure 16 are architecturally
//! interchangeable: for any valid program they must produce the same
//! final registers, memory and retirement counts as a plain in-order
//! execution. [`check_program`] asserts exactly that, running the
//! program through every technique × {1, 2, 4} hardware threads (with
//! cluster renaming and the real cache model, so timing interleavings
//! differ wildly between configurations) and comparing each context's
//! final architectural state against [`vex_sim::oracle::interpret`].

use crate::gen::{generate, GenConfig};
use std::fmt;
use std::sync::Arc;
use vex_isa::{MachineConfig, Program};
use vex_sim::oracle::{interpret, OracleState};
use vex_sim::{
    Engine, MemConfig, MemoryMode, MtMode, PreparedProgram, SimConfig, StopReason, Technique,
};

/// Thread counts every technique point is checked under.
pub const THREAD_COUNTS: [u8; 3] = [1, 2, 4];

/// Safety bound on oracle instructions (generated programs terminate in
/// far fewer; hitting this means a generator bug).
const ORACLE_INST_BOUND: u64 = 5_000_000;
/// Safety bound on simulated cycles per engine run.
const ENGINE_CYCLE_BOUND: u64 = 50_000_000;

/// One architectural divergence between the engine and the oracle.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Technique label ("CCSI AS", ...) of the diverging run, or a
    /// pseudo-label for pre-run failures.
    pub technique: &'static str,
    /// Hardware thread count of the diverging run.
    pub n_threads: u8,
    /// Context index whose state diverged.
    pub context: usize,
    /// What differed, with both values.
    pub what: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} with {} thread(s), context {}: {}",
            self.technique, self.n_threads, self.context, self.what
        )
    }
}

/// A reproducible differential failure: the program plus the first
/// divergence observed.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The offending program (prints as round-trippable `.vex` text via
    /// `vex_asm::print_program`).
    pub program: Program,
    /// The divergence.
    pub mismatch: Mismatch,
}

/// The engine configuration a differential run uses: the real cache
/// model, cluster renaming, SMT issue — everything that makes the timing
/// interleavings diverge while §V-B says the architecture must not.
fn diff_config(machine: &MachineConfig, technique: Technique, n_threads: u8) -> SimConfig {
    SimConfig {
        machine: machine.clone(),
        caches: MemConfig::paper(),
        technique,
        n_threads,
        renaming: true,
        memory: MemoryMode::Real,
        timeslice: u64::MAX,
        inst_limit: u64::MAX,
        max_cycles: ENGINE_CYCLE_BOUND,
        seed: 0xC0FFEE,
        mt_mode: MtMode::Simultaneous,
        respawn: false,
    }
}

/// Compares one finished context against the oracle. Returns the first
/// difference found.
fn compare_context(engine: &Engine, ctx: usize, want: &OracleState) -> Option<String> {
    let t = &engine.contexts[ctx];
    for (i, (&got, &exp)) in t.regs.iter().zip(want.regs.iter()).enumerate() {
        if got != exp {
            return Some(format!(
                "$r{}.{} = {got:#x}, oracle says {exp:#x}",
                i / 64,
                i % 64
            ));
        }
    }
    for (i, (&got, &exp)) in t.bregs.iter().zip(want.bregs.iter()).enumerate() {
        if got != exp {
            return Some(format!("$b{}.{} = {got}, oracle says {exp}", i / 8, i % 8));
        }
    }
    if let Some(addr) = t.mem.first_difference(&want.mem) {
        return Some(format!(
            "memory byte {addr:#010x} = {:#04x}, oracle says {:#04x}",
            t.mem.read_u8(addr),
            want.mem.read_u8(addr)
        ));
    }
    let s = &engine.stats.per_thread[ctx];
    if s.insts_retired != want.insts_retired {
        return Some(format!(
            "{} instructions retired, oracle says {}",
            s.insts_retired, want.insts_retired
        ));
    }
    if s.ops_issued != want.ops_issued {
        return Some(format!(
            "{} ops issued, oracle says {}",
            s.ops_issued, want.ops_issued
        ));
    }
    if s.runs_completed != want.runs_completed {
        return Some(format!(
            "{} runs completed, oracle says {}",
            s.runs_completed, want.runs_completed
        ));
    }
    None
}

/// Runs `program` through all 8 technique points × [`THREAD_COUNTS`] and
/// asserts every context's final architectural state (registers, branch
/// registers, memory) and retirement counters are byte-identical to the
/// in-order reference interpreter. The program is decoded once and the
/// decode table shared by all 24 engines.
pub fn check_program(program: &Arc<Program>, machine: &MachineConfig) -> Result<(), Mismatch> {
    let want = interpret(program, ORACLE_INST_BOUND);
    if !want.halted {
        return Err(Mismatch {
            technique: "oracle",
            n_threads: 0,
            context: 0,
            what: format!(
                "reference interpreter did not halt within {ORACLE_INST_BOUND} instructions \
                 (generator termination guarantee violated)"
            ),
        });
    }

    let prepared = PreparedProgram::prepare(Arc::clone(program));
    for (label, technique) in Technique::FIGURE16_SET {
        for n in THREAD_COUNTS {
            let workload = vec![prepared.clone(); n as usize];
            let mut engine = Engine::with_prepared(diff_config(machine, technique, n), &workload);
            let reason = engine.run();
            if reason != StopReason::AllRetired {
                return Err(Mismatch {
                    technique: label,
                    n_threads: n,
                    context: 0,
                    what: format!("run stopped with {reason:?} instead of retiring"),
                });
            }
            for ctx in 0..engine.contexts.len() {
                if let Some(what) = compare_context(&engine, ctx, &want) {
                    return Err(Mismatch {
                        technique: label,
                        n_threads: n,
                        context: ctx,
                        what,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Generates the program for `cfg` and differentially checks it.
/// Generator errors (machine too small) surface as `Err(String)`;
/// divergences as `Ok(Err(failure))`.
pub fn check_seed(cfg: &GenConfig) -> Result<Result<(), Failure>, String> {
    let program = generate(cfg)?;
    let arc = Arc::new(program);
    match check_program(&arc, &cfg.machine) {
        Ok(()) => Ok(Ok(())),
        Err(mismatch) => Ok(Err(Failure {
            program: Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone()),
            mismatch,
        })),
    }
}

/// Shrinks a failing seed by re-generating at successively smaller sizes
/// (same seed, same machine) and returns the smallest configuration that
/// still fails — by construction a prefix-structured, usually much
/// shorter program. Falls back to the original failure when no smaller
/// size reproduces it.
pub fn shrink(cfg: &GenConfig, original: Failure) -> (GenConfig, Failure) {
    for size in 1..cfg.size {
        let candidate = GenConfig {
            machine: cfg.machine.clone(),
            seed: cfg.seed,
            size,
        };
        if let Ok(Err(failure)) = check_seed(&candidate) {
            return (candidate, failure);
        }
    }
    (cfg.clone(), original)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A generated program run to completion on the oracle and on one
    /// single-thread OOSI AS engine, which agree.
    fn oracle_and_engine() -> (OracleState, Engine) {
        let cfg = GenConfig {
            machine: MachineConfig::paper_4c4w(),
            seed: 7,
            size: GenConfig::DEFAULT_SIZE,
        };
        let program = Arc::new(generate(&cfg).expect("the paper machine fits the generator"));
        let want = interpret(&program, ORACLE_INST_BOUND);
        assert!(want.halted);
        let technique = Technique::FIGURE16_SET[7].1;
        let mut engine = Engine::new(diff_config(&cfg.machine, technique, 1), &[program]);
        assert_eq!(engine.run(), StopReason::AllRetired);
        assert_eq!(compare_context(&engine, 0, &want), None);
        (want, engine)
    }

    #[test]
    fn compare_context_reports_the_differing_memory_byte() {
        let (want, mut engine) = oracle_and_engine();
        // Generated programs keep their data in the arena on page 0, so
        // the oracle's image has that one 64KB page and no page 5.
        let addr = 0x0005_1234;
        assert_eq!(want.mem.resident_bytes(), 1 << 16);
        assert_eq!(want.mem.read_u8(addr), 0);
        engine.contexts[0].mem.write_u8(addr, 5);
        assert_eq!(
            compare_context(&engine, 0, &want).as_deref(),
            Some("memory byte 0x00051234 = 0x05, oracle says 0x00")
        );
    }

    #[test]
    fn compare_context_reports_a_changed_register() {
        let (want, mut engine) = oracle_and_engine();
        engine.contexts[0].regs[64 + 5] ^= 1;
        let what = compare_context(&engine, 0, &want).expect("the register differs");
        assert!(what.starts_with("$r1.5 = "), "{what}");
    }
}
