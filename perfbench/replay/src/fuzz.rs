//! `fuzz SEED_BASE SEED_COUNT SPANS`: the `vex fuzz` path on the paper
//! machine at the default program size.
//!
//! Per seed, like the CLI: generate the program and analyze it, then
//! `check_seed` — which generates it again, runs the in-order oracle, and
//! runs every technique point × {1, 2, 4} threads, comparing each context's
//! architectural state with the oracle's. `check_program` is replayed from
//! its public parts so generation, analysis, oracle, decode and engine time
//! land in separate spans. Prints the simulated cycles as `cycles=<n>`;
//! exits non-zero on the first divergence.

use crate::span::{count, set_request, span};
use crate::{decode, simulate};
use std::sync::Arc;
use vex_gen::{GenConfig, THREAD_COUNTS};
use vex_isa::MachineConfig;
use vex_sim::oracle::{interpret, OracleState};
use vex_sim::{
    Engine, MemConfig, MemoryMode, MtMode, PreparedProgram, SimConfig, StopReason, Technique,
};

/// `vex_gen::diff`'s oracle and engine bounds and run configuration.
const ORACLE_INST_BOUND: u64 = 5_000_000;
const ENGINE_CYCLE_BOUND: u64 = 50_000_000;

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

pub fn main(args: &[String]) -> Result<(), String> {
    let [base, n, spans] = args else {
        return Err("usage: perfbench-replay fuzz SEED_BASE SEED_COUNT SPANS".to_string());
    };
    let parse = |v: &str| v.parse::<u64>().map_err(|_| format!("bad number `{v}`"));
    let (base, n) = (parse(base)?, parse(n)?);
    let cycles = span("run", || seeds(base, 0..n))?;
    crate::span::write(spans)?;
    println!("cycles={cycles}");
    Ok(())
}

/// Checks seeds `base + i` for `i` in `range`; returns the cycles simulated.
fn seeds(base: u64, range: std::ops::Range<u64>) -> Result<u64, String> {
    let mut cycles = 0;
    for i in range {
        set_request(i);
        let cfg = GenConfig {
            machine: MachineConfig::paper_4c4w(),
            seed: base.wrapping_add(i),
            size: GenConfig::DEFAULT_SIZE,
        };
        cycles += span("request", || check_seed(&cfg))?;
    }
    Ok(cycles)
}

fn check_seed(cfg: &GenConfig) -> Result<u64, String> {
    let seed = cfg.seed;
    let program = span("gen", || vex_gen::generate(cfg))?;
    let report = span("analyze", || vex_analyze::analyze(&program, &cfg.machine));
    count("analyze.programs", 1.0);
    if !report.is_clean() {
        return Err(format!(
            "seed {seed}: generated program fails static analysis"
        ));
    }
    count("analyze.clean", 1.0);

    let program = Arc::new(span("gen", || vex_gen::generate(cfg))?);
    let want = span("oracle", || interpret(&program, ORACLE_INST_BOUND));
    count("oracle.insts", want.insts_retired as f64);
    if !want.halted {
        return Err(format!("seed {seed}: the oracle did not halt"));
    }
    let mut cycles = 0;
    for (label, technique) in Technique::FIGURE16_SET {
        for n in THREAD_COUNTS {
            // `Engine::new` decodes each distinct program once, then builds
            // the engine over the shared table.
            let prepared = decode(Arc::clone(&program));
            let workload: Vec<PreparedProgram> = (0..n).map(|_| prepared.clone()).collect();
            let (engine, stop) = simulate(diff_config(&cfg.machine, technique, n), &workload, None);
            if stop != StopReason::AllRetired {
                return Err(format!("seed {seed}: {label} x{n} stopped with {stop:?}"));
            }
            if let Some(what) = span("oracle.compare", || diverges(&engine, &want)) {
                return Err(format!("seed {seed}: {label} x{n}: {what}"));
            }
            cycles += engine.stats.cycles;
        }
    }
    Ok(cycles)
}

/// The first context whose architectural state or retirement counters
/// differ from the oracle's, as `vex_gen::check_program` compares them.
fn diverges(engine: &Engine, want: &OracleState) -> Option<String> {
    engine.contexts.iter().enumerate().find_map(|(ctx, t)| {
        let s = &engine.stats.per_thread[ctx];
        let same = t.regs == want.regs
            && t.bregs == want.bregs
            && t.mem.digest() == want.mem.digest()
            && s.insts_retired == want.insts_retired
            && s.ops_issued == want.ops_issued
            && s.runs_completed == want.runs_completed;
        (!same).then(|| format!("context {ctx} differs from the oracle"))
    })
}
