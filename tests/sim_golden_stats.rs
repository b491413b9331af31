//! Golden *determinism* test: the full `SimStats` counter set — cycles,
//! ops, stalls, splits, per-thread breakdowns — must stay bit-identical
//! across all 8 technique points of the paper's grid, for the
//! hand-written `tests/fixtures/golden.vex` program and a compiled
//! benchmark on the paper machine, and for a generated program on a
//! 16-cluster machine, at a fixed seed.
//!
//! The snapshot in `tests/fixtures/golden_stats.txt` was captured from the
//! engine *before* the pre-decode/packet refactor, so this test pins the
//! refactor (and all future perf work on the hot path) to the original
//! cycle-accurate behaviour. Any intentional timing-model change must
//! regenerate the fixture and justify the diff:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test sim_golden_stats
//! ```

use clustered_vliw_smt::asm::parse_program;
use clustered_vliw_smt::gen::{generate, GenConfig};
use clustered_vliw_smt::isa::{Instruction, MachineConfig, Program};
use clustered_vliw_smt::sim::{run_workload, CommPolicy, MemoryMode, MtMode, SimConfig, Technique};
use clustered_vliw_smt::workloads::compile_benchmark;
use std::sync::Arc;

const GOLDEN: &str = include_str!("fixtures/golden.vex");
const SNAPSHOT: &str = include_str!("fixtures/golden_stats.txt");

/// Generator seed of the 16-cluster section's program.
const WIDE_SEED: u64 = 1;

/// The eight technique points of Figure 16, in display order.
fn grid() -> Vec<(&'static str, Technique)> {
    Technique::FIGURE16_SET.to_vec()
}

/// A configuration that exercises every moving part the refactor touches:
/// more contexts than hardware threads (so the random timeslice scheduler
/// runs), real caches, renaming, respawn, and a small instruction budget.
fn snapshot_config(machine: MachineConfig, tech: Technique) -> SimConfig {
    SimConfig {
        machine,
        caches: vex_mem::MemConfig::paper(),
        technique: tech,
        mt_mode: MtMode::Simultaneous,
        n_threads: 2,
        renaming: true,
        memory: MemoryMode::Real,
        timeslice: 500,
        inst_limit: 5_000,
        max_cycles: 1_000_000,
        seed: 0xDEAD_BEEF,
        respawn: true,
    }
}

fn render(machine: &MachineConfig, programs: &[Arc<Program>], label: &str) -> String {
    let mut out = String::new();
    for (name, tech) in grid() {
        let stats = run_workload(&snapshot_config(machine.clone(), tech), programs);
        out.push_str(&format!("[{label} / {name}]\n{}", stats.snapshot()));
    }
    out
}

fn full_snapshot() -> String {
    let golden = Arc::new(parse_program(GOLDEN).expect("golden fixture must parse"));
    let golden_workload: Vec<Arc<Program>> = (0..3).map(|_| Arc::clone(&golden)).collect();

    let idct = compile_benchmark("idct");
    let idct_workload: Vec<Arc<Program>> = (0..3).map(|_| Arc::clone(&idct)).collect();

    // A 16-cluster machine reaches what the paper machine cannot:
    // instructions wider than 64 operations, and registers in cluster 15,
    // the top of the flat register-file index space.
    let wide_machine = MachineConfig::small(16, 8);
    let wide = Arc::new(
        generate(&GenConfig::new(wide_machine.clone(), WIDE_SEED)).expect("generator config"),
    );
    let widest = wide.instructions.iter().map(Instruction::op_count).max();
    assert!(
        widest > Some(64),
        "seed {WIDE_SEED} no longer yields an instruction wider than 64 operations \
         (widest: {widest:?})"
    );
    assert!(
        wide.instructions.iter().any(|i| !i.bundles[15].is_empty()),
        "seed {WIDE_SEED} no longer puts operations on cluster 15"
    );
    let wide_workload: Vec<Arc<Program>> = (0..3).map(|_| Arc::clone(&wide)).collect();

    let paper = MachineConfig::paper_4c4w();
    format!(
        "{}{}{}",
        render(&paper, &golden_workload, "golden.vex"),
        render(&paper, &idct_workload, "idct"),
        render(&wide_machine, &wide_workload, "gen 16x8"),
    )
}

#[test]
fn simstats_bit_identical_across_technique_grid() {
    let got = full_snapshot();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/golden_stats.txt"
        );
        std::fs::write(path, &got).expect("write golden snapshot");
        return;
    }
    assert_eq!(
        got, SNAPSHOT,
        "SimStats diverged from the golden snapshot; if the timing model \
         changed intentionally, re-bless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn repeated_runs_are_deterministic() {
    // Same config, same seed, fresh engine: byte-identical counters.
    let p = compile_benchmark("colorspace");
    let programs: Vec<Arc<Program>> = (0..4).map(|_| Arc::clone(&p)).collect();
    let cfg = snapshot_config(
        MachineConfig::paper_4c4w(),
        Technique::ccsi(CommPolicy::AlwaysSplit),
    );
    let a = run_workload(&cfg, &programs);
    let b = run_workload(&cfg, &programs);
    assert_eq!(a, b);
    assert_eq!(a.snapshot(), b.snapshot());
}
