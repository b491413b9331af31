//! The §V-B invariant, fuzzed: every generated program must produce
//! identical final architectural state under all 8 technique points ×
//! {1, 2, 4} hardware threads, byte-for-byte equal to the in-order
//! reference interpreter.
//!
//! Seeds and sizes are drawn by proptest (`PROPTEST_CASES`/`PROPTEST_SEED`
//! scale the sweep); `vex fuzz` runs the same harness at much higher seed
//! counts from the command line.

use proptest::prelude::*;
use vex_gen::{check_seed, GenConfig};
use vex_isa::MachineConfig;

/// Checks one `(machine, seed, size)` point, printing the failing
/// program's `.vex` text and the reproduction command on divergence.
fn check(machine: MachineConfig, seed: u64, size: u32) {
    let cfg = GenConfig {
        machine,
        seed,
        size,
    };
    match check_seed(&cfg).expect("preset machines fit the generator") {
        Ok(()) => {}
        Err(failure) => panic!(
            "architectural divergence: {}\nreproduce: vex fuzz --seed-base {} --seed-count 1 --size {}\n{}",
            failure.mismatch,
            cfg.seed,
            cfg.size,
            failure.program
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Paper testbed (4 clusters x 4-issue), the machine every figure of
    /// the evaluation uses.
    #[test]
    fn paper_machine_matches_oracle(seed in any::<u64>(), size in 4u32..40) {
        check(MachineConfig::paper_4c4w(), seed, size);
    }

    /// Two narrow 2-issue clusters: merging is much harder, split-issue
    /// kicks in far more often, and the cluster-renaming rotation wraps
    /// with every second thread.
    #[test]
    fn narrow_2c_machine_matches_oracle(seed in any::<u64>(), size in 4u32..40) {
        check(MachineConfig::narrow_2c(), seed, size);
    }
}

/// A fixed low-seed sweep that always runs, independent of the proptest
/// seeding — the same seeds CI's `vex fuzz` smoke starts from.
#[test]
fn first_seeds_match_oracle_on_both_machines() {
    for seed in 0..8 {
        check(MachineConfig::paper_4c4w(), seed, GenConfig::DEFAULT_SIZE);
        check(MachineConfig::narrow_2c(), seed, GenConfig::DEFAULT_SIZE);
    }
}

/// A single-cluster machine: no communication, no renaming effect, but
/// the split policies still reorder issue within instructions.
#[test]
fn single_cluster_machine_matches_oracle() {
    for seed in 0..4 {
        check(MachineConfig::small(1, 4), seed, 16);
    }
}
