//! The cycle-attribution identity, property-tested across the whole
//! technique grid, plus a golden snapshot of the attribution report.
//!
//! The trace replay (`vex_trace::attribute`) promises a **total**
//! accounting: for every context, the nine cause bins partition the
//! run's cycles exactly — no cycle uncounted, none counted twice. This
//! test drives seeded random programs (the `vex-gen` generator that
//! backs `vex fuzz`) through all 8 technique points of Figure 16 with a
//! ring tracer attached and checks that identity against the
//! simulator's own counters, which are accumulated independently on the
//! other side of the trace boundary:
//!
//! * per-thread bins sum to `SimStats::cycles`,
//! * cycles with ≥ 1 issuer equal `cycles - empty_cycles`,
//! * cycles with ≥ 2 issuers equal `merged_cycles`,
//! * whole-pipeline memory-port freezes equal `memport_stall_cycles`,
//! * per-thread split counts equal the `ThreadStats` split counters.
//!
//! The golden half snapshots the rendered report for the same fixed
//! workload the `sim_golden_stats` determinism test pins
//! (`tests/fixtures/golden.vex`, 3 contexts, seed 0xDEAD_BEEF) across
//! the grid. Re-bless after an intentional timing-model change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test trace_attribution
//! ```
//!
//! The streaming half writes the same runs through a `FileSink` and
//! requires `attribute_stream` (the `vex trace --attribute` path) to
//! reproduce the ring's attribution, then mutates the golden trace's
//! bytes: every mutant must be attributed or rejected within a second.

use clustered_vliw_smt::asm::parse_program;
use clustered_vliw_smt::gen::{generate, GenConfig};
use clustered_vliw_smt::isa::{MachineConfig, Program};
use clustered_vliw_smt::sim::{
    attribute, render_attribution, Attribution, Bin, Engine, FileSink, MemoryMode, MtMode,
    RingSink, SimConfig, SimStats, Technique, TraceMeta,
};
use clustered_vliw_smt::trace::{attribute_stream, write_trace};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Runs a workload with a ring tracer attached and returns the stats
/// next to the replayed attribution (checking `attribute`'s internal
/// bins-sum identity on the way).
fn run_attributed(
    cfg: &SimConfig,
    workload: &[Arc<Program>],
) -> (SimStats, TraceMeta, Attribution) {
    let mut engine = Engine::new(cfg.clone(), workload);
    engine.set_tracer(Box::new(RingSink::unbounded()));
    engine.run();
    let ring = RingSink::reclaim(engine.take_tracer().expect("tracer was installed"))
        .expect("sink is a RingSink");
    let meta = ring.meta().expect("begin() recorded the geometry");
    let attr = attribute(&meta, &ring.into_events()).expect("replay must succeed");
    (engine.stats, meta, attr)
}

fn prop_config(tech: Technique, seed: u64) -> SimConfig {
    SimConfig {
        machine: MachineConfig::paper_4c4w(),
        caches: vex_mem::MemConfig::paper(),
        technique: tech,
        mt_mode: MtMode::Simultaneous,
        n_threads: 2,
        renaming: true,
        memory: MemoryMode::Real,
        timeslice: 300,
        inst_limit: 2_000,
        max_cycles: 500_000,
        seed,
        respawn: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// For any generated program and any technique point, the replayed
    /// bins account for every simulated cycle of every context, and the
    /// aggregate views agree with the simulator's own counters.
    #[test]
    fn bins_partition_every_cycle(seed in any::<u32>(), tech_idx in 0usize..Technique::FIGURE16_SET.len()) {
        let tech = Technique::FIGURE16_SET[tech_idx].1;
        let machine = MachineConfig::paper_4c4w();
        let program = Arc::new(
            generate(&GenConfig::new(machine, seed as u64)).expect("paper machine hosts the generator"),
        );
        // 3 contexts over 2 hardware threads, so the timeslice scheduler
        // rotates and slot occupancy changes mid-run.
        let workload: Vec<Arc<Program>> = (0..3).map(|_| Arc::clone(&program)).collect();
        let (stats, meta, attr) = run_attributed(&prop_config(tech, 0x5EED ^ seed as u64), &workload);

        prop_assert_eq!(attr.total_cycles, stats.cycles);
        prop_assert_eq!(meta.n_contexts as usize, workload.len());
        for (i, bins) in attr.threads.iter().enumerate() {
            let sum: u64 = bins.iter().sum();
            prop_assert_eq!(
                sum, stats.cycles,
                "context {} bins must sum to the run's {} cycles", i, stats.cycles
            );
        }
        prop_assert_eq!(attr.issue_cycles, stats.cycles - stats.empty_cycles);
        prop_assert_eq!(attr.merged_cycles, stats.merged_cycles);
        prop_assert_eq!(attr.memport_cycles, stats.memport_stall_cycles);
        for (i, t) in stats.per_thread.iter().enumerate() {
            prop_assert_eq!(attr.split_instructions[i], t.split_instructions);
            prop_assert_eq!(attr.split_parts[i], t.split_parts);
        }
    }
}

// ---- golden snapshot ------------------------------------------------

const GOLDEN: &str = include_str!("fixtures/golden.vex");
const SNAPSHOT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_attribution.txt"
);

/// Mirrors `sim_golden_stats::snapshot_config` so both golden tests pin
/// the same runs.
fn snapshot_config(tech: Technique) -> SimConfig {
    SimConfig {
        machine: MachineConfig::paper_4c4w(),
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

#[test]
fn attribution_report_matches_golden_snapshot() {
    let golden = Arc::new(parse_program(GOLDEN).expect("golden fixture must parse"));
    let workload: Vec<Arc<Program>> = (0..3).map(|_| Arc::clone(&golden)).collect();

    let mut got = String::new();
    for (name, tech) in Technique::FIGURE16_SET {
        let (stats, meta, attr) = run_attributed(&snapshot_config(tech), &workload);
        // The identity against the independent counter, once per point.
        assert_eq!(attr.total_cycles, stats.cycles, "{name}");
        got.push_str(&format!("[golden.vex / {name}]\n"));
        got.push_str(&render_attribution(&meta, &attr));
        got.push('\n');
    }

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(SNAPSHOT_PATH, &got).expect("write golden attribution snapshot");
        return;
    }
    let want = std::fs::read_to_string(SNAPSHOT_PATH)
        .expect("missing tests/fixtures/golden_attribution.txt; bless with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "attribution report diverged from the golden snapshot; if the \
         timing model changed intentionally, re-bless with UPDATE_GOLDEN=1"
    );
}

// ---- streaming replay ------------------------------------------------

fn golden_workload(contexts: usize) -> Vec<Arc<Program>> {
    let golden = Arc::new(parse_program(GOLDEN).expect("golden fixture must parse"));
    (0..contexts).map(|_| Arc::clone(&golden)).collect()
}

#[test]
fn file_sink_trace_streams_to_the_ring_attribution() {
    let workload = golden_workload(3);
    for (i, (name, tech)) in Technique::FIGURE16_SET.into_iter().enumerate() {
        let path =
            std::env::temp_dir().join(format!("vex_trace_stream_{}_{i}.vext", std::process::id()));
        let mut engine = Engine::new(snapshot_config(tech), &workload);
        engine.set_tracer(Box::new(
            FileSink::create(&path).expect("create trace file"),
        ));
        engine.run();
        let mut sink = engine.take_tracer().expect("tracer was installed");
        sink.finish().expect("trace file written");

        let file = std::fs::File::open(&path).expect("open trace file");
        let (_, streamed) = attribute_stream(file).expect("streamed replay must succeed");
        let (_, _, from_ring) = run_attributed(&snapshot_config(tech), &workload);
        assert_eq!(streamed, from_ring, "{name}");
        let _ = std::fs::remove_file(&path);
    }
}

/// The golden workload on two contexts, recorded to bytes: header bytes
/// 8..10 and 10..12 hold its 2 contexts and 2 hardware threads.
fn golden_trace() -> &'static [u8] {
    static TRACE: OnceLock<Vec<u8>> = OnceLock::new();
    TRACE.get_or_init(|| {
        let mut engine = Engine::new(
            snapshot_config(Technique::FIGURE16_SET[2].1),
            &golden_workload(2),
        );
        engine.set_tracer(Box::new(RingSink::unbounded()));
        engine.run();
        let ring = RingSink::reclaim(engine.take_tracer().expect("tracer was installed"))
            .expect("sink is a RingSink");
        let meta = ring.meta().expect("begin() recorded the geometry");
        write_trace(&meta, &ring.into_events())
    })
}

/// Streams `bytes`, which must finish, either way, within a second.
fn stream_within_budget(bytes: &[u8]) -> Result<Attribution, String> {
    let started = Instant::now();
    let result = attribute_stream(bytes).map(|(_, attr)| attr);
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "replay took {took:?}: {:?}",
        result.as_ref().map(|a| a.total_cycles)
    );
    result
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// A `.vext` with 1–4 bytes flipped (a quarter of them in the
    /// header) or cut at any offset is attributed or rejected, never a
    /// panic (this runs with overflow checks) and never a hang.
    #[test]
    fn mutated_traces_are_attributed_or_rejected_promptly(
        truncate in any::<bool>(),
        cut in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), 1u8..u8::MAX), 1..5),
    ) {
        let mut bytes = golden_trace().to_vec();
        if truncate {
            bytes.truncate(cut % bytes.len());
        } else {
            for (site, xor) in flips {
                let at = if site % 4 == 0 { site / 4 % 16 } else { site % bytes.len() };
                bytes[at] ^= xor;
            }
        }
        let _ = stream_within_budget(&bytes);
    }
}

#[test]
fn widened_header_geometry_attributes_promptly() {
    // Byte 9 raises the context count to 65282; byte 11 the hardware
    // threads. The contexts the trace never names stay unslotted.
    for widened in [&[9, 11][..], &[9][..]] {
        let mut bytes = golden_trace().to_vec();
        for &i in widened {
            bytes[i] = 0xFF;
        }
        let attr = stream_within_budget(&bytes).expect("a wider geometry is still valid");
        assert_eq!(attr.threads.len(), 65282, "{widened:?}");
        let idle = attr.threads[65281];
        assert_eq!(
            idle[Bin::Unslotted.index()] + idle[Bin::MemPort.index()],
            attr.total_cycles,
            "{widened:?}"
        );
    }
}
