//! Whole-stack integration: workload kernels → compiler → simulator,
//! checked against the sequential IR-interpreter oracle.

use clustered_vliw_smt::compiler::verify::interpret;
use clustered_vliw_smt::isa::MachineConfig;
use clustered_vliw_smt::mem::Memory;
use clustered_vliw_smt::sim::{
    run_single, CommPolicy, Engine, PreparedProgram, SimConfig, Technique,
};
use clustered_vliw_smt::workloads::{by_name, compile_benchmark, BENCHMARKS, MIXES};

/// Every shipped benchmark compiles, validates, halts, and its compiled
/// execution matches the sequential IR semantics exactly — for a sample of
/// techniques including the paper's proposal.
#[test]
fn benchmarks_match_sequential_oracle() {
    // Two representative benchmarks with full runs (others are covered by
    // the cheaper structural test below; full-suite equivalence would take
    // minutes in debug builds).
    for name in ["gsmencode", "g721encode"] {
        let b = by_name(name).unwrap();
        let kernel = (b.build)();
        let oracle = interpret(&kernel, 100_000_000);
        assert!(oracle.halted, "{name}: oracle did not halt");
        let program = compile_benchmark(name);
        for tech in [
            Technique::csmt(),
            Technique::ccsi(CommPolicy::AlwaysSplit),
            Technique::oosi(CommPolicy::NoSplit),
        ] {
            let (engine, _) = run_single(&program, tech, 2);
            for ctx in &engine.contexts {
                assert_eq!(
                    ctx.mem.digest(),
                    oracle.mem.digest(),
                    "{name} diverged under {}",
                    tech.label()
                );
            }
        }
    }
}

/// Structural health of the full suite: everything compiles and validates
/// on the paper machine, with plausible sizes and densities.
#[test]
fn all_benchmarks_compile_with_sane_shape() {
    let m = MachineConfig::paper_4c4w();
    for b in BENCHMARKS {
        let p = compile_benchmark(b.name);
        p.validate(&m).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert!(p.len() >= 5, "{}: too short ({})", b.name, p.len());
        let density = p.static_density();
        assert!(
            density > 0.5 && density <= 16.0,
            "{}: implausible static density {density}",
            b.name
        );
    }
}

/// Mixes reference existing benchmarks and compile as 4-program workloads.
#[test]
fn mixes_compile() {
    for mix in MIXES {
        let programs = clustered_vliw_smt::workloads::compile_mix(mix);
        assert_eq!(programs.len(), 4);
    }
}

/// High-ILP benchmarks must use inter-cluster communication more than
/// low-ILP ones — the property behind the paper's NS-vs-AS observation.
#[test]
fn comm_density_grows_with_ilp_class() {
    let comm_fraction = |name: &str| -> f64 {
        let p = compile_benchmark(name);
        let with_comm = p.instructions.iter().filter(|i| i.has_comm()).count();
        with_comm as f64 / p.len() as f64
    };
    let low = (comm_fraction("bzip2") + comm_fraction("gsmencode")) / 2.0;
    let high = (comm_fraction("colorspace") + comm_fraction("imgpipe")) / 2.0;
    assert!(
        high > low,
        "high-ILP kernels should be more comm-dense: low={low:.3} high={high:.3}"
    );
}

/// Building an engine copies no data: four `blowfish` contexts (over a
/// megabyte of data each) share their program's image and own no page
/// until they store. A respawned context owns none again and holds the
/// image exactly.
#[test]
fn engine_contexts_share_the_data_image_until_they_store() {
    let prepared = PreparedProgram::prepare(compile_benchmark("blowfish"));
    let data: usize = prepared.program().data.iter().map(|s| s.bytes.len()).sum();
    assert!(data > 1 << 20, "blowfish carries {data} bytes of data");
    let workload = vec![prepared.clone(); 4];
    let cfg = SimConfig::paper(Technique::ccsi(CommPolicy::AlwaysSplit), 4);
    let mut engine = Engine::with_prepared(cfg, &workload);
    for ctx in &engine.contexts {
        assert_eq!(ctx.mem.owned_pages(), 0);
        assert!(ctx.mem.resident_bytes() >= data);
    }
    let mut cycles = 0;
    while engine.contexts[0].mem.owned_pages() == 0 {
        engine.step();
        cycles += 1;
        assert!(
            cycles < 100_000,
            "blowfish stores within its first 100k cycles"
        );
    }
    let image = Memory::from_image(prepared.image());
    assert_ne!(engine.contexts[0].mem.first_difference(&image), None);
    engine.contexts[0].respawn();
    assert_eq!(engine.contexts[0].mem.owned_pages(), 0);
    assert_eq!(engine.contexts[0].mem.first_difference(&image), None);
}
