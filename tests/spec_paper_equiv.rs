//! The refactor-neutrality pin for the declarative run-spec layer: a
//! spec-driven run of the paper testbed must be **byte-identical** to the
//! flag-driven `SimConfig::paper` path, across all 8 technique points.
//!
//! Two layers of proof:
//!
//! 1. *Config equality* — parsing a paper-point spec and converting it
//!    with `RunSpec::to_sim_config` yields a `SimConfig` that is `==` to
//!    `SimConfig::paper(tech, 2)` field for field (machine, caches,
//!    budgets, seed, policies). Timing equality follows for free.
//! 2. *Stats equality* — actually simulating through the shared
//!    `SweepRunner` (shared decode tables, spec expansion) produces
//!    `SimStats` equal to `run_workload` on the hand-built config, at a
//!    reduced scale so the 8-point grid stays test-suite fast.

use clustered_vliw_smt::experiments::SweepRunner;
use clustered_vliw_smt::sim::{run_workload, Scale, SimConfig, Technique};
use clustered_vliw_smt::spec::{MixSpec, SweepSpec, WorkloadRef};
use clustered_vliw_smt::workloads::compile_benchmark;
use std::sync::Arc;

/// The paper testbed as a spec file would express it: `scale = "paper"`
/// plus the `SimConfig::paper` seed and cycle bound. Everything else —
/// machine, caches, renaming, respawn, SMT discipline — is the shared
/// default on both sides.
fn paper_point_spec(technique: &str) -> SweepSpec {
    SweepSpec::parse(&format!(
        "name = \"paper-point\"\n\
         scale = \"paper\"\n\
         techniques = [\"{technique}\"]\n\
         threads = [2]\n\
         [limits]\n\
         max_cycles = 50000000\n\
         [[mix]]\n\
         name = \"idct-pair\"\n\
         seed = 12648430  # 0xC0FFEE, the SimConfig::paper seed\n\
         members = [\"idct\", \"idct\"]\n"
    ))
    .expect("paper-point spec parses")
}

#[test]
fn spec_reproduces_paper_sim_config_for_all_8_techniques() {
    for (label, tech) in Technique::FIGURE16_SET {
        let spec = paper_point_spec(label);
        let points = spec.expand();
        assert_eq!(points.len(), 1, "{label}: one grid point");
        assert_eq!(
            points[0].to_sim_config(),
            SimConfig::paper(tech, 2),
            "{label}: spec-driven SimConfig must equal the flag-driven one"
        );
    }
}

#[test]
fn spec_driven_stats_match_flag_driven_stats_bit_for_bit() {
    // Same configuration on both sides, scaled down for test speed; the
    // scale enters through the one shared `Scale` type so the two paths
    // cannot encode different budgets.
    let scale = Scale {
        inst_limit: 4_000,
        timeslice: 800,
    };
    let idct = compile_benchmark("idct");
    let workload = [Arc::clone(&idct), Arc::clone(&idct), idct];

    for (label, tech) in Technique::FIGURE16_SET {
        let mut spec = SweepSpec::base(scale);
        spec.name = "paper-at-quick".into();
        spec.max_cycles = 50_000_000;
        spec.techniques = vec![tech];
        spec.threads = vec![2];
        spec.mixes = vec![MixSpec {
            name: "idct-x3".into(),
            members: vec![
                WorkloadRef::Builtin("idct".into()),
                WorkloadRef::Builtin("idct".into()),
                WorkloadRef::Builtin("idct".into()),
            ],
            seed: 0xC0FFEE,
        }];

        let outcome = SweepRunner::new(&spec).run().expect("sweep runs");
        assert_eq!(outcome.points.len(), 1);

        let flag_driven = run_workload(&SimConfig::paper_at(tech, 2, scale), &workload);
        assert_eq!(
            outcome.points[0].stats, flag_driven,
            "{label}: spec-driven stats diverged from the flag-driven path"
        );
        assert_eq!(
            outcome.points[0].stats.snapshot(),
            flag_driven.snapshot(),
            "{label}: snapshot strings must match byte for byte"
        );
    }
}

#[test]
fn example_specs_parse_and_round_trip() {
    for path in [
        "examples/paper.toml",
        "examples/narrow_2c.toml",
        "examples/big_cache.toml",
        "examples/serve.toml",
    ] {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let spec = SweepSpec::parse(&text).unwrap_or_else(|e| panic!("{path}:\n{e}"));
        assert!(
            !spec.expand().is_empty(),
            "{path} must expand to at least one point"
        );
        // Canonical print round-trips to the same value.
        assert_eq!(
            SweepSpec::parse(&spec.print()).expect("canonical form parses"),
            spec,
            "{path} round trip"
        );
    }
}

#[test]
fn paper_example_matches_the_paper_grid_builder() {
    let text = std::fs::read_to_string("examples/paper.toml").expect("read examples/paper.toml");
    let parsed = SweepSpec::parse(&text).expect("parse examples/paper.toml");
    let built = SweepSpec::paper_grid(Scale::DEFAULT);
    // Same grid, point for point (names aside — the file names itself).
    assert_eq!(parsed.expand().len(), built.expand().len());
    for (a, b) in parsed.expand().iter().zip(built.expand().iter()) {
        assert_eq!(a.to_sim_config(), b.to_sim_config());
        assert_eq!(a.mix.members, b.mix.members);
    }
}
