//! Pins the size of the engine's direct-application fast path.
//!
//! `DecodedProgram::decode` marks an instruction `direct` when activation
//! may write its effects straight into the register files instead of
//! materialising delay-buffer records (see `DecodedInst::direct`). Whether
//! an instruction takes that path never changes `SimStats` — the golden
//! snapshots cannot see it — only how fast the engine runs. A rewrite of
//! the classifier that quietly marks fewer instructions would therefore
//! pass every stats test while slowing every run down; this test fails
//! instead.
//!
//! The counts are the classifier's output on the twelve built-in kernels
//! compiled for the paper machine and for the narrow two-cluster machine.
//! A compiler change that reschedules the kernels moves them legitimately:
//! re-pin with the new counts and say why in the change description.

use clustered_vliw_smt::isa::MachineConfig;
use clustered_vliw_smt::sim::DecodedProgram;
use clustered_vliw_smt::workloads::{compile_benchmark_for, BENCHMARKS};

/// `(kernel, direct instructions on paper_4c4w, on narrow_2c)`; `None`
/// where the kernel does not fit the machine's register files.
const PINNED: &[(&str, Option<usize>, Option<usize>)] = &[
    ("mcf", Some(5), Some(5)),
    ("bzip2", Some(17), Some(17)),
    ("blowfish", Some(179), Some(175)),
    ("gsmencode", Some(33), Some(34)),
    ("g721encode", Some(81), Some(70)),
    ("g721decode", Some(85), Some(73)),
    ("cjpeg", Some(1049), Some(1164)),
    ("djpeg", Some(894), Some(1020)),
    ("imgpipe", Some(23), Some(51)),
    ("x264", Some(44), Some(56)),
    ("idct", Some(8), Some(69)),
    ("colorspace", Some(150), None),
];

fn direct_count(name: &str, m: &MachineConfig) -> Option<usize> {
    let program = compile_benchmark_for(name, m).ok()?;
    let decoded = DecodedProgram::decode(&program);
    Some(decoded.insts.iter().filter(|di| di.direct).count())
}

#[test]
fn direct_set_matches_pinned_counts() {
    let got: Vec<(&str, Option<usize>, Option<usize>)> = BENCHMARKS
        .iter()
        .map(|b| {
            (
                b.name,
                direct_count(b.name, &MachineConfig::paper_4c4w()),
                direct_count(b.name, &MachineConfig::narrow_2c()),
            )
        })
        .collect();
    assert_eq!(got, PINNED, "direct-application set changed");
}
