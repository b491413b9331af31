//! Pins the compiler's output for every built-in kernel.
//!
//! The [`digest`] of each of the twelve kernels, compiled for six machine
//! shapes, must equal the value recorded in [`PINNED`]. The programs feed
//! every sweep point key, so a schedule change in any kernel would
//! silently invalidate journals and result caches; the golden-stats test
//! compiles only one kernel and would miss it. Shapes whose register
//! files cannot hold a kernel must keep failing with the same message.
//!
//! [`digest`] is this test's own byte-serial FNV-1a over the program's
//! derived `Hash`, not the point keys' `program_digest`: the table pins
//! what the compiler emits, and a change to how keys are hashed leaves it
//! alone. An intentional compiler change re-records the table: the
//! failure message prints the whole table as it now stands.

use clustered_vliw_smt::isa::{MachineConfig, Program};
use clustered_vliw_smt::workloads::{compile_benchmark_for, BENCHMARKS};
use std::hash::{Hash, Hasher};

/// FNV-1a 64 one byte at a time, with every integer folded as
/// fixed-width little-endian bytes (`usize` and enum discriminants as 8).
struct ByteFnv(u64);

impl Hasher for ByteFnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.write(&n.to_le_bytes());
    }

    fn write_u32(&mut self, n: u32) {
        self.write(&n.to_le_bytes());
    }

    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The program's derived `Hash` through [`ByteFnv`].
fn digest(program: &Program) -> u64 {
    let mut h = ByteFnv(0xcbf2_9ce4_8422_2325);
    program.hash(&mut h);
    h.finish()
}

/// The machine shapes the table covers, by label.
fn machines() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("paper_4c4w", MachineConfig::paper_4c4w()),
        ("narrow_2c", MachineConfig::narrow_2c()),
        ("small_1x4", MachineConfig::small(1, 4)),
        ("small_2x2", MachineConfig::small(2, 2)),
        ("small_4x2", MachineConfig::small(4, 2)),
        ("small_8x4", MachineConfig::small(8, 4)),
    ]
}

/// What compiling one kernel for one machine yields.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pinned {
    /// The program's digest.
    Digest(u64),
    /// The compile error's message.
    Error(&'static str),
}
use Pinned::{Digest, Error};

/// (machine label, kernel name, expected outcome), machines in
/// [`machines`] order and kernels in `BENCHMARKS` order.
const PINNED: &[(&str, &str, Pinned)] = &[
    ("paper_4c4w", "mcf", Digest(0x694423393f810819)),
    ("paper_4c4w", "bzip2", Digest(0x662297cd95ea25e2)),
    ("paper_4c4w", "blowfish", Digest(0x3a478719acf9cc49)),
    ("paper_4c4w", "gsmencode", Digest(0x13dfa5b3906f5af4)),
    ("paper_4c4w", "g721encode", Digest(0x0c645ec4146d6fa0)),
    ("paper_4c4w", "g721decode", Digest(0x20c8d0a8b569990c)),
    ("paper_4c4w", "cjpeg", Digest(0x5c45ef2894997a9e)),
    ("paper_4c4w", "djpeg", Digest(0xb753ec6c1256e128)),
    ("paper_4c4w", "imgpipe", Digest(0x3933716384b71e41)),
    ("paper_4c4w", "x264", Digest(0x94400d9bd0e1d978)),
    ("paper_4c4w", "idct", Digest(0x8c7098eb43424e81)),
    ("paper_4c4w", "colorspace", Digest(0x54c1f4f1c92a8357)),
    ("narrow_2c", "mcf", Digest(0xc309a51cbb428f3e)),
    ("narrow_2c", "bzip2", Digest(0x902c678561965667)),
    ("narrow_2c", "blowfish", Digest(0xad5ced6436ff46d3)),
    ("narrow_2c", "gsmencode", Digest(0x87127caeb5c663e4)),
    ("narrow_2c", "g721encode", Digest(0xdad5f2146ff12ccb)),
    ("narrow_2c", "g721decode", Digest(0x2724c9a36b21875a)),
    ("narrow_2c", "cjpeg", Digest(0xbdc534ddce7511d6)),
    ("narrow_2c", "djpeg", Digest(0xaf8e3124fa999057)),
    ("narrow_2c", "imgpipe", Digest(0x70ca4bcbf6d45af5)),
    ("narrow_2c", "x264", Digest(0x7fa28e62bb6a5fcc)),
    ("narrow_2c", "idct", Digest(0xd6d1f0e0de813a41)),
    ("narrow_2c", "colorspace", Error("benchmark `colorspace` failed to compile for 2x2-issue: cluster 0: 66 registers needed, 63 available")),
    ("small_1x4", "mcf", Digest(0x061ac1027ae25516)),
    ("small_1x4", "bzip2", Digest(0xc014c67764ee90c7)),
    ("small_1x4", "blowfish", Digest(0x909c1bc44e753e88)),
    ("small_1x4", "gsmencode", Digest(0xd51c08c15f7d840c)),
    ("small_1x4", "g721encode", Digest(0x11741eaf48da5968)),
    ("small_1x4", "g721decode", Digest(0xae7235537eaacd63)),
    ("small_1x4", "cjpeg", Digest(0x5791880fa27512a5)),
    ("small_1x4", "djpeg", Digest(0xff045095e683853c)),
    ("small_1x4", "imgpipe", Digest(0x401bd74c81a86dd5)),
    ("small_1x4", "x264", Digest(0x6298249ea6bcb70f)),
    ("small_1x4", "idct", Digest(0xfbd8ed71b3bd338a)),
    ("small_1x4", "colorspace", Error("benchmark `colorspace` failed to compile for 1x4-issue: cluster 0: 122 registers needed, 63 available")),
    ("small_2x2", "mcf", Digest(0xc309a51cbb428f3e)),
    ("small_2x2", "bzip2", Digest(0x902c678561965667)),
    ("small_2x2", "blowfish", Digest(0xad5ced6436ff46d3)),
    ("small_2x2", "gsmencode", Digest(0x87127caeb5c663e4)),
    ("small_2x2", "g721encode", Digest(0xdad5f2146ff12ccb)),
    ("small_2x2", "g721decode", Digest(0x2724c9a36b21875a)),
    ("small_2x2", "cjpeg", Digest(0xbdc534ddce7511d6)),
    ("small_2x2", "djpeg", Digest(0xaf8e3124fa999057)),
    ("small_2x2", "imgpipe", Digest(0x70ca4bcbf6d45af5)),
    ("small_2x2", "x264", Digest(0x7fa28e62bb6a5fcc)),
    ("small_2x2", "idct", Digest(0xd6d1f0e0de813a41)),
    ("small_2x2", "colorspace", Error("benchmark `colorspace` failed to compile for 2x2-issue: cluster 0: 66 registers needed, 63 available")),
    ("small_4x2", "mcf", Digest(0x694423393f810819)),
    ("small_4x2", "bzip2", Digest(0x691547a56d5b2d3e)),
    ("small_4x2", "blowfish", Digest(0x3a478719acf9cc49)),
    ("small_4x2", "gsmencode", Digest(0xc9926b5c23fed283)),
    ("small_4x2", "g721encode", Digest(0x46caed83d69b7576)),
    ("small_4x2", "g721decode", Digest(0xe9c368be53596efd)),
    ("small_4x2", "cjpeg", Digest(0xe393abf1e822c364)),
    ("small_4x2", "djpeg", Digest(0xa274a5a318e9242d)),
    ("small_4x2", "imgpipe", Digest(0x92757699a1961c2e)),
    ("small_4x2", "x264", Digest(0x2fa985984d88168c)),
    ("small_4x2", "idct", Digest(0xdcd760b0660f228a)),
    ("small_4x2", "colorspace", Digest(0x306619c37fedb35e)),
    ("small_8x4", "mcf", Digest(0xde8872fe9e8623d5)),
    ("small_8x4", "bzip2", Digest(0x9f44d53563b148c2)),
    ("small_8x4", "blowfish", Digest(0x4c41d479f23127fd)),
    ("small_8x4", "gsmencode", Digest(0x28b6a443d332c928)),
    ("small_8x4", "g721encode", Digest(0x9ceb55372bb2b91e)),
    ("small_8x4", "g721decode", Digest(0xcc800afea8c6d8a6)),
    ("small_8x4", "cjpeg", Digest(0x921b11f4b3c6f88c)),
    ("small_8x4", "djpeg", Digest(0xd083df93e67df50a)),
    ("small_8x4", "imgpipe", Digest(0x20e0f7224db5c662)),
    ("small_8x4", "x264", Digest(0xf898ddb293fbf4bc)),
    ("small_8x4", "idct", Digest(0xf5f2f0b651b5c445)),
    ("small_8x4", "colorspace", Digest(0x7691f7fd0451c2d7)),
];

fn compiled(m: &MachineConfig, name: &str) -> Result<u64, String> {
    compile_benchmark_for(name, m).map(|p| digest(&p))
}

#[test]
fn built_in_kernels_compile_to_the_pinned_programs() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    let mut row = 0;
    for (label, m) in machines() {
        for b in BENCHMARKS {
            let got = compiled(&m, b.name);
            let shown = match &got {
                Ok(d) => format!("Digest({d:#018x})"),
                Err(e) => format!("Error({e:?})"),
            };
            table.push_str(&format!("    ({label:?}, {:?}, {shown}),\n", b.name));
            let expected = PINNED.get(row).filter(|p| p.0 == label && p.1 == b.name);
            let matches = match (expected.map(|p| p.2), &got) {
                (Some(Digest(want)), Ok(d)) => want == *d,
                (Some(Error(want)), Err(e)) => want == e,
                _ => false,
            };
            if !matches {
                mismatches.push(format!("{label}/{}: {shown}", b.name));
            }
            row += 1;
        }
    }
    assert!(
        mismatches.is_empty() && PINNED.len() == row,
        "{} of {row} compiled kernels differ from the pinned table (which has {} rows):\n{}\n\
         the table as it now stands:\n{table}",
        mismatches.len(),
        PINNED.len(),
        mismatches.join("\n"),
    );
}
