//! Round-trip properties of the assembler:
//!
//! * `parse_program(print_program(p)) == p` for arbitrary canonical
//!   programs (text round-trip);
//! * `decode(encode(p)) == p` for the same programs (binary round-trip);
//! * both hold for every compiled built-in benchmark, which exercises the
//!   compiler's full output surface (send/recv pairs, remote branch
//!   registers, NOPs, data segments);
//! * a mutated `.vexb` decodes or is rejected with a `BinError`,
//!   and whatever decodes validates or is rejected, and analyzes, promptly
//!   and without a panic.
//!
//! "Canonical" means the form the parser itself produces: operand slots
//! filled left to right, `imm == 0` where the syntax does not carry an
//! immediate, and non-negative send/recv pair ids. The parser cannot
//! produce anything else, and the printer maps canonical programs to
//! canonical text.

use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use vex_asm::{decode, encode, parse_program, print_program};
use vex_isa::{
    BReg, DataSegment, Dest, Instruction, MachineConfig, Opcode, Operand, Operation, Program, Reg,
};

// ---- strategies ---------------------------------------------------

/// A cluster-local GPR (index ≥ 1 to stay off the hardwired zero; index 0
/// would round-trip fine, this just keeps generated programs plausible).
fn gpr(c: u8) -> impl Strategy<Value = Reg> {
    (1u8..64).prop_map(move |i| Reg::new(c, i))
}

fn breg(c: u8) -> impl Strategy<Value = BReg> {
    (0u8..8).prop_map(move |i| BReg::new(c, i))
}

/// A source operand: register or immediate.
fn src(c: u8) -> impl Strategy<Value = Operand> {
    prop_oneof![
        gpr(c).prop_map(Operand::Gpr),
        any::<i32>().prop_map(Operand::Imm),
    ]
}

fn alu_opcode() -> impl Strategy<Value = Opcode> {
    prop_oneof![
        Just(Opcode::Add),
        Just(Opcode::Sub),
        Just(Opcode::And),
        Just(Opcode::Or),
        Just(Opcode::Xor),
        Just(Opcode::Andc),
        Just(Opcode::Shl),
        Just(Opcode::Shr),
        Just(Opcode::Sra),
        Just(Opcode::Min),
        Just(Opcode::Maxu),
        Just(Opcode::Mull),
        Just(Opcode::Mulh),
    ]
}

fn cmp_opcode() -> impl Strategy<Value = Opcode> {
    prop_oneof![
        Just(Opcode::CmpEq),
        Just(Opcode::CmpNe),
        Just(Opcode::CmpLt),
        Just(Opcode::CmpLe),
        Just(Opcode::CmpGt),
        Just(Opcode::CmpGe),
        Just(Opcode::CmpLtu),
        Just(Opcode::CmpGeu),
    ]
}

fn unary_opcode() -> impl Strategy<Value = Opcode> {
    prop_oneof![
        Just(Opcode::Mov),
        Just(Opcode::Sxtb),
        Just(Opcode::Sxth),
        Just(Opcode::Zxtb),
        Just(Opcode::Zxth),
    ]
}

fn load_opcode() -> impl Strategy<Value = Opcode> {
    prop_oneof![
        Just(Opcode::Ldw),
        Just(Opcode::Ldh),
        Just(Opcode::Ldhu),
        Just(Opcode::Ldb),
        Just(Opcode::Ldbu),
    ]
}

fn store_opcode() -> impl Strategy<Value = Opcode> {
    prop_oneof![Just(Opcode::Stw), Just(Opcode::Sth), Just(Opcode::Stb)]
}

/// One canonical operation, generated for cluster 0; `relocate` moves it
/// to its real cluster afterwards. Branch targets carry a raw seed in
/// `imm`, clamped to the instruction count by `build_program`.
fn arb_op() -> impl Strategy<Value = Operation> {
    let c = 0u8;
    prop_oneof![
        // Binary ALU / MUL.
        (alu_opcode(), gpr(c), src(c), src(c))
            .prop_map(|(opc, d, a, b)| Operation::bin(opc, d, a, b)),
        // Unary.
        (unary_opcode(), gpr(c), src(c)).prop_map(|(opc, d, a)| {
            let mut op = Operation::new(opc);
            op.dst = Dest::Gpr(d);
            op.a = a;
            op
        }),
        // Compare to GPR or branch register.
        (cmp_opcode(), gpr(c), src(c), src(c))
            .prop_map(|(opc, d, a, b)| Operation::bin(opc, d, a, b)),
        (cmp_opcode(), breg(c), src(c), src(c)).prop_map(|(opc, d, a, b)| {
            let mut op = Operation::new(opc);
            op.dst = Dest::Breg(d);
            op.a = a;
            op.b = b;
            op
        }),
        // Select.
        (gpr(c), src(c), src(c), breg(c)).prop_map(|(d, a, b, cond)| {
            let mut op = Operation::new(Opcode::Slct);
            op.dst = Dest::Gpr(d);
            op.a = a;
            op.b = b;
            op.c = Operand::Breg(cond);
            op
        }),
        // Memory.
        (load_opcode(), gpr(c), gpr(c), any::<i32>())
            .prop_map(|(opc, d, base, off)| Operation::load(opc, d, base, off)),
        (store_opcode(), gpr(c), any::<i32>(), src(c))
            .prop_map(|(opc, base, off, v)| Operation::store(opc, base, off, v)),
        // Control. Branch registers may be remote (VEX allows it), so the
        // condition's cluster is part of the generated value.
        (0u8..4, 0u8..8, 0u16..1000, any::<bool>()).prop_map(|(bc, bi, t, f)| {
            let mut op = Operation::new(if f { Opcode::Br } else { Opcode::Brf });
            op.a = Operand::Breg(BReg::new(bc, bi));
            op.imm = t as i32;
            op
        }),
        (0u16..1000).prop_map(|t| {
            let mut op = Operation::new(Opcode::Goto);
            op.imm = t as i32;
            op
        }),
        Just(Operation::new(Opcode::Halt)),
        // Inter-cluster communication (pair ids are non-negative).
        (gpr(c), 0u16..16).prop_map(|(a, id)| {
            let mut op = Operation::new(Opcode::Send);
            op.a = Operand::Gpr(a);
            op.imm = id as i32;
            op
        }),
        (gpr(c), 0u16..16).prop_map(|(d, id)| {
            let mut op = Operation::new(Opcode::Recv);
            op.dst = Dest::Gpr(d);
            op.imm = id as i32;
            op
        }),
    ]
}

fn arb_name() -> impl Strategy<Value = String> {
    (0u8..26, prop::collection::vec(0u8..38, 0..12)).prop_map(|(first, rest)| {
        const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_";
        let mut s = String::new();
        s.push((b'a' + first) as char);
        for i in rest {
            s.push(TAIL[i as usize] as char);
        }
        s
    })
}

fn arb_data() -> impl Strategy<Value = DataSegment> {
    (any::<u32>(), prop::collection::vec(any::<u8>(), 0..40))
        .prop_map(|(base, bytes)| DataSegment { base, bytes })
}

/// Moves a cluster-0-generated operation to cluster `c` by relocating its
/// GPR references (branch-register operands keep their generated cluster:
/// branches may read remote branch registers).
fn relocate(mut op: Operation, c: u8) -> Operation {
    if let Dest::Gpr(r) = op.dst {
        op.dst = Dest::Gpr(Reg::new(c, r.index));
    }
    if let Dest::Breg(b) = op.dst {
        op.dst = Dest::Breg(BReg::new(c, b.index));
    }
    for o in [&mut op.a, &mut op.b, &mut op.c] {
        if let Operand::Gpr(r) = *o {
            *o = Operand::Gpr(Reg::new(c, r.index));
        }
    }
    op
}

/// Materialises a program: each `(cluster_seed, op)` pair lands in bundle
/// `cluster_seed % n_clusters`, and branch targets are clamped to the
/// instruction count.
fn build_program(
    n_clusters: u8,
    name: String,
    inst_specs: Vec<Vec<(u8, Operation)>>,
    data: Vec<DataSegment>,
) -> Program {
    let n_insts = inst_specs.len() as i32;
    let mut instructions = Vec::with_capacity(inst_specs.len());
    for spec in inst_specs {
        let mut inst = Instruction::nop(n_clusters);
        for (c_seed, op) in spec {
            let c = c_seed % n_clusters;
            let mut op = relocate(op, c);
            if op.opcode.is_ctrl() && op.opcode != Opcode::Halt {
                op.imm %= n_insts;
            }
            inst.bundles[c as usize].ops.push(op);
        }
        instructions.push(inst);
    }
    Program::new(name, instructions, data)
}

proptest! {
    /// Text round-trip: parse ∘ print = id over canonical programs.
    #[test]
    fn parse_print_is_identity(
        n_clusters in 1u8..5,
        name in arb_name(),
        inst_specs in prop::collection::vec(
            prop::collection::vec((0u8..4, arb_op()), 0..6), 1..10),
        data in prop::collection::vec(arb_data(), 0..3),
    ) {
        let p = build_program(n_clusters, name, inst_specs, data);
        let text = print_program(&p);
        let q = parse_program(&text).unwrap_or_else(|e| {
            panic!("printed program failed to parse:\n{e}\n--- text ---\n{text}")
        });
        prop_assert_eq!(&p, &q, "text round-trip diverged:\n{}", text);
    }

    /// Binary round-trip: decode ∘ encode = id over the same programs.
    #[test]
    fn encode_decode_is_identity(
        n_clusters in 1u8..5,
        name in arb_name(),
        inst_specs in prop::collection::vec(
            prop::collection::vec((0u8..4, arb_op()), 0..6), 1..10),
        data in prop::collection::vec(arb_data(), 0..3),
    ) {
        let p = build_program(n_clusters, name, inst_specs, data);
        let bytes = encode(&p);
        let q = decode(&bytes).expect("encoded program must decode");
        prop_assert_eq!(p, q);
    }
}

// ---- exhaustive checks over the compiled benchmark suite ----------

#[test]
fn every_builtin_benchmark_roundtrips_through_text_and_binary() {
    for (name, program) in vex_workloads::compile_all() {
        let text = print_program(&program);
        let reparsed = parse_program(&text)
            .unwrap_or_else(|e| panic!("benchmark `{name}` failed to re-parse:\n{e}"));
        assert_eq!(
            *program, reparsed,
            "benchmark `{name}` text round-trip diverged"
        );

        let decoded = decode(&encode(&program))
            .unwrap_or_else(|e| panic!("benchmark `{name}` failed to re-decode: {e}"));
        assert_eq!(
            *program, decoded,
            "benchmark `{name}` binary round-trip diverged"
        );
    }
}

#[test]
fn printed_text_is_stable_under_a_second_roundtrip() {
    // print ∘ parse is idempotent on printer output (fixed point).
    let (_, program) = &vex_workloads::compile_all()[0];
    let text1 = print_program(program);
    let text2 = print_program(&parse_program(&text1).unwrap());
    assert_eq!(text1, text2);
}

// ---- fuzz-artifact guarantee --------------------------------------

#[test]
fn generated_fuzz_programs_roundtrip_through_text_and_binary() {
    // `vex fuzz` prints a failing program as `.vex` text and promises the
    // file reproduces the failure byte-for-byte; that only holds if every
    // generator-producible program round-trips through the printer and
    // parser (and the `.vexb` codec, for cached artifacts).
    for machine in [
        vex_isa::MachineConfig::paper_4c4w(),
        vex_isa::MachineConfig::narrow_2c(),
    ] {
        for seed in 0..40u64 {
            let program =
                vex_gen::generate(&vex_gen::GenConfig::new(machine.clone(), seed)).unwrap();
            let text = print_program(&program);
            let reparsed = parse_program(&text).unwrap_or_else(|e| {
                panic!("generated program (seed {seed}) failed to re-parse:\n{e}")
            });
            assert_eq!(program, reparsed, "seed {seed}: text round-trip diverged");
            let decoded = decode(&encode(&program)).unwrap();
            assert_eq!(program, decoded, "seed {seed}: binary round-trip diverged");
        }
    }
}

// ---- hostile binaries ---------------------------------------------

/// Encoded `.vexb` files to mutate: every built-in benchmark and 36
/// generated programs for the paper and the narrow machine.
fn binary_corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut corpus: Vec<Vec<u8>> = vex_workloads::compile_all()
            .iter()
            .map(|(_, p)| encode(p))
            .collect();
        for seed in 0..36u64 {
            let machine = if seed % 2 == 0 {
                MachineConfig::paper_4c4w()
            } else {
                MachineConfig::narrow_2c()
            };
            let program = vex_gen::generate(&vex_gen::GenConfig::new(machine, seed)).unwrap();
            corpus.push(encode(&program));
        }
        corpus
    })
}

/// Decodes `bytes` (a program or a `BinError`) and, when that succeeds,
/// validates the program for the paper machine and analyzes it when valid;
/// all of it within a second.
fn decode_within_budget(bytes: &[u8]) {
    let m = MachineConfig::paper_4c4w();
    let started = Instant::now();
    if let Ok(p) = decode(bytes) {
        if p.validate(&m).is_ok() {
            let _ = vex_analyze::analyze(&p, &m);
        }
    }
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "decoding took {took:?}");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// A `.vexb` with 1–4 bytes flipped (a quarter of them within the first
    /// 64 bytes: magic, version, name and the first instructions) or cut at
    /// any offset decodes or is rejected with a `BinError`, never a panic
    /// (this runs with overflow checks) and never a hang.
    #[test]
    fn mutated_binaries_are_decoded_or_rejected_promptly(
        pick in any::<usize>(),
        truncate in any::<bool>(),
        cut in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), 1u8..u8::MAX), 1..5),
    ) {
        let corpus = binary_corpus();
        let mut bytes = corpus[pick % corpus.len()].clone();
        if truncate {
            bytes.truncate(cut % bytes.len());
        } else {
            for (site, xor) in flips {
                let at = if site % 4 == 0 { site / 4 % 64 } else { site } % bytes.len();
                bytes[at] ^= xor;
            }
        }
        decode_within_budget(&bytes);
    }
}
