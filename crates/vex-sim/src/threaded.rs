//! Threaded-code evaluation: the lowered operation table of a
//! [`crate::decode::DecodedProgram`] and the one evaluator that runs it.
//!
//! `lower_op` turns every [`Operation`] at decode time into a
//! [`ThreadedOp`]: a 20-byte table entry whose [`Kind`] is specialized per
//! **opcode × operand shape** (register/register, register/immediate,
//! immediate/register), with the [`OpRecord`] flag byte precomputed and
//! operands held as flat register-file indices or pre-folded immediates.
//! Every static decision is made there, once per program: opcode class,
//! operand shape, destination presence (writes to the immutable register
//! zero are dropped) and constant folding of two-immediate operations.
//!
//! Activation evaluates each op through `eval_op`, a single jump table
//! over [`Kind`] whose arms are fully inlined. In each ALU arm the opcode
//! is a compile-time constant, so [`Opcode::eval`] folds down to the one
//! operation and a record is materialized in host registers and written
//! exactly once. The differential fuzzer and the golden-stats fixture pin
//! the records against the in-order oracle. Timing is untouched: lowering
//! changes *how* the functional values are computed at activation, never
//! *what* issues when.

use crate::decode::{resolve_src, BREG_NONE, SRC_IMM};
use crate::packet::MAX_CLUSTERS;
use crate::thread::{
    BregFile, GprFile, OpRecord, CTRL_HALT, CTRL_NONE, F_BREG, F_BREG_VAL, F_GPR, F_MEM, F_PENDING,
    F_SIZE_SHIFT, F_STORE,
};
use vex_isa::{Dest, FuKind, Opcode, Operand, Operation};
use vex_mem::Memory;

/// Everything an evaluator may read: the (stable, pre-instruction)
/// architectural state plus the send-value capture buffer. All borrows are
/// shared — activation-time evaluation never writes architectural state
/// (§V-B: effects are delay-buffered in [`OpRecord`]s until commit).
pub struct EvalCtx<'a> {
    /// Flat GPR file of the activating context.
    pub(crate) regs: &'a GprFile,
    /// Flat branch-register file.
    pub(crate) bregs: &'a BregFile,
    /// Functional memory (the read-side API takes `&self`).
    pub(crate) mem: &'a Memory,
    /// Send values captured before record building, indexed by pair id.
    pub(crate) xfer: &'a [u32; 16],
}

/// One operation in threaded-code form: the fully lowered static half of an
/// [`OpRecord`], packed into 20 bytes. Operand fields are overloaded per
/// [`Kind`] (documented on the kind groups); `rec_flags` is the complete
/// record flag byte computed at decode time (`F_PENDING` included), so
/// evaluators never assemble flags dynamically — except `F_BREG_VAL`, the
/// one truly data-dependent bit. Source fields a kind does not read stay
/// zero.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ThreadedOp {
    /// Micro-op kind: selects the `eval_op` arm.
    pub k: Kind,
    /// Precomputed [`OpRecord`] flag byte.
    pub rec_flags: u8,
    /// First source: flat GPR index (load/store base address included).
    pub a: u16,
    /// Second source: flat GPR index (store value included).
    pub b: u16,
    /// Flat branch-register condition (`slct`, branches), or [`BREG_NONE`].
    pub cond: u16,
    /// The record's packed static half, copied verbatim into
    /// `OpRecord::statics` by every evaluator: flat destination index
    /// (low 16 bits; `0` when the record writes nothing), logical cluster
    /// (bits 16..24), FU-class index (bits 24..32).
    pub statics: u32,
    /// Primary immediate: ALU immediate operand, load/store byte offset,
    /// branch target, `recv` pair id, or `slct` true-arm constant.
    pub imm: u32,
    /// Secondary immediate: store value or `slct` false-arm constant.
    pub imm2: u32,
}

impl ThreadedOp {
    /// Logical cluster of the containing bundle.
    #[inline]
    pub fn log_cluster(&self) -> u8 {
        (self.statics >> 16) as u8
    }

    /// Functional-unit class.
    #[inline]
    pub fn fu(&self) -> FuKind {
        FuKind::from_index((self.statics >> 24) as usize)
    }

    /// Flat destination index (test introspection; evaluators copy the
    /// whole packed word instead).
    #[inline]
    pub fn dst(&self) -> u16 {
        self.statics as u16
    }

    /// Sets the packed destination index (lowering only; the field starts
    /// at zero).
    #[inline]
    fn set_dst(&mut self, dst: u16) {
        self.statics |= u32::from(dst);
    }
}

/// Generates the specialized kind space: the [`Kind`] enum, the
/// [`eval_op`] jump table, and the per-opcode shape lookups used by
/// [`lower_op`].
///
/// `gpr` rows are ALU/MUL opcodes writing a GPR ([`Opcode::eval`]
/// semantics, the opcode a compile-time constant in each generated arm);
/// `breg` rows are the same opcode space writing a branch register
/// ([`Opcode::eval_cond`] semantics). Each row names its three
/// shape-specialized kinds: `RR` (both sources registers), `RI` (second
/// source immediate), `IR` (first source immediate). Two-immediate
/// operations never reach these kinds — lowering constant-folds them.
macro_rules! threaded_kinds {
    (
        gpr { $( $gop:ident => $grr:ident $gri:ident $gir:ident; )* }
        breg { $( $bop:ident => $brr:ident $bri:ident $bir:ident; )* }
    ) => {
        /// Micro-op kind: one variant per opcode × operand shape.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        pub enum Kind {
            $(
                #[doc = concat!("`", stringify!($gop), "` → GPR, sources register/register.")]
                $grr,
                #[doc = concat!("`", stringify!($gop), "` → GPR, sources register/immediate.")]
                $gri,
                #[doc = concat!("`", stringify!($gop), "` → GPR, sources immediate/register.")]
                $gir,
            )*
            /// `slct` writing a GPR (reads `cond`), register/register.
            SlctRR,
            /// `slct` writing a GPR, register/immediate.
            SlctRI,
            /// `slct` writing a GPR, immediate/register.
            SlctIR,
            /// `slct` of two immediates (`imm`/`imm2`).
            SlctII,
            $(
                #[doc = concat!("`", stringify!($bop), "` → branch register, register/register.")]
                $brr,
                #[doc = concat!("`", stringify!($bop), "` → branch register, register/immediate.")]
                $bri,
                #[doc = concat!("`", stringify!($bop), "` → branch register, immediate/register.")]
                $bir,
            )*
            /// Branch-register write folded to a constant at decode.
            BregConst,
            /// Word load (base is always a register: immediate bases fold
            /// into the offset at decode; same for the widths below).
            LdW,
            /// Sign-extending halfword load.
            LdH,
            /// Zero-extending halfword load.
            LdHu,
            /// Sign-extending byte load.
            LdB,
            /// Zero-extending byte load.
            LdBu,
            /// Store of a register value (size lives in the precomputed
            /// flag byte, not the kind).
            StR,
            /// Store of an immediate value.
            StI,
            /// Conditional branch, taken when the branch register is true.
            CondBrT,
            /// Conditional branch, taken when the branch register is false.
            CondBrF,
            /// Unconditional branch.
            Goto,
            /// End of the program run.
            Halt,
            /// Inter-cluster send (value captured before record building;
            /// the record itself is effect-free).
            Send,
            /// Inter-cluster receive of pair `imm`.
            Recv,
            /// No architectural effect (still occupies its FU and slot).
            Effectless,
        }

        /// Evaluates one op against the pre-instruction state: the single
        /// jump table every activation runs, total over [`Kind`], with
        /// every arm inlined.
        #[inline(always)]
        pub(crate) fn eval_op(t: &ThreadedOp, cx: &EvalCtx) -> OpRecord {
            match t.k {
                $( Kind::$grr => gpr(t, Opcode::$gop.eval(reg(cx, t.a), reg(cx, t.b), false)), )*
                $( Kind::$gri => gpr(t, Opcode::$gop.eval(reg(cx, t.a), t.imm, false)), )*
                $( Kind::$gir => gpr(t, Opcode::$gop.eval(t.imm, reg(cx, t.b), false)), )*
                Kind::SlctRR => slct(t, cx, reg(cx, t.a), reg(cx, t.b)),
                Kind::SlctRI => slct(t, cx, reg(cx, t.a), t.imm),
                Kind::SlctIR => slct(t, cx, t.imm, reg(cx, t.b)),
                Kind::SlctII => slct(t, cx, t.imm, t.imm2),
                $( Kind::$brr => breg_rec(t, Opcode::$bop.eval_cond(reg(cx, t.a), reg(cx, t.b))), )*
                $( Kind::$bri => breg_rec(t, Opcode::$bop.eval_cond(reg(cx, t.a), t.imm)), )*
                $( Kind::$bir => breg_rec(t, Opcode::$bop.eval_cond(t.imm, reg(cx, t.b))), )*
                Kind::LdW => load(t, cx, Memory::read_u32),
                Kind::LdH => load(t, cx, |m, a| m.read_u16(a) as i16 as i32 as u32),
                Kind::LdHu => load(t, cx, |m, a| u32::from(m.read_u16(a))),
                Kind::LdB => load(t, cx, |m, a| m.read_u8(a) as i8 as i32 as u32),
                Kind::LdBu => load(t, cx, |m, a| u32::from(m.read_u8(a))),
                Kind::StR => store(t, cx, reg(cx, t.b)),
                Kind::StI => store(t, cx, t.imm2),
                Kind::CondBrT => branch(t, breg(cx, t.cond)),
                Kind::CondBrF => branch(t, !breg(cx, t.cond)),
                Kind::Goto => branch(t, true),
                Kind::Halt => OpRecord { ctrl: CTRL_HALT, ..rec(t) },
                Kind::Recv if t.rec_flags & F_GPR != 0 => gpr(t, cx.xfer[t.imm as usize & 15]),
                // Sends were captured into the xfer buffer before record
                // building; a folded branch-register write already carries
                // its value in the flag byte.
                Kind::Recv | Kind::Send | Kind::BregConst | Kind::Effectless => rec(t),
            }
        }

        /// Shape-specialized kinds of a GPR-writing ALU/MUL opcode:
        /// `(RR, RI, IR)`.
        fn gpr_kinds(op: Opcode) -> (Kind, Kind, Kind) {
            match op {
                $( Opcode::$gop => (Kind::$grr, Kind::$gri, Kind::$gir), )*
                Opcode::Slct => (Kind::SlctRR, Kind::SlctRI, Kind::SlctIR),
                _ => unreachable!("non-ALU opcode {op:?} lowered as a GPR write"),
            }
        }

        /// Shape-specialized kinds of a branch-register-writing opcode.
        /// The whole ALU opcode space is covered (any ALU result can feed
        /// a branch register through `!= 0`, mirroring `eval_cond`).
        fn breg_kinds(op: Opcode) -> (Kind, Kind, Kind) {
            match op {
                $( Opcode::$bop => (Kind::$brr, Kind::$bri, Kind::$bir), )*
                _ => unreachable!("non-ALU opcode {op:?} lowered as a branch-register write"),
            }
        }
    };
}

threaded_kinds! {
    gpr {
        Add => AddRR AddRI AddIR;
        Sub => SubRR SubRI SubIR;
        And => AndRR AndRI AndIR;
        Or => OrRR OrRI OrIR;
        Xor => XorRR XorRI XorIR;
        Andc => AndcRR AndcRI AndcIR;
        Shl => ShlRR ShlRI ShlIR;
        Shr => ShrRR ShrRI ShrIR;
        Sra => SraRR SraRI SraIR;
        Min => MinRR MinRI MinIR;
        Max => MaxRR MaxRI MaxIR;
        Minu => MinuRR MinuRI MinuIR;
        Maxu => MaxuRR MaxuRI MaxuIR;
        Mov => MovRR MovRI MovIR;
        Sxtb => SxtbRR SxtbRI SxtbIR;
        Sxth => SxthRR SxthRI SxthIR;
        Zxtb => ZxtbRR ZxtbRI ZxtbIR;
        Zxth => ZxthRR ZxthRI ZxthIR;
        CmpEq => CmpEqRR CmpEqRI CmpEqIR;
        CmpNe => CmpNeRR CmpNeRI CmpNeIR;
        CmpLt => CmpLtRR CmpLtRI CmpLtIR;
        CmpLe => CmpLeRR CmpLeRI CmpLeIR;
        CmpGt => CmpGtRR CmpGtRI CmpGtIR;
        CmpGe => CmpGeRR CmpGeRI CmpGeIR;
        CmpLtu => CmpLtuRR CmpLtuRI CmpLtuIR;
        CmpGeu => CmpGeuRR CmpGeuRI CmpGeuIR;
        Mull => MullRR MullRI MullIR;
        Mulh => MulhRR MulhRI MulhIR;
    }
    breg {
        Add => AddBRR AddBRI AddBIR;
        Sub => SubBRR SubBRI SubBIR;
        And => AndBRR AndBRI AndBIR;
        Or => OrBRR OrBRI OrBIR;
        Xor => XorBRR XorBRI XorBIR;
        Andc => AndcBRR AndcBRI AndcBIR;
        Shl => ShlBRR ShlBRI ShlBIR;
        Shr => ShrBRR ShrBRI ShrBIR;
        Sra => SraBRR SraBRI SraBIR;
        Min => MinBRR MinBRI MinBIR;
        Max => MaxBRR MaxBRI MaxBIR;
        Minu => MinuBRR MinuBRI MinuBIR;
        Maxu => MaxuBRR MaxuBRI MaxuBIR;
        Mov => MovBRR MovBRI MovBIR;
        Sxtb => SxtbBRR SxtbBRI SxtbBIR;
        Sxth => SxthBRR SxthBRI SxthBIR;
        Zxtb => ZxtbBRR ZxtbBRI ZxtbBIR;
        Zxth => ZxthBRR ZxthBRI ZxthBIR;
        Slct => SlctBRR SlctBRI SlctBIR;
        CmpEq => CmpEqBRR CmpEqBRI CmpEqBIR;
        CmpNe => CmpNeBRR CmpNeBRI CmpNeBIR;
        CmpLt => CmpLtBRR CmpLtBRI CmpLtBIR;
        CmpLe => CmpLeBRR CmpLeBRI CmpLeBIR;
        CmpGt => CmpGtBRR CmpGtBRI CmpGtBIR;
        CmpGe => CmpGeBRR CmpGeBRI CmpGeBIR;
        CmpLtu => CmpLtuBRR CmpLtuBRI CmpLtuBIR;
        CmpGeu => CmpGeuBRR CmpGeuBRI CmpGeuBIR;
        Mull => MullBRR MullBRI MullBIR;
        Mulh => MulhBRR MulhBRI MulhBIR;
    }
}

// ---- evaluator plumbing ----------------------------------------------

/// Flat GPR read (register-zero slots are never written, so the
/// architectural zero falls out of the array). The mask makes the bound
/// obvious to the optimiser; decode validated the index.
#[inline(always)]
fn reg(cx: &EvalCtx, i: u16) -> u32 {
    cx.regs[i as usize & (MAX_CLUSTERS * 64 - 1)]
}

/// Flat branch-register read; [`BREG_NONE`] reads false.
#[inline(always)]
fn breg(cx: &EvalCtx, i: u16) -> bool {
    i != BREG_NONE && cx.bregs[i as usize & (MAX_CLUSTERS * 8 - 1)]
}

/// A record with the op's precomputed static half and no value yet.
#[inline(always)]
fn rec(t: &ThreadedOp) -> OpRecord {
    OpRecord {
        val: 0,
        mem_addr: 0,
        ctrl: CTRL_NONE,
        statics: t.statics,
        flags: t.rec_flags,
    }
}

/// A GPR-writing record (`rec_flags` already carries `F_GPR`).
#[inline(always)]
fn gpr(t: &ThreadedOp, val: u32) -> OpRecord {
    OpRecord { val, ..rec(t) }
}

/// A branch-register-writing record: `F_BREG_VAL` is the only flag bit
/// computed at evaluation time.
#[inline(always)]
fn breg_rec(t: &ThreadedOp, v: bool) -> OpRecord {
    let mut r = rec(t);
    r.flags |= if v { F_BREG_VAL } else { 0 };
    r
}

/// `slct` writing a GPR: `a` when the condition register is true.
#[inline(always)]
fn slct(t: &ThreadedOp, cx: &EvalCtx, a: u32, b: u32) -> OpRecord {
    gpr(t, if breg(cx, t.cond) { a } else { b })
}

/// A load: the value lands in the record and the D$ probe at `mem_addr`
/// stays a pure timing event at issue. A load whose destination folded
/// away (register zero) skips the functional read.
#[inline(always)]
fn load(t: &ThreadedOp, cx: &EvalCtx, read: impl Fn(&Memory, u32) -> u32) -> OpRecord {
    let mem_addr = reg(cx, t.a).wrapping_add(t.imm);
    let val = if t.rec_flags & F_GPR != 0 {
        read(cx.mem, mem_addr)
    } else {
        0
    };
    OpRecord {
        val,
        mem_addr,
        ..rec(t)
    }
}

/// A store of `val`, buffered until commit.
#[inline(always)]
fn store(t: &ThreadedOp, cx: &EvalCtx, val: u32) -> OpRecord {
    OpRecord {
        val,
        mem_addr: reg(cx, t.a).wrapping_add(t.imm),
        ..rec(t)
    }
}

/// A control record redirecting to `t.imm` when `taken`.
#[inline(always)]
fn branch(t: &ThreadedOp, taken: bool) -> OpRecord {
    OpRecord {
        ctrl: if taken { t.imm } else { CTRL_NONE },
        ..rec(t)
    }
}

// ---- lowering --------------------------------------------------------

/// Shape-dispatches a resolved `(a, b)` source pair onto the three
/// specialized kinds. Two-immediate shapes are folded before this point.
#[inline]
fn shape(kinds: (Kind, Kind, Kind), t: &mut ThreadedOp, a: u16, b: u16, imm: u32) -> Kind {
    match (a == SRC_IMM, b == SRC_IMM) {
        (false, false) => {
            t.a = a;
            t.b = b;
            kinds.0
        }
        (false, true) => {
            t.a = a;
            t.imm = imm;
            kinds.1
        }
        (true, false) => {
            t.b = b;
            t.imm = imm;
            kinds.2
        }
        (true, true) => unreachable!("two-immediate ALU shape survived constant folding"),
    }
}

/// Sets a memory operation's address fields: base register in `a`, byte
/// offset in `imm`. An immediate base folds into the offset; flat index 0
/// reads zero, so the address stays `a + imm`.
fn set_address(t: &mut ThreadedOp, op: &Operation) {
    t.rec_flags |= F_MEM;
    match resolve_src(op.a) {
        (_, Some(base)) => t.imm = (op.imm as u32).wrapping_add(base),
        (base, None) => {
            t.a = base;
            t.imm = op.imm as u32;
        }
    }
}

/// Lowers one operation of logical cluster `cluster` into its threaded-code
/// form. Pure table construction: every decision that does not depend on
/// architectural state is made here, once per program — opcode class,
/// operand shape, flag assembly, destination presence, constant folding.
///
/// Source operands resolve like [`resolve_src`]: `Breg`/`None` operands
/// read zero. Writes to the immutable register zero are dropped (the value
/// would be discarded at commit), so such an ALU operation lowers to
/// [`Kind::Effectless`] and such a load or recv to a record without a
/// destination. Control targets outside the program (possible only for
/// programs that skipped [`vex_isa::Program::validate`], e.g. negative
/// immediates) are clamped to `program_len`: any out-of-range `pc` behaves
/// identically (the engine's fell-off-the-end path), and the clamp keeps
/// targets clear of the record encoding's `u32` control sentinels.
pub(crate) fn lower_op(op: &Operation, cluster: u8, program_len: usize) -> ThreadedOp {
    let mut t = ThreadedOp {
        k: Kind::Effectless,
        rec_flags: F_PENDING,
        a: 0,
        b: 0,
        cond: BREG_NONE,
        statics: (u32::from(cluster) << 16) | ((op.fu_kind().index() as u32) << 24),
        imm: 0,
        imm2: 0,
    };
    let gpr_dst = match op.dst {
        Dest::Gpr(r) if r.index != 0 => Some(r.cluster as u16 * 64 + r.index as u16),
        _ => None,
    };
    let set_gpr_dst = |t: &mut ThreadedOp| {
        if let Some(d) = gpr_dst {
            t.rec_flags |= F_GPR;
            t.set_dst(d);
        }
    };
    let breg_cond = |o: Operand| match o {
        Operand::Breg(b) => b.cluster as u16 * 8 + b.index as u16,
        _ => BREG_NONE,
    };
    let target = (op.imm as usize).min(program_len) as u32;

    t.k = match op.opcode {
        o if o.is_load() => {
            set_address(&mut t, op);
            set_gpr_dst(&mut t);
            match o {
                Opcode::Ldw => Kind::LdW,
                Opcode::Ldh => Kind::LdH,
                Opcode::Ldhu => Kind::LdHu,
                Opcode::Ldb => Kind::LdB,
                _ => Kind::LdBu,
            }
        }
        o if o.is_store() => {
            set_address(&mut t, op);
            let log2_size = match o {
                Opcode::Stw => 2,
                Opcode::Sth => 1,
                _ => 0,
            };
            t.rec_flags |= F_STORE | (log2_size << F_SIZE_SHIFT);
            match resolve_src(op.b) {
                (_, Some(v)) => {
                    t.imm2 = v;
                    Kind::StI
                }
                (value, None) => {
                    t.b = value;
                    Kind::StR
                }
            }
        }
        Opcode::Send => Kind::Send,
        Opcode::Recv => {
            t.imm = op.imm as u32 & 15;
            set_gpr_dst(&mut t);
            Kind::Recv
        }
        Opcode::Br | Opcode::Brf => {
            t.cond = breg_cond(op.a);
            t.imm = target;
            if op.opcode == Opcode::Br {
                Kind::CondBrT
            } else {
                Kind::CondBrF
            }
        }
        Opcode::Goto => {
            t.imm = target;
            Kind::Goto
        }
        Opcode::Halt => Kind::Halt,
        o => {
            let (a, a_imm) = resolve_src(op.a);
            let (b, b_imm) = resolve_src(op.b);
            let imm = a_imm.or(b_imm).unwrap_or(0);
            let folded = a_imm.zip(b_imm);
            match (gpr_dst, op.dst) {
                (Some(_), _) => {
                    set_gpr_dst(&mut t);
                    t.cond = breg_cond(op.c);
                    match folded {
                        Some((ia, ib)) if o == Opcode::Slct => {
                            t.imm = ia;
                            t.imm2 = ib;
                            Kind::SlctII
                        }
                        // Constant under any condition (only `slct` reads
                        // `cond`): fold to a move of the result.
                        Some((ia, ib)) => {
                            t.imm = o.eval(ia, ib, false);
                            Kind::MovIR
                        }
                        None => shape(gpr_kinds(o), &mut t, a, b, imm),
                    }
                }
                (None, Dest::Breg(d)) => {
                    t.rec_flags |= F_BREG;
                    t.set_dst(d.cluster as u16 * 8 + d.index as u16);
                    match folded {
                        Some((ia, ib)) => {
                            if o.eval_cond(ia, ib) {
                                t.rec_flags |= F_BREG_VAL;
                            }
                            Kind::BregConst
                        }
                        None => shape(breg_kinds(o), &mut t, a, b, imm),
                    }
                }
                _ => Kind::Effectless,
            }
        }
    };
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::DecodedProgram;
    use crate::thread::ThreadCtx;
    use std::sync::Arc;
    use vex_isa::{BReg, Instruction, Program, Reg};

    /// The table entry is hot-loop traffic: 16 ops × 20 bytes spans two
    /// cache lines per activation. Growth here is a perf regression.
    #[test]
    fn threaded_op_is_20_bytes() {
        assert_eq!(std::mem::size_of::<ThreadedOp>(), 20);
    }

    fn program_of(inst: Instruction) -> Program {
        let mut halt = Instruction::nop(4);
        halt.bundles[0].ops.push(Operation::new(Opcode::Halt));
        Program::new("t", vec![inst, halt], vec![])
    }

    fn decode_single(op: Operation) -> DecodedProgram {
        let mut inst = Instruction::nop(4);
        inst.bundles[0].ops.push(op);
        DecodedProgram::decode(&program_of(inst))
    }

    fn is_alu(op: Opcode) -> bool {
        matches!(op.fu_kind(), FuKind::Alu | FuKind::Mul)
    }

    /// Every ALU/MUL opcode, in every operand shape (register/register,
    /// register/immediate, immediate/register, immediate/immediate) and
    /// destination class (a GPR, the immutable `$r0.0`, a branch register,
    /// none), activated and committed as a one-instruction program, leaves
    /// exactly the architectural state the ISA's [`Opcode::eval`] /
    /// [`Opcode::eval_cond`] define on the pre-instruction state — through
    /// the direct-application loop (the op alone) and through the record
    /// loop (the op beside a load, which rules direct application out).
    #[test]
    fn every_opcode_lowers_and_matches_isa() {
        let (r1, r2) = (Reg::new(0, 1), Reg::new(0, 2));
        let values = [
            (0x8000_0003, 0xffff_fff5),
            (7, 7),
            (0, 33),
            (0xffff, 0x1_0080),
        ];
        for op in Opcode::ALL.into_iter().filter(|&o| is_alu(o)) {
            for (va, vb) in values {
                let shapes = [
                    (Operand::Gpr(r1), Operand::Gpr(r2)),
                    (Operand::Gpr(r1), Operand::Imm(vb as i32)),
                    (Operand::Imm(va as i32), Operand::Gpr(r2)),
                    (Operand::Imm(va as i32), Operand::Imm(vb as i32)),
                ];
                let dsts = [
                    Dest::Gpr(Reg::new(0, 3)),
                    Dest::Gpr(Reg::new(0, 0)),
                    Dest::Breg(BReg::new(0, 1)),
                    Dest::None,
                ];
                for (a, b) in shapes {
                    for dst in dsts {
                        for cond in [false, true] {
                            for beside_load in [false, true] {
                                let o = Operation {
                                    opcode: op,
                                    dst,
                                    a,
                                    b,
                                    c: Operand::Breg(BReg::new(0, 0)),
                                    imm: 0,
                                };
                                let mut inst = Instruction::nop(4);
                                inst.bundles[0].ops.push(o.clone());
                                if beside_load {
                                    let ld = Operation::load(Opcode::Ldw, Reg::zero(1), r1, 0);
                                    inst.bundles[1].ops.push(ld);
                                }
                                let program = Arc::new(program_of(inst));
                                let mut t = ThreadCtx::new(program, 0, 4, 0);
                                assert_eq!(t.decoded.inst(0).direct, !beside_load, "{o}");
                                for (i, r) in t.regs.iter_mut().enumerate().skip(1) {
                                    *r = (i as u32).wrapping_mul(0x9e37_79b9);
                                }
                                t.regs[1] = va;
                                t.regs[2] = vb;
                                t.bregs[0] = cond;
                                let (mut regs, mut bregs) = (t.regs.clone(), t.bregs.clone());
                                match dst {
                                    Dest::Gpr(d) if d.index != 0 => {
                                        regs[d.index as usize] = op.eval(va, vb, cond);
                                    }
                                    Dest::Breg(d) => bregs[d.index as usize] = op.eval_cond(va, vb),
                                    _ => {}
                                }
                                t.activate(false);
                                t.inflight.n_pending = 0;
                                t.commit_writes();
                                let ctx = format!("`{o}` with a={va:#x} b={vb:#x} c={cond}");
                                assert_eq!(t.regs, regs, "{ctx}, load beside: {beside_load}");
                                assert_eq!(t.bregs, bregs, "{ctx}, load beside: {beside_load}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every shape a memory, control or communication opcode can take
    /// lowers to one threaded-code entry of its unit class, which the
    /// evaluator accepts.
    #[test]
    fn every_non_alu_shape_lowers() {
        let r1 = Operand::Gpr(Reg::new(0, 1));
        let mut shapes = Vec::new();
        for op in Opcode::ALL.into_iter().filter(|&o| !is_alu(o)) {
            if op.is_load() {
                shapes.push(Operation::load(op, Reg::new(0, 3), Reg::new(0, 2), 8));
                // Destination register zero: the load's write folds away.
                shapes.push(Operation::load(op, Reg::new(0, 0), Reg::new(0, 2), 8));
            } else if op.is_store() {
                shapes.push(Operation::store(op, Reg::new(0, 2), 8, r1));
                shapes.push(Operation::store(op, Reg::new(0, 2), 8, Operand::Imm(37)));
            } else {
                let mut o = Operation::new(op);
                o.a = match op {
                    Opcode::Send => r1,
                    Opcode::Recv => Operand::None,
                    _ => Operand::Breg(BReg::new(0, 0)),
                };
                if op == Opcode::Recv {
                    o.dst = Dest::Gpr(Reg::new(0, 4));
                }
                o.imm = 1;
                shapes.push(o);
            }
        }
        let regs = [0x40u32; MAX_CLUSTERS * 64];
        let bregs = [true; MAX_CLUSTERS * 8];
        let mem = Memory::new();
        let cx = EvalCtx {
            regs: &regs,
            bregs: &bregs,
            mem: &mem,
            xfer: &[0xdead_beef; 16],
        };
        for shaped in shapes {
            let d = decode_single(shaped.clone());
            let tops = d.tops_of(d.inst(0));
            assert_eq!(tops.len(), 1, "`{shaped}`");
            assert_eq!(tops[0].fu(), shaped.fu_kind(), "`{shaped}`");
            let r = eval_op(&tops[0], &cx);
            assert_eq!(r.fu(), shaped.fu_kind(), "`{shaped}`");
        }
    }

    /// The kind space maps opcode classes and operand shapes where they
    /// belong.
    #[test]
    fn kind_classification() {
        let k = |o: Operation| {
            let d = decode_single(o);
            d.tops_of(d.inst(0))[0].k
        };
        let add = Operation::bin(
            Opcode::Add,
            Reg::new(0, 3),
            Operand::Gpr(Reg::new(0, 1)),
            Operand::Imm(5),
        );
        assert_eq!(k(add), Kind::AddRI);
        assert_eq!(
            k(Operation::load(
                Opcode::Ldhu,
                Reg::new(0, 3),
                Reg::new(0, 2),
                4
            )),
            Kind::LdHu
        );
        let mut send = Operation::new(Opcode::Send);
        send.a = Operand::Gpr(Reg::new(0, 1));
        assert_eq!(k(send), Kind::Send);
        let folded = Operation::bin(
            Opcode::Sub,
            Reg::new(0, 3),
            Operand::Imm(9),
            Operand::Imm(4),
        );
        assert_eq!(k(folded.clone()), Kind::MovIR);
        let d = decode_single(folded);
        assert_eq!(d.tops_of(d.inst(0))[0].imm, 5);
    }
}
