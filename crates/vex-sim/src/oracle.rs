//! The architectural reference interpreter — the differential-testing
//! oracle.
//!
//! The paper's §V-B invariant says that **no effect of a partially issued
//! instruction is architecturally visible until its last part issues**:
//! whatever the merge/split technique, thread count, cache behaviour or
//! issue interleaving, a program's final registers and memory must equal
//! a plain in-order execution, one instruction at a time. This module *is*
//! that plain execution: a dependency-free interpreter with no packets, no
//! caches, no split state and no timing — it walks [`Program`]
//! instructions directly (not the engine's pre-decoded tables), reads all
//! operands from pre-instruction state, and commits each instruction's
//! effects whole before fetching the next.
//!
//! It is deliberately written against the raw [`vex_isa`] operation
//! representation so that a bug in the engine's decode layer
//! ([`crate::decode`]), record bookkeeping ([`crate::thread`]) or issue
//! stage ([`crate::engine`]) cannot cancel out against an oracle that
//! shares the same code. The only shared piece is the ISA's pure ALU bit
//! semantics ([`Opcode::eval`]), which the compiler's independent IR
//! interpreter already cross-checks.
//!
//! `vex-gen`'s differential harness runs every generated program through
//! all 8 technique points × {1, 2, 4} threads and asserts the final
//! architectural state of every context is byte-identical to
//! [`interpret`]'s result.

use crate::packet::MAX_CLUSTERS;
use crate::thread::{BregFile, GprFile};
use vex_isa::{BReg, Dest, Opcode, Operand, Program, Reg};
use vex_mem::Memory;

/// Final architectural state and retirement counters of one in-order
/// reference execution.
#[derive(Clone, Debug)]
pub struct OracleState {
    /// Flat GPR file, laid out exactly like [`crate::thread::GprFile`] so
    /// it compares directly against [`crate::ThreadCtx::regs`].
    pub regs: Box<GprFile>,
    /// Flat branch-register file (layout of [`crate::thread::BregFile`]).
    pub bregs: Box<BregFile>,
    /// Functional memory after the run (data segments applied, stores
    /// committed).
    pub mem: Memory,
    /// VLIW instructions retired, explicit NOPs included — must equal the
    /// engine's per-context `insts_retired`.
    pub insts_retired: u64,
    /// RISC operations executed (NOPs excluded) — must equal the engine's
    /// per-context `ops_issued`.
    pub ops_issued: u64,
    /// Completed runs: 1 after `halt`, 0 when the program fell off the end
    /// of the instruction stream (mirroring the engine's retire paths).
    pub runs_completed: u64,
    /// Whether the program stopped on its own (`halt` or falling off the
    /// end). `false` means the `max_insts` safety bound fired first.
    pub halted: bool,
}

/// One buffered architectural effect of the in-flight instruction. Like the
/// engine's delay buffers, effects are computed from pre-instruction state
/// first and applied in operation order afterwards.
enum Effect {
    /// Write `val` to flat GPR slot `dst`.
    Gpr(usize, u32),
    /// Write `val` to flat branch-register slot `dst`.
    Breg(usize, bool),
    /// Store `val` of `size` bytes at `addr`.
    Store(u32, u8, u32),
}

/// Control outcome of an instruction.
enum Ctrl {
    Taken(usize),
    Halt,
}

/// Reads a GPR (register zero of every cluster reads zero — its slot is
/// never written, mirroring the engine's flat-file invariant).
#[inline]
fn gpr(regs: &GprFile, r: Reg) -> u32 {
    regs[(r.cluster as usize * 64 + r.index as usize) & (MAX_CLUSTERS * 64 - 1)]
}

/// Flat GPR slot of a register.
#[inline]
fn gpr_slot(r: Reg) -> usize {
    (r.cluster as usize * 64 + r.index as usize) & (MAX_CLUSTERS * 64 - 1)
}

/// Flat branch-register slot.
#[inline]
fn breg_slot(b: BReg) -> usize {
    (b.cluster as usize * 8 + b.index as usize) & (MAX_CLUSTERS * 8 - 1)
}

/// Source-operand value: GPR read, immediate, or zero for branch-register
/// and absent operands — exactly the resolution rule of the engine's
/// decoder ([`crate::decode`]'s `resolve_src`).
#[inline]
fn src_val(regs: &GprFile, o: Operand) -> u32 {
    match o {
        Operand::Gpr(r) => gpr(regs, r),
        Operand::Imm(i) => i as u32,
        Operand::Breg(_) | Operand::None => 0,
    }
}

/// Branch-register condition value; non-breg operands read false.
#[inline]
fn breg_val(bregs: &BregFile, o: Operand) -> bool {
    match o {
        Operand::Breg(b) => bregs[breg_slot(b)],
        _ => false,
    }
}

/// Executes `program` in order, one whole instruction at a time, stopping
/// at `halt`, at the end of the instruction stream, or after `max_insts`
/// retired instructions (safety bound; check [`OracleState::halted`]).
///
/// Semantics mirror the engine's architectural contract exactly:
///
/// * every operand (including send sources and load addresses) reads
///   **pre-instruction** state;
/// * effects apply in bundle order (ascending cluster, ops in bundle
///   order), so intra-instruction write collisions resolve last-wins like
///   the engine's record replay;
/// * writes to register zero are discarded;
/// * of several control operations the last one in bundle order wins;
/// * a control target outside the stream behaves like falling off the end.
pub fn interpret(program: &Program, max_insts: u64) -> OracleState {
    let mut st = OracleState {
        regs: Box::new([0u32; MAX_CLUSTERS * 64]),
        bregs: Box::new([false; MAX_CLUSTERS * 8]),
        mem: Memory::new(),
        insts_retired: 0,
        ops_issued: 0,
        runs_completed: 0,
        halted: false,
    };
    for seg in &program.data {
        st.mem.write_bytes(seg.base, &seg.bytes);
    }

    let len = program.instructions.len();
    let mut pc = 0usize;
    let mut effects: Vec<Effect> = Vec::new();

    while pc < len {
        if st.insts_retired >= max_insts {
            return st; // safety bound: halted stays false
        }
        let inst = &program.instructions[pc];

        // Inter-cluster transfers: capture every send source from
        // pre-instruction state first (§V-E), so recv-before-send bundle
        // order is irrelevant — as in the engine's activation.
        let mut xfer = [0u32; 16];
        for b in &inst.bundles {
            for op in &b.ops {
                if op.opcode == Opcode::Send {
                    xfer[(op.imm & 15) as usize] = src_val(&st.regs, op.a);
                }
            }
        }

        effects.clear();
        let mut ctrl: Option<Ctrl> = None;
        // An out-of-stream target behaves like falling off the end.
        let target = |imm: i32| -> usize { (imm as usize).min(len) };

        for b in &inst.bundles {
            for op in &b.ops {
                let oc = op.opcode;
                if oc.is_load() {
                    let addr = src_val(&st.regs, op.a).wrapping_add(op.imm as u32);
                    if let Dest::Gpr(r) = op.dst {
                        if r.index != 0 {
                            let v = match oc {
                                Opcode::Ldw => st.mem.read_u32(addr),
                                Opcode::Ldh => st.mem.read_u16(addr) as i16 as i32 as u32,
                                Opcode::Ldhu => st.mem.read_u16(addr) as u32,
                                Opcode::Ldb => st.mem.read_u8(addr) as i8 as i32 as u32,
                                _ => st.mem.read_u8(addr) as u32,
                            };
                            effects.push(Effect::Gpr(gpr_slot(r), v));
                        }
                    }
                } else if oc.is_store() {
                    let addr = src_val(&st.regs, op.a).wrapping_add(op.imm as u32);
                    let size = match oc {
                        Opcode::Stw => 4,
                        Opcode::Sth => 2,
                        _ => 1,
                    };
                    effects.push(Effect::Store(addr, size, src_val(&st.regs, op.b)));
                } else if oc == Opcode::Send {
                    // Value already captured into the transfer buffer.
                } else if oc == Opcode::Recv {
                    if let Dest::Gpr(r) = op.dst {
                        if r.index != 0 {
                            effects.push(Effect::Gpr(gpr_slot(r), xfer[(op.imm & 15) as usize]));
                        }
                    }
                } else if oc.is_ctrl() {
                    let taken = match oc {
                        Opcode::Br => breg_val(&st.bregs, op.a),
                        Opcode::Brf => !breg_val(&st.bregs, op.a),
                        _ => true,
                    };
                    if taken {
                        ctrl = Some(if oc == Opcode::Halt {
                            Ctrl::Halt
                        } else {
                            Ctrl::Taken(target(op.imm))
                        });
                    }
                } else {
                    // ALU / MUL class.
                    match op.dst {
                        Dest::Gpr(r) if r.index != 0 => {
                            let v = oc.eval(
                                src_val(&st.regs, op.a),
                                src_val(&st.regs, op.b),
                                breg_val(&st.bregs, op.c),
                            );
                            effects.push(Effect::Gpr(gpr_slot(r), v));
                        }
                        Dest::Breg(b) => {
                            let v = oc.eval_cond(src_val(&st.regs, op.a), src_val(&st.regs, op.b));
                            effects.push(Effect::Breg(breg_slot(b), v));
                        }
                        _ => {} // result discarded
                    }
                }
            }
        }

        // Commit: replay the buffered effects in order.
        for eff in &effects {
            match *eff {
                Effect::Gpr(dst, v) => st.regs[dst] = v,
                Effect::Breg(dst, v) => st.bregs[dst] = v,
                Effect::Store(addr, 1, v) => st.mem.write_u8(addr, v as u8),
                Effect::Store(addr, 2, v) => st.mem.write_u16(addr, v as u16),
                Effect::Store(addr, _, v) => st.mem.write_u32(addr, v),
            }
        }
        st.ops_issued += inst.op_count() as u64;
        st.insts_retired += 1;
        pc += 1;
        match ctrl {
            Some(Ctrl::Taken(t)) => pc = t,
            Some(Ctrl::Halt) => {
                st.runs_completed += 1;
                st.halted = true;
                return st;
            }
            None => {}
        }
    }
    // Fell off the end of the stream: the engine retires such a context
    // without counting a completed run.
    st.halted = true;
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_isa::{Instruction, Operation};

    fn halt_inst(n: u8) -> Instruction {
        let mut i = Instruction::nop(n);
        i.bundles[0].ops.push(Operation::new(Opcode::Halt));
        i
    }

    #[test]
    fn swap_reads_pre_instruction_state() {
        // Figure 3: a same-instruction register swap.
        let mv = |d: Reg, s: Reg| {
            let mut op = Operation::new(Opcode::Mov);
            op.dst = Dest::Gpr(d);
            op.a = Operand::Gpr(s);
            op
        };
        let init = |d: Reg, v: i32| {
            let mut op = Operation::new(Opcode::Mov);
            op.dst = Dest::Gpr(d);
            op.a = Operand::Imm(v);
            op
        };
        let r3 = Reg::new(0, 3);
        let r5 = Reg::new(0, 5);
        let p = Program::new(
            "swap",
            vec![
                Instruction::from_ops(4, [(0, init(r3, 111)), (0, init(r5, 222))]),
                Instruction::from_ops(4, [(0, mv(r3, r5)), (0, mv(r5, r3))]),
                halt_inst(4),
            ],
            vec![],
        );
        let st = interpret(&p, 1000);
        assert!(st.halted);
        assert_eq!(st.regs[3], 222);
        assert_eq!(st.regs[5], 111);
        assert_eq!(st.insts_retired, 3);
        assert_eq!(st.ops_issued, 5);
        assert_eq!(st.runs_completed, 1);
    }

    #[test]
    fn send_recv_pairs_transfer_pre_instruction_values() {
        let mut init = Operation::new(Opcode::Mov);
        init.dst = Dest::Gpr(Reg::new(0, 1));
        init.a = Operand::Imm(777);
        let mut send = Operation::new(Opcode::Send);
        send.a = Operand::Gpr(Reg::new(0, 1));
        send.imm = 3;
        let mut recv = Operation::new(Opcode::Recv);
        recv.dst = Dest::Gpr(Reg::new(1, 2));
        recv.imm = 3;
        // Recv's bundle precedes the send's in cluster order on purpose.
        let p = Program::new(
            "xfer",
            vec![
                Instruction::from_ops(4, [(0, init)]),
                Instruction::from_ops(4, [(1, recv), (0, send)]),
                halt_inst(4),
            ],
            vec![],
        );
        let st = interpret(&p, 1000);
        assert_eq!(st.regs[64 + 2], 777);
    }

    #[test]
    fn loads_see_memory_before_same_instruction_stores() {
        let mut ptr = Operation::new(Opcode::Mov);
        ptr.dst = Dest::Gpr(Reg::new(0, 1));
        ptr.a = Operand::Imm(0x100);
        let ld = Operation::load(Opcode::Ldw, Reg::new(0, 2), Reg::new(0, 1), 0);
        let st_op = Operation::store(Opcode::Stw, Reg::new(0, 1), 0, Operand::Imm(9));
        let p = Program::new(
            "ldst",
            vec![
                Instruction::from_ops(4, [(0, ptr)]),
                Instruction::from_ops(4, [(0, ld), (0, st_op)]),
                halt_inst(4),
            ],
            vec![vex_isa::DataSegment {
                base: 0x100,
                bytes: vec![5, 0, 0, 0],
            }],
        );
        let st = interpret(&p, 1000);
        assert_eq!(st.regs[2], 5, "load reads pre-instruction memory");
        assert_eq!(st.mem.read_u32(0x100), 9, "store commits after");
    }

    #[test]
    fn branches_and_loop_terminate() {
        // i = 0; do { i += 1 } while (i < 4); halt — retires 1 + 4*3 + 1.
        let mut init = Operation::new(Opcode::Mov);
        init.dst = Dest::Gpr(Reg::new(0, 1));
        init.a = Operand::Imm(0);
        let add = Operation::bin(
            Opcode::Add,
            Reg::new(0, 1),
            Operand::Gpr(Reg::new(0, 1)),
            Operand::Imm(1),
        );
        let mut cmp = Operation::new(Opcode::CmpLt);
        cmp.dst = Dest::Breg(BReg::new(0, 0));
        cmp.a = Operand::Gpr(Reg::new(0, 1));
        cmp.b = Operand::Imm(4);
        let mut br = Operation::new(Opcode::Br);
        br.a = Operand::Breg(BReg::new(0, 0));
        br.imm = 1;
        let p = Program::new(
            "loop",
            vec![
                Instruction::from_ops(4, [(0, init)]),
                Instruction::from_ops(4, [(0, add)]),
                Instruction::from_ops(4, [(0, cmp)]),
                Instruction::from_ops(4, [(0, br)]),
                halt_inst(4),
            ],
            vec![],
        );
        let st = interpret(&p, 1000);
        assert!(st.halted);
        assert_eq!(st.regs[1], 4);
    }

    #[test]
    fn fell_off_end_counts_no_completed_run() {
        let p = Program::new("open", vec![Instruction::nop(4)], vec![]);
        let st = interpret(&p, 1000);
        assert!(st.halted);
        assert_eq!(st.runs_completed, 0);
        assert_eq!(st.insts_retired, 1);
        assert_eq!(st.ops_issued, 0);
    }

    #[test]
    fn max_insts_bound_reports_not_halted() {
        let mut goto = Operation::new(Opcode::Goto);
        goto.imm = 0;
        let p = Program::new("spin", vec![Instruction::from_ops(4, [(0, goto)])], vec![]);
        let st = interpret(&p, 100);
        assert!(!st.halted);
        assert_eq!(st.insts_retired, 100);
    }
}
