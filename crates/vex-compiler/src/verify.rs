//! Independent schedule verification and a sequential IR interpreter.
//!
//! * [`verify_schedule`] re-checks a schedule against freshly rebuilt
//!   dependences and resource tables — run on every compile, and used by the
//!   property tests as an oracle.
//! * [`interpret`] executes a kernel *sequentially* at the IR level. It is
//!   the golden functional model: a compiled program executed on any
//!   simulator configuration must leave memory in exactly this state. This
//!   is how the test suite proves that split-issue (and the compiler) never
//!   break the paper's execution semantics.

use crate::cluster::LegalKernel;
use crate::ir::{BinKind, CmpKind, IrOp, Kernel, MemWidth, Terminator, Val};
use crate::schedule::{
    build_deps, fu_index, requirements, result_latency, term_emits_op, KernelSchedule,
};
use crate::CompileError;
use std::collections::HashMap;
use vex_isa::{FuKind, MachineConfig};
use vex_mem::Memory;

/// Verifies latencies, resource bounds and terminator placement of a
/// schedule. Returns a descriptive error naming the first violation.
pub fn verify_schedule(
    lk: &LegalKernel,
    sched: &KernelSchedule,
    m: &MachineConfig,
) -> Result<(), CompileError> {
    for (bid, block) in lk.blocks.iter().enumerate() {
        let bs = &sched.blocks[bid];
        let deps = build_deps(block, m);

        // Dependence latencies.
        for (i, preds) in deps.preds.iter().enumerate() {
            for e in preds {
                if bs.cycle[i] < bs.cycle[e.pred] + e.lat {
                    return Err(CompileError::BadSchedule(format!(
                        "block {bid}: op {i} at cycle {} violates edge from op {} (+{})",
                        bs.cycle[i], e.pred, e.lat
                    )));
                }
            }
        }

        let emits = term_emits_op(bid, &block.term);
        if emits {
            for e in &deps.term_preds {
                if bs.term_cycle < bs.cycle[e.pred] + e.lat {
                    return Err(CompileError::BadSchedule(format!(
                        "block {bid}: terminator at cycle {} violates edge from op {} (+{})",
                        bs.term_cycle, e.pred, e.lat
                    )));
                }
            }
            if bs.len != bs.term_cycle + 1 {
                return Err(CompileError::BadSchedule(format!(
                    "block {bid}: terminator not in final instruction"
                )));
            }
            for (i, &c) in bs.cycle.iter().enumerate() {
                if c > bs.term_cycle {
                    return Err(CompileError::BadSchedule(format!(
                        "block {bid}: op {i} scheduled after the terminator"
                    )));
                }
            }
        }
        // Drain rule: every result complete by the cycle after block end.
        for (i, lop) in block.ops.iter().enumerate() {
            if bs.cycle[i] + result_latency(&lop.op, m) > bs.len {
                return Err(CompileError::BadSchedule(format!(
                    "block {bid}: op {i} result not drained by block end"
                )));
            }
        }

        // Resources.
        let mut used: HashMap<(u32, u8), (u8, [u8; 6])> = HashMap::new();
        let mut charge = |cycle: u32, c: u8, k: FuKind| -> Result<(), CompileError> {
            let entry = used.entry((cycle, c)).or_insert((0, [0; 6]));
            entry.0 += 1;
            entry.1[fu_index(k)] += 1;
            if entry.0 > m.cluster.slots || entry.1[fu_index(k)] > m.cluster.count(k) {
                return Err(CompileError::BadSchedule(format!(
                    "block {bid}: cycle {cycle} cluster {c} over-subscribed ({k:?})"
                )));
            }
            Ok(())
        };
        for (i, lop) in block.ops.iter().enumerate() {
            for &(c, k) in requirements(lop, lk).as_slice() {
                charge(bs.cycle[i], c, k)?;
            }
        }
        if emits {
            charge(bs.term_cycle, block.term_cluster, FuKind::Br)?;
        }
    }
    Ok(())
}

/// Final state of a sequential IR execution.
#[derive(Clone, Debug)]
pub struct InterpResult {
    /// Final values of the author-visible virtual registers.
    pub regs: Vec<u32>,
    /// Final memory image.
    pub mem: Memory,
    /// Whether the kernel reached `halt` within the fuel budget.
    pub halted: bool,
    /// IR operations executed.
    pub ops_executed: u64,
}

/// Evaluates a two-source operation (shared with nothing: the simulator has
/// its own ISA-level evaluator, and tests cross-check the two).
pub fn eval_bin(kind: BinKind, a: u32, b: u32) -> u32 {
    match kind {
        BinKind::Add => a.wrapping_add(b),
        BinKind::Sub => a.wrapping_sub(b),
        BinKind::And => a & b,
        BinKind::Or => a | b,
        BinKind::Xor => a ^ b,
        BinKind::Andc => a & !b,
        BinKind::Shl => a.wrapping_shl(b & 31),
        BinKind::Shr => a.wrapping_shr(b & 31),
        BinKind::Sra => (a as i32).wrapping_shr(b & 31) as u32,
        BinKind::Min => (a as i32).min(b as i32) as u32,
        BinKind::Max => (a as i32).max(b as i32) as u32,
        BinKind::Minu => a.min(b),
        BinKind::Maxu => a.max(b),
        BinKind::Mull => a.wrapping_mul(b),
        BinKind::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
    }
}

/// Evaluates a comparison.
pub fn eval_cmp(kind: CmpKind, a: u32, b: u32) -> bool {
    match kind {
        CmpKind::Eq => a == b,
        CmpKind::Ne => a != b,
        CmpKind::Lt => (a as i32) < (b as i32),
        CmpKind::Le => (a as i32) <= (b as i32),
        CmpKind::Gt => (a as i32) > (b as i32),
        CmpKind::Ge => (a as i32) >= (b as i32),
        CmpKind::Ltu => a < b,
        CmpKind::Geu => a >= b,
    }
}

/// Runs a kernel sequentially for at most `max_ops` IR operations.
pub fn interpret(k: &Kernel, max_ops: u64) -> InterpResult {
    let mut regs = vec![0u32; k.vreg_count as usize];
    let mut bregs = vec![false; k.vbreg_count as usize];
    let mut mem = Memory::new();
    for seg in &k.data {
        mem.write_bytes(seg.base, &seg.bytes);
    }

    let mut ops_executed = 0u64;
    let mut block = 0usize;
    loop {
        let b = &k.blocks[block];
        for op in &b.ops {
            if ops_executed >= max_ops {
                return InterpResult {
                    regs,
                    mem,
                    halted: false,
                    ops_executed,
                };
            }
            ops_executed += 1;
            let val = |v: Val, regs: &[u32]| -> u32 {
                match v {
                    Val::V(r) => regs[r.0 as usize],
                    Val::Imm(i) => i as u32,
                }
            };
            match *op {
                IrOp::Bin { kind, dst, a, b } => {
                    regs[dst.0 as usize] = eval_bin(kind, val(a, &regs), val(b, &regs));
                }
                IrOp::Mov { dst, src } => regs[dst.0 as usize] = val(src, &regs),
                IrOp::Load {
                    w, dst, base, off, ..
                } => {
                    let addr = val(base, &regs).wrapping_add(off as u32);
                    regs[dst.0 as usize] = match w {
                        MemWidth::B => mem.read_u8(addr) as i8 as i32 as u32,
                        MemWidth::Bu => mem.read_u8(addr) as u32,
                        MemWidth::H => mem.read_u16(addr) as i16 as i32 as u32,
                        MemWidth::Hu => mem.read_u16(addr) as u32,
                        MemWidth::W => mem.read_u32(addr),
                    };
                }
                IrOp::Store {
                    w,
                    value,
                    base,
                    off,
                    ..
                } => {
                    let addr = val(base, &regs).wrapping_add(off as u32);
                    let v = val(value, &regs);
                    match w {
                        MemWidth::B | MemWidth::Bu => mem.write_u8(addr, v as u8),
                        MemWidth::H | MemWidth::Hu => mem.write_u16(addr, v as u16),
                        MemWidth::W => mem.write_u32(addr, v),
                    }
                }
                IrOp::CmpR { kind, dst, a, b } => {
                    regs[dst.0 as usize] = eval_cmp(kind, val(a, &regs), val(b, &regs)) as u32;
                }
                IrOp::CmpB { kind, dst, a, b } => {
                    bregs[dst.0 as usize] = eval_cmp(kind, val(a, &regs), val(b, &regs));
                }
                IrOp::Select { dst, cond, a, b } => {
                    regs[dst.0 as usize] = if bregs[cond.0 as usize] {
                        val(a, &regs)
                    } else {
                        val(b, &regs)
                    };
                }
                IrOp::Xfer { .. } => unreachable!("interpreting a pre-legalised kernel"),
            }
        }
        match b.term {
            Terminator::Jump(t) => block = t,
            Terminator::CondBr {
                cond,
                negate,
                taken,
                fall,
            } => {
                block = if bregs[cond.0 as usize] ^ negate {
                    taken
                } else {
                    fall
                };
            }
            Terminator::Halt => {
                return InterpResult {
                    regs,
                    mem,
                    halted: true,
                    ops_executed,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::KernelBuilder;

    #[test]
    fn interpreter_runs_a_loop() {
        let mut k = KernelBuilder::new("sum");
        let body = k.new_block();
        let exit = k.new_block();
        let i = k.vreg();
        let acc = k.vreg();
        k.movi(i, 0);
        k.movi(acc, 0);
        k.jump(body);
        k.switch_to(body);
        k.add(acc, acc, i);
        k.add(i, i, Val::Imm(1));
        k.cond_br(CmpKind::Lt, i, Val::Imm(10), body, exit);
        k.switch_to(exit);
        k.store(MemWidth::W, acc, Val::Imm(0x100), 0, 1);
        k.halt();
        let kernel = k.finish();
        let r = interpret(&kernel, 1_000_000);
        assert!(r.halted);
        assert_eq!(r.mem.read_u32(0x100), 45);
    }

    #[test]
    fn fuel_bound_stops_runaway() {
        let mut k = KernelBuilder::new("inf");
        let b = k.new_block();
        let x = k.vreg();
        k.movi(x, 0);
        k.jump(b);
        k.switch_to(b);
        k.add(x, x, Val::Imm(1));
        k.jump(b);
        let kernel = k.finish();
        let r = interpret(&kernel, 100);
        assert!(!r.halted);
        assert_eq!(r.ops_executed, 100);
    }

    #[test]
    fn eval_bin_semantics() {
        assert_eq!(eval_bin(BinKind::Sra, 0xffff_fff0, 2), 0xffff_fffc);
        assert_eq!(eval_bin(BinKind::Shr, 0xffff_fff0, 2), 0x3fff_fffc);
        assert_eq!(eval_bin(BinKind::Mulh, 0x8000_0000, 2), 0xffff_ffff);
        assert_eq!(eval_bin(BinKind::Min, 0xffff_ffff, 1), 0xffff_ffff); // -1 < 1
        assert_eq!(eval_bin(BinKind::Minu, 0xffff_ffff, 1), 1);
        assert_eq!(eval_bin(BinKind::Andc, 0b1100, 0b1010), 0b0100);
    }

    #[test]
    fn eval_cmp_semantics() {
        assert!(eval_cmp(CmpKind::Lt, 0xffff_ffff, 0)); // signed -1 < 0
        assert!(!eval_cmp(CmpKind::Ltu, 0xffff_ffff, 0));
        assert!(eval_cmp(CmpKind::Geu, 0xffff_ffff, 0));
        assert!(eval_cmp(CmpKind::Ne, 1, 2));
    }
}
