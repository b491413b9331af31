//! Constant propagation and constant-address memory bounds.
//!
//! A forward dataflow over a two-level lattice (`Const(v)` / `Unknown`)
//! with the engine's exact evaluation semantics: entry state is
//! `Const(0)` everywhere (registers reset to zero), reads observe
//! pre-instruction state, writes land last-wins, loads produce
//! `Unknown`, and a recv takes its paired send's source value. After the
//! fixpoint, every memory op whose base address folds to a constant is
//! checked against the data space: data lives below
//! [`vex_isa::CODE_BASE`], so a provably-constant address at or above it
//! can never be a valid data access — an error.
//!
//! Folding calls the ISA's own ALU semantics, [`Opcode::eval`] — the same
//! function the engine and its reference interpreter evaluate with.

use crate::cfg::Cfg;
use crate::diag::{Check, Diagnostic, Report, Severity};
use crate::space::Space;
use vex_isa::{Dest, FuKind, Instruction, Opcode, Operand, Program, CODE_BASE};

/// A constant-propagation lattice value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Val {
    /// Statically unknown (runtime-dependent).
    Unknown,
    /// Provably this value on every path.
    Const(u32),
}

impl Val {
    fn meet(self, other: Val) -> Val {
        match (self, other) {
            (Val::Const(a), Val::Const(b)) if a == b => Val::Const(a),
            _ => Val::Unknown,
        }
    }
}

/// One flat register state (GPRs then bregs, per [`Space`] indices).
type State = Vec<Val>;

fn resolve(space: &Space, state: &State, operand: Operand) -> Val {
    match operand {
        Operand::None => Val::Const(0),
        Operand::Imm(k) => Val::Const(k as u32),
        Operand::Gpr(r) => {
            if r.is_zero() {
                Val::Const(0)
            } else {
                state[space.gpr(r)]
            }
        }
        Operand::Breg(b) => state[space.breg(b)],
    }
}

/// Applies one instruction to the state (reads pre-state, writes
/// last-wins).
fn transfer(space: &Space, inst: &Instruction, state: &mut State) {
    let snapshot = state.clone();
    for (_, _, op) in super::ops_of(inst) {
        let val = match op.fu_kind() {
            FuKind::Mem if op.opcode.is_load() => Val::Unknown,
            FuKind::Mem | FuKind::Br | FuKind::Send => Val::Unknown, // no dst
            FuKind::Recv => {
                // The paired send's source, read from pre-instruction
                // state; unmatched/ambiguous pairs degrade to Unknown.
                let sends: Vec<_> = super::ops_of(inst)
                    .filter(|(_, _, o)| o.opcode == Opcode::Send && o.imm == op.imm)
                    .collect();
                match &sends[..] {
                    [(_, _, send)] => resolve(space, &snapshot, send.a),
                    _ => Val::Unknown,
                }
            }
            FuKind::Alu | FuKind::Mul => {
                let a = resolve(space, &snapshot, op.a);
                let b = resolve(space, &snapshot, op.b);
                let c = resolve(space, &snapshot, op.c);
                match (a, b, c) {
                    (Val::Const(a), Val::Const(b), Val::Const(c)) => {
                        Val::Const(op.opcode.eval(a, b, c != 0))
                    }
                    _ => Val::Unknown,
                }
            }
        };
        match op.dst {
            Dest::Gpr(r) if !r.is_zero() => state[space.gpr(r)] = val,
            Dest::Breg(b) => {
                state[space.breg(b)] = match val {
                    Val::Const(v) => Val::Const(u32::from(v != 0)),
                    Val::Unknown => Val::Unknown,
                }
            }
            _ => {}
        }
    }
}

/// Appends constant-address out-of-bounds errors for memory ops.
pub fn run(program: &Program, cfg: &Cfg, space: &Space, report: &mut Report) {
    if cfg.blocks.is_empty() {
        return;
    }
    let n = cfg.blocks.len();
    let mut input: Vec<Option<State>> = vec![None; n];
    input[cfg.entry] = Some(vec![Val::Const(0); space.bits()]);
    let mut on_list = vec![false; n];
    let mut list = vec![cfg.entry];
    on_list[cfg.entry] = true;
    let mut cursor = 0;
    while cursor < list.len() {
        let b = list[cursor];
        cursor += 1;
        on_list[b] = false;
        let mut state = input[b].clone().expect("listed blocks have a state");
        for i in cfg.blocks[b].insts() {
            transfer(space, &program.instructions[i], &mut state);
        }
        for &s in &cfg.succs[b] {
            let changed = match &mut input[s] {
                Some(cur) => {
                    let mut any = false;
                    for (c, v) in cur.iter_mut().zip(&state) {
                        let met = c.meet(*v);
                        if met != *c {
                            *c = met;
                            any = true;
                        }
                    }
                    any
                }
                slot @ None => {
                    *slot = Some(state.clone());
                    true
                }
            };
            if changed && !on_list[s] {
                on_list[s] = true;
                list.push(s);
            }
        }
    }

    // Check pass: re-walk each reached block and test memory addresses.
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let Some(start) = input[b].clone() else {
            continue;
        };
        let mut state = start;
        for i in blk.insts() {
            let inst = &program.instructions[i];
            for (c, oi, op) in super::ops_of(inst) {
                if !op.opcode.is_mem() {
                    continue;
                }
                if let Val::Const(base) = resolve(space, &state, op.a) {
                    let addr = base.wrapping_add(op.imm as u32);
                    if addr >= CODE_BASE {
                        let kind = if op.opcode.is_load() { "load" } else { "store" };
                        report.diags.push(Diagnostic::at_op(
                            Severity::Error,
                            Check::MemBounds,
                            i,
                            c,
                            oi,
                            format!(
                                "{kind} at constant address {addr:#x} is outside the data \
                                 space (code starts at {CODE_BASE:#x})"
                            ),
                        ));
                    }
                }
            }
            transfer(space, inst, &mut state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_isa::{BReg, Instruction, MachineConfig, Operation, Reg};

    fn inst1(ops: Vec<Operation>) -> Instruction {
        let mut i = Instruction::nop(1);
        i.bundles[0].ops = ops;
        i
    }

    fn bounds_errors(insts: Vec<Instruction>) -> Vec<Diagnostic> {
        let mut halt = Instruction::nop(insts[0].bundles.len() as u8);
        halt.bundles[0].ops.push(Operation::new(Opcode::Halt));
        let mut v = insts;
        v.push(halt);
        let p = Program::new("t", v, vec![]);
        crate::analyze(&p, &MachineConfig::small(1, 4))
            .diags
            .into_iter()
            .filter(|d| d.check == Check::MemBounds)
            .collect()
    }

    #[test]
    fn folded_code_space_store_is_an_error() {
        // $r0.1 = 0x4000_0000 via two shifted adds; stw 0[$r0.1].
        let hi = Operation::bin(
            Opcode::Add,
            Reg::new(0, 1),
            Operand::Imm(0x4000_0000),
            Operand::Imm(0),
        );
        let st = Operation::store(Opcode::Stw, Reg::new(0, 1), 0, Operand::Gpr(Reg::new(0, 0)));
        let diags = bounds_errors(vec![inst1(vec![hi]), inst1(vec![st])]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("0x40000000"), "{}", diags[0]);
    }

    #[test]
    fn data_space_store_is_fine() {
        let st = Operation::store(
            Opcode::Stw,
            Reg::new(0, 0),
            64,
            Operand::Gpr(Reg::new(0, 0)),
        );
        assert!(bounds_errors(vec![inst1(vec![st])]).is_empty());
    }

    #[test]
    fn unknown_base_is_not_flagged() {
        // Load makes the base unknown; the store through it is not
        // provably out of bounds.
        let ld = Operation::load(Opcode::Ldw, Reg::new(0, 1), Reg::new(0, 0), 0);
        let st = Operation::store(Opcode::Stw, Reg::new(0, 1), 0, Operand::Gpr(Reg::new(0, 0)));
        assert!(bounds_errors(vec![inst1(vec![ld]), inst1(vec![st])]).is_empty());
    }

    #[test]
    fn branch_join_keeps_agreeing_constants() {
        // Both paths set $r0.1 = 8; the store after the join folds.
        let mut cmp = Operation::new(Opcode::CmpLt);
        cmp.dst = Dest::Breg(BReg::new(0, 0));
        cmp.a = Operand::Gpr(Reg::new(0, 2));
        cmp.b = Operand::Imm(5);
        let mut br = Operation::new(Opcode::Br);
        br.a = Operand::Breg(BReg::new(0, 0));
        br.imm = 3;
        let set8 = Operation::bin(
            Opcode::Add,
            Reg::new(0, 1),
            Operand::Imm(8),
            Operand::Imm(0),
        );
        let mut goto = Operation::new(Opcode::Goto);
        goto.imm = 4;
        let bad = Operation::store(
            Opcode::Stw,
            Reg::new(0, 1),
            0x4000_0000 - 8,
            Operand::Gpr(Reg::new(0, 0)),
        );
        // L0 cmp; L1 br L3; L2 set8, goto L4; L3 set8; L4 stw (0x40000000-8)[$r0.1]
        let diags = bounds_errors(vec![
            inst1(vec![cmp]),
            inst1(vec![br]),
            inst1(vec![set8.clone(), goto]),
            inst1(vec![set8]),
            inst1(vec![bad]),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].inst, 4);
    }
}
