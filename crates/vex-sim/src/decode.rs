//! Pre-decoded programs: the static half of [`crate::thread::OpRecord`],
//! computed once per [`Program`] instead of on every activation.
//!
//! [`ThreadCtx::activate`](crate::thread::ThreadCtx::activate) evaluates an
//! entire instruction functionally each time it is fetched. None of the
//! opcode matching, operand classification or send/recv pairing that takes
//! depends on architectural state, so it is hoisted here: [`DecodedProgram`]
//! holds, per instruction, the threaded-code operation table
//! ([`ThreadedOp`], lowered by [`crate::threaded`]), the bundle mask, the
//! communication flag, the direct-application flag, the fetch
//! address/length, the per-bundle issue demands and the send sources for
//! inter-cluster transfers. Activation is left with pure value evaluation.
//!
//! Contexts running the same program share one table via `Arc`: the engine
//! deduplicates by `Arc::ptr_eq` when it builds a workload, so an
//! `n`-thread run of one benchmark decodes it exactly once.

use crate::packet::{pack_demand, MAX_CLUSTERS};
use crate::thread::{F_BREG, F_GPR};
use crate::threaded::{lower_op, ThreadedOp};
use std::sync::Arc;
use vex_isa::{FuKind, Opcode, Operand, Program};

/// Pre-resolved source operand: the **flat** GPR-file index
/// (`cluster * 64 + index`, see [`crate::thread::GprFile`]), or [`SRC_IMM`]
/// meaning "read the immediate". Register zero of any cluster is a valid
/// flat index and architecturally reads zero (its slot is never written),
/// so `Breg`/`None` operands resolve to flat index 0 and read zero without
/// a special case.
pub type SrcRef = u16;

/// [`SrcRef`] sentinel: the operand is the op's immediate.
pub const SRC_IMM: SrcRef = u16::MAX;

/// Flat branch-register sentinel: the condition operand named no branch
/// register; it reads false.
pub const BREG_NONE: u16 = u16::MAX;

/// Static issue-resource demand of one bundle: how many slots and
/// functional units of each class the bundle claims on its cluster. A
/// bundle never splits, so this never depends on how much of the
/// instruction already issued — the engine's merge fit checks compare these
/// tables against the packet instead of re-scanning in-flight records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClusterDemand {
    /// Logical cluster of the bundle.
    pub log_cluster: u8,
    /// Issue slots demanded (operation count).
    pub slots: u8,
    /// This bundle's operations as a subrange of the instruction's
    /// record/op table (relative to `op_range.0`): records are pushed in
    /// bundle order, so a bundle's records are always contiguous.
    pub rec_range: (u16, u16),
    /// Units demanded per class, indexed by [`FuKind::index`].
    pub fu: [u8; FuKind::COUNT],
    /// The same demand as one packed resource word
    /// ([`crate::packet::Packet`] lane layout): a whole-bundle fit check or
    /// claim is a single 64-bit add against the packet.
    pub packed: u64,
}

/// Per-instruction static metadata.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodedInst {
    /// Range of this instruction's operations in [`DecodedProgram::tops`].
    pub op_range: (u32, u32),
    /// Range of this instruction's send sources in
    /// [`DecodedProgram::sends`].
    pub send_range: (u32, u32),
    /// Range of this instruction's per-bundle resource demands in
    /// [`DecodedProgram::demands`].
    pub demand_range: (u32, u32),
    /// Bit `c` set iff logical cluster `c` has a non-empty bundle.
    pub bundle_mask: u16,
    /// Whether any operation is an inter-cluster send/recv (NS policy).
    pub has_comm: bool,
    /// Direct-apply eligibility: the instruction has no memory operation,
    /// no control operation, and no operation reads a register (GPR or
    /// branch) that an *earlier* operation of the same instruction writes.
    /// For such an instruction, evaluating in table order and applying
    /// each result immediately is indistinguishable from the two-phase
    /// evaluate-then-commit protocol, so activation can write the
    /// architectural effects straight through and skip materializing
    /// [`crate::thread::OpRecord`]s — nothing downstream (issue probes,
    /// buffered stores, control resolution) ever reads them. See
    /// [`crate::thread::ThreadCtx::activate`].
    pub direct: bool,
    /// Fetch byte address (instruction-cache modelling).
    pub fetch_addr: u32,
    /// Encoded size in bytes.
    pub fetch_len: u32,
}

/// A fully pre-decoded program, shared between all contexts that run it.
#[derive(Clone, Debug)]
pub struct DecodedProgram {
    /// Threaded-code operation table, grouped by instruction in bundle
    /// order (the order `Instruction::bundles` lists them). This is what
    /// activation evaluates.
    pub tops: Vec<ThreadedOp>,
    /// Flattened `(pair id, source, immediate)` table for send value
    /// capture, sources pre-resolved like every other operand.
    pub sends: Vec<(u8, SrcRef, u32)>,
    /// Flattened per-bundle resource-demand table, one entry per non-empty
    /// bundle, in cluster order.
    pub demands: Vec<ClusterDemand>,
    /// Per-instruction metadata, indexed by instruction index.
    pub insts: Vec<DecodedInst>,
}

/// Order-aware direct-apply classification (see [`DecodedInst::direct`]).
/// Walks the instruction's operations in table — that is, evaluation —
/// order, tracking the registers written so far. A memory or control
/// operation, or a read of a register some *earlier* operation writes,
/// disqualifies the instruction; write-after-write needs no check because
/// both the record replay and the direct path apply writes in the same
/// order. Lowering leaves every source field a kind does not read at zero,
/// the never-written register zero of cluster 0, so reading `a`, `b` and
/// `cond` of every op needs no per-kind case. Send sources are excluded
/// from the read set: they are captured into the transfer buffer before
/// evaluation starts, so they can never observe an in-instruction write.
fn classify_direct(tops: &[ThreadedOp]) -> bool {
    let mut gpr_w = [0u64; MAX_CLUSTERS];
    let mut breg_w = 0u64;
    for t in tops {
        if matches!(t.fu(), FuKind::Mem | FuKind::Br) {
            return false;
        }
        let gpr_read = |r: u16| gpr_w[(r >> 6) as usize % MAX_CLUSTERS] >> (r & 63) & 1 != 0;
        let breg_read = t.cond != BREG_NONE && breg_w >> (t.cond & 63) & 1 != 0;
        if gpr_read(t.a) || gpr_read(t.b) || breg_read {
            return false;
        }
        let dst = t.dst();
        if t.rec_flags & F_GPR != 0 {
            gpr_w[(dst >> 6) as usize % MAX_CLUSTERS] |= 1 << (dst & 63);
        } else if t.rec_flags & F_BREG != 0 {
            breg_w |= 1 << (dst & 63);
        }
    }
    true
}

impl DecodedProgram {
    /// Decodes every instruction of `program`. Called once per distinct
    /// program per engine; everything here is hot-loop work that used to
    /// run on every activation.
    pub fn decode(program: &Program) -> Self {
        let mut tops = Vec::with_capacity(program.total_ops() as usize);
        let mut sends = Vec::new();
        let mut demands = Vec::new();
        let mut insts = Vec::with_capacity(program.len());

        for (idx, inst) in program.instructions.iter().enumerate() {
            let op_start = tops.len() as u32;
            let send_start = sends.len() as u32;
            let demand_start = demands.len() as u32;
            let mut bundle_mask = 0u16;
            let mut has_comm = false;

            for (c, bundle) in inst.bundles.iter().enumerate() {
                if bundle.is_empty() {
                    continue;
                }
                bundle_mask |= 1 << c;
                let rec_lo = (tops.len() as u32 - op_start) as u16;
                let mut demand = ClusterDemand {
                    log_cluster: c as u8,
                    slots: bundle.ops.len() as u8,
                    rec_range: (rec_lo, rec_lo + bundle.ops.len() as u16),
                    fu: [0; FuKind::COUNT],
                    packed: 0,
                };
                for op in &bundle.ops {
                    if op.opcode.is_comm() {
                        has_comm = true;
                    }
                    if op.opcode == Opcode::Send {
                        let (src, imm) = resolve_src(op.a);
                        sends.push((op.imm as u8 & 15, src, imm.unwrap_or(0)));
                    }
                    demand.fu[op.fu_kind().index()] += 1;
                    tops.push(lower_op(op, c as u8, program.len()));
                }
                demand.packed = pack_demand(&demand.fu, demand.slots);
                demands.push(demand);
            }

            insts.push(DecodedInst {
                op_range: (op_start, tops.len() as u32),
                send_range: (send_start, sends.len() as u32),
                demand_range: (demand_start, demands.len() as u32),
                bundle_mask,
                has_comm,
                direct: classify_direct(&tops[op_start as usize..]),
                fetch_addr: program.inst_addr[idx],
                fetch_len: inst.encoded_size(),
            });
        }

        DecodedProgram {
            tops,
            sends,
            demands,
            insts,
        }
    }

    /// Convenience: decode behind an `Arc` for sharing across contexts.
    pub fn decode_arc(program: &Program) -> Arc<Self> {
        Arc::new(Self::decode(program))
    }

    /// Number of instructions (equals `Program::len`).
    #[inline]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Static metadata of instruction `idx`.
    #[inline]
    pub fn inst(&self, idx: usize) -> &DecodedInst {
        &self.insts[idx]
    }

    /// Threaded-code entries of an instruction, in activation order.
    #[inline]
    pub fn tops_of(&self, di: &DecodedInst) -> &[ThreadedOp] {
        &self.tops[di.op_range.0 as usize..di.op_range.1 as usize]
    }

    /// Send sources of an instruction, for transfer value capture.
    #[inline]
    pub fn sends_of(&self, di: &DecodedInst) -> &[(u8, SrcRef, u32)] {
        &self.sends[di.send_range.0 as usize..di.send_range.1 as usize]
    }

    /// Per-bundle resource demands of an instruction, in cluster order.
    #[inline]
    pub fn demands_of(&self, di: &DecodedInst) -> &[ClusterDemand] {
        self.demands_in(di.demand_range)
    }

    /// Demand-table slice for a raw range (the in-flight state caches its
    /// instruction's range so the issue stage skips the `DecodedInst`
    /// load).
    #[inline]
    pub fn demands_in(&self, range: (u32, u32)) -> &[ClusterDemand] {
        &self.demands[range.0 as usize..range.1 as usize]
    }
}

/// Resolves a source operand to a [`SrcRef`] plus its immediate, if any.
/// `Breg`/`None` operands read zero: they resolve to flat index 0
/// (cluster 0's immutable register zero).
#[inline]
pub(crate) fn resolve_src(o: Operand) -> (SrcRef, Option<u32>) {
    match o {
        Operand::Gpr(r) => (r.cluster as u16 * 64 + r.index as u16, None),
        Operand::Imm(i) => (SRC_IMM, Some(i as u32)),
        Operand::Breg(_) | Operand::None => (0, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::{F_MEM, F_PENDING};
    use crate::threaded::Kind;
    use vex_isa::{Dest, Instruction, Operation, Reg};

    fn program() -> Program {
        let ld = Operation::load(Opcode::Ldh, Reg::new(1, 3), Reg::new(1, 2), 8);
        let mut send = Operation::new(Opcode::Send);
        send.a = Operand::Gpr(Reg::new(0, 1));
        send.imm = 3;
        let mut recv = Operation::new(Opcode::Recv);
        recv.dst = Dest::Gpr(Reg::new(2, 4));
        recv.imm = 3;
        let mut halt = Instruction::nop(4);
        halt.bundles[0].ops.push(Operation::new(Opcode::Halt));
        Program::new(
            "decode-test",
            vec![
                Instruction::from_ops(4, [(0, send), (1, ld), (2, recv)]),
                Instruction::nop(4),
                halt,
            ],
            vec![],
        )
    }

    #[test]
    fn tables_mirror_instruction_structure() {
        let p = program();
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.len(), 3);

        let i0 = d.inst(0);
        assert_eq!(d.tops_of(i0).len(), 3);
        assert_eq!(i0.bundle_mask, 0b0111);
        assert!(i0.has_comm);
        assert!(!i0.direct, "a load rules direct application out");
        assert_eq!(d.sends_of(i0), &[(3, 1u16, 0u32)]); // flat r0.1, no imm
        assert_eq!(i0.fetch_addr, p.inst_addr[0]);
        assert_eq!(i0.fetch_len, p.instructions[0].encoded_size());

        // Vertical NOP: no ops, no bundles, still one fetch syllable.
        let i1 = d.inst(1);
        assert!(d.tops_of(i1).is_empty());
        assert_eq!(i1.bundle_mask, 0);
        assert_eq!(i1.fetch_len, 4);

        let i2 = d.inst(2);
        let halt = &d.tops_of(i2)[0];
        assert_eq!(d.tops_of(i2).len(), 1);
        assert_eq!(
            (halt.k, halt.fu(), halt.rec_flags),
            (Kind::Halt, FuKind::Br, F_PENDING)
        );
        assert!(!i2.direct, "control rules direct application out");
    }

    #[test]
    fn load_and_recv_decode_statically() {
        let p = program();
        let d = DecodedProgram::decode(&p);
        let tops = d.tops_of(d.inst(0));
        let (send, ld, recv) = (&tops[0], &tops[1], &tops[2]);
        assert_eq!(
            (send.k, send.fu(), send.rec_flags),
            (Kind::Send, FuKind::Send, F_PENDING)
        );
        assert_eq!(ld.k, Kind::LdH);
        assert_eq!(ld.rec_flags, F_PENDING | F_MEM | F_GPR);
        assert_eq!(ld.a, 64 + 2); // base: flat r1.2
        assert_eq!(ld.imm, 8); // byte offset
        assert_eq!(ld.dst(), 64 + 3); // flat r1.3
        assert_eq!(recv.k, Kind::Recv);
        assert_eq!(recv.rec_flags, F_PENDING | F_GPR);
        assert_eq!(recv.imm, 3); // pair id
        assert_eq!(recv.dst(), 2 * 64 + 4); // flat r2.4
        assert_eq!(ld.log_cluster(), 1);
        assert_eq!(recv.log_cluster(), 2);
    }
}
