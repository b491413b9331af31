//! Bundles and VLIW instructions.

use crate::machine::MachineConfig;
use crate::op::{FuKind, Operation};
use crate::reg::ClusterId;
use crate::validate::{ValidateCause, ValidateError};
use std::fmt;

/// The operations scheduled on one cluster in one cycle.
///
/// A bundle is the unit of splitting for cluster-level split-issue: all
/// operations of a bundle always issue together (paper §III).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Bundle {
    /// The operations; at most `ClusterResources::slots` of them.
    pub ops: Vec<Operation>,
}

impl Bundle {
    /// An empty bundle (the cluster is unused this cycle).
    pub fn empty() -> Self {
        Bundle { ops: Vec::new() }
    }

    /// Whether the cluster is unused.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of operations of a functional-unit class in this bundle.
    pub fn fu_count(&self, kind: FuKind) -> u8 {
        self.ops.iter().filter(|o| o.fu_kind() == kind).count() as u8
    }

    /// Whether any operation is an inter-cluster send/recv.
    pub fn has_comm(&self) -> bool {
        self.ops.iter().any(|o| o.opcode.is_comm())
    }

    /// Whether any operation accesses memory.
    pub fn has_mem(&self) -> bool {
        self.ops.iter().any(|o| o.opcode.is_mem())
    }
}

/// A VLIW instruction: one bundle per cluster.
///
/// An instruction whose bundles are all empty is an explicit vertical NOP
/// (the compiler emits those for empty schedule cycles, as a VLIW binary
/// would encode them).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Instruction {
    /// `bundles[c]` holds the operations for cluster `c`; the vector length
    /// equals the machine's cluster count.
    pub bundles: Vec<Bundle>,
}

impl Instruction {
    /// An all-NOP instruction for an `n_clusters` machine.
    pub fn nop(n_clusters: u8) -> Self {
        Instruction {
            bundles: (0..n_clusters).map(|_| Bundle::empty()).collect(),
        }
    }

    /// Builds an instruction from `(cluster, operation)` pairs.
    pub fn from_ops(n_clusters: u8, ops: impl IntoIterator<Item = (ClusterId, Operation)>) -> Self {
        let mut inst = Instruction::nop(n_clusters);
        for (c, op) in ops {
            inst.bundles[c as usize].ops.push(op);
        }
        inst
    }

    /// Number of clusters this instruction spans.
    pub fn n_clusters(&self) -> u8 {
        self.bundles.len() as u8
    }

    /// Bit `c` set iff cluster `c` has a non-empty bundle.
    pub fn used_cluster_mask(&self) -> u16 {
        let mut mask = 0u16;
        for (c, b) in self.bundles.iter().enumerate() {
            if !b.is_empty() {
                mask |= 1 << c;
            }
        }
        mask
    }

    /// Total operation count (a VLIW instruction is "1 to 16 RISC
    /// instructions" in the paper's accounting).
    pub fn op_count(&self) -> u32 {
        self.bundles.iter().map(|b| b.ops.len() as u32).sum()
    }

    /// Whether the instruction is an explicit vertical NOP.
    pub fn is_nop(&self) -> bool {
        self.bundles.iter().all(Bundle::is_empty)
    }

    /// Whether any operation is an inter-cluster send/recv. Instructions for
    /// which this is true are never split under the paper's
    /// "No split communication" configuration.
    pub fn has_comm(&self) -> bool {
        self.bundles.iter().any(Bundle::has_comm)
    }

    /// Whether any operation may redirect control flow.
    pub fn has_ctrl(&self) -> bool {
        self.bundles
            .iter()
            .any(|b| b.ops.iter().any(|o| o.opcode.is_ctrl()))
    }

    /// Encoded size in bytes: 4 bytes per operation, and an explicit NOP
    /// still occupies one 4-byte syllable (Lx-style encoding with stop bits).
    pub fn encoded_size(&self) -> u32 {
        4 * self.op_count().max(1)
    }

    /// Checks the instruction against per-cluster resource limits and
    /// register-file locality rules. The compiler guarantees this for
    /// generated code; hand-built instructions (tests, examples) should call
    /// it too, because the simulator's merging hardware assumes it.
    pub fn validate(&self, m: &MachineConfig) -> Result<(), ValidateError> {
        if self.bundles.len() != m.n_clusters as usize {
            return Err(ValidateError::in_instruction(ValidateCause::BundleCount {
                bundles: self.bundles.len(),
                clusters: m.n_clusters,
            }));
        }
        for (c, bundle) in self.bundles.iter().enumerate() {
            let c = c as u8;
            if bundle.ops.len() > m.cluster.slots as usize {
                return Err(ValidateError::in_bundle(
                    c,
                    ValidateCause::SlotsExceeded {
                        ops: bundle.ops.len(),
                        slots: m.cluster.slots,
                    },
                ));
            }
            for kind in FuKind::ALL {
                let used = bundle.fu_count(kind);
                if used > m.cluster.count(kind) {
                    return Err(ValidateError::in_bundle(
                        c,
                        ValidateCause::FuExceeded {
                            kind,
                            used,
                            units: m.cluster.count(kind),
                        },
                    ));
                }
            }
            for op in &bundle.ops {
                // Register locality: GPRs must be local to the cluster.
                // (Branch ops may read remote branch registers, like VEX.)
                if let crate::op::Dest::Gpr(r) = op.dst {
                    if r.cluster != c {
                        return Err(ValidateError::in_bundle(
                            c,
                            ValidateCause::RemoteWrite {
                                op: op.clone(),
                                reg: r,
                            },
                        ));
                    }
                }
                for r in op.src_gprs() {
                    if r.cluster != c {
                        return Err(ValidateError::in_bundle(
                            c,
                            ValidateCause::RemoteRead {
                                op: op.clone(),
                                reg: r,
                            },
                        ));
                    }
                }
                // Register indices must exist in the machine's files. The
                // simulator's flat register files rely on this: an index
                // past the per-cluster file would alias a neighbouring
                // cluster's registers instead of faulting.
                for r in op.src_gprs().chain(match op.dst {
                    crate::op::Dest::Gpr(r) => Some(r),
                    _ => None,
                }) {
                    if r.index >= m.n_gprs {
                        return Err(ValidateError::in_bundle(
                            c,
                            ValidateCause::GprIndex {
                                op: op.clone(),
                                reg: r,
                                n_gprs: m.n_gprs,
                            },
                        ));
                    }
                }
                let bregs = [
                    match op.dst {
                        crate::op::Dest::Breg(b) => Some(b),
                        _ => None,
                    },
                    op.a.breg(),
                    op.b.breg(),
                    op.c.breg(),
                ];
                for b in bregs.into_iter().flatten() {
                    if b.index >= m.n_bregs {
                        return Err(ValidateError::in_bundle(
                            c,
                            ValidateCause::BregIndex {
                                op: op.clone(),
                                breg: b,
                                n_bregs: m.n_bregs,
                            },
                        ));
                    }
                }
            }
        }
        // Send/recv pair ids must be in transfer-tag range and must match
        // one-to-one within the instruction.
        let mut sends: Vec<i32> = Vec::new();
        let mut recvs: Vec<i32> = Vec::new();
        for (c, b) in self.bundles.iter().enumerate() {
            for op in &b.ops {
                if op.opcode.is_comm() && !(0..16).contains(&op.imm) {
                    return Err(ValidateError::in_bundle(
                        c as u8,
                        ValidateCause::PairIdRange {
                            op: op.clone(),
                            id: op.imm,
                        },
                    ));
                }
                match op.opcode {
                    crate::op::Opcode::Send => sends.push(op.imm),
                    crate::op::Opcode::Recv => recvs.push(op.imm),
                    _ => {}
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        if sends != recvs {
            return Err(ValidateError::in_instruction(ValidateCause::UnpairedComm));
        }
        Ok(())
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_nop() {
            return write!(f, "  nop");
        }
        for (c, b) in self.bundles.iter().enumerate() {
            if b.is_empty() {
                continue;
            }
            for op in &b.ops {
                writeln!(f, "  c{c} {op}")?;
            }
        }
        write!(f, ";;")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Opcode, Operand, Operation};
    use crate::reg::Reg;

    fn add(c: u8) -> Operation {
        Operation::bin(
            Opcode::Add,
            Reg::new(c, 1),
            Operand::Gpr(Reg::new(c, 2)),
            Operand::Imm(1),
        )
    }

    #[test]
    fn nop_properties() {
        let n = Instruction::nop(4);
        assert!(n.is_nop());
        assert_eq!(n.op_count(), 0);
        assert_eq!(n.used_cluster_mask(), 0);
        assert_eq!(n.encoded_size(), 4);
    }

    #[test]
    fn cluster_mask_and_counts() {
        let i = Instruction::from_ops(4, [(0, add(0)), (2, add(2)), (2, add(2))]);
        assert_eq!(i.used_cluster_mask(), 0b0101);
        assert_eq!(i.op_count(), 3);
        assert_eq!(i.encoded_size(), 12);
        assert!(!i.is_nop());
    }

    #[test]
    fn validate_accepts_legal_instruction() {
        let m = MachineConfig::paper_4c4w();
        let i = Instruction::from_ops(4, [(0, add(0)), (1, add(1))]);
        assert!(i.validate(&m).is_ok());
    }

    #[test]
    fn validate_rejects_remote_register() {
        let m = MachineConfig::paper_4c4w();
        // Op placed on cluster 1 but reads cluster-0 registers.
        let i = Instruction::from_ops(4, [(1, add(0))]);
        assert!(i.validate(&m).is_err());
    }

    #[test]
    fn validate_rejects_oversubscribed_fu() {
        let m = MachineConfig::paper_4c4w();
        let ld = |c: u8| Operation::load(Opcode::Ldw, Reg::new(c, 1), Reg::new(c, 2), 0);
        // Two loads on one cluster: only 1 mem unit.
        let i = Instruction::from_ops(4, [(0, ld(0)), (0, ld(0))]);
        assert!(i.validate(&m).is_err());
    }

    #[test]
    fn validate_rejects_out_of_file_register_indices() {
        let m = MachineConfig::paper_4c4w();
        // GPR index past the 64-register file.
        let i = Instruction::from_ops(
            4,
            [(
                0,
                Operation::bin(
                    Opcode::Add,
                    Reg::new(0, 64),
                    Operand::Gpr(Reg::new(0, 1)),
                    Operand::Imm(1),
                ),
            )],
        );
        assert!(i.validate(&m).unwrap_err().to_string().contains("64 GPRs"));
        // Branch-register index past the 8-register file.
        let mut cmp = Operation::new(Opcode::CmpEq);
        cmp.dst = crate::op::Dest::Breg(crate::reg::BReg::new(0, 8));
        cmp.a = Operand::Gpr(Reg::new(0, 1));
        cmp.b = Operand::Imm(0);
        let i = Instruction::from_ops(4, [(0, cmp)]);
        assert!(i
            .validate(&m)
            .unwrap_err()
            .to_string()
            .contains("branch register"));
    }

    #[test]
    fn validate_rejects_out_of_range_pair_id() {
        // Pair id 16 would alias id 0 in the simulator's 16-entry transfer
        // buffer; validation must reject it even though send/recv match.
        let m = MachineConfig::paper_4c4w();
        let mut send = Operation::new(Opcode::Send);
        send.a = Operand::Gpr(Reg::new(0, 1));
        send.imm = 16;
        let mut recv = Operation::new(Opcode::Recv);
        recv.dst = crate::op::Dest::Gpr(Reg::new(1, 2));
        recv.imm = 16;
        let i = Instruction::from_ops(4, [(0, send), (1, recv)]);
        assert!(i.validate(&m).unwrap_err().to_string().contains("pair id"));
    }

    #[test]
    fn validate_rejects_unpaired_send() {
        let m = MachineConfig::paper_4c4w();
        let mut send = Operation::new(Opcode::Send);
        send.a = Operand::Gpr(Reg::new(0, 1));
        send.imm = 7;
        let i = Instruction::from_ops(4, [(0, send)]);
        assert!(i.validate(&m).is_err());
    }
}
