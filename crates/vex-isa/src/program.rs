//! Programs: instruction streams with an initial data image.

use crate::inst::Instruction;
use crate::machine::MachineConfig;
use std::fmt;
use std::hash::{Hash, Hasher};

/// An initialised region of a program's (private) data address space.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DataSegment {
    /// Base byte address.
    pub base: u32,
    /// Initial contents.
    pub bytes: Vec<u8>,
}

/// A compiled VLIW program: the instruction stream, the byte addresses of
/// each instruction (for instruction-cache modelling) and the initial data
/// image (for functional simulation).
///
/// Control-flow targets are *instruction indices* (`Operation::imm`); the
/// byte layout exists only so the instruction cache sees realistic
/// variable-length code addresses.
#[derive(Clone, PartialEq, Debug)]
pub struct Program {
    /// Human-readable benchmark name.
    pub name: String,
    /// The instruction stream. Index 0 is the entry point.
    pub instructions: Vec<Instruction>,
    /// Byte address of each instruction in the code space.
    pub inst_addr: Vec<u32>,
    /// Initial data image, applied when a run (re)starts.
    pub data: Vec<DataSegment>,
}

/// Base address of the code space; data segments live below this address.
pub const CODE_BASE: u32 = 0x4000_0000;

impl Program {
    /// Builds a program, laying instructions out contiguously from
    /// [`CODE_BASE`] to derive per-instruction fetch addresses.
    pub fn new(
        name: impl Into<String>,
        instructions: Vec<Instruction>,
        data: Vec<DataSegment>,
    ) -> Self {
        let mut inst_addr = Vec::with_capacity(instructions.len());
        let mut addr = CODE_BASE;
        for inst in &instructions {
            inst_addr.push(addr);
            addr += inst.encoded_size();
        }
        Program {
            name: name.into(),
            instructions,
            inst_addr,
            data,
        }
    }

    /// Number of VLIW instructions (including explicit NOPs).
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// The cluster count this program targets (the bundle count of its
    /// instructions), or 0 for an empty program.
    pub fn n_clusters(&self) -> u8 {
        self.instructions
            .first()
            .map(Instruction::n_clusters)
            .unwrap_or(0)
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Total operation count over the whole stream.
    pub fn total_ops(&self) -> u64 {
        self.instructions.iter().map(|i| i.op_count() as u64).sum()
    }

    /// Static operations-per-instruction density (compile-time ILP).
    pub fn static_density(&self) -> f64 {
        if self.instructions.is_empty() {
            0.0
        } else {
            self.total_ops() as f64 / self.instructions.len() as f64
        }
    }

    /// Validates every instruction and every branch target.
    pub fn validate(&self, m: &MachineConfig) -> Result<(), crate::ValidateError> {
        for (i, inst) in self.instructions.iter().enumerate() {
            inst.validate(m).map_err(|e| e.at(&self.name, i))?;
            for (c, b) in inst.bundles.iter().enumerate() {
                for op in &b.ops {
                    if op.opcode.is_ctrl() && !matches!(op.opcode, crate::op::Opcode::Halt) {
                        let t = op.imm;
                        if t < 0 || t as usize >= self.instructions.len() {
                            return Err(crate::ValidateError::in_bundle(
                                c as u8,
                                crate::validate::ValidateCause::BranchTarget { target: t },
                            )
                            .at(&self.name, i));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Hashes the fields in order, each `Vec` length-prefixed, as a derive
/// would, except that the instruction addresses reach the hasher as one
/// [`Hasher::write`] of their little-endian bytes: std would write a
/// slice of integers in the host's byte order, and a program's digest
/// keys results that other hosts read.
impl Hash for Program {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.instructions.hash(state);
        state.write_usize(self.inst_addr.len());
        let addr_bytes: Vec<u8> = self
            .inst_addr
            .iter()
            .flat_map(|a| a.to_le_bytes())
            .collect();
        state.write(&addr_bytes);
        self.data.hash(state);
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "## program `{}` ({} instructions)",
            self.name,
            self.len()
        )?;
        for (i, inst) in self.instructions.iter().enumerate() {
            writeln!(f, "L{i}: {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Opcode, Operand, Operation};
    use crate::reg::Reg;

    fn mini_program() -> Program {
        let add = Operation::bin(
            Opcode::Add,
            Reg::new(0, 1),
            Operand::Gpr(Reg::new(0, 1)),
            Operand::Imm(1),
        );
        let mut halt_inst = Instruction::nop(4);
        halt_inst.bundles[0].ops.push(Operation::new(Opcode::Halt));
        Program::new(
            "mini",
            vec![
                Instruction::from_ops(
                    4,
                    [
                        (0, add.clone()),
                        (1, {
                            let mut a = add.clone();
                            a.dst = crate::op::Dest::Gpr(Reg::new(1, 1));
                            a.a = Operand::Gpr(Reg::new(1, 1));
                            a
                        }),
                    ],
                ),
                Instruction::nop(4),
                halt_inst,
            ],
            vec![],
        )
    }

    /// Every call a `Hash` impl makes, in order.
    #[derive(Default, PartialEq, Debug)]
    struct Recorder(Vec<Call>);

    #[derive(PartialEq, Debug)]
    enum Call {
        Write(Vec<u8>),
        Len(usize),
    }

    impl Hasher for Recorder {
        fn write(&mut self, bytes: &[u8]) {
            self.0.push(Call::Write(bytes.to_vec()));
        }

        fn write_usize(&mut self, n: usize) {
            self.0.push(Call::Len(n));
        }

        fn finish(&self) -> u64 {
            0
        }
    }

    #[test]
    fn instruction_addresses_hash_as_one_little_endian_write() {
        let p = mini_program();
        let mut all = Recorder::default();
        p.hash(&mut all);
        let mut head = Recorder::default();
        p.name.hash(&mut head);
        p.instructions.hash(&mut head);
        let mut tail = Recorder::default();
        p.data.hash(&mut tail);

        let n = head.0.len();
        assert_eq!(all.0[..n], head.0[..]);
        assert_eq!(all.0[n], Call::Len(3));
        let le: Vec<u8> = [CODE_BASE, CODE_BASE + 8, CODE_BASE + 12]
            .iter()
            .flat_map(|a| a.to_le_bytes())
            .collect();
        assert_eq!(all.0[n + 1], Call::Write(le));
        assert_eq!(all.0[n + 2..], tail.0[..]);
    }

    #[test]
    fn layout_addresses_are_contiguous() {
        let p = mini_program();
        assert_eq!(p.inst_addr[0], CODE_BASE);
        assert_eq!(p.inst_addr[1], CODE_BASE + 8); // 2 ops * 4 bytes
        assert_eq!(p.inst_addr[2], CODE_BASE + 12); // nop = 4 bytes
    }

    #[test]
    fn density_counts_ops_not_nops() {
        let p = mini_program();
        assert_eq!(p.total_ops(), 3);
        assert!((p.static_density() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validate_catches_bad_target() {
        let mut p = mini_program();
        let mut goto = Operation::new(Opcode::Goto);
        goto.imm = 99;
        p.instructions[1].bundles[0].ops.push(goto);
        assert!(p.validate(&MachineConfig::paper_4c4w()).is_err());
    }

    #[test]
    fn validate_accepts_mini_program() {
        assert!(mini_program()
            .validate(&MachineConfig::paper_4c4w())
            .is_ok());
    }
}
