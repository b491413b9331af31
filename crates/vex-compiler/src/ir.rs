//! The compiler's register-transfer intermediate representation.
//!
//! Kernels (the unit of compilation) are control-flow graphs of basic
//! blocks over *virtual registers*. The IR is SSA-less: virtual registers
//! are mutable and loop-carried values are plain redefinitions, which keeps
//! kernel authoring close to the C sources the paper compiled.

use crate::CompileError;
use vex_isa::{ClusterId, DataSegment};

/// A virtual general-purpose register (32-bit).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VReg(pub u32);

/// A virtual branch register (1-bit), written by compares, read by
/// conditional branches and selects.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VBreg(pub u32);

/// A value operand: virtual register or immediate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Val {
    /// Read a virtual register.
    V(VReg),
    /// A 32-bit immediate.
    Imm(i32),
}

impl Val {
    /// The virtual register read, if any.
    pub fn vreg(self) -> Option<VReg> {
        match self {
            Val::V(r) => Some(r),
            Val::Imm(_) => None,
        }
    }
}

impl From<VReg> for Val {
    fn from(r: VReg) -> Val {
        Val::V(r)
    }
}

impl From<i32> for Val {
    fn from(i: i32) -> Val {
        Val::Imm(i)
    }
}

/// Two-source ALU/multiplier operation kinds; each maps to one ISA opcode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum BinKind {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Andc,
    Shl,
    Shr,
    Sra,
    Min,
    Max,
    Minu,
    Maxu,
    Mull,
    Mulh,
}

impl BinKind {
    /// True for multiplier-class operations (2-cycle latency, MUL unit).
    pub fn is_mul(self) -> bool {
        matches!(self, BinKind::Mull | BinKind::Mulh)
    }
}

/// Comparison kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum CmpKind {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Ltu,
    Geu,
}

/// Memory access widths (loads distinguish signedness, stores ignore it).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemWidth {
    /// Signed byte.
    B,
    /// Unsigned byte.
    Bu,
    /// Signed halfword.
    H,
    /// Unsigned halfword.
    Hu,
    /// Word.
    W,
}

/// One IR operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IrOp {
    /// `dst = a <kind> b`
    Bin {
        /// Operation kind.
        kind: BinKind,
        /// Destination.
        dst: VReg,
        /// Left source.
        a: Val,
        /// Right source.
        b: Val,
    },
    /// `dst = src`
    Mov {
        /// Destination.
        dst: VReg,
        /// Source.
        src: Val,
    },
    /// `dst = mem[base + off]`, tagged with an alias class: memory
    /// operations in different classes are known independent, operations in
    /// the same class are conservatively ordered.
    Load {
        /// Access width.
        w: MemWidth,
        /// Destination.
        dst: VReg,
        /// Base address (register or absolute immediate).
        base: Val,
        /// Constant byte offset.
        off: i32,
        /// Alias class.
        alias: u8,
    },
    /// `mem[base + off] = value`
    Store {
        /// Access width (signedness ignored).
        w: MemWidth,
        /// Value to store.
        value: Val,
        /// Base address (register or absolute immediate).
        base: Val,
        /// Constant byte offset.
        off: i32,
        /// Alias class.
        alias: u8,
    },
    /// `dst = (a <kind> b)` as 0/1 into a GPR.
    CmpR {
        /// Comparison kind.
        kind: CmpKind,
        /// Destination GPR-class vreg.
        dst: VReg,
        /// Left source.
        a: Val,
        /// Right source.
        b: Val,
    },
    /// `dst = (a <kind> b)` into a branch register.
    CmpB {
        /// Comparison kind.
        kind: CmpKind,
        /// Destination branch-class vreg.
        dst: VBreg,
        /// Left source.
        a: Val,
        /// Right source.
        b: Val,
    },
    /// `dst = cond ? a : b` (hardware `slct`; `cond` must live in the same
    /// cluster, which legalisation guarantees).
    Select {
        /// Destination.
        dst: VReg,
        /// Branch-register condition.
        cond: VBreg,
        /// Value if true.
        a: Val,
        /// Value if false.
        b: Val,
    },
    /// Inter-cluster copy `dst = src` where the two registers live in
    /// different clusters. Inserted by legalisation (never by kernel
    /// authors); lowers to a paired `send`/`recv` in one VLIW instruction.
    Xfer {
        /// Destination (shadow register in the consuming cluster).
        dst: VReg,
        /// Source.
        src: VReg,
    },
}

impl IrOp {
    /// The GPR-class destination, if any.
    pub fn dst_vreg(&self) -> Option<VReg> {
        match *self {
            IrOp::Bin { dst, .. }
            | IrOp::Mov { dst, .. }
            | IrOp::Load { dst, .. }
            | IrOp::CmpR { dst, .. }
            | IrOp::Select { dst, .. }
            | IrOp::Xfer { dst, .. } => Some(dst),
            IrOp::Store { .. } | IrOp::CmpB { .. } => None,
        }
    }

    /// The branch-class destination, if any.
    pub fn dst_vbreg(&self) -> Option<VBreg> {
        match *self {
            IrOp::CmpB { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// GPR-class virtual registers read by this op.
    pub fn src_vregs(&self) -> Vec<VReg> {
        let vals: &[Val] = match self {
            IrOp::Bin { a, b, .. } | IrOp::CmpR { a, b, .. } | IrOp::CmpB { a, b, .. } => &[*a, *b],
            IrOp::Mov { src, .. } => &[*src],
            IrOp::Load { base, .. } => &[*base],
            IrOp::Store { value, base, .. } => &[*value, *base],
            IrOp::Select { a, b, .. } => &[*a, *b],
            IrOp::Xfer { src, .. } => return vec![*src],
        };
        vals.iter().filter_map(|v| v.vreg()).collect()
    }

    /// Branch-class virtual registers read by this op.
    pub fn src_vbregs(&self) -> Option<VBreg> {
        match *self {
            IrOp::Select { cond, .. } => Some(cond),
            _ => None,
        }
    }

    /// The alias class if this is a memory operation.
    pub fn mem_alias(&self) -> Option<(u8, bool)> {
        match *self {
            IrOp::Load { alias, .. } => Some((alias, false)),
            IrOp::Store { alias, .. } => Some((alias, true)),
            _ => None,
        }
    }
}

/// Block identifier (index into [`Kernel::blocks`]).
pub type BlockId = usize;

/// How a block ends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Terminator {
    /// Unconditional transfer. If the target is the next block in layout
    /// order this is a pure fallthrough (no branch op is emitted).
    Jump(BlockId),
    /// Two-way conditional branch on a branch register; `fall` must be the
    /// next block in layout order (the compiler checks this).
    CondBr {
        /// Condition (written by a [`IrOp::CmpB`] in the same block).
        cond: VBreg,
        /// Branch taken when the condition is... `true` if `negate` is
        /// false, `false` otherwise (maps to `br`/`brf`).
        negate: bool,
        /// Target when the branch fires.
        taken: BlockId,
        /// Fallthrough block.
        fall: BlockId,
    },
    /// End of program run.
    Halt,
}

/// A basic block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// Straight-line operations.
    pub ops: Vec<IrOp>,
    /// Terminator.
    pub term: Terminator,
}

/// A compilation unit.
#[derive(Clone, PartialEq, Debug)]
pub struct Kernel {
    /// Benchmark name (propagated to the program).
    pub name: String,
    /// Basic blocks; block 0 is the entry and blocks are laid out in index
    /// order.
    pub blocks: Vec<Block>,
    /// Number of GPR-class virtual registers.
    pub vreg_count: u32,
    /// Number of branch-class virtual registers.
    pub vbreg_count: u32,
    /// Author cluster pins per vreg (`None` = compiler's choice).
    pub pins: Vec<Option<ClusterId>>,
    /// Initial data image.
    pub data: Vec<DataSegment>,
}

impl Kernel {
    /// Structural sanity checks (block targets in range, fallthrough
    /// discipline, vreg indices in range).
    pub fn check(&self) -> Result<(), CompileError> {
        let nb = self.blocks.len();
        if nb == 0 {
            return Err(CompileError::Malformed("kernel has no blocks".into()));
        }
        for (i, b) in self.blocks.iter().enumerate() {
            let chk = |t: BlockId| {
                if t >= nb {
                    Err(CompileError::Malformed(format!(
                        "block {i}: target {t} out of range"
                    )))
                } else {
                    Ok(())
                }
            };
            match b.term {
                Terminator::Jump(t) => chk(t)?,
                Terminator::CondBr { taken, fall, .. } => {
                    chk(taken)?;
                    chk(fall)?;
                    if fall != i + 1 {
                        return Err(CompileError::Malformed(format!(
                            "block {i}: fallthrough must be block {} (got {fall})",
                            i + 1
                        )));
                    }
                }
                Terminator::Halt => {}
            }
            for op in &b.ops {
                for r in op.src_vregs() {
                    if r.0 >= self.vreg_count {
                        return Err(CompileError::Malformed(format!(
                            "block {i}: vreg {r:?} out of range"
                        )));
                    }
                }
                if let Some(r) = op.dst_vreg() {
                    if r.0 >= self.vreg_count {
                        return Err(CompileError::Malformed(format!(
                            "block {i}: vreg {r:?} out of range"
                        )));
                    }
                }
                if matches!(op, IrOp::Xfer { .. }) {
                    return Err(CompileError::Malformed(format!(
                        "block {i}: Xfer ops are compiler-internal"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Total straight-line operation count (terminators excluded).
    pub fn op_count(&self) -> usize {
        self.blocks.iter().map(|b| b.ops.len()).sum()
    }
}

/// Convenience builder used by the workloads.
pub struct KernelBuilder {
    name: String,
    blocks: Vec<(Vec<IrOp>, Option<Terminator>)>,
    cur: BlockId,
    vreg_count: u32,
    vbreg_count: u32,
    pins: Vec<Option<ClusterId>>,
    data: Vec<DataSegment>,
}

impl KernelBuilder {
    /// Starts a kernel with an open entry block (id 0).
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            blocks: vec![(Vec::new(), None)],
            cur: 0,
            vreg_count: 0,
            vbreg_count: 0,
            pins: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Creates a new (empty, unterminated) block and returns its id.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push((Vec::new(), None));
        self.blocks.len() - 1
    }

    /// Redirects subsequent emission to block `b`.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(b < self.blocks.len(), "no such block");
        self.cur = b;
    }

    /// Allocates a fresh virtual register (cluster chosen by the compiler).
    pub fn vreg(&mut self) -> VReg {
        let r = VReg(self.vreg_count);
        self.vreg_count += 1;
        self.pins.push(None);
        r
    }

    /// Allocates a virtual register pinned to `cluster` (the author's
    /// data-placement decision, like VEX `#pragma` cluster hints).
    pub fn vreg_on(&mut self, cluster: ClusterId) -> VReg {
        let r = self.vreg();
        self.pins[r.0 as usize] = Some(cluster);
        r
    }

    /// Allocates a fresh branch-class virtual register.
    pub fn vbreg(&mut self) -> VBreg {
        let b = VBreg(self.vbreg_count);
        self.vbreg_count += 1;
        b
    }

    /// Appends a raw op to the current block.
    pub fn push(&mut self, op: IrOp) {
        assert!(
            self.blocks[self.cur].1.is_none(),
            "emitting into terminated block {}",
            self.cur
        );
        self.blocks[self.cur].0.push(op);
    }

    /// `dst = a <kind> b`
    pub fn bin(&mut self, kind: BinKind, dst: VReg, a: impl Into<Val>, b: impl Into<Val>) {
        self.push(IrOp::Bin {
            kind,
            dst,
            a: a.into(),
            b: b.into(),
        });
    }

    /// `dst = a + b`
    pub fn add(&mut self, dst: VReg, a: impl Into<Val>, b: impl Into<Val>) {
        self.bin(BinKind::Add, dst, a, b);
    }

    /// `dst = a - b`
    pub fn sub(&mut self, dst: VReg, a: impl Into<Val>, b: impl Into<Val>) {
        self.bin(BinKind::Sub, dst, a, b);
    }

    /// `dst = a & b`
    pub fn and(&mut self, dst: VReg, a: impl Into<Val>, b: impl Into<Val>) {
        self.bin(BinKind::And, dst, a, b);
    }

    /// `dst = a | b`
    pub fn or(&mut self, dst: VReg, a: impl Into<Val>, b: impl Into<Val>) {
        self.bin(BinKind::Or, dst, a, b);
    }

    /// `dst = a ^ b`
    pub fn xor(&mut self, dst: VReg, a: impl Into<Val>, b: impl Into<Val>) {
        self.bin(BinKind::Xor, dst, a, b);
    }

    /// `dst = a << b`
    pub fn shl(&mut self, dst: VReg, a: impl Into<Val>, b: impl Into<Val>) {
        self.bin(BinKind::Shl, dst, a, b);
    }

    /// `dst = a >> b` (logical)
    pub fn shr(&mut self, dst: VReg, a: impl Into<Val>, b: impl Into<Val>) {
        self.bin(BinKind::Shr, dst, a, b);
    }

    /// `dst = a >> b` (arithmetic)
    pub fn sra(&mut self, dst: VReg, a: impl Into<Val>, b: impl Into<Val>) {
        self.bin(BinKind::Sra, dst, a, b);
    }

    /// `dst = min(a, b)` signed
    pub fn min(&mut self, dst: VReg, a: impl Into<Val>, b: impl Into<Val>) {
        self.bin(BinKind::Min, dst, a, b);
    }

    /// `dst = max(a, b)` signed
    pub fn max(&mut self, dst: VReg, a: impl Into<Val>, b: impl Into<Val>) {
        self.bin(BinKind::Max, dst, a, b);
    }

    /// `dst = low32(a * b)`
    pub fn mul(&mut self, dst: VReg, a: impl Into<Val>, b: impl Into<Val>) {
        self.bin(BinKind::Mull, dst, a, b);
    }

    /// `dst = high32(a * b)` signed
    pub fn mulh(&mut self, dst: VReg, a: impl Into<Val>, b: impl Into<Val>) {
        self.bin(BinKind::Mulh, dst, a, b);
    }

    /// `dst = src`
    pub fn mov(&mut self, dst: VReg, src: impl Into<Val>) {
        self.push(IrOp::Mov {
            dst,
            src: src.into(),
        });
    }

    /// `dst = imm`
    pub fn movi(&mut self, dst: VReg, imm: i32) {
        self.mov(dst, Val::Imm(imm));
    }

    /// `dst = mem[base + off]` in alias class `alias`.
    pub fn load(&mut self, w: MemWidth, dst: VReg, base: impl Into<Val>, off: i32, alias: u8) {
        self.push(IrOp::Load {
            w,
            dst,
            base: base.into(),
            off,
            alias,
        });
    }

    /// `mem[base + off] = value` in alias class `alias`.
    pub fn store(
        &mut self,
        w: MemWidth,
        value: impl Into<Val>,
        base: impl Into<Val>,
        off: i32,
        alias: u8,
    ) {
        self.push(IrOp::Store {
            w,
            value: value.into(),
            base: base.into(),
            off,
            alias,
        });
    }

    /// `dst = (a <kind> b)` as 0/1.
    pub fn cmp(&mut self, kind: CmpKind, dst: VReg, a: impl Into<Val>, b: impl Into<Val>) {
        self.push(IrOp::CmpR {
            kind,
            dst,
            a: a.into(),
            b: b.into(),
        });
    }

    /// `dst = (x <kind> y) ? a : b` — emits a branch-register compare plus a
    /// hardware select.
    pub fn select(
        &mut self,
        kind: CmpKind,
        dst: VReg,
        x: impl Into<Val>,
        y: impl Into<Val>,
        a: impl Into<Val>,
        b: impl Into<Val>,
    ) {
        let cond = self.vbreg();
        self.push(IrOp::CmpB {
            kind,
            dst: cond,
            a: x.into(),
            b: y.into(),
        });
        self.push(IrOp::Select {
            dst,
            cond,
            a: a.into(),
            b: b.into(),
        });
    }

    fn terminate(&mut self, t: Terminator) {
        assert!(
            self.blocks[self.cur].1.is_none(),
            "block {} already terminated",
            self.cur
        );
        self.blocks[self.cur].1 = Some(t);
    }

    /// Ends the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.terminate(Terminator::Jump(target));
    }

    /// Ends the current block with `if (a <kind> b) goto taken; else fall
    /// through`. `fall` must be the next block in layout order.
    pub fn cond_br(
        &mut self,
        kind: CmpKind,
        a: impl Into<Val>,
        b: impl Into<Val>,
        taken: BlockId,
        fall: BlockId,
    ) {
        let cond = self.vbreg();
        self.push(IrOp::CmpB {
            kind,
            dst: cond,
            a: a.into(),
            b: b.into(),
        });
        self.terminate(Terminator::CondBr {
            cond,
            negate: false,
            taken,
            fall,
        });
    }

    /// Ends the current block (and the program run).
    pub fn halt(&mut self) {
        self.terminate(Terminator::Halt);
    }

    /// Registers an initial data segment.
    pub fn data(&mut self, base: u32, bytes: Vec<u8>) {
        self.data.push(DataSegment { base, bytes });
    }

    /// Finishes the kernel. Panics if any block is unterminated.
    pub fn finish(self) -> Kernel {
        let blocks = self
            .blocks
            .into_iter()
            .enumerate()
            .map(|(i, (ops, term))| Block {
                ops,
                term: term.unwrap_or_else(|| panic!("block {i} left unterminated")),
            })
            .collect();
        Kernel {
            name: self.name,
            blocks,
            vreg_count: self.vreg_count,
            vbreg_count: self.vbreg_count,
            pins: self.pins,
            data: self.data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_checked_kernel() {
        let mut k = KernelBuilder::new("t");
        let x = k.vreg();
        let loop_b = k.new_block();
        let exit = k.new_block();
        k.movi(x, 0);
        k.jump(loop_b);
        k.switch_to(loop_b);
        k.add(x, x, Val::Imm(1));
        k.cond_br(CmpKind::Lt, x, Val::Imm(10), loop_b, exit);
        k.switch_to(exit);
        k.halt();
        let kernel = k.finish();
        assert!(kernel.check().is_ok());
        assert_eq!(kernel.blocks.len(), 3);
        assert_eq!(kernel.op_count(), 3); // movi, add, cmpb (terms not counted)
    }

    #[test]
    fn check_rejects_bad_fallthrough() {
        let mut k = KernelBuilder::new("t");
        let b1 = k.new_block();
        let b2 = k.new_block();
        let x = k.vreg();
        k.movi(x, 0);
        // fallthrough to b2 but b1 is next in layout: malformed.
        k.cond_br(CmpKind::Lt, x, Val::Imm(3), b1, b2);
        k.switch_to(b1);
        k.halt();
        k.switch_to(b2);
        k.halt();
        assert!(k.finish().check().is_err());
    }

    #[test]
    fn src_dst_queries() {
        let op = IrOp::Store {
            w: MemWidth::W,
            value: Val::V(VReg(1)),
            base: Val::V(VReg(2)),
            off: 4,
            alias: 3,
        };
        assert_eq!(op.dst_vreg(), None);
        assert_eq!(op.src_vregs(), vec![VReg(1), VReg(2)]);
        assert_eq!(op.mem_alias(), Some((3, true)));
    }

    #[test]
    #[should_panic(expected = "unterminated")]
    fn finish_requires_termination() {
        let mut k = KernelBuilder::new("t");
        let x = k.vreg();
        k.movi(x, 1);
        let _ = k.finish();
    }
}
