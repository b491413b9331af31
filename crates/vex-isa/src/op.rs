//! Operations: opcodes, operands and the RISC-style execution units of a
//! VLIW instruction.

use crate::machine::Latencies;
use crate::reg::{BReg, Reg};
use std::fmt;

/// The functional-unit class an operation executes on.
///
/// The paper's 4-issue cluster provides 4 ALUs, 2 multipliers, 1 load/store
/// unit and a branch unit; we additionally model one send and one receive
/// port per cluster on the fully connected inter-cluster network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FuKind {
    /// Integer ALU (arithmetic, logic, shifts, compares, selects, moves).
    Alu,
    /// Pipelined multiplier.
    Mul,
    /// Load/store unit.
    Mem,
    /// Branch/control unit (also executes `goto` and `halt`).
    Br,
    /// Inter-cluster network send port.
    Send,
    /// Inter-cluster network receive port.
    Recv,
}

impl FuKind {
    /// Number of functional-unit classes.
    pub const COUNT: usize = 6;

    /// Every class, indexed by [`FuKind::index`].
    pub const ALL: [FuKind; Self::COUNT] = [
        FuKind::Alu,
        FuKind::Mul,
        FuKind::Mem,
        FuKind::Br,
        FuKind::Send,
        FuKind::Recv,
    ];

    /// Dense index of this class (discriminant order), for per-class
    /// counter arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`FuKind::index`], for classes packed into byte fields.
    /// Indices at or above [`FuKind::COUNT`] fold to `Recv`; callers store
    /// only valid indices.
    #[inline]
    pub const fn from_index(i: usize) -> FuKind {
        match i {
            0 => FuKind::Alu,
            1 => FuKind::Mul,
            2 => FuKind::Mem,
            3 => FuKind::Br,
            4 => FuKind::Send,
            _ => FuKind::Recv,
        }
    }
}

/// Operation codes. Semantics operate on 32-bit two's-complement words.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Opcode {
    // ---- ALU, latency `lat.alu` ----
    /// `dst = a + b`
    Add,
    /// `dst = a - b`
    Sub,
    /// `dst = a & b`
    And,
    /// `dst = a | b`
    Or,
    /// `dst = a ^ b`
    Xor,
    /// `dst = a & !b` (and-complement, a VEX idiom)
    Andc,
    /// `dst = a << (b & 31)`
    Shl,
    /// `dst = (a as u32) >> (b & 31)` (logical)
    Shr,
    /// `dst = (a as i32) >> (b & 31)` (arithmetic)
    Sra,
    /// `dst = min(a, b)` signed
    Min,
    /// `dst = max(a, b)` signed
    Max,
    /// `dst = min(a, b)` unsigned
    Minu,
    /// `dst = max(a, b)` unsigned
    Maxu,
    /// `dst = a` (also used to materialise immediates)
    Mov,
    /// Sign-extend low byte: `dst = sxt8(a)`
    Sxtb,
    /// Sign-extend low half: `dst = sxt16(a)`
    Sxth,
    /// Zero-extend low byte: `dst = a & 0xff`
    Zxtb,
    /// Zero-extend low half: `dst = a & 0xffff`
    Zxth,
    /// Select: `dst = if c { a } else { b }`, `c` is a branch register.
    Slct,
    /// `dst = (a == b)`; destination may be a GPR (0/1) or a branch register.
    CmpEq,
    /// `dst = (a != b)`
    CmpNe,
    /// `dst = (a < b)` signed
    CmpLt,
    /// `dst = (a <= b)` signed
    CmpLe,
    /// `dst = (a > b)` signed
    CmpGt,
    /// `dst = (a >= b)` signed
    CmpGe,
    /// `dst = (a < b)` unsigned
    CmpLtu,
    /// `dst = (a >= b)` unsigned
    CmpGeu,

    // ---- Multiplier, latency `lat.mul` ----
    /// `dst = low32(a * b)`
    Mull,
    /// `dst = high32(sxt64(a) * sxt64(b))`
    Mulh,

    // ---- Memory, latency `lat.mem` ----
    /// `dst = sxt32(*(i32*)(a + imm))`
    Ldw,
    /// `dst = sxt16(*(i16*)(a + imm))`
    Ldh,
    /// `dst = zxt16(*(u16*)(a + imm))`
    Ldhu,
    /// `dst = sxt8(*(i8*)(a + imm))`
    Ldb,
    /// `dst = zxt8(*(u8*)(a + imm))`
    Ldbu,
    /// `*(u32*)(a + imm) = b`
    Stw,
    /// `*(u16*)(a + imm) = b & 0xffff`
    Sth,
    /// `*(u8*)(a + imm) = b & 0xff`
    Stb,

    // ---- Control, latency 1; branch unit ----
    /// Branch to instruction index `imm` if branch register `a` is true.
    Br,
    /// Branch to instruction index `imm` if branch register `a` is false.
    Brf,
    /// Unconditional branch to instruction index `imm`.
    Goto,
    /// Terminate the program run (the simulator respawns or retires it).
    Halt,

    // ---- Inter-cluster communication, latency `lat.xfer` ----
    /// Read GPR `a` and place it on the network; paired with the [`Opcode::Recv`]
    /// carrying the same `imm` pair-id in the same VLIW instruction.
    Send,
    /// Write the paired [`Opcode::Send`] value into `dst`.
    Recv,
}

impl Opcode {
    /// Every opcode, in declaration (= discriminant) order. This order is
    /// part of the `vex-asm` binary format: [`Opcode::code`] indexes into
    /// it, so new opcodes must be appended, never inserted.
    pub const ALL: [Opcode; 43] = {
        use Opcode::*;
        [
            Add, Sub, And, Or, Xor, Andc, Shl, Shr, Sra, Min, Max, Minu, Maxu, Mov, Sxtb, Sxth,
            Zxtb, Zxth, Slct, CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe, CmpLtu, CmpGeu, Mull, Mulh,
            Ldw, Ldh, Ldhu, Ldb, Ldbu, Stw, Sth, Stb, Br, Brf, Goto, Halt, Send, Recv,
        ]
    };

    /// Stable one-byte encoding of this opcode (its index in [`Opcode::ALL`]).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Opcode::code`].
    pub fn from_code(code: u8) -> Option<Opcode> {
        Self::ALL.get(code as usize).copied()
    }

    /// Looks an opcode up by its VEX mnemonic (the inverse of
    /// [`Opcode::mnemonic`]).
    pub fn from_mnemonic(s: &str) -> Option<Opcode> {
        Self::ALL.into_iter().find(|op| op.mnemonic() == s)
    }

    /// The functional-unit class this opcode occupies.
    pub fn fu_kind(self) -> FuKind {
        use Opcode::*;
        match self {
            Mull | Mulh => FuKind::Mul,
            Ldw | Ldh | Ldhu | Ldb | Ldbu | Stw | Sth | Stb => FuKind::Mem,
            Br | Brf | Goto | Halt => FuKind::Br,
            Send => FuKind::Send,
            Recv => FuKind::Recv,
            _ => FuKind::Alu,
        }
    }

    /// Assumed (compiler-visible) result latency in cycles.
    pub fn latency(self, lat: &Latencies) -> u8 {
        match self.fu_kind() {
            FuKind::Mul => lat.mul,
            FuKind::Mem => lat.mem,
            FuKind::Recv | FuKind::Send => lat.xfer,
            FuKind::Alu => lat.alu,
            FuKind::Br => 1,
        }
    }

    /// Whether this opcode reads memory.
    pub fn is_load(self) -> bool {
        matches!(
            self,
            Opcode::Ldw | Opcode::Ldh | Opcode::Ldhu | Opcode::Ldb | Opcode::Ldbu
        )
    }

    /// Whether this opcode writes memory.
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Stw | Opcode::Sth | Opcode::Stb)
    }

    /// Whether this opcode accesses memory at all.
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether this opcode may redirect control flow.
    pub fn is_ctrl(self) -> bool {
        matches!(self, Opcode::Br | Opcode::Brf | Opcode::Goto | Opcode::Halt)
    }

    /// Whether this is an inter-cluster communication operation
    /// (the paper's "no split communication" configuration keys off this).
    pub fn is_comm(self) -> bool {
        matches!(self, Opcode::Send | Opcode::Recv)
    }

    /// Whether this is a compare writing a branch register or GPR.
    pub fn is_cmp(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            CmpEq | CmpNe | CmpLt | CmpLe | CmpGt | CmpGe | CmpLtu | CmpGeu
        )
    }

    /// Evaluates a register-result operation from its source values: the
    /// ISA's ALU/MUL semantics, shared by the simulator, its reference
    /// interpreter and the static analyzer. `a`/`b` are the GPR/immediate
    /// operands, `c` the branch-register operand (selects). Compares
    /// return 0/1. Must not be called for memory, control or communication
    /// opcodes.
    #[inline]
    pub fn eval(self, a: u32, b: u32, c: bool) -> u32 {
        use Opcode::*;
        match self {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            And => a & b,
            Or => a | b,
            Xor => a ^ b,
            Andc => a & !b,
            Shl => a.wrapping_shl(b & 31),
            Shr => a.wrapping_shr(b & 31),
            Sra => (a as i32).wrapping_shr(b & 31) as u32,
            Min => (a as i32).min(b as i32) as u32,
            Max => (a as i32).max(b as i32) as u32,
            Minu => a.min(b),
            Maxu => a.max(b),
            Mov => a,
            Sxtb => a as u8 as i8 as i32 as u32,
            Sxth => a as u16 as i16 as i32 as u32,
            Zxtb => a & 0xff,
            Zxth => a & 0xffff,
            Slct => {
                if c {
                    a
                } else {
                    b
                }
            }
            Mull => a.wrapping_mul(b),
            Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
            CmpEq => (a == b) as u32,
            CmpNe => (a != b) as u32,
            CmpLt => ((a as i32) < (b as i32)) as u32,
            CmpLe => ((a as i32) <= (b as i32)) as u32,
            CmpGt => ((a as i32) > (b as i32)) as u32,
            CmpGe => ((a as i32) >= (b as i32)) as u32,
            CmpLtu => (a < b) as u32,
            CmpGeu => (a >= b) as u32,
            _ => unreachable!("eval() called for non-ALU opcode {self:?}"),
        }
    }

    /// Truth value of a register-result operation written to a branch
    /// register (compares, in practice): [`Opcode::eval`] `!= 0`, with the
    /// select condition reading false.
    #[inline]
    pub fn eval_cond(self, a: u32, b: u32) -> bool {
        self.eval(a, b, false) != 0
    }

    /// Lower-case VEX-style mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Add => "add",
            Sub => "sub",
            And => "and",
            Or => "or",
            Xor => "xor",
            Andc => "andc",
            Shl => "shl",
            Shr => "shr",
            Sra => "sra",
            Min => "min",
            Max => "max",
            Minu => "minu",
            Maxu => "maxu",
            Mov => "mov",
            Sxtb => "sxtb",
            Sxth => "sxth",
            Zxtb => "zxtb",
            Zxth => "zxth",
            Slct => "slct",
            CmpEq => "cmpeq",
            CmpNe => "cmpne",
            CmpLt => "cmplt",
            CmpLe => "cmple",
            CmpGt => "cmpgt",
            CmpGe => "cmpge",
            CmpLtu => "cmpltu",
            CmpGeu => "cmpgeu",
            Mull => "mull",
            Mulh => "mulh",
            Ldw => "ldw",
            Ldh => "ldh",
            Ldhu => "ldhu",
            Ldb => "ldb",
            Ldbu => "ldbu",
            Stw => "stw",
            Sth => "sth",
            Stb => "stb",
            Br => "br",
            Brf => "brf",
            Goto => "goto",
            Halt => "halt",
            Send => "send",
            Recv => "recv",
        }
    }
}

/// A source operand.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// Unused operand slot.
    None,
    /// A general-purpose register read.
    Gpr(Reg),
    /// A branch register read (branch conditions, select conditions).
    Breg(BReg),
    /// A 32-bit immediate.
    Imm(i32),
}

impl Operand {
    /// The GPR read by this operand, if any.
    pub fn gpr(self) -> Option<Reg> {
        match self {
            Operand::Gpr(r) => Some(r),
            _ => None,
        }
    }

    /// The branch register read by this operand, if any.
    pub fn breg(self) -> Option<BReg> {
        match self {
            Operand::Breg(b) => Some(b),
            _ => None,
        }
    }
}

/// A destination.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dest {
    /// No register result (stores, branches, send, halt).
    None,
    /// Write a general-purpose register.
    Gpr(Reg),
    /// Write a branch register (compares).
    Breg(BReg),
}

/// One RISC-style operation inside a VLIW instruction.
///
/// The operation does not record its own cluster: it inherits it from the
/// [`crate::Bundle`] that contains it, and every register it names must live
/// in that cluster (with the single architectural exception that branch
/// operations may read a branch register of another cluster, as in VEX).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Operation {
    /// What to do.
    pub opcode: Opcode,
    /// Register result, if any.
    pub dst: Dest,
    /// First source (base address for memory operations).
    pub a: Operand,
    /// Second source (store value for stores).
    pub b: Operand,
    /// Third source (select condition).
    pub c: Operand,
    /// Immediate rider: address offset for loads/stores, target instruction
    /// index for control flow, pair-id for send/recv.
    pub imm: i32,
}

impl Operation {
    /// Creates an operation with no operands; fill in fields as needed.
    pub fn new(opcode: Opcode) -> Self {
        Operation {
            opcode,
            dst: Dest::None,
            a: Operand::None,
            b: Operand::None,
            c: Operand::None,
            imm: 0,
        }
    }

    /// A two-source ALU/MUL operation writing a GPR.
    pub fn bin(opcode: Opcode, dst: Reg, a: Operand, b: Operand) -> Self {
        Operation {
            opcode,
            dst: Dest::Gpr(dst),
            a,
            b,
            c: Operand::None,
            imm: 0,
        }
    }

    /// A load `dst = [base + off]`.
    pub fn load(opcode: Opcode, dst: Reg, base: Reg, off: i32) -> Self {
        debug_assert!(opcode.is_load());
        Operation {
            opcode,
            dst: Dest::Gpr(dst),
            a: Operand::Gpr(base),
            b: Operand::None,
            c: Operand::None,
            imm: off,
        }
    }

    /// A store `[base + off] = value`.
    pub fn store(opcode: Opcode, base: Reg, off: i32, value: Operand) -> Self {
        debug_assert!(opcode.is_store());
        Operation {
            opcode,
            dst: Dest::None,
            a: Operand::Gpr(base),
            b: value,
            c: Operand::None,
            imm: off,
        }
    }

    /// Iterator over the GPRs this operation reads.
    pub fn src_gprs(&self) -> impl Iterator<Item = Reg> + '_ {
        [self.a, self.b, self.c]
            .into_iter()
            .filter_map(Operand::gpr)
    }

    /// The functional-unit class of the opcode.
    pub fn fu_kind(&self) -> FuKind {
        self.opcode.fu_kind()
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn operand(f: &mut fmt::Formatter<'_>, o: Operand, first: &mut bool) -> fmt::Result {
            if o == Operand::None {
                return Ok(());
            }
            if !*first {
                write!(f, ", ")?;
            }
            *first = false;
            match o {
                Operand::None => Ok(()),
                Operand::Gpr(r) => write!(f, "{r}"),
                Operand::Breg(b) => write!(f, "{b}"),
                Operand::Imm(v) => write!(f, "{v}"),
            }
        }

        write!(f, "{}", self.opcode.mnemonic())?;
        match self.dst {
            Dest::None => {}
            Dest::Gpr(r) => write!(f, " {r} =")?,
            Dest::Breg(b) => write!(f, " {b} =")?,
        }
        if self.opcode.is_mem() {
            // Memory syntax: ldw $r0.1 = 8[$r0.2] / stw 8[$r0.2] = $r0.3
            let base = match self.a {
                Operand::Gpr(r) => r,
                _ => Reg::zero(0),
            };
            if self.opcode.is_load() {
                return write!(f, " {}[{base}]", self.imm);
            }
            write!(f, " {}[{base}] = ", self.imm)?;
            let mut first = true;
            return operand(f, self.b, &mut first);
        }
        if self.opcode.is_ctrl() {
            write!(f, " ")?;
            let mut first = true;
            operand(f, self.a, &mut first)?;
            if !matches!(self.opcode, Opcode::Halt) {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "L{}", self.imm)?;
            }
            return Ok(());
        }
        write!(f, " ")?;
        let mut first = true;
        operand(f, self.a, &mut first)?;
        operand(f, self.b, &mut first)?;
        operand(f, self.c, &mut first)?;
        if self.opcode.is_comm() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "x{}", self.imm)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_code_and_mnemonic_roundtrip() {
        for (i, op) in Opcode::ALL.into_iter().enumerate() {
            assert_eq!(op.code() as usize, i);
            assert_eq!(Opcode::from_code(op.code()), Some(op));
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Opcode::from_code(Opcode::ALL.len() as u8), None);
        assert_eq!(Opcode::from_mnemonic("frobnicate"), None);
    }

    #[test]
    fn fu_classification() {
        assert_eq!(Opcode::Add.fu_kind(), FuKind::Alu);
        assert_eq!(Opcode::Mull.fu_kind(), FuKind::Mul);
        assert_eq!(Opcode::Ldw.fu_kind(), FuKind::Mem);
        assert_eq!(Opcode::Stb.fu_kind(), FuKind::Mem);
        assert_eq!(Opcode::Br.fu_kind(), FuKind::Br);
        assert_eq!(Opcode::Halt.fu_kind(), FuKind::Br);
        assert_eq!(Opcode::Send.fu_kind(), FuKind::Send);
        assert_eq!(Opcode::Recv.fu_kind(), FuKind::Recv);
    }

    #[test]
    fn latencies_follow_paper_model() {
        let lat = Latencies::default();
        assert_eq!(Opcode::Add.latency(&lat), 1);
        assert_eq!(Opcode::Mull.latency(&lat), 2);
        assert_eq!(Opcode::Ldw.latency(&lat), 2);
        assert_eq!(Opcode::Stw.latency(&lat), 2);
        assert_eq!(Opcode::CmpLt.latency(&lat), 1);
    }

    #[test]
    fn predicates() {
        assert!(Opcode::Ldbu.is_load());
        assert!(!Opcode::Ldbu.is_store());
        assert!(Opcode::Sth.is_store());
        assert!(Opcode::Send.is_comm());
        assert!(Opcode::Recv.is_comm());
        assert!(Opcode::Goto.is_ctrl());
        assert!(Opcode::CmpGeu.is_cmp());
        assert!(!Opcode::Slct.is_cmp());
    }

    #[test]
    fn eval_matches_compiler_semantics() {
        // Spot checks mirroring vex_compiler::verify::eval_bin tests.
        assert_eq!(Opcode::Sra.eval(0xffff_fff0, 2, false), 0xffff_fffc);
        assert_eq!(Opcode::Shr.eval(0xffff_fff0, 2, false), 0x3fff_fffc);
        assert_eq!(Opcode::Mulh.eval(0x8000_0000, 2, false), 0xffff_ffff);
        assert_eq!(Opcode::Min.eval(0xffff_ffff, 1, false), 0xffff_ffff);
        assert_eq!(Opcode::Minu.eval(0xffff_ffff, 1, false), 1);
        assert_eq!(Opcode::Andc.eval(0b1100, 0b1010, false), 0b0100);
    }

    #[test]
    fn eval_extensions() {
        assert_eq!(Opcode::Sxtb.eval(0x80, 0, false), 0xffff_ff80);
        assert_eq!(Opcode::Zxtb.eval(0x1ff, 0, false), 0xff);
        assert_eq!(Opcode::Sxth.eval(0x8000, 0, false), 0xffff_8000);
        assert_eq!(Opcode::Zxth.eval(0x1_ffff, 0, false), 0xffff);
    }

    #[test]
    fn eval_select_uses_condition() {
        assert_eq!(Opcode::Slct.eval(1, 2, true), 1);
        assert_eq!(Opcode::Slct.eval(1, 2, false), 2);
    }

    #[test]
    fn eval_compares_signed_vs_unsigned() {
        assert!(Opcode::CmpLt.eval_cond(u32::MAX, 0)); // -1 < 0
        assert!(!Opcode::CmpLtu.eval_cond(u32::MAX, 0));
        assert!(Opcode::CmpGeu.eval_cond(u32::MAX, 0));
    }

    #[test]
    fn display_forms() {
        let add = Operation::bin(
            Opcode::Add,
            Reg::new(0, 3),
            Operand::Gpr(Reg::new(0, 1)),
            Operand::Imm(4),
        );
        assert_eq!(add.to_string(), "add $r0.3 = $r0.1, 4");

        let ld = Operation::load(Opcode::Ldw, Reg::new(1, 5), Reg::new(1, 2), 8);
        assert_eq!(ld.to_string(), "ldw $r1.5 = 8[$r1.2]");

        let st = Operation::store(
            Opcode::Stw,
            Reg::new(0, 2),
            12,
            Operand::Gpr(Reg::new(0, 7)),
        );
        assert_eq!(st.to_string(), "stw 12[$r0.2] = $r0.7");

        let mut br = Operation::new(Opcode::Br);
        br.a = Operand::Breg(BReg::new(0, 1));
        br.imm = 42;
        assert_eq!(br.to_string(), "br $b0.1, L42");
    }

    #[test]
    fn src_gpr_iteration() {
        let op = Operation {
            opcode: Opcode::Slct,
            dst: Dest::Gpr(Reg::new(0, 1)),
            a: Operand::Gpr(Reg::new(0, 2)),
            b: Operand::Imm(9),
            c: Operand::Breg(BReg::new(0, 0)),
            imm: 0,
        };
        let srcs: Vec<Reg> = op.src_gprs().collect();
        assert_eq!(srcs, vec![Reg::new(0, 2)]);
    }
}
