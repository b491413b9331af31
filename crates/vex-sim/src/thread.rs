//! Per-benchmark execution contexts and in-flight (possibly split)
//! instruction state.
//!
//! The key simulator invariant comes straight from the paper (§V-B): while
//! an instruction is partially issued, none of its effects are
//! architecturally visible. The previous instruction committed before this
//! one activated (in-order), split-issued parts write *delay buffers*, and
//! everything commits when the last part issues. Consequently the thread's
//! register file and memory are stable across the instruction's whole issue
//! window, and every operation reads pre-instruction state regardless of
//! the order in which bundles/operations issue — exactly the dataflow rule
//! of Figure 3 (the register-swap example) and the reason recv-before-send
//! is tolerable with a destination buffer (Figure 12).
//!
//! The simulator exploits the invariant by evaluating the entire
//! instruction *functionally* at activation time, recording each
//! operation's effects in [`OpRecord`]s; issuing a part is then purely a
//! timing event, and commit replays the recorded effects.

use crate::decode::{SrcRef, SRC_IMM};
use crate::engine::PreparedProgram;
use crate::packet::MAX_CLUSTERS;
use crate::stats::ThreadStats;
use crate::threaded::{eval_op, EvalCtx};
use std::sync::Arc;
use vex_isa::{FuKind, Program};
use vex_mem::Memory;

/// GPR file type: 64 registers × [`MAX_CLUSTERS`] banks, stored **flat**
/// so a pre-resolved [`SrcRef`] reads with a single masked index (no
/// per-access cluster/index arithmetic, no bounds check). Slot
/// `cluster * 64 + index`; every cluster's register zero slot is never
/// written, so it reads the architectural zero for free.
pub type GprFile = [u32; MAX_CLUSTERS * 64];

/// Branch-register file type (8 one-bit registers × [`MAX_CLUSTERS`]
/// clusters, flat like [`GprFile`]).
pub type BregFile = [bool; MAX_CLUSTERS * 8];

/// Physical cluster executing logical cluster `c` under renaming rotation
/// `rename` on an `n_clusters` machine (§IV). The single rotation helper:
/// the engine's issue path, the fit checks and [`ThreadCtx::phys_cluster`]
/// all delegate here.
#[inline]
pub fn phys_cluster(c: u8, rename: u8, n_clusters: u8) -> u8 {
    let p = c + rename;
    if p >= n_clusters {
        p - n_clusters
    } else {
        p
    }
}

/// Control-flow effect of an instruction, resolved at activation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CtrlEffect {
    /// Redirect to an instruction index (taken branch / goto).
    Taken(usize),
    /// End of the program run.
    Halt,
}

/// One operation of the in-flight instruction with its precomputed effects,
/// packed into 20 bytes: the record buffer is rewritten on every activation
/// and re-scanned on every issue attempt, so its width is hot-loop traffic.
/// (The issue timestamp that used to live here is gone: pending state is a
/// flag bit, and the buffered-store port accounting moved to
/// [`InFlight::early_stores`].)
///
/// Only the *values* here are computed at activation; the static facts
/// (`log_cluster`, `fu`) are copied straight from the shared
/// [`crate::decode::DecodedProgram`] table so the issue loop can stay on
/// one array.
/// Effects are flag-encoded: a GPR/branch-register write, a buffered store
/// and a control effect are mutually exclusive by construction (loads write
/// a GPR, stores store, branches branch), so one `val`/`dst` pair serves
/// them all.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpRecord {
    /// GPR/branch-register write value, or store value.
    pub(crate) val: u32,
    /// Effective byte address probed in the data cache at issue (valid iff
    /// [`OpRecord::mem_probe`] — also the buffered store's address).
    pub(crate) mem_addr: u32,
    /// Control effect: `CTRL_NONE`, `CTRL_HALT`, or a taken-branch target.
    pub(crate) ctrl: u32,
    /// Packed static half, copied verbatim from
    /// [`crate::threaded::ThreadedOp::statics`]: flat destination index in
    /// the low 16 bits, logical cluster in bits 16..24, FU-class index in
    /// bits 24..32. One word move instead of three field moves in the
    /// per-record constructor — which profiles as the hottest line of the
    /// evaluation phase.
    pub(crate) statics: u32,
    /// Effect flags (`F_*`).
    pub(crate) flags: u8,
}

/// `ctrl` sentinel: no control effect.
pub(crate) const CTRL_NONE: u32 = u32::MAX;
/// `ctrl` sentinel: halt. Branch targets are instruction indices and stay
/// far below both sentinels (programs are bounded by memory long before
/// 2^32 - 2 instructions).
pub(crate) const CTRL_HALT: u32 = u32::MAX - 1;

/// Writes a GPR (`dst`, `val`).
pub(crate) const F_GPR: u8 = 1 << 0;
/// Writes a branch register (`dst`; value in `F_BREG_VAL`).
pub(crate) const F_BREG: u8 = 1 << 1;
/// The branch-register value written under `F_BREG`.
pub(crate) const F_BREG_VAL: u8 = 1 << 2;
/// Buffered store of `val` to `mem_addr` (size in `F_SIZE_*`).
pub(crate) const F_STORE: u8 = 1 << 3;
/// Probes the data cache at `mem_addr` when issuing.
pub(crate) const F_MEM: u8 = 1 << 4;
/// Store size: bytes = 1 << ((flags >> 5) & 3).
pub(crate) const F_SIZE_SHIFT: u8 = 5;
/// The record has not issued yet. Only the operation-level split-issue
/// path reads or clears this bit (the other techniques track pending work
/// at bundle granularity via [`InFlight::pending_bundles`]).
pub(crate) const F_PENDING: u8 = 1 << 7;

impl OpRecord {
    /// Flat destination index into the GPR or branch-register file.
    #[inline]
    pub(crate) fn dst(&self) -> usize {
        (self.statics & 0xFFFF) as usize
    }

    /// Logical cluster of the bundle containing the op.
    #[inline]
    pub fn log_cluster(&self) -> u8 {
        (self.statics >> 16) as u8
    }

    /// Functional-unit class (for issue resource accounting).
    #[inline]
    pub fn fu(&self) -> FuKind {
        FuKind::from_index((self.statics >> 24) as usize)
    }

    /// Data-cache address to probe when this op issues (loads and stores).
    #[inline]
    pub fn mem_probe(&self) -> Option<u32> {
        if self.flags & F_MEM != 0 {
            Some(self.mem_addr)
        } else {
            None
        }
    }

    /// Whether this record buffers a store until commit.
    #[inline]
    pub fn has_store(&self) -> bool {
        self.flags & F_STORE != 0
    }

    /// Whether this record is still waiting to issue (operation-level
    /// split-issue bookkeeping).
    #[inline]
    pub fn is_pending(&self) -> bool {
        self.flags & F_PENDING != 0
    }

    /// Marks the record issued (clears the pending bit).
    #[inline]
    pub fn mark_issued(&mut self) {
        self.flags &= !F_PENDING;
    }

    /// Control effect carried by this record, if any.
    #[inline]
    pub fn ctrl(&self) -> Option<CtrlEffect> {
        match self.ctrl {
            CTRL_NONE => None,
            CTRL_HALT => Some(CtrlEffect::Halt),
            target => Some(CtrlEffect::Taken(target as usize)),
        }
    }
}

/// The in-flight instruction. Buffers are reused across activations to keep
/// the per-instruction cost allocation-free on the steady state.
///
/// `repr(C)` so the field order below is the memory order: everything the
/// per-cycle issue scan touches (`active` through the `records` pointer)
/// packs into the struct's first cache line; the commit-only
/// `early_stores` block sits behind it.
#[derive(Clone, Debug, Default)]
#[repr(C)]
pub struct InFlight {
    /// Whether an instruction is currently active.
    pub active: bool,
    /// Whether the instruction contains send/recv operations (NS policy).
    pub has_comm: bool,
    /// Bitmask of logical clusters with pending (unissued) bundles.
    pub pending_bundles: u16,
    /// Number of not-yet-issued operations.
    pub n_pending: u32,
    /// Distinct cycles in which parts issued.
    pub parts: u32,
    /// The instruction's demand-table range, copied from its
    /// [`crate::decode::DecodedInst`] at activation so issue attempts go
    /// straight to the demand slice.
    pub demand_range: (u32, u32),
    /// Instruction index in the program.
    pub inst_idx: usize,
    /// Precomputed operation records.
    pub records: Vec<OpRecord>,
    /// Buffered stores issued in *earlier* cycles than the final part,
    /// counted per **logical** cluster as they issue. At commit these are
    /// the stores that need data-cache ports alongside the final part
    /// (§V-D); the physical mapping is applied at commit time, exactly like
    /// the record scan this replaces (cluster renaming can change while an
    /// instruction is in flight across a timeslice switch).
    pub early_stores: [u8; MAX_CLUSTERS],
}

/// Architectural + microarchitectural state of one benchmark context.
///
/// A context persists across timeslices; the multitasking scheduler maps
/// contexts onto hardware thread slots.
///
/// `repr(C)`: the engine touches `stall_until`/`retired`/`fetch_paid`/
/// `pc`/`asid`/`rename` plus the head of `inflight` for **every slotted
/// context every cycle** (runnability check, fetch, issue). Pinning those
/// to the struct's first cache line keeps the per-cycle scheduler scan to
/// one line per context instead of wherever rustc's default field
/// reordering lands them.
#[derive(Clone, Debug)]
#[repr(C)]
pub struct ThreadCtx {
    /// The context may not issue before this cycle (miss/branch stalls).
    pub stall_until: u64,
    /// Next instruction to fetch.
    pub pc: usize,
    /// Address-space id used to tag cache lines.
    pub asid: u16,
    /// Cluster-renaming rotation for this context (0 disables).
    pub rename: u8,
    /// Program run finished and respawning is disabled.
    pub retired: bool,
    /// The I-cache access for `pc` was already performed (and missed); do
    /// not probe again when the stall expires.
    pub fetch_paid: bool,
    /// In-flight instruction state (delay buffers included); its own hot
    /// head (`active` … the record pointer) continues this cache line.
    pub inflight: InFlight,
    /// The program this context runs, with its pre-decoded static metadata
    /// (see [`crate::decode::DecodedProgram`]) and its initial data image,
    /// all shared between contexts running the same program: `mem` starts
    /// from the image and respawn returns to it.
    pub prepared: PreparedProgram,
    /// GPR file, indexed flat (`cluster * 64 + index`); register zero of
    /// each cluster reads zero.
    pub regs: Box<GprFile>,
    /// Branch-register file, indexed flat (`cluster * 8 + index`).
    pub bregs: Box<BregFile>,
    /// Private functional memory.
    pub mem: Memory,
    /// Event counters.
    pub stats: ThreadStats,
    /// Profiling: issue-stage attempts for this context (one per cycle the
    /// context tried to place work). Lives outside [`ThreadStats`] so the
    /// golden timing snapshots stay purely architectural.
    pub issue_calls: u64,
    /// Profiling: record/demand-table entries the issue stage examined
    /// across all attempts (the `--profile` scans-per-cycle numerator).
    pub issue_scans: u64,
    /// Profiling: instruction activations (one per [`ThreadCtx::activate`]).
    pub eval_activations: u64,
    /// Profiling: operations evaluated across all activations.
    pub eval_ops: u64,
}

impl ThreadCtx {
    /// Creates a context at the program entry with zeroed registers and the
    /// initial data image loaded, decoding the program and building its
    /// image privately. When several contexts run the same program, prepare
    /// it once and use [`ThreadCtx::with_prepared`] instead (as
    /// [`crate::Engine::new`] does).
    pub fn new(program: Arc<Program>, asid: u16, n_clusters: u8, rename: u8) -> Self {
        Self::with_prepared(&PreparedProgram::prepare(program), asid, n_clusters, rename)
    }

    /// Creates a context sharing a prepared program's decode table and
    /// data image: its memory shares the image's pages, so building it
    /// copies no data.
    pub fn with_prepared(
        prepared: &PreparedProgram,
        asid: u16,
        n_clusters: u8,
        rename: u8,
    ) -> Self {
        debug_assert_eq!(prepared.decoded().len(), prepared.program().len());
        assert!(n_clusters as usize <= MAX_CLUSTERS);
        ThreadCtx {
            mem: Memory::from_image(prepared.image()),
            prepared: prepared.clone(),
            asid,
            rename,
            pc: 0,
            regs: Box::new([0u32; MAX_CLUSTERS * 64]),
            bregs: Box::new([false; MAX_CLUSTERS * 8]),
            inflight: InFlight::default(),
            stall_until: 0,
            retired: false,
            fetch_paid: false,
            stats: ThreadStats::default(),
            issue_calls: 0,
            issue_scans: 0,
            eval_activations: 0,
            eval_ops: 0,
        }
    }

    /// Physical cluster executing this context's logical cluster `c`.
    #[inline]
    pub fn phys_cluster(&self, c: u8, n_clusters: u8) -> u8 {
        phys_cluster(c, self.rename, n_clusters)
    }

    /// Activates the instruction at `pc`: evaluates every operation against
    /// the (stable) pre-instruction state and fills the in-flight record.
    /// All static decode work comes from the shared
    /// [`crate::decode::DecodedProgram`] table; this function only reads
    /// registers/memory and computes values, reusing the record buffer (no
    /// allocation, no re-decode).
    /// Every operation goes through the one threaded-code evaluator,
    /// [`crate::threaded`]'s `eval_op`.
    ///
    /// Inter-cluster pairs are resolved here: the `recv` value equals the
    /// `send` source read from pre-instruction state, which is the unique
    /// architecturally-correct value whatever the relative issue order of
    /// the two bundles (§V-E).
    ///
    /// When the instruction is classified
    /// [`crate::decode::DecodedInst::direct`], the record buffer is left
    /// empty and every evaluated effect is applied to the register files
    /// immediately: the classification guarantees no evaluation reads a
    /// register the instruction writes, nothing else observes this
    /// context's architectural state between activation and commit, and
    /// issue never consults the records of a memory-free instruction —
    /// so the early application is unobservable, and both the record
    /// writeback and the commit-time replay drop out of the hot path.
    /// Under the operation-level split technique (`split_op = true`) the
    /// issue stage walks pending records individually, so every
    /// instruction materializes its records there.
    pub fn activate(&mut self, split_op: bool) {
        debug_assert!(!self.inflight.active);
        let ThreadCtx {
            prepared,
            inflight,
            regs,
            bregs,
            mem,
            pc,
            eval_activations,
            eval_ops,
            ..
        } = self;
        let decoded = prepared.decoded();
        let di = decoded.inst(*pc);

        // Send values, indexed by pair id (pre-instruction reads, §V-E).
        let mut xfer_vals = [0u32; 16];
        for &(pair, src, imm) in decoded.sends_of(di) {
            xfer_vals[pair as usize] = src_val(regs, src, imm);
        }

        let tops = decoded.tops_of(di);
        let n = tops.len();
        inflight.records.clear();
        *eval_activations += 1;
        *eval_ops += n as u64;
        if di.direct && !split_op {
            // Direct application: evaluate in table order and write each
            // effect straight through. `EvalCtx` is rebuilt per op so the
            // shared borrows it holds end before the register-file write —
            // it is four pointer copies the optimizer keeps in registers.
            for t in tops {
                let cx = EvalCtx {
                    regs,
                    bregs,
                    mem,
                    xfer: &xfer_vals,
                };
                let r = eval_op(t, &cx);
                if r.flags & F_GPR != 0 {
                    regs[r.dst() & (MAX_CLUSTERS * 64 - 1)] = r.val;
                } else if r.flags & F_BREG != 0 {
                    bregs[r.dst() & (MAX_CLUSTERS * 8 - 1)] = r.flags & F_BREG_VAL != 0;
                }
            }
        } else {
            let cx = EvalCtx {
                regs,
                bregs,
                mem,
                xfer: &xfer_vals,
            };
            inflight
                .records
                .extend(tops.iter().map(|t| eval_op(t, &cx)));
        }

        inflight.active = true;
        inflight.inst_idx = *pc;
        inflight.n_pending = n as u32;
        inflight.pending_bundles = di.bundle_mask;
        inflight.demand_range = di.demand_range;
        inflight.has_comm = di.has_comm;
        inflight.parts = 0;
        inflight.early_stores = [0; MAX_CLUSTERS];
        // Advance pc to the fall-through successor; a taken branch
        // overrides it at commit.
        *pc += 1;
    }

    /// Applies the committed instruction's architectural effects (delay
    /// buffers → register files and memory; branch redirection; halt).
    /// Returns the control effect, if any.
    pub fn commit_writes(&mut self) -> Option<CtrlEffect> {
        debug_assert!(self.inflight.active && self.inflight.n_pending == 0);
        let ThreadCtx {
            inflight,
            regs,
            bregs,
            mem,
            ..
        } = self;
        let mut ctrl = None;
        // A record carries at most one effect — GPR write, breg write,
        // buffered store, control — by ISA construction (no opcode both
        // writes a register and branches), so the checks chain as
        // `else if`: the dominant GPR-write case settles on one test.
        for rec in &inflight.records {
            if rec.flags & F_GPR != 0 {
                // Lowering dropped register-zero destinations, so every
                // surviving write lands.
                regs[rec.dst() & (MAX_CLUSTERS * 64 - 1)] = rec.val;
            } else if rec.flags & F_BREG != 0 {
                bregs[rec.dst() & (MAX_CLUSTERS * 8 - 1)] = rec.flags & F_BREG_VAL != 0;
            } else if rec.flags & F_STORE != 0 {
                match 1u8 << (rec.flags >> F_SIZE_SHIFT & 3) {
                    1 => mem.write_u8(rec.mem_addr, rec.val as u8),
                    2 => mem.write_u16(rec.mem_addr, rec.val as u16),
                    _ => mem.write_u32(rec.mem_addr, rec.val),
                }
            } else if rec.ctrl != CTRL_NONE {
                ctrl = rec.ctrl();
            }
        }
        inflight.records.clear();
        inflight.active = false;
        self.stats.insts_retired += 1;
        ctrl
    }

    /// Resets the context to the program entry (benchmark respawn, §VI-A).
    /// Returns memory to the initial data image, sharing its pages again;
    /// registers keep their values, like a process re-entering `main` with
    /// a fresh heap.
    pub fn respawn(&mut self) {
        self.pc = 0;
        self.fetch_paid = false;
        self.mem.reset_to(self.prepared.image());
        self.stats.runs_completed += 1;
    }
}

/// Reads a flat GPR slot (register-zero slots are never written, so the
/// architectural zero comes out of the array like any other value). The
/// mask makes the bound obvious to the optimiser; decode validated the
/// index.
#[inline]
fn reg_at(regs: &GprFile, code: SrcRef) -> u32 {
    regs[code as usize & (MAX_CLUSTERS * 64 - 1)]
}

/// Reads a pre-resolved source: the op's immediate, or a flat GPR slot.
#[inline]
fn src_val(regs: &GprFile, code: SrcRef, imm: u32) -> u32 {
    if code == SRC_IMM {
        imm
    } else {
        reg_at(regs, code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_isa::{Dest, Instruction, Opcode, Operand, Operation, Reg};

    fn one_inst_program(inst: Instruction) -> Arc<Program> {
        let mut halt = Instruction::nop(4);
        halt.bundles[0].ops.push(Operation::new(Opcode::Halt));
        Arc::new(Program::new("t", vec![inst, halt], vec![]))
    }

    #[test]
    fn swap_reads_pre_instruction_state() {
        // The paper's Figure 3: a single-cycle register swap must read old
        // values even conceptually split — activation captures both reads.
        let r3 = Reg::new(0, 3);
        let r5 = Reg::new(0, 5);
        let mv = |d: Reg, s: Reg| {
            let mut op = Operation::new(Opcode::Mov);
            op.dst = Dest::Gpr(d);
            op.a = Operand::Gpr(s);
            op
        };
        let inst = Instruction::from_ops(4, [(0, mv(r3, r5)), (0, mv(r5, r3))]);
        let mut t = ThreadCtx::new(one_inst_program(inst), 0, 4, 0);
        t.regs[3] = 111; // flat r0.3
        t.regs[5] = 222; // flat r0.5
        t.activate(false);
        t.inflight.n_pending = 0; // pretend both ops issued
        t.commit_writes();
        assert_eq!(t.regs[3], 222);
        assert_eq!(t.regs[5], 111);
    }

    #[test]
    fn send_recv_value_is_pre_instruction() {
        let mut send = Operation::new(Opcode::Send);
        send.a = Operand::Gpr(Reg::new(0, 1));
        send.imm = 0;
        let mut recv = Operation::new(Opcode::Recv);
        recv.dst = Dest::Gpr(Reg::new(1, 2));
        recv.imm = 0;
        let inst = Instruction::from_ops(4, [(0, send), (1, recv)]);
        let mut t = ThreadCtx::new(one_inst_program(inst), 0, 4, 0);
        t.regs[1] = 777; // flat r0.1
        t.activate(false);
        t.inflight.n_pending = 0;
        t.commit_writes();
        assert_eq!(t.regs[64 + 2], 777); // flat r1.2
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut op = Operation::new(Opcode::Mov);
        op.dst = Dest::Gpr(Reg::new(0, 0));
        op.a = Operand::Imm(55);
        let inst = Instruction::from_ops(4, [(0, op)]);
        let mut t = ThreadCtx::new(one_inst_program(inst), 0, 4, 0);
        t.activate(false);
        t.inflight.n_pending = 0;
        t.commit_writes();
        assert_eq!(t.regs[0], 0); // flat r0.0
    }

    #[test]
    fn renaming_rotates_physical_clusters() {
        let p = one_inst_program(Instruction::nop(4));
        let t = ThreadCtx::new(p, 0, 4, 3);
        assert_eq!(t.phys_cluster(0, 4), 3);
        assert_eq!(t.phys_cluster(1, 4), 0);
        assert_eq!(t.phys_cluster(3, 4), 2);
    }

    #[test]
    fn respawn_reloads_data() {
        let mut halt = Instruction::nop(4);
        halt.bundles[0].ops.push(Operation::new(Opcode::Halt));
        let p = Arc::new(Program::new(
            "t",
            vec![halt],
            vec![vex_isa::DataSegment {
                base: 0x100,
                bytes: vec![1, 2, 3, 4],
            }],
        ));
        let mut t = ThreadCtx::new(p, 0, 4, 0);
        assert_eq!(t.mem.owned_pages(), 0, "the context shares its image");
        t.mem.write_u32(0x100, 0xdeadbeef);
        assert_eq!(t.mem.owned_pages(), 1);
        t.respawn();
        assert_eq!(t.mem.read_u32(0x100), 0x04030201);
        assert_eq!(t.mem.owned_pages(), 0, "respawn shares the image again");
        assert_eq!(t.stats.runs_completed, 1);
    }
}
