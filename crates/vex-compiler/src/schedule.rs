//! Latency-cognizant list scheduling and code emission.
//!
//! Each basic block is scheduled independently (local scheduling; the trace
//! scheduling of the Multiflow lineage mainly enlarges scheduling regions,
//! which our kernels achieve by explicit unrolling). The scheduler honours:
//!
//! * RAW dependences with full producer latency (NUAL),
//! * WAW (≥ 1 cycle) and WAR (same cycle legal: VLIW reads happen before
//!   writes within an instruction),
//! * conservative memory ordering within an alias class,
//! * the two-phase branch rule: the compare that feeds a branch executes at
//!   least `cmp_to_br` cycles before it,
//! * per-cluster resources: issue slots, ALU/MUL/MEM/BR units and one
//!   send + one recv network port (an inter-cluster transfer occupies a slot
//!   and the send port in the source cluster plus a slot and the recv port
//!   in the destination cluster, *in the same instruction*),
//! * a drain rule: every result completes no later than the cycle after the
//!   block's final instruction, so cross-block consumers never observe a
//!   latency violation however blocks are glued at run time.
//!
//! Emission lays blocks out in id order, materialises one [`Instruction`]
//! per schedule cycle (empty cycles become explicit NOPs, exactly as a VLIW
//! binary encodes them), assigns physical registers and patches branch
//! targets to instruction indices.

use crate::cluster::{LBlock, LOp, LegalKernel};
use crate::ir::{BinKind, CmpKind, IrOp, MemWidth, Terminator, VReg, Val};
use crate::regalloc::RegAlloc;
use crate::CompileError;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use vex_isa::{
    ClusterId, Dest, FuKind, Instruction, MachineConfig, Opcode, Operand, Operation, Program,
};

/// A dependence edge: the dependent node must issue at least `lat` cycles
/// after node `pred`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DepEdge {
    /// Predecessor node (index into the block's op list).
    pub pred: usize,
    /// Minimum issue distance in cycles.
    pub lat: u32,
}

/// Dependence information for one block: `preds[i]` constrains op `i`;
/// `term_preds` constrains the terminator.
#[derive(Clone, Debug, Default)]
pub struct BlockDeps {
    /// Per-op predecessor edges.
    pub preds: Vec<Vec<DepEdge>>,
    /// Terminator predecessor edges.
    pub term_preds: Vec<DepEdge>,
}

/// Issue cycle assignment for one block.
#[derive(Clone, Debug)]
pub struct BlockSchedule {
    /// Issue cycle of each op.
    pub cycle: Vec<u32>,
    /// Issue cycle of the terminator op (meaningful when one is emitted).
    pub term_cycle: u32,
    /// Number of instructions this block occupies (terminator included).
    pub len: u32,
}

/// Issue cycles for every block of a kernel.
#[derive(Clone, Debug)]
pub struct KernelSchedule {
    /// Per-block schedules, indexed by block id.
    pub blocks: Vec<BlockSchedule>,
}

/// Result latency of an op (cycles until a consumer may issue).
pub fn result_latency(op: &IrOp, m: &MachineConfig) -> u32 {
    match op {
        IrOp::Bin { kind, .. } if kind.is_mul() => m.lat.mul as u32,
        IrOp::Load { .. } | IrOp::Store { .. } => m.lat.mem as u32,
        IrOp::Xfer { .. } => m.lat.xfer as u32,
        _ => m.lat.alu as u32,
    }
}

/// Whether the terminator emits a branch-unit op (pure fallthrough does not).
pub fn term_emits_op(block_id: usize, term: &Terminator) -> bool {
    match term {
        Terminator::Jump(t) => *t != block_id + 1,
        Terminator::CondBr { .. } => true,
        Terminator::Halt => true,
    }
}

/// Per-register state of the dependence builder, indexed by the dense
/// `VReg`/`VBreg` id.
#[derive(Clone, Default)]
struct RegState {
    /// The op that last defined the register.
    last_def: Option<usize>,
    /// Ops that read the register since that definition.
    uses: Vec<usize>,
    /// Number of definitions so far (the reaching-definition version).
    version: u32,
}

/// Grows a table indexed by a dense id so that `id` is in range.
fn entry<T: Clone + Default>(table: &mut Vec<T>, id: u32) -> &mut T {
    let i = id as usize;
    if i >= table.len() {
        table.resize(i + 1, T::default());
    }
    &mut table[i]
}

/// Builds the dependence graph of a block. Also used by the independent
/// schedule verifier.
pub fn build_deps(block: &LBlock, m: &MachineConfig) -> BlockDeps {
    let n = block.ops.len();
    let mut deps = BlockDeps {
        preds: vec![Vec::new(); n],
        term_preds: Vec::with_capacity(n + 1),
    };

    let mut regs: Vec<RegState> = Vec::new();
    let mut bregs: Vec<RegState> = Vec::new();
    // Prior loads and stores of each alias class, with the address key each
    // had when it was recorded.
    let mut loads_in_class: Vec<Vec<(usize, MemKey)>> = Vec::new();
    let mut stores_in_class: Vec<Vec<(usize, MemKey)>> = Vec::new();

    for (i, lop) in block.ops.iter().enumerate() {
        let op = &lop.op;
        // RAW on GPRs.
        for v in op.src_vregs() {
            let r = entry(&mut regs, v.0);
            if let Some(d) = r.last_def {
                deps.preds[i].push(DepEdge {
                    pred: d,
                    lat: result_latency(&block.ops[d].op, m),
                });
            }
            r.uses.push(i);
        }
        // RAW on branch registers (select reads).
        if let Some(b) = op.src_vbregs() {
            let r = entry(&mut bregs, b.0);
            if let Some(d) = r.last_def {
                deps.preds[i].push(DepEdge {
                    pred: d,
                    lat: m.lat.alu as u32,
                });
            }
            r.uses.push(i);
        }
        // WAW / WAR on GPR destination.
        if let Some(d) = op.dst_vreg() {
            redefine(entry(&mut regs, d.0), i, &mut deps.preds[i]);
        }
        // WAW / WAR on branch destination.
        if let Some(d) = op.dst_vbreg() {
            redefine(entry(&mut bregs, d.0), i, &mut deps.preds[i]);
        }
        // Memory ordering within the alias class, refined by base+offset
        // disambiguation: accesses through the *same base register value*
        // (same vreg, same reaching definition) at non-overlapping constant
        // offsets are independent — the bread-and-butter analysis of VLIW
        // compilers, without which unrolled row stores would serialise.
        if let Some((class, is_store)) = op.mem_alias() {
            // The key sees the versions before this op's own definition.
            let me = mem_key(op, &regs);
            let loads = entry(&mut loads_in_class, class.into());
            let stores = entry(&mut stores_in_class, class.into());
            // A store orders after every possibly-aliasing prior load and
            // store; a load only after the stores.
            let prior_loads = if is_store { &loads[..] } else { &[] };
            for &(p, key) in prior_loads.iter().chain(stores.iter()) {
                if may_alias(&me, &key) {
                    deps.preds[i].push(DepEdge { pred: p, lat: 1 });
                }
            }
            if is_store {
                stores.push((i, me));
            } else {
                loads.push((i, me));
            }
        }
        if let Some(d) = op.dst_vreg() {
            regs[d.0 as usize].version += 1;
        }
    }

    // Terminator edges.
    if let Terminator::CondBr { cond, .. } = block.term {
        if let Some(d) = bregs.get(cond.0 as usize).and_then(|r| r.last_def) {
            deps.term_preds.push(DepEdge {
                pred: d,
                lat: m.lat.cmp_to_br as u32,
            });
        }
    }
    // Drain rule + program order: the terminator (or block end) waits until
    // every result will complete by the following cycle.
    for (i, lop) in block.ops.iter().enumerate() {
        deps.term_preds.push(DepEdge {
            pred: i,
            lat: result_latency(&lop.op, m).saturating_sub(1),
        });
    }
    deps
}

/// Records op `i` as the new definition of `r`: WAW after the previous
/// definition, WAR (same cycle legal) after every read since it.
fn redefine(r: &mut RegState, i: usize, preds: &mut Vec<DepEdge>) {
    if let Some(p) = r.last_def {
        preds.push(DepEdge { pred: p, lat: 1 });
    }
    for u in r.uses.drain(..) {
        if u != i {
            preds.push(DepEdge { pred: u, lat: 0 });
        }
    }
    r.last_def = Some(i);
}

/// Address summary of a memory op for base+offset disambiguation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct MemKey {
    /// Register base with its reaching-definition version, if any.
    base: Option<(VReg, u32)>,
    /// Start offset (absolute address when `base` is `None`).
    start: i32,
    /// Access size in bytes.
    size: i32,
}

fn mem_width_size(w: MemWidth) -> i32 {
    match w {
        MemWidth::B | MemWidth::Bu => 1,
        MemWidth::H | MemWidth::Hu => 2,
        MemWidth::W => 4,
    }
}

fn mem_key(op: &IrOp, regs: &[RegState]) -> MemKey {
    let (w, base, off) = match *op {
        IrOp::Load { w, base, off, .. } => (w, base, off),
        IrOp::Store { w, base, off, .. } => (w, base, off),
        _ => unreachable!("mem_key on non-memory op"),
    };
    match base {
        Val::V(r) => MemKey {
            base: Some((r, regs.get(r.0 as usize).map_or(0, |s| s.version))),
            start: off,
            size: mem_width_size(w),
        },
        Val::Imm(a) => MemKey {
            base: None,
            start: a.wrapping_add(off),
            size: mem_width_size(w),
        },
    }
}

/// Conservative overlap test: precisely disjoint only when both accesses go
/// through the same base value (or both are absolute) at non-overlapping
/// constant ranges.
fn may_alias(a: &MemKey, b: &MemKey) -> bool {
    if a.base == b.base {
        let a_end = a.start + a.size;
        let b_end = b.start + b.size;
        !(a_end <= b.start || b_end <= a.start)
    } else {
        // Different or unversioned bases: assume the worst.
        true
    }
}

/// Resources one op occupies in its issue cycle: one (cluster, fu-kind)
/// pair, or two for an inter-cluster transfer. Each pair also consumes one
/// issue slot in its cluster.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Requirements {
    pairs: [(ClusterId, FuKind); 2],
    len: u8,
}

impl Requirements {
    fn one(cluster: ClusterId, kind: FuKind) -> Self {
        Requirements {
            pairs: [(cluster, kind); 2],
            len: 1,
        }
    }

    /// The (cluster, fu-kind) pairs.
    pub fn as_slice(&self) -> &[(ClusterId, FuKind)] {
        &self.pairs[..self.len as usize]
    }
}

/// Resource usage demanded by one op.
pub fn requirements(lop: &LOp, lk: &LegalKernel) -> Requirements {
    match &lop.op {
        IrOp::Xfer { src, .. } => Requirements {
            pairs: [
                (lk.vreg_cluster[src.0 as usize], FuKind::Send),
                (lop.cluster, FuKind::Recv),
            ],
            len: 2,
        },
        IrOp::Bin { kind, .. } if kind.is_mul() => Requirements::one(lop.cluster, FuKind::Mul),
        IrOp::Load { .. } | IrOp::Store { .. } => Requirements::one(lop.cluster, FuKind::Mem),
        _ => Requirements::one(lop.cluster, FuKind::Alu),
    }
}

/// Per-cycle resource table used during scheduling.
struct ResTable {
    n_clusters: usize,
    /// cycles × clusters × fu-kind counts (Alu, Mul, Mem, Br, Send, Recv).
    used: Vec<[u8; 6]>,
    slots: Vec<u8>,
}

/// Column of `k` in a per-cluster fu-kind count array.
pub(crate) fn fu_index(k: FuKind) -> usize {
    match k {
        FuKind::Alu => 0,
        FuKind::Mul => 1,
        FuKind::Mem => 2,
        FuKind::Br => 3,
        FuKind::Send => 4,
        FuKind::Recv => 5,
    }
}

impl ResTable {
    fn new(n_clusters: usize) -> Self {
        ResTable {
            n_clusters,
            used: Vec::new(),
            slots: Vec::new(),
        }
    }

    fn grow(&mut self, cycle: usize) {
        let len = cycle * self.n_clusters + self.n_clusters + 1;
        if self.used.len() < len {
            self.used.resize(len, [0; 6]);
            self.slots.resize(len, 0);
        }
    }

    fn fits(&mut self, cycle: usize, req: &[(ClusterId, FuKind)], m: &MachineConfig) -> bool {
        self.grow(cycle);
        for &(c, k) in req {
            let idx = cycle * self.n_clusters + c as usize;
            if self.slots[idx] + 1 > m.cluster.slots {
                return false;
            }
            if self.used[idx][fu_index(k)] + 1 > m.cluster.count(k) {
                return false;
            }
        }
        true
    }

    fn take(&mut self, cycle: usize, req: &[(ClusterId, FuKind)]) {
        for &(c, k) in req {
            let idx = cycle * self.n_clusters + c as usize;
            self.slots[idx] += 1;
            self.used[idx][fu_index(k)] += 1;
        }
    }
}

/// A set of priority ranks, as a bitset.
struct RankSet {
    words: Vec<u64>,
}

impl RankSet {
    fn new(n: usize) -> Self {
        RankSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn insert(&mut self, r: usize) {
        self.words[r / 64] |= 1 << (r % 64);
    }

    fn remove(&mut self, r: usize) {
        self.words[r / 64] &= !(1 << (r % 64));
    }

    /// The smallest member `>= r`.
    fn first_from(&self, r: usize) -> Option<usize> {
        let mut w = r / 64;
        let mut bits = self.words.get(w)? & (!0u64 << (r % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }
}

/// Schedules every block of a legalised kernel.
pub fn schedule_kernel(
    lk: &LegalKernel,
    m: &MachineConfig,
) -> Result<KernelSchedule, CompileError> {
    let mut blocks = Vec::with_capacity(lk.blocks.len());
    for (bid, block) in lk.blocks.iter().enumerate() {
        blocks.push(schedule_block(bid, block, lk, m)?);
    }
    Ok(KernelSchedule { blocks })
}

/// A block whose ops still issue at this cycle has not converged.
const MAX_CYCLES: u32 = 1_000_000;

/// Cycle-by-cycle list scheduling. Each cycle scans the candidates in
/// priority order — height (descending), then op index — and places every
/// op that fits the cycle's resources and, when the scan reaches it, has
/// all predecessors placed with their latencies elapsed. A 0-latency (WAR)
/// successor can therefore issue in the same cycle as its predecessor. (A
/// predecessor's height is at least its successor's and its index is lower,
/// so the priority order is topological: an op made ready during the scan
/// always lies ahead of it.)
///
/// Only ready ops are scanned: a bitset over priority ranks, walked with a
/// cursor that re-reads it, holds the ops that may issue now, and a heap
/// keyed by the earliest cycle holds ops whose predecessors are placed but
/// whose latencies have not elapsed.
fn schedule_block(
    bid: usize,
    block: &LBlock,
    lk: &LegalKernel,
    m: &MachineConfig,
) -> Result<BlockSchedule, CompileError> {
    let n = block.ops.len();
    let deps = build_deps(block, m);

    // Successor lists and critical-path heights (ops are in topological
    // order already: every dependence points backwards). The drain edges
    // give each op a floor.
    let mut succs: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for (i, preds) in deps.preds.iter().enumerate() {
        for e in preds {
            succs[e.pred].push((i, e.lat));
        }
    }
    let mut height = vec![0u32; n];
    for e in &deps.term_preds {
        height[e.pred] = height[e.pred].max(e.lat);
    }
    for i in (0..n).rev() {
        for &(s, lat) in &succs[i] {
            height[i] = height[i].max(height[s] + lat);
        }
    }

    // Priority order and each op's rank in it.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| height[b].cmp(&height[a]).then(a.cmp(&b)));
    let mut rank = vec![0usize; n];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r;
    }
    let reqs: Vec<Requirements> = block.ops.iter().map(|lop| requirements(lop, lk)).collect();

    let mut cycle_of = vec![u32::MAX; n];
    let mut earliest = vec![0u32; n];
    let mut preds_left: Vec<usize> = deps.preds.iter().map(Vec::len).collect();
    let mut ready = RankSet::new(n);
    let mut waiting: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
    for (i, &left) in preds_left.iter().enumerate() {
        if left == 0 {
            ready.insert(rank[i]);
        }
    }

    let mut table = ResTable::new(m.n_clusters as usize);
    let mut n_done = 0usize;
    let mut cycle = 0u32;
    while n_done < n {
        // Cycles in which nothing is ready stay empty: skip them.
        if ready.first_from(0).is_none() {
            if let Some(&Reverse((t, _))) = waiting.peek() {
                cycle = cycle.max(t);
            }
        }
        if cycle >= MAX_CYCLES {
            return Err(CompileError::BadSchedule(format!(
                "block {bid}: scheduler did not converge"
            )));
        }
        while let Some(&Reverse((t, i))) = waiting.peek() {
            if t > cycle {
                break;
            }
            waiting.pop();
            ready.insert(rank[i]);
        }
        let mut cursor = 0;
        while let Some(r) = ready.first_from(cursor) {
            cursor = r + 1;
            let i = order[r];
            let req = reqs[i].as_slice();
            if !table.fits(cycle as usize, req, m) {
                continue;
            }
            table.take(cycle as usize, req);
            ready.remove(r);
            cycle_of[i] = cycle;
            n_done += 1;
            for &(s, lat) in &succs[i] {
                earliest[s] = earliest[s].max(cycle + lat);
                preds_left[s] -= 1;
                if preds_left[s] == 0 {
                    if earliest[s] <= cycle {
                        ready.insert(rank[s]);
                    } else {
                        waiting.push(Reverse((earliest[s], s)));
                    }
                }
            }
        }
        cycle += 1;
    }

    // Terminator placement.
    let emits = term_emits_op(bid, &block.term);
    let mut term_earliest = 0u32;
    for e in &deps.term_preds {
        term_earliest = term_earliest.max(cycle_of[e.pred] + e.lat);
    }
    let (term_cycle, len) = if emits {
        let mut t = term_earliest;
        let req = [(block.term_cluster, FuKind::Br)];
        while !table.fits(t as usize, &req, m) {
            t += 1;
        }
        table.take(t as usize, &req);
        (t, t + 1)
    } else {
        // Fallthrough: the block just needs to be long enough to drain.
        let mut len = 0;
        for (i, lop) in block.ops.iter().enumerate() {
            len = len.max(cycle_of[i] + result_latency(&lop.op, m));
        }
        // `len` cycles 0..len-1; results complete by cycle len at the
        // latest, i.e. by the first cycle of the next block.
        (len.saturating_sub(1), len.max(if n == 0 { 0 } else { 1 }))
    };

    Ok(BlockSchedule {
        cycle: cycle_of,
        term_cycle,
        len,
    })
}

fn cmp_opcode(kind: CmpKind) -> Opcode {
    match kind {
        CmpKind::Eq => Opcode::CmpEq,
        CmpKind::Ne => Opcode::CmpNe,
        CmpKind::Lt => Opcode::CmpLt,
        CmpKind::Le => Opcode::CmpLe,
        CmpKind::Gt => Opcode::CmpGt,
        CmpKind::Ge => Opcode::CmpGe,
        CmpKind::Ltu => Opcode::CmpLtu,
        CmpKind::Geu => Opcode::CmpGeu,
    }
}

fn bin_opcode(kind: BinKind) -> Opcode {
    match kind {
        BinKind::Add => Opcode::Add,
        BinKind::Sub => Opcode::Sub,
        BinKind::And => Opcode::And,
        BinKind::Or => Opcode::Or,
        BinKind::Xor => Opcode::Xor,
        BinKind::Andc => Opcode::Andc,
        BinKind::Shl => Opcode::Shl,
        BinKind::Shr => Opcode::Shr,
        BinKind::Sra => Opcode::Sra,
        BinKind::Min => Opcode::Min,
        BinKind::Max => Opcode::Max,
        BinKind::Minu => Opcode::Minu,
        BinKind::Maxu => Opcode::Maxu,
        BinKind::Mull => Opcode::Mull,
        BinKind::Mulh => Opcode::Mulh,
    }
}

fn load_opcode(w: MemWidth) -> Opcode {
    match w {
        MemWidth::B => Opcode::Ldb,
        MemWidth::Bu => Opcode::Ldbu,
        MemWidth::H => Opcode::Ldh,
        MemWidth::Hu => Opcode::Ldhu,
        MemWidth::W => Opcode::Ldw,
    }
}

fn store_opcode(w: MemWidth) -> Opcode {
    match w {
        MemWidth::B | MemWidth::Bu => Opcode::Stb,
        MemWidth::H | MemWidth::Hu => Opcode::Sth,
        MemWidth::W => Opcode::Stw,
    }
}

/// Emits the final program: layout, physical registers, branch patching.
/// The program takes over the kernel's name and data image.
pub fn emit(
    lk: LegalKernel,
    sched: &KernelSchedule,
    alloc: &RegAlloc,
    m: &MachineConfig,
) -> Program {
    let n_blocks = lk.blocks.len();
    let mut block_start = vec![0u32; n_blocks + 1];
    for b in 0..n_blocks {
        block_start[b + 1] = block_start[b] + sched.blocks[b].len;
    }
    let total: u32 = block_start[n_blocks];
    let mut insts: Vec<Instruction> = (0..total).map(|_| Instruction::nop(m.n_clusters)).collect();

    let val = |v: Val, cluster: ClusterId| -> Operand {
        match v {
            Val::V(r) => Operand::Gpr(alloc.vreg[r.0 as usize]),
            Val::Imm(i) => {
                let _ = cluster;
                Operand::Imm(i)
            }
        }
    };

    for (bid, block) in lk.blocks.iter().enumerate() {
        let bs = &sched.blocks[bid];
        let base = block_start[bid];
        // Per-instruction xfer pair-id counters.
        let mut xfer_ids: HashMap<u32, i32> = HashMap::new();

        for (i, lop) in block.ops.iter().enumerate() {
            let inst_idx = (base + bs.cycle[i]) as usize;
            let c = lop.cluster;
            match &lop.op {
                IrOp::Bin { kind, dst, a, b } => {
                    let op = Operation::bin(
                        bin_opcode(*kind),
                        alloc.vreg[dst.0 as usize],
                        val(*a, c),
                        val(*b, c),
                    );
                    insts[inst_idx].bundles[c as usize].ops.push(op);
                }
                IrOp::Mov { dst, src } => {
                    let mut op = Operation::new(Opcode::Mov);
                    op.dst = Dest::Gpr(alloc.vreg[dst.0 as usize]);
                    op.a = val(*src, c);
                    insts[inst_idx].bundles[c as usize].ops.push(op);
                }
                IrOp::Load {
                    w,
                    dst,
                    base: b,
                    off,
                    ..
                } => {
                    let (breg, off) = match b {
                        Val::V(r) => (alloc.vreg[r.0 as usize], *off),
                        Val::Imm(abs) => (vex_isa::Reg::zero(c), off + abs),
                    };
                    let op =
                        Operation::load(load_opcode(*w), alloc.vreg[dst.0 as usize], breg, off);
                    insts[inst_idx].bundles[c as usize].ops.push(op);
                }
                IrOp::Store {
                    w,
                    value,
                    base: b,
                    off,
                    ..
                } => {
                    let (breg, off) = match b {
                        Val::V(r) => (alloc.vreg[r.0 as usize], *off),
                        Val::Imm(abs) => (vex_isa::Reg::zero(c), off + abs),
                    };
                    let op = Operation::store(store_opcode(*w), breg, off, val(*value, c));
                    insts[inst_idx].bundles[c as usize].ops.push(op);
                }
                IrOp::CmpR { kind, dst, a, b } => {
                    let op = Operation::bin(
                        cmp_opcode(*kind),
                        alloc.vreg[dst.0 as usize],
                        val(*a, c),
                        val(*b, c),
                    );
                    insts[inst_idx].bundles[c as usize].ops.push(op);
                }
                IrOp::CmpB { kind, dst, a, b } => {
                    let mut op = Operation::new(cmp_opcode(*kind));
                    op.dst = Dest::Breg(alloc.vbreg[dst.0 as usize]);
                    op.a = val(*a, c);
                    op.b = val(*b, c);
                    insts[inst_idx].bundles[c as usize].ops.push(op);
                }
                IrOp::Select { dst, cond, a, b } => {
                    let mut op = Operation::new(Opcode::Slct);
                    op.dst = Dest::Gpr(alloc.vreg[dst.0 as usize]);
                    op.a = val(*a, c);
                    op.b = val(*b, c);
                    op.c = Operand::Breg(alloc.vbreg[cond.0 as usize]);
                    insts[inst_idx].bundles[c as usize].ops.push(op);
                }
                IrOp::Xfer { dst, src } => {
                    let id = xfer_ids.entry(base + bs.cycle[i]).or_insert(0);
                    let pair = *id;
                    *id += 1;
                    let from = lk.vreg_cluster[src.0 as usize];
                    let mut send = Operation::new(Opcode::Send);
                    send.a = Operand::Gpr(alloc.vreg[src.0 as usize]);
                    send.imm = pair;
                    let mut recv = Operation::new(Opcode::Recv);
                    recv.dst = Dest::Gpr(alloc.vreg[dst.0 as usize]);
                    recv.imm = pair;
                    insts[inst_idx].bundles[from as usize].ops.push(send);
                    insts[inst_idx].bundles[c as usize].ops.push(recv);
                }
            }
        }

        // Terminator.
        if term_emits_op(bid, &block.term) {
            let inst_idx = (base + bs.term_cycle) as usize;
            let tc = block.term_cluster as usize;
            match block.term {
                Terminator::Jump(t) => {
                    let mut op = Operation::new(Opcode::Goto);
                    op.imm = block_start[t] as i32;
                    insts[inst_idx].bundles[tc].ops.push(op);
                }
                Terminator::CondBr {
                    cond,
                    negate,
                    taken,
                    ..
                } => {
                    let mut op = Operation::new(if negate { Opcode::Brf } else { Opcode::Br });
                    op.a = Operand::Breg(alloc.vbreg[cond.0 as usize]);
                    op.imm = block_start[taken] as i32;
                    insts[inst_idx].bundles[tc].ops.push(op);
                }
                Terminator::Halt => {
                    insts[inst_idx].bundles[tc]
                        .ops
                        .push(Operation::new(Opcode::Halt));
                }
            }
        }
    }

    // An empty bundle Vec inside Bundle is cheap; shrink to keep programs
    // compact in memory (they are cloned per simulated thread context).
    for inst in &mut insts {
        for b in &mut inst.bundles {
            b.ops.shrink_to_fit();
        }
    }

    Program::new(lk.name, insts, lk.data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{assign_clusters, legalize_xfers};
    use crate::ir::{KernelBuilder, Val};
    use crate::regalloc::allocate;

    fn pipeline(k: crate::ir::Kernel, m: &MachineConfig) -> (LegalKernel, KernelSchedule) {
        let a = assign_clusters(&k, m);
        let lk = legalize_xfers(&k, &a, m);
        let s = schedule_kernel(&lk, m).unwrap();
        (lk, s)
    }

    #[test]
    fn raw_latency_respected() {
        let m = MachineConfig::paper_4c4w();
        let mut k = KernelBuilder::new("t");
        let a = k.vreg_on(0);
        let b = k.vreg_on(0);
        k.mul(a, Val::Imm(3), Val::Imm(4)); // latency 2
        k.add(b, a, Val::Imm(1)); // must wait 2 cycles
        k.halt();
        let (_, s) = pipeline(k.finish(), &m);
        let bs = &s.blocks[0];
        assert!(bs.cycle[1] >= bs.cycle[0] + 2);
    }

    #[test]
    fn independent_ops_pack_into_one_cycle() {
        let m = MachineConfig::paper_4c4w();
        let mut k = KernelBuilder::new("t");
        let regs: Vec<_> = (0..4).map(|_| k.vreg_on(0)).collect();
        for &r in &regs {
            k.movi(r, 7);
        }
        k.halt();
        let (_, s) = pipeline(k.finish(), &m);
        let bs = &s.blocks[0];
        // 4 ALU slots on cluster 0: all four movs in cycle 0.
        assert!(bs.cycle.iter().all(|&c| c == 0), "{:?}", bs.cycle);
    }

    #[test]
    fn mem_unit_serialises_loads() {
        let m = MachineConfig::paper_4c4w();
        let mut k = KernelBuilder::new("t");
        let base = k.vreg_on(0);
        let x = k.vreg_on(0);
        let y = k.vreg_on(0);
        k.movi(base, 0x1000);
        k.load(MemWidth::W, x, base, 0, 1);
        k.load(MemWidth::W, y, base, 4, 1);
        k.halt();
        let (_, s) = pipeline(k.finish(), &m);
        let bs = &s.blocks[0];
        // One mem port on cluster 0: the loads are in different cycles.
        assert_ne!(bs.cycle[1], bs.cycle[2]);
    }

    #[test]
    fn cmp_to_branch_distance() {
        let m = MachineConfig::paper_4c4w();
        let mut k = KernelBuilder::new("t");
        let exit = k.new_block();
        let i = k.vreg_on(0);
        k.movi(i, 0);
        k.cond_br(crate::ir::CmpKind::Lt, i, Val::Imm(10), exit, 1);
        k.switch_to(exit);
        k.halt();
        let (lk, s) = pipeline(k.finish(), &m);
        let bs = &s.blocks[0];
        // CmpB is the last op of block 0's op list.
        let cmp_idx = lk.blocks[0].ops.len() - 1;
        assert!(bs.term_cycle >= bs.cycle[cmp_idx] + 2);
    }

    #[test]
    fn emitted_program_has_explicit_nops() {
        let m = MachineConfig::paper_4c4w();
        let mut k = KernelBuilder::new("t");
        let a = k.vreg_on(0);
        let b = k.vreg_on(0);
        k.mul(a, Val::Imm(3), Val::Imm(4));
        k.add(b, a, Val::Imm(1));
        k.halt();
        let kernel = k.finish();
        let asg = assign_clusters(&kernel, &m);
        let lk = legalize_xfers(&kernel, &asg, &m);
        let s = schedule_kernel(&lk, &m).unwrap();
        let alloc = allocate(&lk, &m).unwrap();
        let p = emit(lk, &s, &alloc, &m);
        // mul at 0, nop at 1, add at 2 (+ halt padding)
        assert!(p.instructions[1].is_nop());
        assert!(p.validate(&m).is_ok());
    }

    #[test]
    fn xfer_emits_paired_send_recv_in_one_instruction() {
        let m = MachineConfig::paper_4c4w();
        let mut k = KernelBuilder::new("t");
        let a = k.vreg_on(0);
        let b = k.vreg_on(1);
        k.movi(a, 5);
        k.add(b, a, Val::Imm(1));
        k.halt();
        let kernel = k.finish();
        let asg = assign_clusters(&kernel, &m);
        let lk = legalize_xfers(&kernel, &asg, &m);
        let s = schedule_kernel(&lk, &m).unwrap();
        let alloc = allocate(&lk, &m).unwrap();
        let p = emit(lk, &s, &alloc, &m);
        let comm_inst = p
            .instructions
            .iter()
            .find(|i| i.has_comm())
            .expect("must contain a send/recv");
        let sends = comm_inst
            .bundles
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|o| o.opcode == Opcode::Send)
            .count();
        let recvs = comm_inst
            .bundles
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|o| o.opcode == Opcode::Recv)
            .count();
        assert_eq!((sends, recvs), (1, 1));
        assert!(p.validate(&m).is_ok());
    }
}
