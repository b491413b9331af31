//! Cluster assignment (Bottom-Up-Greedy flavoured) and inter-cluster
//! transfer legalisation.
//!
//! The paper's compiler uses Ellis' Bottom-Up-Greedy (BUG) algorithm to map
//! values to clusters, balancing functional-unit load against the cost of
//! inter-cluster copies. We implement a deterministic greedy variant with
//! the same ingredients:
//!
//! * author pins (`KernelBuilder::vreg_on`) are honoured absolutely — this
//!   is how workloads express data placement, standing in for the array
//!   partitioning a real BUG run derives from the program graph;
//! * unpinned values are placed by maximising operand affinity (each operand
//!   already resident in a cluster votes for it) minus a load penalty that
//!   tracks how many ALU/MUL/MEM operations each cluster has accumulated, so
//!   independent work spreads across clusters;
//! * every def of a value must execute in the value's cluster, so
//!   redefinitions inherit the original placement.
//!
//! After assignment, [`legalize_xfers`] rewrites the kernel so that every
//! operand is cluster-local, inserting [`IrOp::Xfer`] copies (lowered later
//! to paired `send`/`recv`) into *shadow* registers, one per (value,
//! consuming cluster), reused across blocks and invalidated when the source
//! value is redefined.

use crate::ir::{Block, IrOp, Kernel, Terminator, VReg, Val};
use std::collections::HashMap;
use vex_isa::{ClusterId, DataSegment, MachineConfig};

/// Result of cluster assignment.
#[derive(Clone, Debug)]
pub struct Assignment {
    /// Cluster of each GPR-class vreg.
    pub vreg: Vec<ClusterId>,
    /// Cluster of each branch-class vreg.
    pub vbreg: Vec<ClusterId>,
}

/// Per-cluster load accumulators used by the greedy placement.
struct Load {
    total: Vec<f32>,
    mul: Vec<f32>,
    mem: Vec<f32>,
}

impl Load {
    fn new(n: usize) -> Self {
        Load {
            total: vec![0.0; n],
            mul: vec![0.0; n],
            mem: vec![0.0; n],
        }
    }

    /// Penalty for adding `op` to cluster `c`. Like BUG, locality dominates:
    /// the penalty is the *imbalance* relative to the least-loaded cluster
    /// (saturating), so long dependence chains stay where their operands
    /// are and only genuinely independent work spreads out.
    fn penalty(&self, c: usize, op: &IrOp) -> f32 {
        let min_total = self.total.iter().copied().fold(f32::INFINITY, f32::min);
        let mut p = ((self.total[c] - min_total) * 0.55).min(7.0);
        match op {
            IrOp::Bin { kind, .. } if kind.is_mul() => {
                let min_mul = self.mul.iter().copied().fold(f32::INFINITY, f32::min);
                p += ((self.mul[c] - min_mul) * 0.8).min(4.0);
            }
            IrOp::Load { .. } | IrOp::Store { .. } => {
                let min_mem = self.mem.iter().copied().fold(f32::INFINITY, f32::min);
                p += ((self.mem[c] - min_mem) * 1.5).min(6.0);
            }
            _ => {}
        }
        p
    }

    fn charge(&mut self, c: usize, op: &IrOp) {
        self.total[c] += 1.0;
        match op {
            IrOp::Bin { kind, .. } if kind.is_mul() => self.mul[c] += 1.0,
            IrOp::Load { .. } | IrOp::Store { .. } => self.mem[c] += 1.0,
            _ => {}
        }
    }
}

/// Assigns every virtual register (GPR and branch class) to a cluster.
pub fn assign_clusters(k: &Kernel, m: &MachineConfig) -> Assignment {
    let n = m.n_clusters as usize;
    let mut vreg: Vec<Option<ClusterId>> = k.pins.clone();
    vreg.resize(k.vreg_count as usize, None);
    let mut vbreg: Vec<Option<ClusterId>> = vec![None; k.vbreg_count as usize];
    let mut load = Load::new(n);

    // Affinity of an op's operands for each cluster. Weighted heavily:
    // an inter-cluster copy costs a send+recv pair and a cycle of latency,
    // so locality beats load balance unless the operands are spread out.
    let affinity = |op: &IrOp, vreg: &[Option<ClusterId>], scores: &mut [f32]| {
        scores.iter_mut().for_each(|s| *s = 0.0);
        for v in op.src_vregs() {
            if let Some(c) = vreg[v.0 as usize] {
                scores[c as usize] += 5.0;
            }
        }
    };

    let mut scores = vec![0.0f32; n];
    for block in &k.blocks {
        for op in &block.ops {
            // Where does this op execute?
            let exec_cluster: ClusterId = match op {
                IrOp::Select { cond, dst, .. } => {
                    // A select reads its branch register locally: it runs in
                    // the condition's cluster (assigned by its CmpB).
                    let c = vbreg[cond.0 as usize].unwrap_or(0);
                    if vreg[dst.0 as usize].is_none() {
                        vreg[dst.0 as usize] = Some(c);
                    }
                    c
                }
                _ => {
                    if let Some(dst) = op.dst_vreg() {
                        if let Some(c) = vreg[dst.0 as usize] {
                            c // redefinition: the value's home wins
                        } else {
                            affinity(op, &vreg, &mut scores);
                            let c = pick(&scores, &load, op);
                            vreg[dst.0 as usize] = Some(c);
                            c
                        }
                    } else {
                        // Store / CmpB: execute near their operands.
                        affinity(op, &vreg, &mut scores);
                        let c = pick(&scores, &load, op);
                        if let Some(b) = op.dst_vbreg() {
                            vbreg[b.0 as usize] = Some(c);
                        }
                        c
                    }
                }
            };
            load.charge(exec_cluster as usize, op);
        }
    }

    Assignment {
        vreg: vreg.into_iter().map(|c| c.unwrap_or(0)).collect(),
        vbreg: vbreg.into_iter().map(|c| c.unwrap_or(0)).collect(),
    }
}

fn pick(scores: &[f32], load: &Load, op: &IrOp) -> ClusterId {
    let mut best = 0usize;
    let mut best_score = f32::NEG_INFINITY;
    for (c, &score) in scores.iter().enumerate() {
        let s = score - load.penalty(c, op);
        if s > best_score + 1e-6 {
            best_score = s;
            best = c;
        }
    }
    best as ClusterId
}

/// An IR operation annotated with its execution cluster.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LOp {
    /// The operation (operands already cluster-local).
    pub op: IrOp,
    /// Cluster it executes in. For [`IrOp::Xfer`] this is the *destination*
    /// cluster; the source side is implied by the source register.
    pub cluster: ClusterId,
}

/// A legalised block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LBlock {
    /// Operations in (pre-scheduling) program order.
    pub ops: Vec<LOp>,
    /// Terminator (unchanged from the kernel).
    pub term: Terminator,
    /// Cluster whose branch unit executes the terminator op, if one is
    /// emitted.
    pub term_cluster: ClusterId,
}

/// A kernel whose operands are all cluster-local.
#[derive(Clone, Debug)]
pub struct LegalKernel {
    /// Name (propagated to the program).
    pub name: String,
    /// Legalised blocks, same ids as the source kernel.
    pub blocks: Vec<LBlock>,
    /// Cluster of every vreg, including compiler-created shadows
    /// (`len >= kernel.vreg_count`).
    pub vreg_cluster: Vec<ClusterId>,
    /// Cluster of every branch-class vreg.
    pub vbreg_cluster: Vec<ClusterId>,
    /// Initial data image.
    pub data: Vec<DataSegment>,
}

/// Rewrites the kernel so every operand is local to its op's cluster,
/// inserting inter-cluster [`IrOp::Xfer`] copies.
pub fn legalize_xfers(k: &Kernel, a: &Assignment, _m: &MachineConfig) -> LegalKernel {
    let mut vreg_cluster = a.vreg.clone();
    // Global shadow registry: (source vreg, consuming cluster) -> shadow.
    let mut shadows: HashMap<(VReg, ClusterId), VReg> = HashMap::new();
    let mut blocks = Vec::with_capacity(k.blocks.len());

    for block in &k.blocks {
        blocks.push(legalize_block(block, a, &mut vreg_cluster, &mut shadows));
    }

    LegalKernel {
        name: k.name.clone(),
        blocks,
        vreg_cluster,
        vbreg_cluster: a.vbreg.clone(),
        data: k.data.clone(),
    }
}

fn legalize_block(
    block: &Block,
    a: &Assignment,
    vreg_cluster: &mut Vec<ClusterId>,
    shadows: &mut HashMap<(VReg, ClusterId), VReg>,
) -> LBlock {
    // Shadows valid in this block (source not redefined since the copy).
    let mut valid: HashMap<(VReg, ClusterId), VReg> = HashMap::new();
    let mut out: Vec<LOp> = Vec::with_capacity(block.ops.len());

    let mut localize = |v: VReg,
                        to: ClusterId,
                        out: &mut Vec<LOp>,
                        valid: &mut HashMap<(VReg, ClusterId), VReg>,
                        vreg_cluster: &mut Vec<ClusterId>|
     -> VReg {
        let home = vreg_cluster[v.0 as usize];
        if home == to {
            return v;
        }
        if let Some(&s) = valid.get(&(v, to)) {
            return s;
        }
        let s = *shadows.entry((v, to)).or_insert_with(|| {
            let s = VReg(vreg_cluster.len() as u32);
            vreg_cluster.push(to);
            s
        });
        out.push(LOp {
            op: IrOp::Xfer { dst: s, src: v },
            cluster: to,
        });
        valid.insert((v, to), s);
        s
    };

    let mut fix_val = |v: Val,
                       to: ClusterId,
                       out: &mut Vec<LOp>,
                       valid: &mut HashMap<(VReg, ClusterId), VReg>,
                       vreg_cluster: &mut Vec<ClusterId>|
     -> Val {
        match v {
            Val::V(r) => Val::V(localize(r, to, out, valid, vreg_cluster)),
            imm => imm,
        }
    };

    for op in &block.ops {
        // Execution cluster of this op.
        let cluster: ClusterId = match op {
            IrOp::Select { cond, .. } => a.vbreg[cond.0 as usize],
            IrOp::CmpB { dst, .. } => a.vbreg[dst.0 as usize],
            IrOp::Store { base, value, .. } => base
                .vreg()
                .or(value.vreg())
                .map(|r| a.vreg[r.0 as usize])
                .unwrap_or(0),
            _ => {
                let dst = op.dst_vreg().expect("non-store ops define a vreg");
                a.vreg[dst.0 as usize]
            }
        };

        // Localise operands, then re-emit the op.
        let new_op = match *op {
            IrOp::Bin {
                kind,
                dst,
                a: x,
                b: y,
            } => IrOp::Bin {
                kind,
                dst,
                a: fix_val(x, cluster, &mut out, &mut valid, vreg_cluster),
                b: fix_val(y, cluster, &mut out, &mut valid, vreg_cluster),
            },
            IrOp::Mov { dst, src } => IrOp::Mov {
                dst,
                src: fix_val(src, cluster, &mut out, &mut valid, vreg_cluster),
            },
            IrOp::Load {
                w,
                dst,
                base,
                off,
                alias,
            } => IrOp::Load {
                w,
                dst,
                base: fix_val(base, cluster, &mut out, &mut valid, vreg_cluster),
                off,
                alias,
            },
            IrOp::Store {
                w,
                value,
                base,
                off,
                alias,
            } => IrOp::Store {
                w,
                value: fix_val(value, cluster, &mut out, &mut valid, vreg_cluster),
                base: fix_val(base, cluster, &mut out, &mut valid, vreg_cluster),
                off,
                alias,
            },
            IrOp::CmpR {
                kind,
                dst,
                a: x,
                b: y,
            } => IrOp::CmpR {
                kind,
                dst,
                a: fix_val(x, cluster, &mut out, &mut valid, vreg_cluster),
                b: fix_val(y, cluster, &mut out, &mut valid, vreg_cluster),
            },
            IrOp::CmpB {
                kind,
                dst,
                a: x,
                b: y,
            } => IrOp::CmpB {
                kind,
                dst,
                a: fix_val(x, cluster, &mut out, &mut valid, vreg_cluster),
                b: fix_val(y, cluster, &mut out, &mut valid, vreg_cluster),
            },
            IrOp::Select {
                dst,
                cond,
                a: x,
                b: y,
            } => IrOp::Select {
                dst,
                cond,
                a: fix_val(x, cluster, &mut out, &mut valid, vreg_cluster),
                b: fix_val(y, cluster, &mut out, &mut valid, vreg_cluster),
            },
            IrOp::Xfer { .. } => unreachable!("xfers are created here, not input"),
        };

        // A select whose destination lives elsewhere computes into a
        // temporary and ships it home.
        let mut emit_tail_xfer: Option<(VReg, VReg, ClusterId)> = None;
        let new_op = if let IrOp::Select {
            dst,
            cond,
            a: x,
            b: y,
        } = new_op
        {
            let home = vreg_cluster[dst.0 as usize];
            if home != cluster {
                let tmp = VReg(vreg_cluster.len() as u32);
                vreg_cluster.push(cluster);
                emit_tail_xfer = Some((dst, tmp, home));
                IrOp::Select {
                    dst: tmp,
                    cond,
                    a: x,
                    b: y,
                }
            } else {
                IrOp::Select {
                    dst,
                    cond,
                    a: x,
                    b: y,
                }
            }
        } else {
            new_op
        };

        // Redefinition invalidates shadow copies of the value.
        if let Some(d) = new_op.dst_vreg() {
            valid.retain(|(src, _), _| *src != d);
        }
        out.push(LOp {
            op: new_op,
            cluster,
        });
        if let Some((dst, tmp, home)) = emit_tail_xfer {
            valid.retain(|(src, _), _| *src != dst);
            out.push(LOp {
                op: IrOp::Xfer { dst, src: tmp },
                cluster: home,
            });
        }
    }

    let term_cluster = match block.term {
        Terminator::CondBr { cond, .. } => a.vbreg[cond.0 as usize],
        _ => 0,
    };

    LBlock {
        ops: out,
        term: block.term,
        term_cluster,
    }
}

/// Cluster usage summary of a legal kernel (vregs per cluster), used for
/// error reporting and tests.
pub fn pressure(lk: &LegalKernel, m: &MachineConfig) -> Vec<u32> {
    let mut p = vec![0u32; m.n_clusters as usize];
    for &c in &lk.vreg_cluster {
        p[c as usize] += 1;
    }
    p
}

#[allow(unused_imports)]
use crate::ir::KernelBuilder;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CmpKind, KernelBuilder, MemWidth};
    use vex_isa::MachineConfig;

    #[test]
    fn pins_are_honoured() {
        let m = MachineConfig::paper_4c4w();
        let mut k = KernelBuilder::new("t");
        let a = k.vreg_on(2);
        let b = k.vreg_on(3);
        k.movi(a, 1);
        k.movi(b, 2);
        k.halt();
        let kernel = k.finish();
        let asg = assign_clusters(&kernel, &m);
        assert_eq!(asg.vreg[a.0 as usize], 2);
        assert_eq!(asg.vreg[b.0 as usize], 3);
    }

    #[test]
    fn xfer_inserted_for_cross_cluster_use() {
        let m = MachineConfig::paper_4c4w();
        let mut k = KernelBuilder::new("t");
        let a = k.vreg_on(0);
        let b = k.vreg_on(1);
        let c = k.vreg_on(1);
        k.movi(a, 5);
        k.movi(b, 7);
        k.add(c, a, b); // a must travel 0 -> 1
        k.halt();
        let kernel = k.finish();
        let asg = assign_clusters(&kernel, &m);
        let lk = legalize_xfers(&kernel, &asg, &m);
        let xfers: Vec<_> = lk.blocks[0]
            .ops
            .iter()
            .filter(|l| matches!(l.op, IrOp::Xfer { .. }))
            .collect();
        assert_eq!(xfers.len(), 1);
        let IrOp::Xfer { src, .. } = xfers[0].op else {
            unreachable!()
        };
        assert_eq!(lk.vreg_cluster[src.0 as usize], 0);
        assert_eq!(xfers[0].cluster, 1);
    }

    #[test]
    fn shadow_reused_within_block_and_invalidated_on_redef() {
        let m = MachineConfig::paper_4c4w();
        let mut k = KernelBuilder::new("t");
        let a = k.vreg_on(0);
        let b = k.vreg_on(1);
        k.movi(a, 5);
        k.add(b, a, Val::Imm(1)); // xfer #1
        k.add(b, a, b); // shadow reused: no new xfer
        k.movi(a, 9); // redefines a
        k.add(b, a, b); // xfer #2 required
        k.halt();
        let kernel = k.finish();
        let asg = assign_clusters(&kernel, &m);
        let lk = legalize_xfers(&kernel, &asg, &m);
        let n_xfers = lk.blocks[0]
            .ops
            .iter()
            .filter(|l| matches!(l.op, IrOp::Xfer { .. }))
            .count();
        assert_eq!(n_xfers, 2);
    }

    #[test]
    fn greedy_spreads_independent_chains() {
        let m = MachineConfig::paper_4c4w();
        let mut k = KernelBuilder::new("t");
        // 8 independent accumulator chains with no pins: placement should
        // use more than one cluster.
        let regs: Vec<_> = (0..8).map(|_| k.vreg()).collect();
        for &r in &regs {
            k.movi(r, 1);
        }
        for _ in 0..4 {
            for &r in &regs {
                k.add(r, r, Val::Imm(3));
            }
        }
        k.halt();
        let kernel = k.finish();
        let asg = assign_clusters(&kernel, &m);
        let used: std::collections::HashSet<_> =
            regs.iter().map(|r| asg.vreg[r.0 as usize]).collect();
        assert!(
            used.len() >= 2,
            "chains all landed on one cluster: {used:?}"
        );
    }

    #[test]
    fn store_runs_in_base_cluster() {
        let m = MachineConfig::paper_4c4w();
        let mut k = KernelBuilder::new("t");
        let base = k.vreg_on(2);
        let v = k.vreg_on(0);
        k.movi(base, 0x100);
        k.movi(v, 42);
        k.store(MemWidth::W, v, base, 0, 1);
        k.halt();
        let kernel = k.finish();
        let asg = assign_clusters(&kernel, &m);
        let lk = legalize_xfers(&kernel, &asg, &m);
        let store = lk.blocks[0]
            .ops
            .iter()
            .find(|l| matches!(l.op, IrOp::Store { .. }))
            .unwrap();
        assert_eq!(store.cluster, 2);
    }

    #[test]
    fn cond_br_cluster_follows_cmp_operands() {
        let m = MachineConfig::paper_4c4w();
        let mut k = KernelBuilder::new("t");
        let exit = k.new_block();
        let i = k.vreg_on(3);
        k.movi(i, 0);
        k.cond_br(CmpKind::Lt, i, Val::Imm(10), exit, 1);
        k.switch_to(exit);
        k.halt();
        let kernel = k.finish();
        let asg = assign_clusters(&kernel, &m);
        let lk = legalize_xfers(&kernel, &asg, &m);
        assert_eq!(lk.blocks[0].term_cluster, 3);
    }
}
