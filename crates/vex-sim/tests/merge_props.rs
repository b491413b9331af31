//! Property tests of the merging-hardware model (paper §I and Figure 7):
//!
//! * hierarchy: a pair mergeable at cluster level is always mergeable at
//!   operation level;
//! * merging is conservative: merged packets never exceed per-cluster
//!   resources;
//! * NOPs merge with everything; merging with a NOP is the identity.
//!
//! It also replays the paper's Figure 1 instruction pairs. The merge
//! question is modelled here over the public [`Packet`] API, the same
//! resource checks the engine's issue stage makes.

use proptest::prelude::*;
use vex_isa::{FuKind, Instruction, MachineConfig, Opcode, Operand, Operation, Reg};
use vex_sim::Packet;

/// Places every operation of `inst` in the packet, bundle `c` on cluster
/// `c`.
fn place_whole(p: &mut Packet, inst: &Instruction) {
    for (c, bundle) in inst.bundles.iter().enumerate() {
        for op in &bundle.ops {
            p.place_op(c as u8, op.fu_kind());
        }
    }
}

/// The paper's merge question as a pure combinational model: can `b`
/// merge with `a` in a single cycle? At cluster level no cluster may hold
/// both; at operation level every bundle of `b` must fit beside `a`'s.
fn can_merge_pair(
    a: &Instruction,
    b: &Instruction,
    m: &MachineConfig,
    cluster_level: bool,
) -> bool {
    let mut p = Packet::new(m);
    place_whole(&mut p, a);
    (0..m.n_clusters).all(|c| {
        let ops = &b.bundles[c as usize].ops;
        if cluster_level {
            return ops.is_empty() || p.cluster_free(c);
        }
        // Usage only grows, so the bundle fits iff each of its operations
        // fits as it is placed.
        ops.iter().all(|op| {
            let fits = p.op_fits(c, op.fu_kind(), m);
            p.place_op(c, op.fu_kind());
            fits
        })
    })
}

/// If cluster-level merging can merge a pair, operation-level merging can
/// too (paper §I).
fn merge_hierarchy_holds(a: &Instruction, b: &Instruction, m: &MachineConfig) -> bool {
    !can_merge_pair(a, b, m, true) || can_merge_pair(a, b, m, false)
}

fn op_of(kind: u8, c: u8) -> Operation {
    match kind % 6 {
        0 => Operation::bin(
            Opcode::Add,
            Reg::new(c, 1),
            Operand::Gpr(Reg::new(c, 2)),
            Operand::Imm(1),
        ),
        1 => Operation::bin(
            Opcode::Mull,
            Reg::new(c, 3),
            Operand::Gpr(Reg::new(c, 2)),
            Operand::Imm(3),
        ),
        2 => Operation::load(Opcode::Ldw, Reg::new(c, 4), Reg::new(c, 5), 0),
        3 => Operation::store(Opcode::Stw, Reg::new(c, 5), 0, Operand::Gpr(Reg::new(c, 4))),
        4 => Operation::bin(
            Opcode::Xor,
            Reg::new(c, 6),
            Operand::Gpr(Reg::new(c, 6)),
            Operand::Imm(0x55),
        ),
        _ => Operation::bin(
            Opcode::Shl,
            Reg::new(c, 7),
            Operand::Gpr(Reg::new(c, 7)),
            Operand::Imm(2),
        ),
    }
}

/// Builds a random *resource-legal* instruction from an op-spec list.
fn instruction(spec: &[(u8, u8)], m: &MachineConfig) -> Instruction {
    let mut inst = Instruction::nop(m.n_clusters);
    for &(kind, c) in spec {
        let c = c % m.n_clusters;
        let op = op_of(kind, c);
        // Respect per-cluster resource limits while building.
        let b = &inst.bundles[c as usize];
        if b.ops.len() >= m.cluster.slots as usize {
            continue;
        }
        let fu = op.fu_kind();
        if b.fu_count(fu) >= m.cluster.count(fu) {
            continue;
        }
        inst.bundles[c as usize].ops.push(op);
    }
    inst
}

proptest! {
    /// Paper §I: "if a pair of instructions can be merged by CSMT, it can
    /// always be merged by SMT" — for arbitrary legal instructions.
    #[test]
    fn cluster_merge_implies_op_merge(
        sa in prop::collection::vec((any::<u8>(), any::<u8>()), 0..10),
        sb in prop::collection::vec((any::<u8>(), any::<u8>()), 0..10),
    ) {
        let m = MachineConfig::paper_4c4w();
        let a = instruction(&sa, &m);
        let b = instruction(&sb, &m);
        prop_assert!(a.validate(&m).is_ok());
        prop_assert!(b.validate(&m).is_ok());
        prop_assert!(merge_hierarchy_holds(&a, &b, &m));
    }

    /// NOPs merge with anything under both policies.
    #[test]
    fn nop_merges_with_everything(
        sa in prop::collection::vec((any::<u8>(), any::<u8>()), 0..10),
    ) {
        let m = MachineConfig::paper_4c4w();
        let a = instruction(&sa, &m);
        let nop = Instruction::nop(m.n_clusters);
        prop_assert!(can_merge_pair(&a, &nop, &m, true));
        prop_assert!(can_merge_pair(&a, &nop, &m, false));
        prop_assert!(can_merge_pair(&nop, &a, &m, true));
        prop_assert!(can_merge_pair(&nop, &a, &m, false));
    }

    /// Packet accounting: placing arbitrary op sequences while respecting
    /// `op_fits` never exceeds slots or FU counts, and `wasted_slots`
    /// stays within the machine width.
    #[test]
    fn packet_never_oversubscribes(
        ops in prop::collection::vec((any::<u8>(), any::<u8>()), 0..64),
    ) {
        let m = MachineConfig::paper_4c4w();
        let mut p = Packet::new(&m);
        for (kind, c) in ops {
            let c = c % m.n_clusters;
            let fu = match kind % 6 {
                0 | 4 | 5 => FuKind::Alu,
                1 => FuKind::Mul,
                2 | 3 => FuKind::Mem,
                _ => unreachable!(),
            };
            if p.op_fits(c, fu, &m) {
                p.place_op(c, fu);
            }
        }
        for c in 0..m.n_clusters {
            prop_assert!(p.slots_used(c) <= m.cluster.slots);
            for fu in [FuKind::Alu, FuKind::Mul, FuKind::Mem] {
                prop_assert!(p.fu_used(c, fu) <= m.cluster.count(fu));
            }
        }
        prop_assert!(p.wasted_slots(&m) <= m.total_issue_width());
    }

    /// Merging is symmetric at cluster level (disjoint cluster sets are
    /// disjoint regardless of order) when both instructions are non-empty.
    #[test]
    fn cluster_merge_is_symmetric(
        sa in prop::collection::vec((any::<u8>(), any::<u8>()), 1..8),
        sb in prop::collection::vec((any::<u8>(), any::<u8>()), 1..8),
    ) {
        let m = MachineConfig::paper_4c4w();
        let a = instruction(&sa, &m);
        let b = instruction(&sb, &m);
        prop_assert_eq!(
            can_merge_pair(&a, &b, &m, true),
            can_merge_pair(&b, &a, &m, true)
        );
    }
}

/// One operation of class `kind` on cluster `c`, for the Figure 1 pairs.
fn fig_op(kind: Opcode, c: u8) -> Operation {
    match kind {
        Opcode::Ldw => Operation::load(Opcode::Ldw, Reg::new(c, 1), Reg::new(c, 2), 0),
        Opcode::Stw => {
            Operation::store(Opcode::Stw, Reg::new(c, 2), 0, Operand::Gpr(Reg::new(c, 1)))
        }
        k => Operation::bin(
            k,
            Reg::new(c, 1),
            Operand::Gpr(Reg::new(c, 2)),
            Operand::Gpr(Reg::new(c, 3)),
        ),
    }
}

/// Paper Figure 1, Pair I: conflicts at clusters 0, 1, 3 at both levels —
/// nobody can merge.
#[test]
fn figure1_pair_i() {
    let m = MachineConfig::small(4, 2);
    // Thread 0: add - | ld sub | add - | add sub
    let t0 = Instruction::from_ops(
        4,
        [
            (0, fig_op(Opcode::Add, 0)),
            (1, fig_op(Opcode::Ldw, 1)),
            (1, fig_op(Opcode::Sub, 1)),
            (2, fig_op(Opcode::Add, 2)),
            (3, fig_op(Opcode::Add, 3)),
            (3, fig_op(Opcode::Sub, 3)),
        ],
    );
    // Thread 1: shl add | - mov | - - | - add
    let t1 = Instruction::from_ops(
        4,
        [
            (0, fig_op(Opcode::Shl, 0)),
            (0, fig_op(Opcode::Add, 0)),
            (1, fig_op(Opcode::Mov, 1)),
            (3, fig_op(Opcode::Add, 3)),
        ],
    );
    assert!(!can_merge_pair(&t0, &t1, &m, true), "CSMT cannot merge");
    assert!(!can_merge_pair(&t0, &t1, &m, false), "SMT cannot merge");
}

/// Paper Figure 1, Pair II: SMT merges (operation-level slots suffice) but
/// CSMT cannot (clusters 0, 2, 3 used by both).
#[test]
fn figure1_pair_ii() {
    let m = MachineConfig::small(4, 2);
    // Thread 0: add - | ld - | add - | sub -   (one op per cluster)
    let t0 = Instruction::from_ops(
        4,
        [
            (0, fig_op(Opcode::Add, 0)),
            (1, fig_op(Opcode::Ldw, 1)),
            (2, fig_op(Opcode::Add, 2)),
            (3, fig_op(Opcode::Sub, 3)),
        ],
    );
    // Thread 1: mov - | mpy - | st - | add -   (same clusters, no FU
    // conflicts: merged = the paper's "add mov ld mpy add st sub add").
    let t1 = Instruction::from_ops(
        4,
        [
            (0, fig_op(Opcode::Mov, 0)),
            (1, fig_op(Opcode::Mull, 1)),
            (2, fig_op(Opcode::Stw, 2)),
            (3, fig_op(Opcode::Add, 3)),
        ],
    );
    assert!(!can_merge_pair(&t0, &t1, &m, true), "CSMT conflicts");
    assert!(can_merge_pair(&t0, &t1, &m, false), "SMT merges");
}

/// Paper Figure 1, Pair III: disjoint clusters — both merge, and the merged
/// instruction is identical for SMT and CSMT.
#[test]
fn figure1_pair_iii() {
    let m = MachineConfig::small(4, 2);
    // Thread 0 uses clusters 1 and 2 only.
    let t0 = Instruction::from_ops(
        4,
        [(1, fig_op(Opcode::Ldw, 1)), (2, fig_op(Opcode::Stw, 2))],
    );
    // Thread 1 uses clusters 0 and 3.
    let t1 = Instruction::from_ops(
        4,
        [
            (0, fig_op(Opcode::Shl, 0)),
            (0, fig_op(Opcode::Mov, 0)),
            (3, fig_op(Opcode::Add, 3)),
            (3, fig_op(Opcode::Mull, 3)),
        ],
    );
    assert!(can_merge_pair(&t0, &t1, &m, true));
    assert!(can_merge_pair(&t0, &t1, &m, false));
}

#[test]
fn hierarchy_property_on_figure1_pairs() {
    let m = MachineConfig::small(4, 2);
    let insts = [
        Instruction::from_ops(
            4,
            [(0, fig_op(Opcode::Add, 0)), (1, fig_op(Opcode::Sub, 1))],
        ),
        Instruction::from_ops(4, [(2, fig_op(Opcode::Add, 2))]),
        Instruction::nop(4),
    ];
    for a in &insts {
        for b in &insts {
            assert!(merge_hierarchy_holds(a, b, &m));
        }
    }
}
