//! The execution packet and the merging-hardware model (paper Figure 7).
//!
//! Each cycle the issue stage assembles one *execution packet* from the
//! instructions (or pending parts) of the runnable threads, in priority
//! order. [`Packet`] plays the role of the CL/ML chain: collision detection
//! is a resource-fit query and merge logic is the act of claiming the
//! resources.
//!
//! * Under **cluster-level merging** a cluster accepts the bundle of at
//!   most one thread per cycle ([`Packet::cluster_free`]).
//! * Under **operation-level merging** threads share clusters subject to
//!   issue slots and per-FU counts ([`Packet::op_fits`], or one packed
//!   check per pre-decoded bundle).
//!
//! The packet works in *physical* cluster indices: cluster renaming (§IV)
//! is applied by the caller before any query.

use vex_isa::{FuKind, MachineConfig};

/// Upper bound on physical clusters the packet tracks. Fixed so the whole
/// per-cycle issue state lives in a few flat arrays (~150 bytes) that reset
/// with straight-line stores instead of heap-backed vectors. The rest of
/// the simulator already assumes this bound (`pending_bundles: u16`).
pub const MAX_CLUSTERS: usize = 16;

/// Number of functional-unit classes ([`FuKind`] variants).
const N_FU: usize = FuKind::COUNT;

/// Lane index (bit shift) of the issue-slot count in a packed resource
/// word: FU classes occupy lanes `0..N_FU` (8 bits each, by
/// [`FuKind::index`]), the slot count lane 7.
const SLOTS_SHIFT: u32 = 56;

// Lane 7 is the slot count; adding an FU class past lane 6 would alias it.
const _: () = assert!(N_FU < 8, "FU classes must leave lane 7 for slots");

/// Per-lane overflow test mask for the packed fit check: with biases of
/// `63 - limit` per lane, a lane exceeds its limit iff bits 6/7 of the
/// biased sum are set. Lane sums stay below 190 (`used`, `demand` and the
/// bias are each ≤ 63), so lanes never carry into each other.
const FIT_MASK: u64 = 0xC0C0_C0C0_C0C0_C0C0;

/// Packs per-class FU counts plus a slot count into one resource word,
/// lane layout as above.
#[inline]
pub(crate) fn pack_demand(fu: &[u8; N_FU], slots: u8) -> u64 {
    let mut w = (slots as u64) << SLOTS_SHIFT;
    for (k, &n) in fu.iter().enumerate() {
        w |= (n as u64) << (8 * k);
    }
    w
}

/// Per-cycle issue state across all clusters. Each cluster's whole
/// resource usage — issue slots plus every FU class — lives in **one
/// packed `u64`** (SWAR lanes), so claiming a pre-decoded bundle is a
/// single add and a collision check is an add-and-mask against the
/// per-lane limits baked into `fit_bias`. Creating or resetting a packet
/// never allocates.
#[derive(Clone, Debug)]
pub struct Packet {
    n_clusters: u8,
    /// Packed per-cluster resource usage (see [`pack_demand`] lanes).
    used: [u64; MAX_CLUSTERS],
    /// Per-lane `63 - limit` biases for the machine this packet serves.
    fit_bias: u64,
    /// Bit `p` set iff physical cluster `p` holds at least one op.
    cluster_busy: u16,
    /// Whether any memory-class op was placed this cycle. Lets the
    /// engine's §V-D port-contention scan skip entirely on the (dominant)
    /// cycles with no memory traffic.
    any_mem: bool,
    /// Operations placed this cycle (for IPC/waste accounting).
    pub ops: u32,
    /// Distinct threads contributing to this packet.
    pub threads: u32,
}

impl Packet {
    /// An empty packet for `machine` (at most [`MAX_CLUSTERS`] clusters;
    /// every per-cluster resource limit must be ≤ 63 so the packed-lane
    /// arithmetic cannot overflow — orders of magnitude above any machine
    /// in the paper's design space).
    pub fn new(machine: &MachineConfig) -> Self {
        assert!(
            machine.n_clusters as usize <= MAX_CLUSTERS,
            "packet supports at most {MAX_CLUSTERS} clusters"
        );
        Packet {
            n_clusters: machine.n_clusters,
            used: [0; MAX_CLUSTERS],
            fit_bias: bias_for(machine),
            cluster_busy: 0,
            any_mem: false,
            ops: 0,
            threads: 0,
        }
    }

    /// Clears the packet for the next cycle (plain stores, no allocation).
    /// Only the first `n_clusters` entries are reset: placement never
    /// writes beyond the machine's cluster count, so the tail stays zero
    /// forever and resetting it every cycle would be pure memset traffic.
    pub fn reset(&mut self) {
        self.used[..self.n_clusters as usize].fill(0);
        self.cluster_busy = 0;
        self.any_mem = false;
        self.ops = 0;
        self.threads = 0;
    }

    /// Cluster-level collision check: is physical cluster `p` untouched?
    #[inline]
    pub fn cluster_free(&self, p: u8) -> bool {
        self.cluster_busy & (1 << p) == 0
    }

    /// Bitmask of busy physical clusters (bit `p` set iff cluster `p`
    /// holds at least one op). Lets cluster-level merge checks test a whole
    /// instruction's footprint in one AND.
    #[inline]
    pub fn busy_mask(&self) -> u16 {
        self.cluster_busy
    }

    /// Physical-cluster array index. Callers pass `p < n_clusters ≤ 16`;
    /// the mask makes that obvious to the optimiser so the hot accessors
    /// compile without bounds checks.
    #[inline]
    fn pi(&self, p: u8) -> usize {
        debug_assert!(p < self.n_clusters);
        (p as usize) & (MAX_CLUSTERS - 1)
    }

    /// Packed fit check: would claiming `demand` (a [`pack_demand`] word)
    /// on cluster `p` exceed any slot or FU limit?
    #[inline]
    pub(crate) fn demand_fits_packed(&self, p: u8, demand: u64) -> bool {
        (self.used[self.pi(p)] + demand + self.fit_bias) & FIT_MASK == 0
    }

    /// Operation-level collision check for one op of class `fu` on cluster
    /// `p`. `m` must be the machine this packet was built for — the limits
    /// are baked into `fit_bias` at construction.
    #[inline]
    pub fn op_fits(&self, p: u8, fu: FuKind, m: &MachineConfig) -> bool {
        debug_assert_eq!(
            self.fit_bias,
            bias_for(m),
            "packet built for another machine"
        );
        self.demand_fits_packed(p, op_word(fu))
    }

    /// Claims resources for one op.
    #[inline]
    pub fn place_op(&mut self, p: u8, fu: FuKind) {
        let pi = self.pi(p);
        self.used[pi] += op_word(fu);
        self.cluster_busy |= 1 << p;
        self.any_mem |= fu == FuKind::Mem;
        self.ops += 1;
    }

    /// Claims a whole bundle's resources in one shot from its pre-decoded
    /// packed demand word: `slots` issue slots plus the FU lanes of
    /// `demand`. Equivalent to calling [`Packet::place_op`] for every
    /// operation of the bundle (bundles never split, so the engine's
    /// non-operation-level issue paths place at this granularity and skip
    /// the per-record walk entirely).
    #[inline]
    pub fn place_bundle(&mut self, p: u8, slots: u8, demand: u64) {
        let pi = self.pi(p);
        self.used[pi] += demand;
        self.cluster_busy |= 1 << p;
        self.any_mem |= demand & MEM_LANE != 0;
        self.ops += slots as u32;
    }

    /// Slots used on physical cluster `p` (test/diagnostic accessor).
    #[inline]
    pub fn slots_used(&self, p: u8) -> u8 {
        (self.used[self.pi(p)] >> SLOTS_SHIFT) as u8
    }

    /// Functional units of class `fu` already claimed on cluster `p`.
    #[inline]
    pub fn fu_used(&self, p: u8, fu: FuKind) -> u8 {
        self.fu_used_idx(p, fu.index())
    }

    /// Functional units already claimed on cluster `p`, by dense class
    /// index ([`FuKind::index`]).
    #[inline]
    pub fn fu_used_idx(&self, p: u8, k: usize) -> u8 {
        (self.used[self.pi(p)] >> (8 * (k & 7))) as u8 & 0x3f
    }

    /// Memory operations issued on cluster `p` this cycle (the issue half
    /// of the §V-D port-contention accounting) — the Mem lane of the
    /// packed usage word.
    #[inline]
    pub fn mem_issued(&self, p: u8) -> u8 {
        self.fu_used(p, FuKind::Mem)
    }

    /// Whether any memory-class op was placed this cycle (fast pre-check
    /// for the port-contention scan; `false` implies every
    /// [`Packet::mem_issued`] is zero).
    #[inline]
    pub fn any_mem(&self) -> bool {
        self.any_mem
    }

    /// Total unused slots across the machine for this cycle.
    pub fn wasted_slots(&self, m: &MachineConfig) -> u32 {
        let width = m.total_issue_width();
        width - self.ops.min(width)
    }

    /// Number of clusters in the packet's machine.
    pub fn n_clusters(&self) -> u8 {
        self.n_clusters
    }
}

/// Mask of the Mem FU's lane in a packed resource word.
const MEM_LANE: u64 = 0x3f << (8 * FuKind::Mem.index());

/// Packed demand word of a single operation: one FU of class `fu`, one
/// issue slot.
#[inline]
fn op_word(fu: FuKind) -> u64 {
    (1u64 << (8 * (fu.index() & 7))) | (1u64 << SLOTS_SHIFT)
}

/// Per-lane `63 - limit` bias word for a machine (the construction-time
/// half of the packed fit check). Limits must stay ≤ 63 so lane sums
/// cannot carry.
fn bias_for(machine: &MachineConfig) -> u64 {
    let limits = machine.cluster.counts();
    let mut bias = 0u64;
    for (k, &limit) in limits.iter().enumerate() {
        assert!(limit <= 63, "FU limit {limit} exceeds packed-lane range");
        bias |= ((63 - limit) as u64) << (8 * k);
    }
    assert!(machine.cluster.slots <= 63, "slot limit exceeds lane range");
    bias | ((63 - machine.cluster.slots) as u64) << SLOTS_SHIFT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_limit_bundle() {
        let m = MachineConfig::paper_4c4w();
        let mut p = Packet::new(&m);
        for _ in 0..4 {
            assert!(p.op_fits(0, FuKind::Alu, &m));
            p.place_op(0, FuKind::Alu);
        }
        assert!(!p.op_fits(0, FuKind::Alu, &m));
        assert!(p.op_fits(1, FuKind::Alu, &m));
    }

    #[test]
    fn mem_unit_is_scarce() {
        let m = MachineConfig::paper_4c4w();
        let mut p = Packet::new(&m);
        assert!(p.op_fits(0, FuKind::Mem, &m));
        p.place_op(0, FuKind::Mem);
        assert!(!p.op_fits(0, FuKind::Mem, &m));
        assert_eq!(p.mem_issued(0), 1);
    }

    #[test]
    fn cluster_free_tracks_any_use() {
        let m = MachineConfig::paper_4c4w();
        let mut p = Packet::new(&m);
        assert!(p.cluster_free(2));
        p.place_op(2, FuKind::Alu);
        assert!(!p.cluster_free(2));
        let _ = m;
    }
}
