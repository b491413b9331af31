//! Machine description: cluster resources and latency model.
//!
//! The compiler schedules against this description and the simulator's
//! merging hardware enforces it at issue time, so both sides agree on what
//! fits in a cycle.

use crate::op::FuKind;

/// Per-cluster issue resources.
///
/// The paper's configuration (§IV): a 4-issue cluster with 2 multipliers,
/// 1 load/store unit and 4 ALUs. We also give every cluster a branch unit
/// and one send plus one receive port on the inter-cluster network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClusterResources {
    /// Issue slots per cycle (bundle capacity).
    pub slots: u8,
    /// Integer ALUs.
    pub alu: u8,
    /// Multipliers.
    pub mul: u8,
    /// Load/store units (= data cache ports).
    pub mem: u8,
    /// Branch units.
    pub br: u8,
    /// Network send ports.
    pub send: u8,
    /// Network receive ports.
    pub recv: u8,
}

impl ClusterResources {
    /// The paper's 4-issue cluster.
    pub const fn paper() -> Self {
        ClusterResources {
            slots: 4,
            alu: 4,
            mul: 2,
            mem: 1,
            br: 1,
            send: 1,
            recv: 1,
        }
    }

    /// A narrow 2-issue cluster, handy for unit tests that mirror the
    /// paper's Figure 1 (2-issue clusters) and Figure 5 (3-issue clusters).
    pub const fn narrow(slots: u8) -> Self {
        ClusterResources {
            slots,
            alu: slots,
            mul: if slots >= 2 { slots / 2 } else { 1 },
            mem: 1,
            br: 1,
            send: 1,
            recv: 1,
        }
    }

    /// Units available for a functional-unit class.
    pub fn count(&self, kind: FuKind) -> u8 {
        match kind {
            FuKind::Alu => self.alu,
            FuKind::Mul => self.mul,
            FuKind::Mem => self.mem,
            FuKind::Br => self.br,
            FuKind::Send => self.send,
            FuKind::Recv => self.recv,
        }
    }

    /// Unit counts for every class, indexed by [`FuKind::index`] — the
    /// array form the simulator's per-cycle fit checks compare against.
    #[inline]
    pub const fn counts(&self) -> [u8; FuKind::COUNT] {
        [self.alu, self.mul, self.mem, self.br, self.send, self.recv]
    }
}

/// Assumed operation latencies, exposed to the compiler (NUAL).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Latencies {
    /// ALU operations (including compares): 1 cycle in the paper.
    pub alu: u8,
    /// Multiplies: 2 cycles.
    pub mul: u8,
    /// Memory operations: 2 cycles (cache hit).
    pub mem: u8,
    /// Inter-cluster transfer: cycles from send issue to recv result.
    pub xfer: u8,
    /// Minimum scheduling distance from a compare to the branch reading it
    /// (the paper's two-phase branch: 2 cycles).
    pub cmp_to_br: u8,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            alu: 1,
            mul: 2,
            mem: 2,
            xfer: 1,
            cmp_to_br: 2,
        }
    }
}

/// Full machine configuration shared by compiler and simulator.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MachineConfig {
    /// Number of clusters.
    pub n_clusters: u8,
    /// Resources of each (homogeneous) cluster.
    pub cluster: ClusterResources,
    /// Assumed latencies.
    pub lat: Latencies,
    /// Extra cycles lost after a taken branch (no predictor; fall-through
    /// is the predicted path): 1 in the paper.
    pub taken_branch_penalty: u8,
    /// General-purpose registers per cluster (64 in VEX; index 0 is zero).
    pub n_gprs: u8,
    /// Branch registers per cluster (8 in VEX).
    pub n_bregs: u8,
}

impl MachineConfig {
    /// The paper's evaluation machine: 4 clusters × 4-issue = 16-issue.
    pub fn paper_4c4w() -> Self {
        MachineConfig {
            n_clusters: 4,
            cluster: ClusterResources::paper(),
            lat: Latencies::default(),
            taken_branch_penalty: 1,
            n_gprs: 64,
            n_bregs: 8,
        }
    }

    /// Two narrow 2-issue clusters — the geometry of the paper's Figure 1
    /// worked examples and of `examples/narrow_2c.toml`. Narrow clusters
    /// make whole-instruction merging much harder, so this is the second
    /// machine the differential fuzzer sweeps in CI.
    pub fn narrow_2c() -> Self {
        Self::small(2, 2)
    }

    /// A small machine for unit tests and the paper's worked examples.
    pub fn small(n_clusters: u8, slots: u8) -> Self {
        MachineConfig {
            n_clusters,
            cluster: ClusterResources::narrow(slots),
            lat: Latencies::default(),
            taken_branch_penalty: 1,
            n_gprs: 64,
            n_bregs: 8,
        }
    }

    /// Total issue width across clusters.
    pub fn total_issue_width(&self) -> u32 {
        self.n_clusters as u32 * self.cluster.slots as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_is_16_issue() {
        let m = MachineConfig::paper_4c4w();
        assert_eq!(m.n_clusters, 4);
        assert_eq!(m.total_issue_width(), 16);
        assert_eq!(m.cluster.count(FuKind::Alu), 4);
        assert_eq!(m.cluster.count(FuKind::Mul), 2);
        assert_eq!(m.cluster.count(FuKind::Mem), 1);
    }

    #[test]
    fn default_latencies_match_paper() {
        let lat = Latencies::default();
        assert_eq!(lat.alu, 1);
        assert_eq!(lat.mul, 2);
        assert_eq!(lat.mem, 2);
        assert_eq!(lat.cmp_to_br, 2);
    }

    #[test]
    fn narrow_cluster_scales() {
        let c = ClusterResources::narrow(2);
        assert_eq!(c.slots, 2);
        assert_eq!(c.alu, 2);
        assert_eq!(c.mul, 1);
    }

    #[test]
    fn narrow_2c_matches_the_example_spec() {
        // Keep the preset in lockstep with examples/narrow_2c.toml.
        let m = MachineConfig::narrow_2c();
        assert_eq!(m.n_clusters, 2);
        assert_eq!(m.cluster.slots, 2);
        assert_eq!(m.cluster.alu, 2);
        assert_eq!(m.cluster.mul, 1);
        assert_eq!(m.cluster.mem, 1);
        assert_eq!((m.cluster.send, m.cluster.recv), (1, 1));
    }
}
