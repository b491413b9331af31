//! Simulation configuration: the technique matrix of the paper's Figure 4
//! and the run parameters of §VI-A.

use vex_isa::MachineConfig;
use vex_mem::MemConfig;

/// Scale of a run: the per-benchmark instruction budget and the
/// multitasking timeslice, which always move together (the paper uses 200M
/// instructions and 5M-cycle timeslices; every preset scales both down
/// proportionally). Living next to [`SimConfig`] means the experiment
/// harness and the simulator share one set of run-scale constants and
/// cannot drift apart.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scale {
    /// Per-benchmark instruction budget terminating a run.
    pub inst_limit: u64,
    /// Timeslice length in cycles.
    pub timeslice: u64,
}

impl Scale {
    /// Quick runs for smoke tests and Criterion benches.
    pub const QUICK: Scale = Scale {
        inst_limit: 40_000,
        timeslice: 10_000,
    };
    /// Default scale: stable IPC, seconds per figure.
    pub const DEFAULT: Scale = Scale {
        inst_limit: 150_000,
        timeslice: 25_000,
    };
    /// Closer to the paper's ratios (slower).
    pub const FULL: Scale = Scale {
        inst_limit: 600_000,
        timeslice: 100_000,
    };
    /// The scale [`SimConfig::paper`] runs at (between DEFAULT and FULL).
    pub const PAPER: Scale = Scale {
        inst_limit: 300_000,
        timeslice: 50_000,
    };
}

/// How instructions from different threads merge into one execution packet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MergePolicy {
    /// Operation-level merging (classic SMT): two threads may share a
    /// cluster in the same cycle as long as issue slots and functional
    /// units suffice.
    Operation,
    /// Cluster-level merging (CSMT, Gupta et al. ICCD'07): a cluster holds
    /// the bundle of at most one thread per cycle; conflicts are detected
    /// at cluster granularity only.
    Cluster,
}

/// Whether (and at which granularity) a VLIW instruction may issue in parts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SplitPolicy {
    /// No split: instructions issue in their entirety (SMT / CSMT).
    None,
    /// Cluster-level split-issue (this paper): bundles of one instruction
    /// may issue in different cycles; operations inside a bundle never
    /// separate.
    Cluster,
    /// Operation-level split-issue (Rau '93 / Iyer et al. '04): each
    /// operation may issue independently.
    Operation,
}

/// Treatment of instructions containing inter-cluster `send`/`recv` pairs
/// (§VI-B).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CommPolicy {
    /// "No split communication": instructions with communication operations
    /// never split, so compiler assumptions are never violated and no extra
    /// hardware is required.
    NoSplit,
    /// "Always split": such instructions split too; the receive side
    /// buffers early data (send-before-recv) or records the destination
    /// register for later forwarding (recv-before-send).
    AlwaysSplit,
}

impl CommPolicy {
    /// Every policy with its `vex run --comm` name, in declaration order.
    pub const NAMED: [(CommPolicy, &'static str); 2] =
        [(CommPolicy::NoSplit, "ns"), (CommPolicy::AlwaysSplit, "as")];

    /// The policy's short name (the paper's NS / AS).
    pub const fn name(self) -> &'static str {
        Self::NAMED[self as usize].1
    }

    /// Looks a policy up by [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        by_name(&Self::NAMED, name)
    }
}

/// A named point in the paper's technique matrix (Figure 4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Technique {
    /// Merge granularity.
    pub merge: MergePolicy,
    /// Split granularity.
    pub split: SplitPolicy,
    /// Communication-instruction policy (irrelevant when `split` is
    /// [`SplitPolicy::None`]).
    pub comm: CommPolicy,
}

impl Technique {
    /// CSMT: cluster-level merging, no split-issue.
    pub const fn csmt() -> Self {
        Technique {
            merge: MergePolicy::Cluster,
            split: SplitPolicy::None,
            comm: CommPolicy::NoSplit,
        }
    }

    /// SMT: operation-level merging, no split-issue.
    pub const fn smt() -> Self {
        Technique {
            merge: MergePolicy::Operation,
            split: SplitPolicy::None,
            comm: CommPolicy::NoSplit,
        }
    }

    /// CCSI: cluster-level merging with cluster-level split-issue — the
    /// paper's headline proposal.
    pub const fn ccsi(comm: CommPolicy) -> Self {
        Technique {
            merge: MergePolicy::Cluster,
            split: SplitPolicy::Cluster,
            comm,
        }
    }

    /// COSI: operation-level merging with cluster-level split-issue.
    pub const fn cosi(comm: CommPolicy) -> Self {
        Technique {
            merge: MergePolicy::Operation,
            split: SplitPolicy::Cluster,
            comm,
        }
    }

    /// OOSI: operation-level merging with operation-level split-issue (the
    /// prior proposal the paper compares against).
    pub const fn oosi(comm: CommPolicy) -> Self {
        Technique {
            merge: MergePolicy::Operation,
            split: SplitPolicy::Operation,
            comm,
        }
    }

    /// All eight configurations evaluated in the paper's Figure 16, in its
    /// display order, with short labels. A `const` array: the grid is
    /// consulted on hot sweep-indexing paths, so it must not allocate.
    pub const FIGURE16_SET: [(&'static str, Technique); 8] = [
        ("CSMT", Technique::csmt()),
        ("CCSI NS", Technique::ccsi(CommPolicy::NoSplit)),
        ("CCSI AS", Technique::ccsi(CommPolicy::AlwaysSplit)),
        ("SMT", Technique::smt()),
        ("COSI NS", Technique::cosi(CommPolicy::NoSplit)),
        ("COSI AS", Technique::cosi(CommPolicy::AlwaysSplit)),
        ("OOSI NS", Technique::oosi(CommPolicy::NoSplit)),
        ("OOSI AS", Technique::oosi(CommPolicy::AlwaysSplit)),
    ];

    /// Short display label ("CCSI AS" etc.). Every (merge, split, comm)
    /// combination has a fixed name, so no allocation is involved.
    pub const fn label(&self) -> &'static str {
        match (self.merge, self.split, self.comm) {
            (MergePolicy::Cluster, SplitPolicy::None, _) => "CSMT",
            (MergePolicy::Operation, SplitPolicy::None, _) => "SMT",
            (MergePolicy::Cluster, SplitPolicy::Cluster, CommPolicy::NoSplit) => "CCSI NS",
            (MergePolicy::Cluster, SplitPolicy::Cluster, CommPolicy::AlwaysSplit) => "CCSI AS",
            (MergePolicy::Operation, SplitPolicy::Cluster, CommPolicy::NoSplit) => "COSI NS",
            (MergePolicy::Operation, SplitPolicy::Cluster, CommPolicy::AlwaysSplit) => "COSI AS",
            (MergePolicy::Operation, SplitPolicy::Operation, CommPolicy::NoSplit) => "OOSI NS",
            (MergePolicy::Operation, SplitPolicy::Operation, CommPolicy::AlwaysSplit) => "OOSI AS",
            (MergePolicy::Cluster, SplitPolicy::Operation, CommPolicy::NoSplit) => "C-OSI(!) NS",
            (MergePolicy::Cluster, SplitPolicy::Operation, CommPolicy::AlwaysSplit) => {
                "C-OSI(!) AS"
            }
        }
    }

    /// Looks a technique up by its grid label (case-insensitive; `_` may
    /// stand in for the space, as in bench point names like `CCSI_AS`).
    pub fn from_label(label: &str) -> Option<Technique> {
        let norm: String = label
            .trim()
            .chars()
            .map(|c| {
                if c == '_' {
                    ' '
                } else {
                    c.to_ascii_uppercase()
                }
            })
            .collect();
        Self::FIGURE16_SET
            .iter()
            .find(|(l, _)| *l == norm)
            .map(|(_, t)| *t)
    }
}

/// Multithreading discipline (paper §I): SMT-class schemes issue from
/// several threads per cycle; the older schemes pick one thread per cycle
/// and therefore only reduce *vertical* waste.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MtMode {
    /// Simultaneous: multiple threads share each cycle according to the
    /// configured [`Technique`] (the paper's setting).
    Simultaneous,
    /// Interleaved MT (HEP/Tera style): a zero-cost context switch every
    /// cycle — only the rotating priority thread may issue.
    Interleaved,
    /// Block MT (MSparc style): one thread runs until it blocks on a
    /// long-latency event (cache miss), then the next takes over.
    Blocked,
}

impl MtMode {
    /// Every discipline with its spec and CLI name, in declaration order.
    pub const NAMED: [(MtMode, &'static str); 3] = [
        (MtMode::Simultaneous, "smt"),
        (MtMode::Interleaved, "imt"),
        (MtMode::Blocked, "bmt"),
    ];

    /// The discipline's name in specs, on the command line and in reports.
    pub const fn name(self) -> &'static str {
        Self::NAMED[self as usize].1
    }

    /// Looks a discipline up by [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        by_name(&Self::NAMED, name)
    }
}

/// Memory-system selection for a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemoryMode {
    /// The paper's caches (64KB 4-way I$/D$, 20-cycle miss) — *IPCr* runs.
    Real,
    /// Perfect memory, no misses — *IPCp* runs.
    Perfect,
}

impl MemoryMode {
    /// Every mode with its spec and CLI name, in declaration order.
    pub const NAMED: [(MemoryMode, &'static str); 2] =
        [(MemoryMode::Real, "real"), (MemoryMode::Perfect, "perfect")];

    /// The mode's name in specs, on the command line and in reports.
    pub const fn name(self) -> &'static str {
        Self::NAMED[self as usize].1
    }

    /// Looks a mode up by [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        by_name(&Self::NAMED, name)
    }
}

/// Looks `name` up in a `NAMED` table.
fn by_name<T: Copy>(table: &[(T, &str)], name: &str) -> Option<T> {
    table.iter().find(|(_, n)| *n == name).map(|&(v, _)| v)
}

/// The names of a `NAMED` table as a comma-separated list, for error
/// messages: `"real, perfect"`.
pub fn name_list<T>(table: &[(T, &str)]) -> String {
    let names: Vec<&str> = table.iter().map(|&(_, n)| n).collect();
    names.join(", ")
}

/// Full run configuration.
#[derive(Clone, PartialEq, Debug)]
pub struct SimConfig {
    /// Machine description (defaults to the paper's 4-cluster, 4-issue).
    pub machine: MachineConfig,
    /// Cache geometry and miss penalty consumed by [`MemoryMode::Real`]
    /// runs (perfect-memory runs ignore it).
    pub caches: MemConfig,
    /// Issue technique.
    pub technique: Technique,
    /// Multithreading discipline (the intro's BMT/IMT baselines versus
    /// the SMT family; [`MtMode::Simultaneous`] for all paper results).
    pub mt_mode: MtMode,
    /// Hardware thread contexts.
    pub n_threads: u8,
    /// Cluster renaming (§IV): thread *t* statically rotated by *t*. The
    /// paper enables it for all SMT/CSMT experiments.
    pub renaming: bool,
    /// Cache model.
    pub memory: MemoryMode,
    /// Multitasking timeslice in cycles (paper: 5M; scaled in experiments).
    pub timeslice: u64,
    /// Stop once any benchmark has retired this many VLIW instructions
    /// (paper: 200M; scaled in experiments).
    pub inst_limit: u64,
    /// Hard safety bound on simulated cycles.
    pub max_cycles: u64,
    /// Seed for the timeslice replacement scheduler.
    pub seed: u64,
    /// Respawn benchmarks that finish before the instruction limit (§VI-A).
    pub respawn: bool,
}

impl SimConfig {
    /// A configuration mirroring the paper's experimental setup, scaled
    /// down: same machine/caches, smaller timeslice and instruction budget
    /// ([`Scale::PAPER`]).
    pub fn paper(technique: Technique, n_threads: u8) -> Self {
        Self::paper_at(technique, n_threads, Scale::PAPER)
    }

    /// The paper configuration at an explicit [`Scale`] — the single place
    /// the run-scale constants enter a `SimConfig`, so the simulator and
    /// the experiment harness cannot encode different budgets.
    pub fn paper_at(technique: Technique, n_threads: u8, scale: Scale) -> Self {
        SimConfig {
            machine: MachineConfig::paper_4c4w(),
            caches: MemConfig::paper(),
            technique,
            n_threads,
            renaming: true,
            memory: MemoryMode::Real,
            timeslice: scale.timeslice,
            inst_limit: scale.inst_limit,
            max_cycles: 50_000_000,
            seed: 0xC0FFEE,
            mt_mode: crate::config::MtMode::Simultaneous,
            respawn: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Technique::csmt().label(), "CSMT");
        assert_eq!(Technique::smt().label(), "SMT");
        assert_eq!(Technique::ccsi(CommPolicy::AlwaysSplit).label(), "CCSI AS");
        assert_eq!(Technique::cosi(CommPolicy::NoSplit).label(), "COSI NS");
        assert_eq!(Technique::oosi(CommPolicy::AlwaysSplit).label(), "OOSI AS");
    }

    #[test]
    fn figure16_has_eight_points() {
        assert_eq!(Technique::FIGURE16_SET.len(), 8);
    }

    #[test]
    fn grid_labels_round_trip() {
        for (label, tech) in Technique::FIGURE16_SET {
            assert_eq!(tech.label(), label);
            assert_eq!(Technique::from_label(label), Some(tech));
            assert_eq!(Technique::from_label(&label.to_lowercase()), Some(tech));
            assert_eq!(
                Technique::from_label(&label.replace(' ', "_")),
                Some(tech),
                "underscore form of {label}"
            );
        }
        assert_eq!(Technique::from_label("WXYZ"), None);
    }

    #[test]
    fn mode_names_round_trip_and_index_by_discriminant() {
        for (i, &(m, n)) in MtMode::NAMED.iter().enumerate() {
            assert_eq!(m as usize, i);
            assert_eq!((m.name(), MtMode::from_name(n)), (n, Some(m)));
        }
        for (i, &(m, n)) in MemoryMode::NAMED.iter().enumerate() {
            assert_eq!(m as usize, i);
            assert_eq!((m.name(), MemoryMode::from_name(n)), (n, Some(m)));
        }
        for (i, &(c, n)) in CommPolicy::NAMED.iter().enumerate() {
            assert_eq!(c as usize, i);
            assert_eq!((c.name(), CommPolicy::from_name(n)), (n, Some(c)));
        }
        assert_eq!(MtMode::from_name("interleaved"), None);
        assert_eq!(name_list(&MtMode::NAMED), "smt, imt, bmt");
    }

    #[test]
    fn paper_config_matches_paper_scale() {
        let cfg = SimConfig::paper(Technique::csmt(), 2);
        assert_eq!(cfg.timeslice, Scale::PAPER.timeslice);
        assert_eq!(cfg.inst_limit, Scale::PAPER.inst_limit);
        assert_eq!(cfg, SimConfig::paper_at(Technique::csmt(), 2, Scale::PAPER));
    }
}
