//! # vex-spec — declarative run and sweep specifications
//!
//! The paper's evaluation is a grid: technique points × workload mixes ×
//! thread counts × machine and cache geometries. This crate makes that grid
//! a *value*: a [`SweepSpec`] names every axis declaratively, parses from a
//! hand-rolled, dependency-free TOML subset (in the style of `vex-asm`:
//! line-oriented, span-carrying caret diagnostics, and a canonical printer
//! with `parse ∘ print = id`), and expands into deduplicated [`RunSpec`]
//! points that convert 1:1 into simulator [`SimConfig`]s.
//!
//! Everything that used to hand-roll its own sweep — the figure modules,
//! `bin/repro`, the `sim_throughput` bench, the `vex` CLI — now builds or
//! loads one of these specs and hands it to `vex_experiments::SweepRunner`.
//! See `docs/SPECS.md` for the grammar and worked examples.
//!
//! ```
//! use vex_spec::SweepSpec;
//!
//! let spec = SweepSpec::parse(
//!     "name = \"demo\"\n\
//!      scale = \"quick\"\n\
//!      techniques = [\"CSMT\", \"CCSI AS\"]\n\
//!      threads = [2]\n\
//!      mixes = [\"llhh\"]\n",
//! )
//! .unwrap();
//! assert_eq!(spec.expand().len(), 2); // 1 mix x 2 techniques x 1 thread count
//! assert_eq!(SweepSpec::parse(&spec.print()).unwrap(), spec);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod parse;
pub mod print;

pub use diag::{Span, SpecError};
pub use parse::parse_sweep;
pub use print::print_sweep;

use vex_isa::MachineConfig;
use vex_mem::MemConfig;
use vex_sim::{MemoryMode, MtMode, Scale, SimConfig, Technique};

/// Default base seed (the experiment harness's historical `0x5EED_0000`).
pub const DEFAULT_SEED: u64 = 0x5EED_0000;

/// Default hard safety bound on simulated cycles per point.
pub const DEFAULT_MAX_CYCLES: u64 = 2_000_000_000;

/// One workload member of a mix: a built-in benchmark by name, or a `.vex`
/// / `.vexb` program on disk (resolved by the runner's loader).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WorkloadRef {
    /// A benchmark from `vex_workloads::BENCHMARKS`.
    Builtin(String),
    /// A path to a `.vex` (text) or `.vexb` (binary) program.
    Path(String),
}

impl WorkloadRef {
    /// Classifies a member string: anything that looks like a file path
    /// (contains `/` or ends in `.vex`/`.vexb`) is a [`WorkloadRef::Path`];
    /// everything else must name a built-in benchmark.
    pub fn classify(s: &str) -> WorkloadRef {
        if s.contains('/') || s.ends_with(".vex") || s.ends_with(".vexb") {
            WorkloadRef::Path(s.to_string())
        } else {
            WorkloadRef::Builtin(s.to_string())
        }
    }

    /// The member string as written in a spec.
    pub fn as_str(&self) -> &str {
        match self {
            WorkloadRef::Builtin(s) | WorkloadRef::Path(s) => s,
        }
    }
}

/// A named workload mix with its resolved scheduler seed.
///
/// Seeds are absolute (not offsets): parsing resolves each mix's seed from
/// the spec-level base unless the mix sets one explicitly, and a built-in
/// mix keeps its Figure 13(b) index as the offset so a sub-grid spec
/// reproduces the exact numbers of the full grid.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MixSpec {
    /// Display name (`llhh`, or a custom label).
    pub name: String,
    /// The member programs.
    pub members: Vec<WorkloadRef>,
    /// Replacement-scheduler seed for every point of this mix.
    pub seed: u64,
}

impl MixSpec {
    /// A built-in mix from `vex_workloads::MIXES`, seeded `base + index`
    /// exactly like [`SweepSpec::paper_grid`]. Panics on unknown
    /// names (builders are for code, the parser diagnoses user input).
    pub fn builtin(name: &str, base_seed: u64) -> MixSpec {
        let (idx, mix) = vex_workloads::MIXES
            .iter()
            .enumerate()
            .find(|(_, m)| m.name == name)
            .unwrap_or_else(|| panic!("unknown built-in mix `{name}`"));
        MixSpec {
            name: name.to_string(),
            members: mix
                .members
                .iter()
                .map(|m| WorkloadRef::Builtin((*m).to_string()))
                .collect(),
            seed: base_seed + idx as u64,
        }
    }

    /// A single-benchmark "mix" (the Figure 13 characterisation shape).
    pub fn single(benchmark: &str, seed: u64) -> MixSpec {
        MixSpec {
            name: benchmark.to_string(),
            members: vec![WorkloadRef::Builtin(benchmark.to_string())],
            seed,
        }
    }
}

/// A named machine geometry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MachineSpec {
    /// Display name (`paper`, `narrow2`, ...).
    pub name: String,
    /// The full machine description.
    pub config: MachineConfig,
}

impl MachineSpec {
    /// The paper's 4-cluster, 4-issue machine.
    pub fn paper() -> MachineSpec {
        MachineSpec {
            name: "paper".to_string(),
            config: MachineConfig::paper_4c4w(),
        }
    }
}

/// Sweep-service knobs (the `[serve]` table): how `vex serve` supervises
/// its worker pool when this spec is submitted or used as the server's
/// configuration. None of these affect simulation results — they are
/// deliberately excluded from the content-addressed point key, so the same
/// spec served with different pool settings hits the same cache entries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServeSpec {
    /// Worker processes to supervise (0 = one per available core; at
    /// most [`ServeSpec::MAX_WORKERS`]).
    pub workers: u32,
    /// Interval between a busy worker's liveness heartbeats, in
    /// milliseconds.
    pub heartbeat_ms: u64,
    /// Re-queue budget for a point whose worker process crashed or hung:
    /// it is attempted up to `1 + retries` times before the service
    /// answers `FAILED` for it. A point that fails cleanly is not retried.
    pub retries: u32,
}

impl ServeSpec {
    /// The largest worker pool a spec or `vex serve --workers` may ask
    /// for: each worker is a process, so an unbounded count could exhaust
    /// the host's process table.
    pub const MAX_WORKERS: u32 = 1024;
}

impl Default for ServeSpec {
    fn default() -> ServeSpec {
        ServeSpec {
            workers: 0,
            heartbeat_ms: 1_000,
            retries: 3,
        }
    }
}

/// A declarative sweep: every axis of the evaluation grid plus the shared
/// scalar run parameters. Construct with [`SweepSpec::base`] /
/// [`SweepSpec::paper_grid`] or parse from text with [`SweepSpec::parse`].
#[derive(Clone, PartialEq, Debug)]
pub struct SweepSpec {
    /// Spec name (free-form, used in reports and JSON output).
    pub name: String,
    /// Per-benchmark instruction budget terminating each point.
    pub inst_limit: u64,
    /// Multitasking timeslice in cycles.
    pub timeslice: u64,
    /// Hard safety bound on simulated cycles per point (`[limits]`
    /// section; a non-terminating point stops with `StopReason::Exhausted`
    /// and partial statistics instead of hanging a worker).
    pub max_cycles: u64,
    /// Base seed: mixes without an explicit seed resolve against this.
    pub seed: u64,
    /// Hardware thread counts (axis).
    pub threads: Vec<u8>,
    /// Technique points (axis).
    pub techniques: Vec<Technique>,
    /// Cluster renaming (§IV).
    pub renaming: bool,
    /// Cache model selection (*IPCr* vs *IPCp*).
    pub memory: MemoryMode,
    /// Multithreading discipline.
    pub mt: MtMode,
    /// Respawn benchmarks that finish early (§VI-A).
    pub respawn: bool,
    /// Cache geometry and miss penalty.
    pub caches: MemConfig,
    /// Stream each run's event trace to this `.vext` path. Honored by
    /// single-point runs (`vex run --spec`); sweeps ignore it — a grid of
    /// points cannot share one trace file.
    pub trace: Option<String>,
    /// Checkpoint journal sidecar for crash-safe sweeps: each completed
    /// point is appended (fsync'd) so `vex sweep --resume` can skip it
    /// after a crash. The `--journal` CLI flag overrides this knob.
    pub journal: Option<String>,
    /// Sweep-service knobs (`[serve]` table). `None` when the spec says
    /// nothing about serving — the service then applies
    /// [`ServeSpec::default`]. Result-neutral: excluded from point keys.
    pub serve: Option<ServeSpec>,
    /// Machine geometries (axis).
    pub machines: Vec<MachineSpec>,
    /// Workload mixes (axis).
    pub mixes: Vec<MixSpec>,
}

/// One fully-resolved grid point, convertible 1:1 into a [`SimConfig`].
#[derive(Clone, PartialEq, Debug)]
pub struct RunSpec {
    /// Name of the spec this point came from.
    pub spec_name: String,
    /// The mix (with its resolved seed).
    pub mix: MixSpec,
    /// Index of the mix in the deduplicated mix axis.
    pub mix_index: usize,
    /// The technique point.
    pub technique: Technique,
    /// Hardware thread count.
    pub threads: u8,
    /// The machine geometry.
    pub machine: MachineSpec,
    /// Index of the machine in the deduplicated machine axis.
    pub machine_index: usize,
    /// Instruction budget.
    pub inst_limit: u64,
    /// Timeslice in cycles.
    pub timeslice: u64,
    /// Cycle safety bound.
    pub max_cycles: u64,
    /// Cluster renaming.
    pub renaming: bool,
    /// Cache model selection.
    pub memory: MemoryMode,
    /// Multithreading discipline.
    pub mt: MtMode,
    /// Respawn policy.
    pub respawn: bool,
    /// Cache geometry and miss penalty.
    pub caches: MemConfig,
    /// Event-trace output path (single-point runs only).
    pub trace: Option<String>,
}

impl RunSpec {
    /// The simulator configuration of this point.
    pub fn to_sim_config(&self) -> SimConfig {
        SimConfig {
            machine: self.machine.config.clone(),
            caches: self.caches,
            technique: self.technique,
            mt_mode: self.mt,
            n_threads: self.threads,
            renaming: self.renaming,
            memory: self.memory,
            timeslice: self.timeslice,
            inst_limit: self.inst_limit,
            max_cycles: self.max_cycles,
            seed: self.mix.seed,
            respawn: self.respawn,
        }
    }

    /// Point label for reports: `mix/TECH_LABEL/Nt/machine`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}t/{}",
            self.mix.name,
            self.technique.label().replace(' ', "_"),
            self.threads,
            self.machine.name
        )
    }
}

impl SweepSpec {
    /// An empty-axis spec with the shared defaults: paper machine and
    /// caches, all-technique axis, 2- and 4-thread machines, real memory,
    /// SMT discipline, renaming and respawn on. Mixes must be added.
    pub fn base(scale: Scale) -> SweepSpec {
        SweepSpec {
            name: String::new(),
            inst_limit: scale.inst_limit,
            timeslice: scale.timeslice,
            max_cycles: DEFAULT_MAX_CYCLES,
            seed: DEFAULT_SEED,
            threads: vec![2, 4],
            techniques: Technique::FIGURE16_SET.iter().map(|&(_, t)| t).collect(),
            renaming: true,
            memory: MemoryMode::Real,
            mt: MtMode::Simultaneous,
            respawn: true,
            caches: MemConfig::paper(),
            trace: None,
            journal: None,
            serve: None,
            machines: vec![MachineSpec::paper()],
            mixes: Vec::new(),
        }
    }

    /// The paper's full evaluation grid: 9 mixes × 8 techniques × {2, 4}
    /// threads on the paper machine — what `repro` simulates for Figures
    /// 14–16.
    pub fn paper_grid(scale: Scale) -> SweepSpec {
        let mut s = Self::base(scale);
        s.name = "paper-grid".to_string();
        s.mixes = vex_workloads::MIXES
            .iter()
            .map(|m| MixSpec::builtin(m.name, DEFAULT_SEED))
            .collect();
        s
    }

    /// The run scale (instruction budget + timeslice pair).
    pub fn scale(&self) -> Scale {
        Scale {
            inst_limit: self.inst_limit,
            timeslice: self.timeslice,
        }
    }

    /// Parses a spec from its TOML-subset text form.
    pub fn parse(text: &str) -> Result<SweepSpec, SpecError> {
        parse_sweep(text)
    }

    /// Prints the canonical text form: `parse(print(spec)) == spec`.
    pub fn print(&self) -> String {
        print_sweep(self)
    }

    /// Expands the grid into deduplicated run points, ordered mix-major
    /// (mix, then machine, then technique, then threads). Duplicate axis
    /// entries — same technique listed twice, repeated thread counts,
    /// identical machine geometries or identical (members, seed) mixes —
    /// collapse to their first occurrence.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut techniques: Vec<Technique> = Vec::new();
        for &t in &self.techniques {
            if !techniques.contains(&t) {
                techniques.push(t);
            }
        }
        let mut threads: Vec<u8> = Vec::new();
        for &n in &self.threads {
            if !threads.contains(&n) {
                threads.push(n);
            }
        }
        let mut machines: Vec<&MachineSpec> = Vec::new();
        for m in &self.machines {
            if !machines.iter().any(|q| q.config == m.config) {
                machines.push(m);
            }
        }
        let mut mixes: Vec<&MixSpec> = Vec::new();
        for x in &self.mixes {
            if !mixes
                .iter()
                .any(|q| q.members == x.members && q.seed == x.seed)
            {
                mixes.push(x);
            }
        }

        let mut points = Vec::new();
        for (xi, mix) in mixes.iter().enumerate() {
            for (mi, machine) in machines.iter().enumerate() {
                for &technique in &techniques {
                    for &n in &threads {
                        points.push(RunSpec {
                            spec_name: self.name.clone(),
                            mix: (*mix).clone(),
                            mix_index: xi,
                            technique,
                            threads: n,
                            machine: (*machine).clone(),
                            machine_index: mi,
                            inst_limit: self.inst_limit,
                            timeslice: self.timeslice,
                            max_cycles: self.max_cycles,
                            renaming: self.renaming,
                            memory: self.memory,
                            mt: self.mt,
                            respawn: self.respawn,
                            caches: self.caches,
                            trace: self.trace.clone(),
                        });
                    }
                }
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_expands_to_144_points() {
        let spec = SweepSpec::paper_grid(Scale::QUICK);
        assert_eq!(spec.expand().len(), 9 * 8 * 2);
    }

    #[test]
    fn expansion_deduplicates_every_axis() {
        let mut spec = SweepSpec::base(Scale::QUICK);
        spec.mixes = vec![
            MixSpec::builtin("llhh", DEFAULT_SEED),
            MixSpec::builtin("llhh", DEFAULT_SEED),
        ];
        spec.techniques = vec![Technique::csmt(), Technique::csmt()];
        spec.threads = vec![4, 4];
        spec.machines = vec![MachineSpec::paper(), MachineSpec::paper()];
        assert_eq!(spec.expand().len(), 1);
    }

    #[test]
    fn builtin_mix_seed_matches_figure13b_index() {
        // mmhh is index 7 in MIXES; the historical sweep seeded it
        // base + 7 and sub-grids must reproduce that.
        let m = MixSpec::builtin("mmhh", DEFAULT_SEED);
        assert_eq!(m.seed, DEFAULT_SEED + 7);
    }

    #[test]
    fn run_spec_reproduces_paper_sim_config() {
        let mut spec = SweepSpec::base(Scale::PAPER);
        spec.max_cycles = 50_000_000;
        spec.mixes = vec![MixSpec {
            name: "golden".into(),
            members: vec![WorkloadRef::Builtin("idct".into())],
            seed: 0xC0FFEE,
        }];
        spec.threads = vec![2];
        for (_, tech) in Technique::FIGURE16_SET {
            let mut s = spec.clone();
            s.techniques = vec![tech];
            let points = s.expand();
            assert_eq!(points.len(), 1);
            assert_eq!(points[0].to_sim_config(), SimConfig::paper(tech, 2));
        }
    }
}
