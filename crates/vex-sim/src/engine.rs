//! The cycle-accurate multithreaded execution engine.
//!
//! Each cycle proceeds in two phases, mirroring the paper's issue stage:
//!
//! 1. **Issue.** Thread priorities rotate round-robin (§VI-A). In priority
//!    order, each runnable hardware thread tries to add its pending
//!    instruction — or pending *parts* of it, under split-issue — to the
//!    execution packet. The highest-priority thread always issues whatever
//!    it has pending in its entirety (Figure 7(b)); lower-priority threads
//!    contribute whatever the merge/split policy admits. Data-cache probes
//!    happen as memory operations issue; a miss stalls the *owning thread*
//!    for the miss penalty while others keep issuing.
//! 2. **Commit.** Instructions whose last part issued this cycle commit:
//!    delay buffers drain into register files and memory, branches redirect
//!    the thread (taken-branch penalty 1), `halt` retires or respawns the
//!    run. Buffered stores from earlier-issued parts need data-cache ports
//!    *now*; if ports over-subscribe, the whole pipeline stalls for the
//!    excess cycles (Figure 11, §V-D).
//!
//! A timeslice scheduler multiplexes more benchmark contexts than hardware
//! threads, replacing threads at random at each expiry (§VI-A).

use crate::config::{CommPolicy, MemoryMode, MergePolicy, MtMode, SimConfig, SplitPolicy};
use crate::decode::{ClusterDemand, DecodedProgram};
use crate::packet::{Packet, MAX_CLUSTERS};
use crate::profile::{CacheProfile, Profile};
use crate::rng::SplitMix64;
use crate::stats::SimStats;
use crate::thread::{phys_cluster, CtrlEffect, ThreadCtx};
use std::sync::{Arc, OnceLock};
use vex_isa::{FuKind, Program};
use vex_mem::{Image, MemSystem};
use vex_trace::{TraceEvent, TraceMeta, TraceSink, NO_CTX};

/// Why a run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// A benchmark reached the configured instruction budget.
    InstLimit,
    /// Every context retired (respawn disabled and all programs halted).
    AllRetired,
    /// The `max_cycles` watchdog budget ran out before the workload
    /// terminated: the statistics cover exactly `max_cycles` simulated
    /// cycles and are valid as a partial result.
    Exhausted,
}

impl StopReason {
    /// Stable machine-readable tag (used by sweep artifacts and the
    /// journal format; see `docs/ROBUSTNESS.md`).
    pub fn tag(&self) -> &'static str {
        match self {
            StopReason::InstLimit => "inst_limit",
            StopReason::AllRetired => "all_retired",
            StopReason::Exhausted => "exhausted",
        }
    }

    /// Inverse of [`StopReason::tag`].
    pub fn from_tag(tag: &str) -> Option<StopReason> {
        match tag {
            "inst_limit" => Some(StopReason::InstLimit),
            "all_retired" => Some(StopReason::AllRetired),
            "exhausted" => Some(StopReason::Exhausted),
            _ => None,
        }
    }
}

/// The simulator.
#[derive(Debug)]
pub struct Engine {
    /// Run configuration.
    pub cfg: SimConfig,
    /// Shared memory system (I$/D$ + penalties).
    pub mem: MemSystem,
    /// All benchmark contexts of the workload.
    pub contexts: Vec<ThreadCtx>,
    /// Hardware thread slots: index into `contexts`.
    pub slots: Vec<Option<usize>>,
    /// Current cycle.
    pub cycle: u64,
    /// Aggregated statistics.
    pub stats: SimStats,
    /// Event stream receiver, attached via [`Engine::set_tracer`]. When
    /// `None` (the default) every emission site is a single branch on the
    /// `Option` discriminant.
    tracer: Option<Box<dyn TraceSink>>,
    /// Periodic liveness callback, attached via [`Engine::set_heartbeat`].
    /// Checked once per `run` iteration — like the tracer, a single branch
    /// on the `Option` discriminant when off.
    heartbeat: Option<Heartbeat>,
    packet: Packet,
    global_stall: u64,
    rng: SplitMix64,
    next_switch: u64,
    rotation: usize,
    /// Sticky slot for Block MT: the thread that keeps issuing until it
    /// blocks on a long-latency event.
    bmt_current: usize,
    /// Scratch: contexts committing this cycle. Reused across `step` calls
    /// so the steady-state cycle loop performs no heap allocation.
    commit_scratch: Vec<usize>,
    /// Scratch: runnable-context pool for [`Engine::assign_slots`].
    slot_pool: Vec<usize>,
    /// Retired contexts so far; termination checks compare against
    /// `contexts.len()` instead of rescanning every context every cycle.
    retired_count: usize,
    /// Latched when any context crosses `cfg.inst_limit` at commit.
    inst_limit_hit: bool,
    /// `cycle % n_hw`, maintained incrementally (hardware divides are slow
    /// enough to show up in a loop this tight).
    rr_offset: usize,
}

/// The engine's periodic liveness hook: every `every` simulated cycles the
/// callback observes the current cycle. This is how a worker process proves
/// it is alive to a supervisor while the cycle loop is busy — pure
/// observation, no effect on simulation state or statistics.
struct Heartbeat {
    every: u64,
    next: u64,
    f: Box<dyn FnMut(u64) + Send>,
}

impl std::fmt::Debug for Heartbeat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heartbeat")
            .field("every", &self.every)
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

/// Clones everything except the tracer and the heartbeat: both are live
/// observation endpoints that cannot be duplicated, so the clone starts
/// untraced and unobserved (attach fresh ones with [`Engine::set_tracer`] /
/// [`Engine::set_heartbeat`] if needed). Simulation state — and therefore
/// timing — is copied exactly.
impl Clone for Engine {
    fn clone(&self) -> Self {
        Engine {
            cfg: self.cfg.clone(),
            mem: self.mem.clone(),
            contexts: self.contexts.clone(),
            slots: self.slots.clone(),
            cycle: self.cycle,
            stats: self.stats.clone(),
            tracer: None,
            heartbeat: None,
            packet: self.packet.clone(),
            global_stall: self.global_stall,
            rng: self.rng.clone(),
            next_switch: self.next_switch,
            rotation: self.rotation,
            bmt_current: self.bmt_current,
            commit_scratch: self.commit_scratch.clone(),
            slot_pool: self.slot_pool.clone(),
            retired_count: self.retired_count,
            inst_limit_hit: self.inst_limit_hit,
            rr_offset: self.rr_offset,
        }
    }
}

/// A program paired with its shared pre-decode table and initial data
/// image, ready to drop into an engine without re-decoding or re-copying.
/// Sweep harnesses prepare each distinct (program, machine) workload member
/// once and reuse it across every (technique, thread-count) point of a
/// grid. Clones share all three.
#[derive(Clone, Debug)]
pub struct PreparedProgram {
    program: Arc<Program>,
    decoded: Arc<DecodedProgram>,
    /// The data image of `program`, built by the first engine that runs a
    /// clone: a sweep resumed entirely from its journal builds none.
    image: Arc<OnceLock<Image>>,
}

impl PreparedProgram {
    /// Decodes `program` once, producing a reusable workload member.
    pub fn prepare(program: Arc<Program>) -> Self {
        let decoded = DecodedProgram::decode_arc(&program);
        PreparedProgram {
            program,
            decoded,
            image: Arc::default(),
        }
    }

    /// The program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Its decode table (depends only on the program, not the run config).
    pub fn decoded(&self) -> &Arc<DecodedProgram> {
        &self.decoded
    }

    /// The program's initial data image, which every context running it
    /// starts from and respawns to. Built on the first call.
    pub fn image(&self) -> &Image {
        self.image
            .get_or_init(|| Image::new(self.program.data.iter().map(|s| (s.base, &s.bytes[..]))))
    }
}

/// `SPLIT` const-generic encoding of [`SplitPolicy`].
const SPLIT_NONE: u8 = 0;
/// Cluster-level split-issue.
const SPLIT_CLUSTER: u8 = 1;
/// Operation-level split-issue.
const SPLIT_OP: u8 = 2;

/// Expands `body` with the const-generic pair (`MERGE_OP: bool`,
/// `SPLIT: u8`) matching a [`Technique`] — the one place the merge/split
/// policy is turned into a compile-time shape. The `comm` policy stays a
/// runtime check: it only gates the per-instruction `has_comm` flag, not
/// the loop structure.
macro_rules! dispatch_technique {
    ($tech:expr, |$mo:ident, $sp:ident| $body:expr) => {{
        macro_rules! arm {
            ($mov:literal, $spv:expr) => {{
                #[allow(non_upper_case_globals)]
                {
                    const $mo: bool = $mov;
                    const $sp: u8 = $spv;
                    $body
                }
            }};
        }
        match ($tech.merge, $tech.split) {
            (MergePolicy::Cluster, SplitPolicy::None) => arm!(false, SPLIT_NONE),
            (MergePolicy::Cluster, SplitPolicy::Cluster) => arm!(false, SPLIT_CLUSTER),
            (MergePolicy::Cluster, SplitPolicy::Operation) => arm!(false, SPLIT_OP),
            (MergePolicy::Operation, SplitPolicy::None) => arm!(true, SPLIT_NONE),
            (MergePolicy::Operation, SplitPolicy::Cluster) => arm!(true, SPLIT_CLUSTER),
            (MergePolicy::Operation, SplitPolicy::Operation) => arm!(true, SPLIT_OP),
        }
    }};
}

impl Engine {
    /// Builds an engine over a workload (one context per program).
    pub fn new(cfg: SimConfig, programs: &[Arc<Program>]) -> Self {
        // Pre-decode each distinct program exactly once; contexts running
        // the same `Arc<Program>` share one decode table.
        let mut decode_cache: Vec<PreparedProgram> = Vec::new();
        let prepared: Vec<PreparedProgram> = programs
            .iter()
            .map(
                |p| match decode_cache.iter().find(|q| Arc::ptr_eq(p, q.program())) {
                    Some(q) => q.clone(),
                    None => {
                        let q = PreparedProgram::prepare(Arc::clone(p));
                        decode_cache.push(q.clone());
                        q
                    }
                },
            )
            .collect();
        Self::with_prepared(cfg, &prepared)
    }

    /// Builds an engine over pre-decoded workload members (one context per
    /// entry). The decode tables are shared, not copied — this is how a
    /// sweep amortises decoding across its whole grid.
    pub fn with_prepared(cfg: SimConfig, workload: &[PreparedProgram]) -> Self {
        assert!(!workload.is_empty(), "workload must contain programs");
        assert!(cfg.n_threads >= 1);
        // The issue stage's empty-packet fast path and the packet's packed
        // lanes both rely on every bundle fitting the machine's per-cluster
        // resources — the invariant `Program::validate` enforces. A hard
        // assert (once per program, tiny tables) because `--no-validate`
        // callers reach this in release builds too, and an over-wide bundle
        // would otherwise corrupt the packed fit arithmetic silently.
        for p in workload {
            for d in &p.decoded.demands {
                assert!(
                    d.slots <= cfg.machine.cluster.slots
                        && d.fu
                            .iter()
                            .zip(cfg.machine.cluster.counts())
                            .all(|(&n, limit)| n <= limit),
                    "program `{}` has a bundle exceeding the machine's \
                     resources; run Program::validate before simulating",
                    p.program.name
                );
            }
        }
        let mem = MemSystem::new(cfg.caches, cfg.memory == MemoryMode::Perfect);
        let contexts: Vec<ThreadCtx> = workload
            .iter()
            .enumerate()
            .map(|(i, p)| ThreadCtx::with_prepared(p, i as u16, cfg.machine.n_clusters, 0))
            .collect();
        let n_programs = contexts.len();
        let n_threads = cfg.n_threads;
        let timeslice = cfg.timeslice;
        let seed = cfg.seed;
        let mut e = Engine {
            mem,
            contexts,
            slots: vec![None; n_threads as usize],
            cycle: 0,
            stats: SimStats {
                per_thread: vec![Default::default(); n_programs],
                ..Default::default()
            },
            tracer: None,
            heartbeat: None,
            packet: Packet::new(&cfg.machine),
            global_stall: 0,
            rng: SplitMix64::new(seed),
            next_switch: timeslice,
            rotation: 0,
            bmt_current: 0,
            commit_scratch: Vec::with_capacity(n_threads as usize),
            slot_pool: Vec::new(),
            retired_count: 0,
            // Degenerate `inst_limit: 0` configurations terminate before
            // the first cycle, exactly like the old full-rescan check.
            inst_limit_hit: cfg.inst_limit == 0,
            rr_offset: 0,
            cfg,
        };
        e.assign_slots();
        e
    }

    /// Attaches a trace sink: begins its stream with the run's geometry and
    /// re-emits the current slot mapping so a mid-run attach still replays
    /// correctly. Tracing is pure observation — timing and statistics are
    /// bit-identical with or without a sink attached (pinned by the golden
    /// statistics test, which runs traced and untraced engines side by
    /// side).
    pub fn set_tracer(&mut self, mut sink: Box<dyn TraceSink>) {
        sink.begin(&TraceMeta {
            n_contexts: self.contexts.len() as u16,
            hw_threads: self.slots.len() as u16,
            n_clusters: self.cfg.machine.n_clusters as u16,
        });
        self.tracer = Some(sink);
        self.emit_slot_map();
    }

    /// Detaches and returns the current sink (call its
    /// [`TraceSink::finish`] to flush file-backed sinks, or
    /// [`vex_trace::RingSink::reclaim`] to recover buffered events).
    pub fn take_tracer(&mut self) -> Option<Box<dyn TraceSink>> {
        self.tracer.take()
    }

    /// Whether a trace sink is currently attached.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Attaches a periodic liveness callback: `f` observes the current
    /// cycle roughly every `every_cycles` simulated cycles while
    /// [`Engine::run`] is looping (step-driven callers own their loop and
    /// don't need one). Like tracing, this is pure observation — timing
    /// and statistics are bit-identical with or without it. The sweep
    /// service's workers hang their supervisor heartbeats off this hook so
    /// a busy engine can prove liveness without instrumenting the
    /// simulation itself.
    pub fn set_heartbeat(&mut self, every_cycles: u64, f: Box<dyn FnMut(u64) + Send>) {
        let every = every_cycles.max(1);
        self.heartbeat = Some(Heartbeat {
            every,
            next: self.cycle.saturating_add(every),
            f,
        });
    }

    /// Streams the current slot → context mapping (one
    /// [`TraceEvent::SlotAssign`] per hardware slot, in one same-cycle
    /// batch) so a replay always knows the full assignment.
    fn emit_slot_map(&mut self) {
        let cycle = self.cycle;
        if let Some(tr) = self.tracer.as_deref_mut() {
            for (slot, owner) in self.slots.iter().enumerate() {
                tr.record(&TraceEvent::SlotAssign {
                    cycle,
                    slot: slot as u16,
                    ctx: owner.map_or(NO_CTX, |c| c as u16),
                });
            }
        }
    }

    /// (Re)assigns benchmark contexts to hardware slots. Single-thread
    /// machines rotate serially; multithreaded machines pick replacements
    /// at random (§VI-A).
    fn assign_slots(&mut self) {
        // `pool` is a reusable scratch buffer: it first holds the runnable
        // set, then is narrowed in place to the chosen contexts. The RNG
        // call sequence is identical to the old allocating version.
        let mut pool = std::mem::take(&mut self.slot_pool);
        pool.clear();
        pool.extend((0..self.contexts.len()).filter(|&i| !self.contexts[i].retired));
        if pool.is_empty() {
            self.slots.iter_mut().for_each(|s| *s = None);
            self.slot_pool = pool;
            self.emit_slot_map();
            return;
        }
        let n_hw = self.slots.len();
        if pool.len() <= n_hw {
            // Everyone runs.
        } else if n_hw == 1 {
            // Serial order for the single-thread machine.
            self.rotation = (self.rotation + 1) % pool.len();
            let c = pool[self.rotation];
            pool.clear();
            pool.push(c);
        } else {
            self.rng.shuffle(&mut pool);
            pool.truncate(n_hw);
        }
        self.slots.iter_mut().for_each(|s| *s = None);
        for (slot, &ci) in pool.iter().enumerate() {
            self.slots[slot] = Some(ci);
            self.contexts[ci].rename = if self.cfg.renaming {
                (slot as u8) % self.cfg.machine.n_clusters
            } else {
                0
            };
        }
        self.slot_pool = pool;
        self.emit_slot_map();
    }

    /// Advances the cycle counter (and the statistics mirror plus the
    /// round-robin offset) by `k` cycles.
    #[inline]
    fn advance_cycles(&mut self, k: u64) {
        self.stats.cycles += k;
        self.cycle += k;
        self.rr_offset = ((self.rr_offset as u64 + k) % self.slots.len() as u64) as usize;
    }

    /// Cycles until the next scheduled engine event (timeslice switch or
    /// the `max_cycles` safety bound) — the horizon a batched dead-cycle
    /// update may cover without changing observable behaviour.
    #[inline]
    fn cycles_until_next_event(&self) -> u64 {
        self.next_switch
            .saturating_sub(self.cycle)
            .min(self.cfg.max_cycles.saturating_sub(self.cycle))
    }

    /// Advances one cycle. Single-step API: dispatches on the technique
    /// per call; [`Engine::run`] instead dispatches **once** and loops a
    /// fully monomorphized cycle, with the issue stage inlined into it.
    /// Both paths execute the same monomorphized cycle body, so stepping
    /// with the [`Engine::stop_reason`] / [`Engine::finalize_stats`]
    /// protocol is bit-identical to `run` (pinned by the parity test).
    pub fn step(&mut self) {
        dispatch_technique!(self.cfg.technique, |MO, SP| self.step_inner::<MO, SP>())
    }

    /// One cycle, monomorphized over the technique (`MERGE_OP`, `SPLIT` as
    /// in [`issue_thread`]).
    fn step_inner<const MERGE_OP: bool, const SPLIT: u8>(&mut self) {
        if self.cycle >= self.next_switch {
            self.next_switch += self.cfg.timeslice;
            self.assign_slots();
            self.stats.context_switches += 1;
        }

        if self.global_stall > 0 {
            // Whole-pipeline stall from memory-port contention: nobody
            // issues this cycle.
            self.global_stall -= 1;
            self.stats.memport_stall_cycles += 1;
            self.stats.empty_cycles += 1;
            self.advance_cycles(1);
            return;
        }

        self.packet.reset();
        let n_hw = self.slots.len();
        // Priority order: SMT-class rotates every cycle (§VI-A); Block MT
        // starts from the sticky thread so it keeps running until blocked.
        debug_assert_eq!(self.rr_offset, (self.cycle % n_hw as u64) as usize);
        let offset = match self.cfg.mt_mode {
            MtMode::Blocked => self.bmt_current,
            _ => self.rr_offset,
        };
        // The pre-SMT baselines issue from at most one thread per cycle.
        let single_issue = self.cfg.mt_mode != MtMode::Simultaneous;
        let mut commits = std::mem::take(&mut self.commit_scratch);
        commits.clear();

        // Dead-window detection, fused into the issue loop (it used to be
        // a separate pre-scan over the same contexts): if no slotted,
        // non-retired context was issuable *at the start of this cycle*,
        // the cycles until the earliest `stall_until` are all empty and are
        // consumed in bulk after the per-cycle bookkeeping below — which,
        // for such a cycle, increments exactly `cycles`/`empty_cycles`, so
        // cycle-by-cycle and batched execution are bit-identical.
        let mut any_runnable = false;
        let mut wake = u64::MAX;

        for k in 0..n_hw {
            // `offset + k < 2 * n_hw`, so the wrap is a compare-subtract
            // rather than a hardware divide on the hottest loop.
            let mut slot = offset + k;
            if slot >= n_hw {
                slot -= n_hw;
            }
            let Some(ci) = self.slots[slot] else { continue };
            let t = &mut self.contexts[ci];
            if t.retired {
                continue;
            }
            if self.cycle < t.stall_until {
                wake = wake.min(t.stall_until);
                continue;
            }
            any_runnable = true;

            // Fetch/activate if nothing is in flight.
            if !t.inflight.active {
                if t.pc >= t.prepared.decoded().len() {
                    // Fell off the end: treat like halt.
                    if self.cfg.respawn {
                        t.respawn();
                    } else {
                        t.retired = true;
                        self.retired_count += 1;
                        if let Some(tr) = self.tracer.as_deref_mut() {
                            tr.record(&TraceEvent::Retire {
                                cycle: self.cycle,
                                thread: ci as u16,
                            });
                        }
                        continue;
                    }
                }
                if !t.fetch_paid {
                    let di = t.prepared.decoded().inst(t.pc);
                    let pen = self.mem.fetch_access(t.asid, di.fetch_addr, di.fetch_len);
                    if pen > 0 {
                        t.stall_until = self.cycle + pen as u64;
                        t.fetch_paid = true;
                        t.stats.imiss_stall_cycles += pen as u64;
                        if let Some(tr) = self.tracer.as_deref_mut() {
                            tr.record(&TraceEvent::IMissStall {
                                cycle: self.cycle,
                                thread: ci as u16,
                                penalty: pen,
                            });
                        }
                        continue;
                    }
                }
                t.fetch_paid = false;
                t.activate(SPLIT == SPLIT_OP);
            }

            // Issue pending work into the packet.
            let out = issue_thread::<MERGE_OP, SPLIT>(
                t,
                &mut self.packet,
                &mut self.mem,
                &self.cfg,
                self.cycle,
            );
            let (issued_ops, completed) = (out.ops, out.completed);
            if issued_ops > 0 {
                self.packet.threads += 1;
                t.stats.ops_issued += issued_ops as u64;
            }
            if let Some(tr) = self.tracer.as_deref_mut() {
                if issued_ops > 0 || completed {
                    tr.record(&TraceEvent::Issue {
                        cycle: self.cycle,
                        thread: ci as u16,
                        inst: t.inflight.inst_idx as u32,
                        ops: issued_ops as u16,
                        clusters: out.clusters,
                        completed,
                    });
                }
                if out.dmiss {
                    tr.record(&TraceEvent::DMissStall {
                        cycle: self.cycle,
                        thread: ci as u16,
                        penalty: self.mem.miss_penalty,
                    });
                }
                if out.comm_held {
                    tr.record(&TraceEvent::CommHold {
                        cycle: self.cycle,
                        thread: ci as u16,
                    });
                }
            }
            if completed {
                commits.push(ci);
            }
            if single_issue && (issued_ops > 0 || completed) {
                if self.cfg.mt_mode == MtMode::Blocked {
                    self.bmt_current = slot;
                }
                break;
            }
        }

        // Commit phase: drain delay buffers, count buffered-store port
        // demand, resolve control flow. The per-cluster demand counter is a
        // stack array (n_clusters ≤ MAX_CLUSTERS), not a fresh vector.
        let mut commit_mem = [0u8; MAX_CLUSTERS];
        let mut any_commit_mem = false;
        for &ci in &commits {
            let t = &mut self.contexts[ci];
            let n_clusters = self.cfg.machine.n_clusters;
            // Split accounting + buffered-store port demand. Stores issued
            // at an *earlier* cycle than the commit can only exist when the
            // instruction split (`parts > 1`); the issue stage counted them
            // per logical cluster as they issued (`InFlight::early_stores`),
            // so commit just applies the (current) physical mapping — no
            // record scan.
            if t.inflight.parts > 1 {
                t.stats.split_instructions += 1;
                t.stats.split_parts += t.inflight.parts as u64;
                if let Some(tr) = self.tracer.as_deref_mut() {
                    tr.record(&TraceEvent::SplitCommit {
                        cycle: self.cycle,
                        thread: ci as u16,
                        inst: t.inflight.inst_idx as u32,
                        parts: t.inflight.parts as u16,
                    });
                }
                for (c, &n) in t.inflight.early_stores[..n_clusters as usize]
                    .iter()
                    .enumerate()
                {
                    if n > 0 {
                        let p = t.phys_cluster(c as u8, n_clusters);
                        commit_mem[p as usize] += n;
                        any_commit_mem = true;
                    }
                }
            }
            match t.commit_writes() {
                Some(CtrlEffect::Taken(target)) => {
                    t.pc = target;
                    let pen = self.cfg.machine.taken_branch_penalty as u64;
                    t.stall_until = t.stall_until.max(self.cycle + 1 + pen);
                    t.stats.branch_stall_cycles += pen;
                    if pen > 0 {
                        if let Some(tr) = self.tracer.as_deref_mut() {
                            tr.record(&TraceEvent::BranchStall {
                                cycle: self.cycle,
                                thread: ci as u16,
                                penalty: pen as u32,
                            });
                        }
                    }
                }
                Some(CtrlEffect::Halt) => {
                    if self.cfg.respawn {
                        t.respawn();
                    } else {
                        t.stats.runs_completed += 1;
                        t.retired = true;
                        self.retired_count += 1;
                        if let Some(tr) = self.tracer.as_deref_mut() {
                            tr.record(&TraceEvent::Retire {
                                cycle: self.cycle,
                                thread: ci as u16,
                            });
                        }
                    }
                }
                None => {}
            }
            if t.stats.insts_retired >= self.cfg.inst_limit {
                self.inst_limit_hit = true;
            }
        }

        commits.clear();
        self.commit_scratch = commits;

        // Memory-port over-subscription (issued + committing buffered
        // stores versus ports) stalls the pipeline for the excess (§V-D).
        // Cycles without any memory traffic (no Mem op issued, no buffered
        // store committing) skip the per-cluster scan: every term is zero.
        let ports = self.cfg.machine.cluster.mem;
        let mut overflow = 0u64;
        if self.packet.any_mem() || any_commit_mem {
            for (p, &extra) in commit_mem
                .iter()
                .enumerate()
                .take(self.cfg.machine.n_clusters as usize)
            {
                overflow += (self.packet.mem_issued(p as u8) + extra).saturating_sub(ports) as u64;
            }
        }
        self.global_stall += overflow;
        if overflow > 0 {
            if let Some(tr) = self.tracer.as_deref_mut() {
                tr.record(&TraceEvent::MemPortStall {
                    cycle: self.cycle,
                    cycles: overflow as u32,
                });
            }
        }

        // Remaining dead cycles after this one, when nothing was runnable:
        // the window up to the earliest wake (or the next engine event)
        // counts only `cycles`/`empty_cycles`, exactly like the per-cycle
        // path below, so it is consumed in one jump after the bookkeeping.
        let dead_window = if any_runnable {
            0
        } else {
            wake.saturating_sub(self.cycle)
                .min(self.cycles_until_next_event())
                .max(1)
                - 1
        };

        // Cycle bookkeeping.
        self.stats.total_ops += self.packet.ops as u64;
        if self.packet.ops == 0 {
            self.stats.empty_cycles += 1;
        } else {
            self.stats.wasted_slots += self.packet.wasted_slots(&self.cfg.machine) as u64;
        }
        if self.packet.threads >= 2 {
            self.stats.merged_cycles += 1;
        }
        let n_hw = self.slots.len();
        self.stats.cycles += 1;
        self.cycle += 1;
        self.rr_offset += 1;
        if self.rr_offset == n_hw {
            self.rr_offset = 0;
        }
        if dead_window > 0 {
            self.stats.empty_cycles += dead_window;
            self.advance_cycles(dead_window);
        }
    }

    /// Why the run is over, or `None` while it should keep going. This is
    /// the exact check [`Engine::run`] performs before every cycle, made
    /// public so external single-step drivers can reproduce `run` exactly:
    ///
    /// ```text
    /// while engine.stop_reason().is_none() { engine.step(); }
    /// engine.finalize_stats();
    /// ```
    ///
    /// Driving `step` this way is bit-identical to one `run` call — the
    /// step/run parity test pins that equivalence for every technique.
    pub fn stop_reason(&self) -> Option<StopReason> {
        if self.cycle >= self.cfg.max_cycles {
            return Some(StopReason::Exhausted);
        }
        // Both conditions are latched incrementally where they change
        // (retire sites, commit) so this check is O(1) per cycle.
        debug_assert_eq!(
            self.retired_count == self.contexts.len(),
            self.contexts.iter().all(|t| t.retired)
        );
        if self.retired_count == self.contexts.len() {
            return Some(StopReason::AllRetired);
        }
        if self.inst_limit_hit {
            return Some(StopReason::InstLimit);
        }
        None
    }

    /// Runs to termination and returns the reason. The merge/split policy
    /// is resolved exactly once here; the whole cycle loop below it is a
    /// monomorphized instantiation with no per-cycle technique dispatch.
    pub fn run(&mut self) -> StopReason {
        dispatch_technique!(self.cfg.technique, |MO, SP| self.run_inner::<MO, SP>())
    }

    fn run_inner<const MERGE_OP: bool, const SPLIT: u8>(&mut self) -> StopReason {
        loop {
            if let Some(r) = self.stop_reason() {
                self.finalize_stats();
                return r;
            }
            self.step_inner::<MERGE_OP, SPLIT>();
            // Liveness hook: `step_inner` can consume a whole dead window
            // at once, so compare against the target cycle rather than
            // counting iterations.
            if let Some(hb) = self.heartbeat.as_mut() {
                if self.cycle >= hb.next {
                    (hb.f)(self.cycle);
                    hb.next = self.cycle.saturating_add(hb.every);
                }
            }
        }
    }

    /// Aggregates the run's work counters (cache accesses and hits,
    /// issue-stage scan work, evaluated operations) into one [`Profile`]
    /// block. Cheap enough to call at any point of a run.
    pub fn profile(&self) -> Profile {
        let cache_profile = |c: &vex_mem::Cache| {
            let s = c.stats();
            CacheProfile {
                accesses: s.accesses(),
                hits: s.hits,
                ..Default::default()
            }
        };
        let mut p = Profile {
            cycles: self.stats.cycles,
            icache: cache_profile(&self.mem.icache),
            dcache: cache_profile(&self.mem.dcache),
            ..Default::default()
        };
        for t in &self.contexts {
            p.issue_calls += t.issue_calls;
            p.issue_scans += t.issue_scans;
            p.eval_activations += t.eval_activations;
            p.eval_ops += t.eval_ops;
        }
        p
    }

    /// Copies the per-context counters into [`SimStats::per_thread`] and
    /// refreshes the aggregate instruction count. [`Engine::run`] calls
    /// this on termination; external [`Engine::step`] drivers must call it
    /// themselves once [`Engine::stop_reason`] turns `Some` (idempotent,
    /// safe to call mid-run for a progress snapshot).
    pub fn finalize_stats(&mut self) {
        for (i, t) in self.contexts.iter().enumerate() {
            self.stats.per_thread[i] = t.stats.clone();
        }
        self.stats.total_insts = self.contexts.iter().map(|t| t.stats.insts_retired).sum();
        // End-of-stream marker with the total cycle count; replay uses the
        // last one, so mid-run snapshots remain harmless.
        let cycle = self.cycle;
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.record(&TraceEvent::End { cycle });
        }
    }
}

/// What one [`issue_thread`] call did, reported back to the engine's cycle
/// loop — which owns the tracer, so the per-thread issue function stays
/// free of any tracing concern.
#[derive(Clone, Copy, Default)]
struct IssueOutcome {
    /// Operations placed this cycle.
    ops: u32,
    /// The instruction finished issuing (commits this cycle).
    completed: bool,
    /// At least one data-cache probe missed (the thread stalls from the
    /// next cycle for the miss penalty).
    dmiss: bool,
    /// Physical clusters that received work this call (bitmask).
    clusters: u16,
    /// The no-split communication policy forced the instruction to issue
    /// whole under a split-capable technique, and it did not fit.
    comm_held: bool,
}

/// Issues as much of `t`'s pending instruction as the technique admits.
/// Returns what happened as an [`IssueOutcome`].
///
/// Monomorphized over the technique: `MERGE_OP` is true for
/// operation-level merging, `SPLIT` is one of `SPLIT_NONE` /
/// `SPLIT_CLUSTER` / `SPLIT_OP`. Placement happens at bundle granularity
/// wherever bundles cannot split, using the pre-decoded
/// [`ClusterDemand`] tables ([`Packet::place_bundle`]); only the
/// operation-level split path still walks individual operations, over the
/// in-flight records (activation always materializes them under that
/// technique). Data-cache probes step through records in table order in
/// every path, so the cache's access sequence — and therefore its stats
/// and LRU state — is identical to the record-at-a-time implementation
/// this replaces.
fn issue_thread<const MERGE_OP: bool, const SPLIT: u8>(
    t: &mut ThreadCtx,
    packet: &mut Packet,
    mem: &mut MemSystem,
    cfg: &SimConfig,
    cycle: u64,
) -> IssueOutcome {
    let n_clusters = cfg.machine.n_clusters;
    let rename = t.rename;
    let asid = t.asid;
    let phys = |c: u8| phys_cluster(c, rename, n_clusters);

    let ThreadCtx {
        prepared,
        inflight,
        stall_until,
        stats,
        issue_calls,
        issue_scans,
        ..
    } = t;
    let decoded = prepared.decoded();
    let fl = inflight;
    debug_assert!(fl.active);
    *issue_calls += 1;

    // A vertical NOP issues trivially (consumes the thread's cycle only).
    if fl.n_pending == 0 {
        if fl.parts == 0 {
            fl.parts = 1;
        }
        return IssueOutcome {
            completed: true,
            ..Default::default()
        };
    }

    let comm_forced =
        SPLIT != SPLIT_NONE && cfg.technique.comm == CommPolicy::NoSplit && fl.has_comm;
    let all_or_nothing = SPLIT == SPLIT_NONE || comm_forced;

    let mut issued_now: u32 = 0;
    let mut misses: u32 = 0;
    let mut placed: u16 = 0;
    let mut comm_held = false;
    // Buffered stores placed by *this* call, per logical cluster. Merged
    // into `fl.early_stores` only if the instruction does not complete
    // here: commit must count exactly the stores issued before its cycle.
    let mut call_stores = [0u8; MAX_CLUSTERS];
    let mut any_store = false;

    if all_or_nothing {
        // Figure 7(b): the first thread into an empty packet always issues
        // whole — a validated program's demands cannot exceed the machine's
        // per-cluster resources, so the policy check is skipped entirely.
        let fits = if packet.busy_mask() == 0 {
            *issue_scans += 1;
            true
        } else if MERGE_OP {
            let demands = decoded.demands_in(fl.demand_range);
            *issue_scans += demands.len() as u64;
            demand_fits(packet, demands, &cfg.machine, rename)
        } else {
            // Cluster-level merge: the whole physical footprint collides
            // iff the rotated bundle mask intersects the busy mask — the
            // demand tables are only consulted when placement happens.
            *issue_scans += 1;
            rotl_mask(fl.pending_bundles, rename, n_clusters) & packet.busy_mask() == 0
        };
        if fits {
            // An all-or-nothing instruction can never be partially issued,
            // so every record is pending and whole bundles place at once.
            // `parts` stays 1, so commit never consults `early_stores`.
            let demands = decoded.demands_in(fl.demand_range);
            for d in demands {
                let p = phys(d.log_cluster);
                packet.place_bundle(p, d.slots, d.packed);
                placed |= 1 << p;
                if d.fu[FuKind::Mem.index()] > 0 {
                    let (lo, hi) = (d.rec_range.0 as usize, d.rec_range.1 as usize);
                    for rec in &fl.records[lo..hi] {
                        if let Some(addr) = rec.mem_probe() {
                            misses += mem.data_access(asid, addr);
                        }
                    }
                }
            }
            issued_now = fl.n_pending;
            fl.pending_bundles = 0;
            fl.n_pending = 0;
        } else {
            comm_held = comm_forced;
        }
    } else if SPLIT == SPLIT_CLUSTER {
        if !MERGE_OP {
            // Every pending bundle's physical cluster already busy? Then
            // nothing can place this cycle and the demand tables need not
            // be touched at all — the common outcome for the lower-priority
            // threads of a saturated cycle.
            *issue_scans += 1;
            let pending_phys = rotl_mask(fl.pending_bundles, rename, n_clusters);
            if pending_phys & !packet.busy_mask() == 0 {
                return IssueOutcome::default();
            }
        }
        // Demands are stored in ascending cluster order, so this walks
        // pending bundles exactly like the old bit-scan; each bundle's
        // records are the contiguous `rec_range` slice, only consulted for
        // data-cache probes and buffered-store accounting.
        let demands = decoded.demands_in(fl.demand_range);
        *issue_scans += demands.len() as u64;
        // First thread into an empty packet: every pending bundle fits
        // (Figure 7(b)), so the per-bundle policy checks collapse.
        let packet_empty = packet.busy_mask() == 0;
        for d in demands {
            let c = d.log_cluster;
            if fl.pending_bundles & (1 << c) == 0 {
                continue;
            }
            let p = phys(c);
            let fits = packet_empty
                || if MERGE_OP {
                    // One bundle, one packed check — the demand word holds
                    // the bundle's whole slot/FU footprint.
                    packet.demand_fits_packed(p, d.packed)
                } else {
                    packet.cluster_free(p)
                };
            if fits {
                packet.place_bundle(p, d.slots, d.packed);
                placed |= 1 << p;
                if d.fu[FuKind::Mem.index()] > 0 {
                    let (lo, hi) = (d.rec_range.0 as usize, d.rec_range.1 as usize);
                    for rec in &fl.records[lo..hi] {
                        debug_assert_eq!(rec.log_cluster(), c);
                        if let Some(addr) = rec.mem_probe() {
                            misses += mem.data_access(asid, addr);
                            if rec.has_store() {
                                call_stores[c as usize] += 1;
                                any_store = true;
                            }
                        }
                    }
                }
                issued_now += d.slots as u32;
                fl.n_pending -= d.slots as u32;
                fl.pending_bundles &= !(1 << c);
            }
        }
    } else {
        // Operation-level split: one pass over the records, skipping those
        // already issued; place what fits and rebuild the pending-bundle
        // mask from what stays.
        let mut mask = 0u16;
        *issue_scans += fl.records.len() as u64;
        // First thread into an empty packet: all pending records fit
        // (they are a subset of one validated instruction's demands).
        let packet_empty = packet.busy_mask() == 0;
        for rec in &mut fl.records {
            if !rec.is_pending() {
                continue;
            }
            let p = phys(rec.log_cluster());
            if packet_empty || packet.op_fits(p, rec.fu(), &cfg.machine) {
                packet.place_op(p, rec.fu());
                placed |= 1 << p;
                rec.mark_issued();
                issued_now += 1;
                fl.n_pending -= 1;
                if let Some(addr) = rec.mem_probe() {
                    misses += mem.data_access(asid, addr);
                    if rec.has_store() {
                        call_stores[rec.log_cluster() as usize] += 1;
                        any_store = true;
                    }
                }
            } else {
                mask |= 1 << rec.log_cluster();
            }
        }
        fl.pending_bundles = mask;
    }

    if issued_now > 0 {
        fl.parts += 1;
    }
    let completed = fl.n_pending == 0;
    if !completed && any_store {
        for (total, &now) in fl.early_stores.iter_mut().zip(&call_stores) {
            *total += now;
        }
    }
    if misses > 0 {
        // Thread-level stall until the architectural latency assumption
        // holds again (§IV: less-than-or-equal machine). Overlapping misses
        // within one issue share the penalty window.
        *stall_until = (*stall_until).max(cycle + 1 + mem.miss_penalty as u64);
        stats.dmiss_stall_cycles += mem.miss_penalty as u64;
    }

    IssueOutcome {
        ops: issued_now,
        completed,
        dmiss: misses > 0,
        clusters: placed,
        comm_held,
    }
}

/// Rotates the low `n` bits of `mask` left by `r` (cluster renaming applied
/// to a whole logical-cluster mask at once).
#[inline]
fn rotl_mask(mask: u16, r: u8, n: u8) -> u16 {
    if r == 0 {
        return mask;
    }
    let m = mask as u32;
    (((m << r) | (m >> (n - r))) & ((1u32 << n) - 1)) as u16
}

/// Operation-level fit check for a whole instruction, its bundles treated
/// as indivisible units. The demand side comes from the pre-decoded
/// [`ClusterDemand`] table — bundles never split, so their resource
/// footprint is static and each bundle's check is one packed add against
/// the packet's per-cluster lane word.
#[inline]
fn demand_fits(
    packet: &Packet,
    demands: &[ClusterDemand],
    m: &vex_isa::MachineConfig,
    rename: u8,
) -> bool {
    for d in demands {
        let p = phys_cluster(d.log_cluster, rename, m.n_clusters);
        if !packet.demand_fits_packed(p, d.packed) {
            return false;
        }
    }
    true
}
