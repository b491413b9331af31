//! Replay: turn an event stream back into per-cycle attribution.
//!
//! [`Attributor`] reconstructs, for every context and every simulated
//! cycle, *why that cycle was spent*, by replaying the engine's stall
//! semantics from the raw events in one streaming pass ([`attribute`]
//! runs it over a slice, [`attribute_stream`] over a `.vext` reader):
//!
//! * an I$ miss at cycle `c` stalls its thread for `[c, c + penalty)`;
//! * a D$ miss or taken branch at `c` stalls for `[c + 1, c + 1 + penalty)`,
//!   merged under the engine's `stall_until = max(...)` rule — a later
//!   event only claims the cycles it *extends* the window by, so every
//!   stalled cycle is attributed to exactly one cause (the first event
//!   that covered it);
//! * a memory-port overflow at `c` freezes the whole pipeline for
//!   `[c + 1, c + 1 + overflow)`, clamped to the end of the run (the
//!   drain is abandoned if the run terminates first).
//!
//! Each (thread, cycle) pair lands in exactly **one** [`Bin`], decided by
//! a fixed precedence (highest first):
//!
//! 1. [`Bin::Issue`] — the thread placed work (or completed a vertical
//!    NOP) this cycle; an issuing thread is definitionally active.
//! 2. [`Bin::Retired`] — the thread's program is over.
//! 3. [`Bin::MemPort`] — the global memory-port freeze covers the cycle;
//!    it outranks thread-local stalls because nothing can progress.
//! 4. [`Bin::DMiss`] / [`Bin::IMiss`] / [`Bin::Branch`] — thread-local
//!    stall window, binned by the cause that claimed the cycle.
//! 5. [`Bin::CommHold`] — runnable, but the NS comm policy forced the
//!    pending instruction whole and it did not fit.
//! 6. [`Bin::Conflict`] — slotted and runnable, yet nothing issued: an
//!    FU/merge conflict, or the thread lost the cycle to a
//!    higher-priority thread under single-issue multithreading.
//! 7. [`Bin::Unslotted`] — not scheduled onto a hardware slot.
//!
//! Because the classification is a total function over
//! `threads × [0, total_cycles)`, each thread's bins **sum exactly to the
//! run's total cycles** — the identity `vex trace --attribute` asserts
//! and the test suite pins against `SimStats`.

use crate::event::{TraceEvent, TraceMeta, NO_CTX};
use crate::format::TraceReader;
use std::collections::VecDeque;
use std::io::Read;

/// Why a context spent a cycle. See the module docs for the exact
/// precedence between overlapping explanations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bin {
    /// Issued work into the packet (or completed a vertical NOP).
    Issue,
    /// Stalled on a data-cache miss.
    DMiss,
    /// Stalled on an instruction-fetch miss.
    IMiss,
    /// Redirecting after a taken branch.
    Branch,
    /// Frozen with the whole pipeline by memory-port over-subscription.
    MemPort,
    /// Held whole by the no-split communication policy and did not fit.
    CommHold,
    /// Runnable but issued nothing: FU/merge conflict or lost priority.
    Conflict,
    /// Not assigned to a hardware slot.
    Unslotted,
    /// Program retired.
    Retired,
}

impl Bin {
    /// All bins, in display order.
    pub const ALL: [Bin; 9] = [
        Bin::Issue,
        Bin::DMiss,
        Bin::IMiss,
        Bin::Branch,
        Bin::MemPort,
        Bin::CommHold,
        Bin::Conflict,
        Bin::Unslotted,
        Bin::Retired,
    ];
    /// Number of bins.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable lowercase label (used in tables, JSON and snapshots).
    pub fn label(self) -> &'static str {
        match self {
            Bin::Issue => "issue",
            Bin::DMiss => "dmiss",
            Bin::IMiss => "imiss",
            Bin::Branch => "branch",
            Bin::MemPort => "memport",
            Bin::CommHold => "commhold",
            Bin::Conflict => "conflict",
            Bin::Unslotted => "unslotted",
            Bin::Retired => "retired",
        }
    }

    /// Index into a `[u64; Bin::COUNT]` bin array.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Physical-cluster occupancy derived from the issue events.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ClusterUse {
    /// Cycles in which at least one operation issued to the cluster.
    pub busy_cycles: u64,
    /// Issue events (thread-cycles) that placed work on the cluster.
    pub issue_events: u64,
}

/// The replayed attribution of one trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Attribution {
    /// Total simulated cycles (from the final `End` record).
    pub total_cycles: u64,
    /// Per-context cycle bins, indexed by [`Bin::index`]. Each row sums
    /// to [`Attribution::total_cycles`] (checked by [`Attribution::verify_identity`]).
    pub threads: Vec<[u64; Bin::COUNT]>,
    /// Per-physical-cluster occupancy.
    pub clusters: Vec<ClusterUse>,
    /// Cycles in which at least one thread issued ≥ 1 operation
    /// (complements `SimStats::empty_cycles`).
    pub issue_cycles: u64,
    /// Cycles in which ≥ 2 threads issued operations
    /// (mirrors `SimStats::merged_cycles`).
    pub merged_cycles: u64,
    /// Pipeline-freeze cycles actually spent draining memory-port
    /// over-subscription (mirrors `SimStats::memport_stall_cycles`).
    pub memport_cycles: u64,
    /// Per-context count of instructions that issued in ≥ 2 parts.
    pub split_instructions: Vec<u64>,
    /// Per-context total parts over those split instructions.
    pub split_parts: Vec<u64>,
}

impl Attribution {
    /// Total of `bin` across all contexts.
    pub fn total(&self, bin: Bin) -> u64 {
        self.threads.iter().map(|t| t[bin.index()]).sum()
    }

    /// Checks the defining identity: every context's bins sum exactly to
    /// the run's total cycles. Returns the offending context on failure.
    pub fn verify_identity(&self) -> Result<(), String> {
        for (i, bins) in self.threads.iter().enumerate() {
            let sum: u64 = bins.iter().sum();
            if sum != self.total_cycles {
                return Err(format!(
                    "attribution identity violated: thread {i} bins sum to {sum}, \
                     run has {} cycles",
                    self.total_cycles
                ));
            }
        }
        Ok(())
    }
}

/// One claimed stall interval `[start, end)` of a context.
struct StallSpan {
    start: u64,
    end: u64,
    bin: Bin,
}

/// One context's replay state. Its cycles before `binned` are in `bins`;
/// the rest of the state describes the cycles from `binned` on.
#[derive(Default)]
struct Context {
    binned: u64,
    bins: [u64; Bin::COUNT],
    /// Claimed stall spans not yet binned past: disjoint, sorted.
    stalls: VecDeque<StallSpan>,
    /// High-water mark of `stall_until` (the engine's `max` rule).
    until: u64,
    /// The cycle of the latest `CommHold`, until it is binned.
    hold: Option<u64>,
    /// Hardware slots currently running the context.
    slots: u32,
    retired: bool,
    splits: u64,
    split_parts: u64,
}

impl Context {
    /// Claims the extension a stall event adds beyond the current
    /// high-water mark, replicating `stall_until = max(stall_until, end)`.
    fn claim(&mut self, start: u64, end: u64, bin: Bin) {
        if end > self.until {
            self.stalls.push_back(StallSpan {
                start: start.max(self.until),
                end,
                bin,
            });
            self.until = end;
        }
    }

    /// Bins the cycles `[binned, to)`. Nothing that happens at or after
    /// the current record's cycle can change them, and no issue falls in
    /// them (an issue is binned as it arrives), so the context's own state
    /// changes only at its stall-span edges and its hold cycle: each step
    /// bins one run of cycles up to the next of those edges, and the
    /// freeze windows over the run take their cycles from its bin.
    fn bin_to(&mut self, to: u64, freezes: &Freezes) {
        let mut c = self.binned;
        if c >= to {
            return;
        }
        self.binned = to;
        if self.retired {
            self.bins[Bin::Retired.index()] += to - c;
            return;
        }
        let idle = if self.slots > 0 {
            Bin::Conflict
        } else {
            Bin::Unslotted
        };
        while c < to {
            while self.stalls.front().is_some_and(|s| s.end <= c) {
                self.stalls.pop_front();
            }
            let (end, bin) = match self.stalls.front() {
                Some(s) if s.start <= c => (s.end.min(to), s.bin),
                next => {
                    let next = next.map_or(to, |s| s.start.min(to));
                    match self.hold {
                        Some(h) if h == c => (c + 1, Bin::CommHold),
                        Some(h) if h > c => (h.min(next), idle),
                        _ => (next, idle),
                    }
                }
            };
            let frozen = freezes.within(c, end);
            self.bins[Bin::MemPort.index()] += frozen;
            self.bins[bin.index()] += end - c - frozen;
            c = end;
        }
        if self.hold.is_some_and(|h| h < to) {
            self.hold = None;
        }
    }

    fn set_slots(&mut self, slots: u32, now: u64, freezes: &Freezes) {
        if (slots > 0) != (self.slots > 0) {
            self.bin_to(now, freezes);
        }
        self.slots = slots;
    }
}

/// The union of the memory-port freeze windows: disjoint spans in cycle
/// order, each with the frozen cycles before it, so the frozen cycles in
/// any range are a difference of two prefix counts.
#[derive(Default)]
struct Freezes {
    /// `(start, end, frozen cycles before start)`.
    spans: VecDeque<(u64, u64, u64)>,
    /// Frozen cycles over every span, dropped ones included.
    frozen: u64,
}

impl Freezes {
    /// Adds the window `[start, end)`; starts arrive in nondecreasing
    /// order, so the window extends the last span or follows it.
    fn add(&mut self, start: u64, end: u64) {
        match self.spans.back_mut() {
            Some(last) if start <= last.1 => {
                let extra = end.saturating_sub(last.1);
                last.1 += extra;
                self.frozen += extra;
            }
            _ if end > start => {
                self.spans.push_back((start, end, self.frozen));
                self.frozen += end - start;
            }
            _ => {}
        }
    }

    /// Frozen cycles before `x`, which must not precede a dropped span's
    /// end.
    fn before(&self, x: u64) -> u64 {
        match self.spans.partition_point(|s| s.0 <= x).checked_sub(1) {
            Some(i) => {
                let (start, end, before) = self.spans[i];
                before + x.min(end) - start
            }
            None => self.spans.front().map_or(self.frozen, |s| s.2),
        }
    }

    /// Frozen cycles in `[from, to)`.
    fn within(&self, from: u64, to: u64) -> u64 {
        if self.spans.back().map_or(true, |s| s.1 <= from) {
            return 0;
        }
        self.before(to) - self.before(from)
    }
}

/// Per-bit counts over a stream of 16-bit masks. A mask is added into
/// sixteen byte-wide counters, packed two words wide, with two table
/// lookups and two adds; the bytes are folded into the totals before one
/// can overflow.
#[derive(Default)]
struct BitCounts {
    totals: [u64; 16],
    bytes: [u64; 2],
    pending: u8,
}

/// Byte `b` of `SPREAD[m]` is bit `b` of `m`.
const SPREAD: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        let mut b = 0;
        while b < 8 {
            t[m] |= ((m as u64) >> b & 1) << (8 * b);
            b += 1;
        }
        m += 1;
    }
    t
};

impl BitCounts {
    fn add(&mut self, mask: u16) {
        self.bytes[0] += SPREAD[usize::from(mask & 0xFF)];
        self.bytes[1] += SPREAD[usize::from(mask >> 8)];
        self.pending += 1;
        if self.pending == u8::MAX {
            self.fold();
        }
    }

    fn fold(&mut self) {
        for (bit, n) in self.totals.iter_mut().enumerate() {
            *n += self.bytes[bit / 8] >> (bit % 8 * 8) & 0xFF;
        }
        self.bytes = [0; 2];
        self.pending = 0;
    }

    fn totals(&mut self) -> [u64; 16] {
        self.fold();
        self.totals
    }
}

/// Spans [`Freezes`] may hold (or one per context, if that is more)
/// before the [`Attributor`] bins every context up to the current cycle
/// and drops the spans behind it; each span thus pays O(1) binning.
const FREEZE_SPANS: usize = 1024;

/// The issue records of one cycle, aggregated into the cycle-level tallies
/// when the next cycle's first issue arrives.
#[derive(Default)]
struct IssueCycle {
    cycle: u64,
    /// Records that issued ≥ 1 operation.
    issuers: u64,
    /// Union of the records' cluster masks.
    clusters: u16,
}

/// Replays an event stream into an [`Attribution`] online, one record at a
/// time, in memory O(contexts + clusters + open freeze windows).
///
/// [`Attributor::push`] validates each record and rejects the stream at
/// the first bad one, naming its index: a cycle lower than the previous
/// record's, a context or slot outside the header's geometry, a stall,
/// freeze or issue that ends past `u64::MAX`, an `End` before the last
/// issue, and (at [`Attributor::finish`]) a record after the final `End`.
///
/// A context is binned lazily, only when its state changes: at an issue
/// (the cycles before it, then the issue cycle itself), a stall, hold or
/// retire record naming it, a `SlotAssign` that slots or unslots it, and
/// at `finish`. A record thus costs amortized constant work plus a
/// binary search among the held freeze spans, whatever the header's
/// geometry.
pub struct Attributor {
    contexts: Vec<Context>,
    /// Slot → context mapping ([`NO_CTX`] = empty).
    slot_owner: Vec<u16>,
    n_clusters: usize,
    /// Issue events per cluster.
    cluster_issues: BitCounts,
    /// Busy cycles per cluster.
    cluster_busy: [u64; 16],
    freezes: Freezes,
    issue: IssueCycle,
    issue_cycles: u64,
    merged_cycles: u64,
    /// Index of the next record.
    record: u64,
    /// Cycle of the previous record.
    now: u64,
    /// One past the latest issue cycle: no `End` may precede it.
    issued_to: u64,
    /// Cycle of the latest `End`.
    end: Option<u64>,
    /// The first record after the latest `End`.
    after_end: Option<u64>,
}

impl Attributor {
    /// An attributor for a stream recorded under `meta`.
    pub fn new(meta: &TraceMeta) -> Self {
        Attributor {
            contexts: (0..meta.n_contexts).map(|_| Context::default()).collect(),
            slot_owner: vec![NO_CTX; meta.hw_threads as usize],
            n_clusters: meta.n_clusters as usize,
            cluster_issues: BitCounts::default(),
            cluster_busy: [0; 16],
            freezes: Freezes::default(),
            issue: IssueCycle::default(),
            issue_cycles: 0,
            merged_cycles: 0,
            record: 0,
            now: 0,
            issued_to: 0,
            end: None,
            after_end: None,
        }
    }

    /// Replays one record. After an error the stream is unusable.
    pub fn push(&mut self, ev: &TraceEvent) -> Result<(), String> {
        let i = self.record;
        self.record += 1;
        let cycle = ev.cycle();
        if cycle < self.now {
            return Err(format!(
                "record {i}: cycle {cycle} is lower than the previous record's cycle {}",
                self.now
            ));
        }
        self.now = cycle;
        // `cycle + len`, which must not overflow.
        let plus = |len: u64| {
            cycle.checked_add(len).ok_or_else(|| {
                format!("record {i}: cycle {cycle} plus {len} overflows the cycle counter")
            })
        };
        if self.end.is_some() && self.after_end.is_none() && !matches!(ev, TraceEvent::End { .. }) {
            self.after_end = Some(i);
        }
        match *ev {
            TraceEvent::Issue {
                thread,
                ops,
                clusters: mask,
                ..
            } => {
                let next = plus(1)?;
                let t = self.context(i, thread)?;
                let ctx = &mut self.contexts[t];
                ctx.bin_to(cycle, &self.freezes);
                if ctx.binned == cycle {
                    ctx.bins[Bin::Issue.index()] += 1;
                    ctx.binned = next;
                }
                self.issued_to = next;
                if cycle != self.issue.cycle {
                    self.close_issue_cycle();
                    self.issue.cycle = cycle;
                }
                self.issue.issuers += u64::from(ops > 0);
                self.issue.clusters |= mask;
                self.cluster_issues.add(mask);
            }
            TraceEvent::IMissStall {
                thread, penalty, ..
            } => {
                let end = plus(penalty.into())?;
                self.stall(i, thread, cycle, end, Bin::IMiss)?;
            }
            TraceEvent::DMissStall {
                thread, penalty, ..
            } => {
                let end = plus(1 + u64::from(penalty))?;
                self.stall(i, thread, cycle + 1, end, Bin::DMiss)?;
            }
            TraceEvent::BranchStall {
                thread, penalty, ..
            } => {
                let end = plus(1 + u64::from(penalty))?;
                self.stall(i, thread, cycle + 1, end, Bin::Branch)?;
            }
            TraceEvent::MemPortStall { cycles, .. } => {
                let end = plus(1 + u64::from(cycles))?;
                self.freezes.add(cycle + 1, end);
                if self.freezes.spans.len() > FREEZE_SPANS.max(self.contexts.len()) {
                    for ctx in &mut self.contexts {
                        ctx.bin_to(cycle, &self.freezes);
                    }
                    while self.freezes.spans.front().is_some_and(|s| s.1 <= cycle) {
                        self.freezes.spans.pop_front();
                    }
                }
            }
            TraceEvent::CommHold { thread, .. } => {
                let t = self.context(i, thread)?;
                let ctx = &mut self.contexts[t];
                ctx.bin_to(cycle, &self.freezes);
                ctx.hold = Some(cycle);
            }
            TraceEvent::SplitCommit { thread, parts, .. } => {
                let t = self.context(i, thread)?;
                self.contexts[t].splits += 1;
                self.contexts[t].split_parts += u64::from(parts);
            }
            TraceEvent::SlotAssign { slot, ctx, .. } => {
                if ctx != NO_CTX {
                    self.context(i, ctx)?;
                }
                let Some(owner) = self.slot_owner.get_mut(slot as usize) else {
                    return Err(format!(
                        "record {i}: slot {slot} is outside the header's {} hardware threads",
                        self.slot_owner.len()
                    ));
                };
                let old = std::mem::replace(owner, ctx);
                if old != ctx {
                    if old != NO_CTX {
                        let c = &mut self.contexts[old as usize];
                        c.set_slots(c.slots - 1, cycle, &self.freezes);
                    }
                    if ctx != NO_CTX {
                        let c = &mut self.contexts[ctx as usize];
                        c.set_slots(c.slots + 1, cycle, &self.freezes);
                    }
                }
            }
            TraceEvent::Retire { thread, .. } => {
                let t = self.context(i, thread)?;
                self.contexts[t].bin_to(cycle, &self.freezes);
                self.contexts[t].retired = true;
            }
            TraceEvent::End { .. } => {
                if cycle < self.issued_to {
                    return Err(format!(
                        "record {i}: End at cycle {cycle} precedes the issue at cycle {}",
                        self.issued_to - 1
                    ));
                }
                self.end = Some(cycle);
                self.after_end = None;
            }
        }
        Ok(())
    }

    /// Bins what is left up to the final `End` and returns the attribution.
    ///
    /// Fails when the stream is unusable: no `End` record (the run was
    /// never finalized), or a record after the final `End`.
    pub fn finish(mut self) -> Result<Attribution, String> {
        let total = self.end.ok_or_else(|| {
            "trace has no End record — the run was not finalized (or the ring sink \
             dropped it); re-record with a larger ring or a file sink"
                .to_string()
        })?;
        if let Some(i) = self.after_end {
            return Err(format!("record {i} follows the final End record"));
        }
        self.close_issue_cycle();
        for ctx in &mut self.contexts {
            ctx.bin_to(total, &self.freezes);
        }
        let mut clusters = vec![ClusterUse::default(); self.n_clusters];
        for ((u, &busy), issues) in clusters
            .iter_mut()
            .zip(&self.cluster_busy)
            .zip(self.cluster_issues.totals())
        {
            u.busy_cycles = busy;
            u.issue_events = issues;
        }
        let attr = Attribution {
            total_cycles: total,
            threads: self.contexts.iter().map(|c| c.bins).collect(),
            clusters,
            issue_cycles: self.issue_cycles,
            merged_cycles: self.merged_cycles,
            memport_cycles: self.freezes.before(total),
            split_instructions: self.contexts.iter().map(|c| c.splits).collect(),
            split_parts: self.contexts.iter().map(|c| c.split_parts).collect(),
        };
        attr.verify_identity()?;
        Ok(attr)
    }

    fn context(&self, i: u64, thread: u16) -> Result<usize, String> {
        let t = thread as usize;
        if t >= self.contexts.len() {
            return Err(format!(
                "record {i}: trace references context {t} but the header declares {} contexts",
                self.contexts.len()
            ));
        }
        Ok(t)
    }

    fn stall(&mut self, i: u64, thread: u16, start: u64, end: u64, bin: Bin) -> Result<(), String> {
        let t = self.context(i, thread)?;
        let ctx = &mut self.contexts[t];
        ctx.bin_to(self.now, &self.freezes);
        ctx.claim(start, end, bin);
        Ok(())
    }

    /// Folds the aggregated issue cycle into the cycle-level tallies.
    fn close_issue_cycle(&mut self) {
        let issue = std::mem::take(&mut self.issue);
        if issue.issuers > 0 {
            self.issue_cycles += 1;
            self.merged_cycles += u64::from(issue.issuers >= 2);
        }
        for (bit, n) in self.cluster_busy.iter_mut().enumerate() {
            *n += u64::from(issue.clusters >> bit & 1);
        }
    }
}

/// Replays `events` (recorded under `meta`) into an [`Attribution`]
/// through one [`Attributor`].
pub fn attribute(meta: &TraceMeta, events: &[TraceEvent]) -> Result<Attribution, String> {
    let mut attributor = Attributor::new(meta);
    for ev in events {
        attributor.push(ev)?;
    }
    attributor.finish()
}

/// Streams a `.vext` trace out of `source` through one [`TraceReader`]
/// and one [`Attributor`], in constant memory: the path `vex trace
/// --attribute` takes.
pub fn attribute_stream(source: impl Read) -> Result<(TraceMeta, Attribution), String> {
    let reader = TraceReader::new(source)?;
    let meta = reader.meta();
    let mut attributor = Attributor::new(&meta);
    for ev in reader {
        attributor.push(&ev?)?;
    }
    Ok((meta, attributor.finish()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(nt: u16, hw: u16, nc: u16) -> TraceMeta {
        TraceMeta {
            n_contexts: nt,
            hw_threads: hw,
            n_clusters: nc,
        }
    }

    fn slot(cycle: u64, slot: u16, ctx: u16) -> TraceEvent {
        TraceEvent::SlotAssign { cycle, slot, ctx }
    }

    fn issue(cycle: u64, thread: u16, ops: u16, clusters: u16) -> TraceEvent {
        TraceEvent::Issue {
            cycle,
            thread,
            inst: 0,
            ops,
            clusters,
            completed: true,
        }
    }

    #[test]
    fn missing_end_record_is_an_error() {
        let err = attribute(&meta(1, 1, 1), &[issue(0, 0, 1, 1)]).unwrap_err();
        assert!(err.contains("End record"), "{err}");
    }

    /// One thread, slotted the whole run, which ends at cycle `end`:
    ///   c0 issue, c1 dmiss-event issue, c2..=4 dmiss stall (pen 3),
    ///   c5 issue+memport overflow 2, c6..=7 global freeze,
    ///   c8 conflict (no event), c9 issue (halt) + retire.
    fn hand_built_stream(end: u64) -> [TraceEvent; 9] {
        [
            slot(0, 0, 0),
            issue(0, 0, 2, 0b1),
            issue(1, 0, 1, 0b10),
            TraceEvent::DMissStall {
                cycle: 1,
                thread: 0,
                penalty: 3,
            },
            issue(5, 0, 2, 0b1),
            TraceEvent::MemPortStall {
                cycle: 5,
                cycles: 2,
            },
            issue(9, 0, 1, 0b1),
            TraceEvent::Retire {
                cycle: 9,
                thread: 0,
            },
            TraceEvent::End { cycle: end },
        ]
    }

    #[test]
    fn hand_built_stream_bins_every_cycle_once() {
        let a = attribute(&meta(1, 1, 2), &hand_built_stream(10)).unwrap();
        assert_eq!(a.total_cycles, 10);
        let bins = &a.threads[0];
        assert_eq!(bins[Bin::Issue.index()], 4, "{bins:?}");
        assert_eq!(bins[Bin::DMiss.index()], 3, "{bins:?}");
        assert_eq!(bins[Bin::MemPort.index()], 2, "{bins:?}");
        assert_eq!(bins[Bin::Conflict.index()], 1, "{bins:?}");
        assert_eq!(a.memport_cycles, 2);
        assert_eq!(a.issue_cycles, 4);
        assert_eq!(a.merged_cycles, 0);
        assert_eq!(a.clusters[0].busy_cycles, 3);
        assert_eq!(a.clusters[1].busy_cycles, 1);
        a.verify_identity().unwrap();
    }

    #[test]
    fn corrupted_end_cycle_bins_the_tail_as_retired_without_walking_it() {
        // The hand-built stream with bit 32 of its `End` cycle set: the
        // walk must bin the four-billion-cycle tail in one step instead of
        // cycle by cycle.
        let total = (1u64 << 32) + 10;
        let a = attribute(&meta(1, 1, 2), &hand_built_stream(total)).unwrap();
        a.verify_identity().unwrap();
        let bins = &a.threads[0];
        assert_eq!(bins[Bin::Retired.index()], total - 10, "{bins:?}");
        assert_eq!(bins[Bin::Issue.index()], 4, "{bins:?}");
        assert_eq!(bins[Bin::DMiss.index()], 3, "{bins:?}");
        assert_eq!(bins[Bin::MemPort.index()], 2, "{bins:?}");
        assert_eq!(bins[Bin::Conflict.index()], 1, "{bins:?}");
    }

    #[test]
    fn overlapping_stalls_attribute_to_the_first_cause() {
        // DMiss at c0 claims [1, 21); a branch at c0 (pen 1) would claim
        // [1, 2) but extends nothing, so every stalled cycle stays dmiss.
        let events = [
            slot(0, 0, 0),
            issue(0, 0, 2, 0b1),
            TraceEvent::DMissStall {
                cycle: 0,
                thread: 0,
                penalty: 20,
            },
            TraceEvent::BranchStall {
                cycle: 0,
                thread: 0,
                penalty: 1,
            },
            TraceEvent::End { cycle: 21 },
        ];
        let a = attribute(&meta(1, 1, 1), &events).unwrap();
        assert_eq!(a.threads[0][Bin::DMiss.index()], 20);
        assert_eq!(a.threads[0][Bin::Branch.index()], 0);
    }

    #[test]
    fn branch_extension_beyond_a_dmiss_claims_only_the_extension() {
        // DMiss at c0 claims [1, 4); branch at c4 claims [5, 10):
        // between them c4 is an issue cycle.
        let events = [
            slot(0, 0, 0),
            issue(0, 0, 2, 0b1),
            TraceEvent::DMissStall {
                cycle: 0,
                thread: 0,
                penalty: 3,
            },
            issue(4, 0, 1, 0b1),
            TraceEvent::BranchStall {
                cycle: 4,
                thread: 0,
                penalty: 5,
            },
            TraceEvent::End { cycle: 10 },
        ];
        let a = attribute(&meta(1, 1, 1), &events).unwrap();
        assert_eq!(a.threads[0][Bin::Issue.index()], 2);
        assert_eq!(a.threads[0][Bin::DMiss.index()], 3);
        assert_eq!(a.threads[0][Bin::Branch.index()], 5);
    }

    #[test]
    fn unslotted_contexts_and_timeslice_switches_bin_correctly() {
        // Two contexts, one slot: ctx0 runs [0, 5), ctx1 runs [5, 10).
        let mut events = vec![slot(0, 0, 0)];
        for c in 0..5 {
            events.push(issue(c, 0, 1, 0b1));
        }
        events.push(slot(5, 0, 1));
        for c in 5..10 {
            events.push(issue(c, 1, 1, 0b1));
        }
        events.push(TraceEvent::End { cycle: 10 });
        let a = attribute(&meta(2, 1, 1), &events).unwrap();
        for t in 0..2 {
            assert_eq!(a.threads[t][Bin::Issue.index()], 5);
            assert_eq!(a.threads[t][Bin::Unslotted.index()], 5);
        }
        assert_eq!(a.clusters[0].busy_cycles, 10);
    }

    #[test]
    fn context_moving_between_slots_stays_slotted() {
        // ctx0 moves from slot 0 to slot 1 at the cycle-4 switch; it must
        // not be counted unslotted anywhere.
        let events = [
            slot(0, 0, 0),
            slot(0, 1, NO_CTX),
            slot(4, 0, NO_CTX),
            slot(4, 1, 0),
            TraceEvent::End { cycle: 8 },
        ];
        let a = attribute(&meta(1, 2, 1), &events).unwrap();
        assert_eq!(a.threads[0][Bin::Conflict.index()], 8);
        assert_eq!(a.threads[0][Bin::Unslotted.index()], 0);
    }

    #[test]
    fn merged_cycles_need_two_threads_issuing_ops() {
        let events = [
            slot(0, 0, 0),
            slot(0, 1, 1),
            issue(0, 0, 1, 0b1),
            issue(0, 1, 1, 0b10),
            issue(1, 0, 1, 0b1),
            TraceEvent::End { cycle: 2 },
        ];
        let a = attribute(&meta(2, 2, 2), &events).unwrap();
        assert_eq!(a.issue_cycles, 2);
        assert_eq!(a.merged_cycles, 1);
    }

    #[test]
    fn commhold_outranks_conflict_and_retired_outranks_stalls() {
        let events = [
            slot(0, 0, 0),
            TraceEvent::CommHold {
                cycle: 0,
                thread: 0,
            },
            TraceEvent::IMissStall {
                cycle: 1,
                thread: 0,
                penalty: 10,
            },
            TraceEvent::Retire {
                cycle: 3,
                thread: 0,
            },
            TraceEvent::End { cycle: 6 },
        ];
        let a = attribute(&meta(1, 1, 1), &events).unwrap();
        let bins = &a.threads[0];
        assert_eq!(bins[Bin::CommHold.index()], 1);
        assert_eq!(bins[Bin::IMiss.index()], 2); // cycles 1..3
        assert_eq!(bins[Bin::Retired.index()], 3); // cycles 3..6
    }

    #[test]
    fn global_freeze_clamps_to_the_end_of_the_run() {
        let events = [
            slot(0, 0, 0),
            issue(0, 0, 1, 0b1),
            TraceEvent::MemPortStall {
                cycle: 0,
                cycles: 100,
            },
            TraceEvent::End { cycle: 5 },
        ];
        let a = attribute(&meta(1, 1, 1), &events).unwrap();
        assert_eq!(a.memport_cycles, 4);
        assert_eq!(a.threads[0][Bin::MemPort.index()], 4);
    }

    #[test]
    fn out_of_range_context_is_rejected() {
        let events = [issue(0, 7, 1, 1), TraceEvent::End { cycle: 1 }];
        let err = attribute(&meta(2, 1, 1), &events).unwrap_err();
        assert!(err.contains("context 7"), "{err}");
    }

    #[test]
    fn freeze_windows_behind_every_context_are_dropped() {
        // ctx0 issues on even cycles, each followed by a one-cycle freeze;
        // ctx1 is never named, so only the periodic drop bins it.
        let n = 3 * FREEZE_SPANS as u64;
        let mut attributor = Attributor::new(&meta(2, 1, 1));
        attributor.push(&slot(0, 0, 0)).unwrap();
        for k in 0..n {
            attributor.push(&issue(2 * k, 0, 1, 0b1)).unwrap();
            let freeze = TraceEvent::MemPortStall {
                cycle: 2 * k,
                cycles: 1,
            };
            attributor.push(&freeze).unwrap();
            assert!(attributor.freezes.spans.len() <= FREEZE_SPANS + 1);
        }
        attributor.push(&TraceEvent::End { cycle: 2 * n }).unwrap();
        let a = attributor.finish().unwrap();
        assert_eq!(a.memport_cycles, n);
        assert_eq!(a.threads[0][Bin::Issue.index()], n);
        assert_eq!(a.threads[0][Bin::MemPort.index()], n);
        assert_eq!(a.threads[1][Bin::MemPort.index()], n);
        assert_eq!(a.threads[1][Bin::Unslotted.index()], n);
    }

    #[test]
    fn a_cycle_lower_than_the_previous_record_is_rejected() {
        // An issue at 50 then one at 10 used to count one issue cycle.
        let events = [
            slot(0, 0, 0),
            issue(50, 0, 1, 0b1),
            issue(10, 0, 1, 0b1),
            TraceEvent::End { cycle: 60 },
        ];
        let err = attribute(&meta(1, 1, 1), &events).unwrap_err();
        assert!(err.starts_with("record 2: cycle 10 is lower"), "{err}");
        // An End at 20 after an issue at 50 used to drop the issue.
        let events = [
            slot(0, 0, 0),
            issue(50, 0, 1, 0b1),
            TraceEvent::End { cycle: 20 },
        ];
        let err = attribute(&meta(1, 1, 1), &events).unwrap_err();
        assert!(err.starts_with("record 2: cycle 20 is lower"), "{err}");
    }

    #[test]
    fn an_end_at_the_cycle_of_an_issue_is_rejected() {
        let events = [
            slot(0, 0, 0),
            issue(5, 0, 1, 0b1),
            TraceEvent::End { cycle: 5 },
        ];
        let err = attribute(&meta(1, 1, 1), &events).unwrap_err();
        assert!(
            err.starts_with("record 2: End at cycle 5 precedes"),
            "{err}"
        );
    }

    #[test]
    fn a_record_after_the_final_end_is_rejected() {
        let events = [
            slot(0, 0, 0),
            issue(0, 0, 1, 0b1),
            TraceEvent::End { cycle: 1 },
            issue(1, 0, 1, 0b1),
        ];
        let err = attribute(&meta(1, 1, 1), &events).unwrap_err();
        assert!(err.contains("record 3 follows the final End"), "{err}");
        // A mid-run snapshot's End is not final.
        let mut events = events.to_vec();
        events.push(TraceEvent::End { cycle: 2 });
        let a = attribute(&meta(1, 1, 1), &events).unwrap();
        assert_eq!(a.total_cycles, 2);
        assert_eq!(a.threads[0][Bin::Issue.index()], 2);
    }

    #[test]
    fn cycle_arithmetic_past_u64_max_is_rejected() {
        let near = u64::MAX - 4;
        for ev in [
            TraceEvent::IMissStall {
                cycle: near,
                thread: 0,
                penalty: 100,
            },
            TraceEvent::DMissStall {
                cycle: near,
                thread: 0,
                penalty: 100,
            },
            TraceEvent::BranchStall {
                cycle: near,
                thread: 0,
                penalty: 100,
            },
            TraceEvent::MemPortStall {
                cycle: near,
                cycles: 100,
            },
            issue(u64::MAX, 0, 1, 0b1),
        ] {
            let events = [slot(0, 0, 0), ev, TraceEvent::End { cycle: u64::MAX }];
            let err = attribute(&meta(1, 1, 1), &events).unwrap_err();
            assert!(err.starts_with("record 1: cycle"), "{ev:?}: {err}");
            assert!(err.contains("overflows"), "{ev:?}: {err}");
        }
    }

    #[test]
    fn slot_assign_outside_the_geometry_is_rejected() {
        let end = TraceEvent::End { cycle: 1 };
        let err = attribute(&meta(2, 1, 1), &[slot(0, 1, 0), end]).unwrap_err();
        assert!(err.starts_with("record 0: slot 1 is outside"), "{err}");
        let err = attribute(&meta(2, 1, 1), &[slot(0, 0, 2), end]).unwrap_err();
        assert!(
            err.starts_with("record 0: trace references context 2"),
            "{err}"
        );
        attribute(&meta(2, 1, 1), &[slot(0, 0, NO_CTX), end]).unwrap();
    }
}
