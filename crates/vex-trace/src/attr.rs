//! Replay: turn an event stream back into per-cycle attribution.
//!
//! [`attribute`] reconstructs, for every context and every simulated
//! cycle, *why that cycle was spent*, by replaying the engine's stall
//! semantics from the raw events:
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

/// One claimed stall interval `[start, end)` of a thread.
struct StallSpan {
    start: u64,
    end: u64,
    bin: Bin,
}

/// Per-thread replay state gathered in the single pass over the events.
#[derive(Default)]
struct ThreadTape {
    /// Cycles with an `Issue` event (one per cycle at most), in order.
    issue_cycles: Vec<u64>,
    /// Claimed stall spans, non-overlapping, sorted by start.
    stalls: Vec<StallSpan>,
    /// High-water mark of `stall_until` (the engine's `max` rule).
    until: u64,
    /// Cycles with a `CommHold` event, in order.
    holds: Vec<u64>,
    /// Cycles at which the context was slotted / unslotted: intervals
    /// `[start, end)`, sorted.
    slots: Vec<(u64, u64)>,
    slotted_since: Option<u64>,
    retire: Option<u64>,
    splits: u64,
    split_parts: u64,
}

impl ThreadTape {
    /// Claims the extension a stall event adds beyond the current
    /// high-water mark, replicating `stall_until = max(stall_until, end)`.
    fn claim(&mut self, start: u64, end: u64, bin: Bin) {
        let claim_start = start.max(self.until);
        if end > self.until {
            self.stalls.push(StallSpan {
                start: claim_start,
                end,
                bin,
            });
            self.until = end;
        }
    }
}

/// Replays `events` (recorded under `meta`) into an [`Attribution`].
///
/// Fails when the stream is structurally unusable: no `End` record (the
/// run was never finalized), or an event referencing a context outside
/// the header's geometry.
pub fn attribute(meta: &TraceMeta, events: &[TraceEvent]) -> Result<Attribution, String> {
    let nt = meta.n_contexts as usize;
    let total = events
        .iter()
        .rev()
        .find_map(|e| match e {
            TraceEvent::End { cycle } => Some(*cycle),
            _ => None,
        })
        .ok_or_else(|| {
            "trace has no End record — the run was not finalized (or the ring sink \
             dropped it); re-record with a larger ring or a file sink"
                .to_string()
        })?;

    let mut tapes: Vec<ThreadTape> = (0..nt).map(|_| ThreadTape::default()).collect();
    let mut clusters = vec![ClusterUse::default(); meta.n_clusters as usize];
    let mut cluster_last_busy = vec![u64::MAX; meta.n_clusters as usize];
    // Global pipeline-freeze windows [start, end), in order.
    let mut global: Vec<(u64, u64)> = Vec::new();
    // Current slot → context mapping, diffed at each SlotAssign batch.
    let mut slot_owner = vec![NO_CTX; meta.hw_threads as usize];
    // Issue-cycle aggregation: (cycle, #threads issuing ops > 0).
    let mut cur_issue: Option<(u64, u32)> = None;
    let mut issue_cycles = 0u64;
    let mut merged_cycles = 0u64;

    let tape = |tapes: &mut Vec<ThreadTape>, t: u16| -> Result<usize, String> {
        let i = t as usize;
        if i >= tapes.len() {
            return Err(format!(
                "trace references context {i} but the header declares {} contexts",
                tapes.len()
            ));
        }
        Ok(i)
    };

    let mut i = 0usize;
    while i < events.len() {
        match events[i] {
            TraceEvent::Issue {
                cycle,
                thread,
                ops,
                clusters: mask,
                ..
            } => {
                let t = tape(&mut tapes, thread)?;
                tapes[t].issue_cycles.push(cycle);
                if ops > 0 {
                    match cur_issue {
                        Some((c, ref mut n)) if c == cycle => *n += 1,
                        _ => {
                            if let Some((_, n)) = cur_issue {
                                issue_cycles += 1;
                                if n >= 2 {
                                    merged_cycles += 1;
                                }
                            }
                            cur_issue = Some((cycle, 1));
                        }
                    }
                }
                let mut m = mask;
                while m != 0 {
                    let c = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if let Some(u) = clusters.get_mut(c) {
                        u.issue_events += 1;
                        if cluster_last_busy[c] != cycle {
                            cluster_last_busy[c] = cycle;
                            u.busy_cycles += 1;
                        }
                    }
                }
            }
            TraceEvent::IMissStall {
                cycle,
                thread,
                penalty,
            } => {
                let t = tape(&mut tapes, thread)?;
                tapes[t].claim(cycle, cycle + penalty as u64, Bin::IMiss);
            }
            TraceEvent::DMissStall {
                cycle,
                thread,
                penalty,
            } => {
                let t = tape(&mut tapes, thread)?;
                tapes[t].claim(cycle + 1, cycle + 1 + penalty as u64, Bin::DMiss);
            }
            TraceEvent::BranchStall {
                cycle,
                thread,
                penalty,
            } => {
                let t = tape(&mut tapes, thread)?;
                tapes[t].claim(cycle + 1, cycle + 1 + penalty as u64, Bin::Branch);
            }
            TraceEvent::MemPortStall { cycle, cycles } => {
                global.push((cycle + 1, cycle + 1 + cycles as u64));
            }
            TraceEvent::CommHold { cycle, thread } => {
                let t = tape(&mut tapes, thread)?;
                tapes[t].holds.push(cycle);
            }
            TraceEvent::SplitCommit { thread, parts, .. } => {
                let t = tape(&mut tapes, thread)?;
                tapes[t].splits += 1;
                tapes[t].split_parts += parts as u64;
            }
            TraceEvent::SlotAssign { cycle, .. } => {
                // The engine re-emits the whole mapping in one batch of
                // consecutive same-cycle records; consume the batch and
                // diff it against the previous mapping so a context that
                // merely moved between slots keeps one open interval.
                let mut next_owner = slot_owner.clone();
                while i < events.len() {
                    let TraceEvent::SlotAssign {
                        cycle: c,
                        slot,
                        ctx,
                    } = events[i]
                    else {
                        break;
                    };
                    if c != cycle {
                        break;
                    }
                    if let Some(o) = next_owner.get_mut(slot as usize) {
                        *o = ctx;
                    }
                    i += 1;
                }
                for t in 0..nt as u16 {
                    let was = slot_owner.contains(&t);
                    let is = next_owner.contains(&t);
                    if !was && is {
                        tapes[t as usize].slotted_since = Some(cycle);
                    } else if was && !is {
                        if let Some(since) = tapes[t as usize].slotted_since.take() {
                            tapes[t as usize].slots.push((since, cycle));
                        }
                    }
                }
                slot_owner = next_owner;
                continue; // `i` already advanced past the batch
            }
            TraceEvent::Retire { cycle, thread } => {
                let t = tape(&mut tapes, thread)?;
                tapes[t].retire.get_or_insert(cycle);
            }
            TraceEvent::End { .. } => {}
        }
        i += 1;
    }
    if let Some((_, n)) = cur_issue {
        issue_cycles += 1;
        if n >= 2 {
            merged_cycles += 1;
        }
    }
    for tape in &mut tapes {
        if let Some(since) = tape.slotted_since.take() {
            tape.slots.push((since, total));
        }
    }
    let memport_cycles: u64 = global
        .iter()
        .map(|&(s, e)| e.min(total).saturating_sub(s))
        .sum();

    // Binning walk: one pass over [0, total) per thread with cursors into
    // the per-thread tapes (all sorted by construction). Each step bins a
    // whole run of cycles: from `c` up to the next edge at which a cursor
    // moves or a precedence test flips, so the walk is O(events), not
    // O(cycles), and a corrupted `End` cycle cannot make it hang.
    let mut threads = Vec::with_capacity(nt);
    for tape in &tapes {
        let mut bins = [0u64; Bin::COUNT];
        let (mut ii, mut is, mut ih, mut isl, mut ig) = (0, 0, 0, 0, 0);
        let mut c = 0;
        while c < total {
            while ii < tape.issue_cycles.len() && tape.issue_cycles[ii] < c {
                ii += 1;
            }
            while is < tape.stalls.len() && tape.stalls[is].end <= c {
                is += 1;
            }
            while ih < tape.holds.len() && tape.holds[ih] < c {
                ih += 1;
            }
            while isl < tape.slots.len() && tape.slots[isl].1 <= c {
                isl += 1;
            }
            while ig < global.len() && global[ig].1 <= c {
                ig += 1;
            }

            let bin = if ii < tape.issue_cycles.len() && tape.issue_cycles[ii] == c {
                Bin::Issue
            } else if tape.retire.is_some_and(|r| c >= r) {
                Bin::Retired
            } else if ig < global.len() && global[ig].0 <= c {
                Bin::MemPort
            } else if is < tape.stalls.len() && tape.stalls[is].start <= c {
                tape.stalls[is].bin
            } else if ih < tape.holds.len() && tape.holds[ih] == c {
                Bin::CommHold
            } else if isl < tape.slots.len() && tape.slots[isl].0 <= c {
                Bin::Conflict
            } else {
                Bin::Unslotted
            };

            // The run ends at the next edge: the next issue cycle and the
            // cycle after it, stall and freeze start and end, a hold cycle
            // and the cycle after it, slot start and end, and retire. An
            // issue cycle is a run of one (its own next edge is `c + 1`).
            let next = if bin == Bin::Issue {
                c + 1
            } else {
                let mut next = total;
                let mut edge = |e: u64| {
                    if e > c {
                        next = next.min(e);
                    }
                };
                if let Some(&i) = tape.issue_cycles.get(ii) {
                    edge(i);
                }
                if let Some(s) = tape.stalls.get(is) {
                    edge(s.start);
                    edge(s.end);
                }
                if let Some(&h) = tape.holds.get(ih) {
                    edge(h);
                    edge(h.saturating_add(1));
                }
                if let Some(&(start, end)) = tape.slots.get(isl) {
                    edge(start);
                    edge(end);
                }
                if let Some(&(start, end)) = global.get(ig) {
                    edge(start);
                    edge(end);
                }
                if let Some(r) = tape.retire {
                    edge(r);
                }
                next
            };
            bins[bin.index()] += next - c;
            c = next;
        }
        threads.push(bins);
    }

    let attr = Attribution {
        total_cycles: total,
        threads,
        clusters,
        issue_cycles,
        merged_cycles,
        memport_cycles,
        split_instructions: tapes.iter().map(|t| t.splits).collect(),
        split_parts: tapes.iter().map(|t| t.split_parts).collect(),
    };
    attr.verify_identity()?;
    Ok(attr)
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
}
