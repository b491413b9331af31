//! Crash-resume and fault-isolation properties of the sweep runner
//! (docs/ROBUSTNESS.md).
//!
//! The defining property of the journaled runner: for **any** crash point
//! — the journal cut at an arbitrary byte, or garbage appended by a torn
//! concurrent write — resuming the sweep produces JSON *byte-identical*
//! to an uninterrupted run. Wall-clock is the one nondeterministic field,
//! so both sides run with `deterministic_wall` (the CLI's `--zero-wall`).
//! Flipped bytes anywhere in the journal resume byte-identically too, or
//! are refused when they hit the header; a record re-framed around a
//! hostile payload is replayed or refused promptly.
//!
//! The fault-injection properties drive the same grid through
//! [`FaultPlan`]: a panicking point under `keep_going` loses exactly that
//! point, fail-fast skips exactly the tail, and a transient failure with
//! one retry is invisible in the output.
//!
//! All properties run on the full 8-technique grid of Figure 16 (one
//! mix, 2 threads) at a reduced instruction budget.

use clustered_vliw_smt::experiments::journal::crc32;
use clustered_vliw_smt::experiments::{FaultPlan, Journal, PointFailure, SweepRunner};
use clustered_vliw_smt::sim::{Scale, Technique};
use clustered_vliw_smt::spec::{MixSpec, SweepSpec};
use proptest::prelude::*;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The 8-technique grid, small enough to sweep hundreds of times.
fn grid() -> SweepSpec {
    let mut spec = SweepSpec::base(Scale {
        inst_limit: 2_000,
        timeslice: 400,
    });
    spec.techniques = Technique::FIGURE16_SET.iter().map(|(_, t)| *t).collect();
    spec.threads = vec![2];
    spec.mixes = vec![MixSpec::builtin("llll", 7)];
    spec
}

/// A fresh per-case journal path (the suite runs cases in sequence, but
/// `cargo test` may run the test *functions* in parallel).
fn temp_journal(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "vex_crash_resume_{tag}_{}_{n}.vexj",
        std::process::id()
    ))
}

/// The uninterrupted run: its JSON and the complete journal it wrote.
/// Computed once — every property compares against the same baseline.
fn baseline() -> &'static (String, Vec<u8>) {
    static BASE: OnceLock<(String, Vec<u8>)> = OnceLock::new();
    BASE.get_or_init(|| {
        let spec = grid();
        let path = temp_journal("baseline");
        let outcome = SweepRunner::new(&spec)
            .journal(path.to_str().unwrap())
            .deterministic_wall(true)
            .run()
            .expect("uninterrupted sweep");
        assert_eq!(outcome.points.len(), 8, "the full grid completes");
        assert!(outcome.errors.is_empty());
        let journal = std::fs::read(&path).expect("journal exists");
        std::fs::remove_file(&path).ok();
        (outcome.to_json(), journal)
    })
}

/// Runs the grid resuming from `journal_bytes`; returns its JSON and how
/// many points it replayed from the journal, or the sweep's error.
fn try_resume_from(journal_bytes: &[u8], tag: &str) -> Result<(String, usize), String> {
    let spec = grid();
    let path = temp_journal(tag);
    std::fs::write(&path, journal_bytes).expect("seed journal");
    let outcome = SweepRunner::new(&spec)
        .journal(path.to_str().unwrap())
        .resume(true)
        .deterministic_wall(true)
        .run();
    std::fs::remove_file(&path).ok();
    let outcome = outcome?;
    assert_eq!(outcome.points.len(), 8);
    assert!(outcome.errors.is_empty());
    let replayed = outcome.points.iter().filter(|p| p.resumed).count();
    Ok((outcome.to_json(), replayed))
}

/// Runs the grid resuming from `journal_bytes` and returns its JSON.
fn resume_from(journal_bytes: &[u8], tag: &str) -> String {
    try_resume_from(journal_bytes, tag)
        .expect("resumed sweep")
        .0
}

/// Length of the journal's `VEXJ 1\n` header.
const MAGIC_LEN: usize = 7;

/// Byte ranges of a journal's records (frame header, payload and final
/// newline), after its header.
fn record_spans(journal: &[u8]) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut pos = MAGIC_LEN;
    while pos < journal.len() {
        let nl = pos + header_end(&journal[pos..]);
        let header = std::str::from_utf8(&journal[pos + 1..nl]).expect("frame header");
        let len_hex = header.split_once(' ').expect("`<len> <crc>`").0;
        let end = nl + usize::from_str_radix(len_hex, 16).expect("hex length") + 2;
        spans.push(pos..end);
        pos = end;
    }
    spans
}

/// The payload of the record at `span`.
fn payload(journal: &[u8], span: Range<usize>) -> &[u8] {
    let record = &journal[span];
    &record[header_end(record) + 1..record.len() - 1]
}

/// Whether `flipped` still holds the record at `span` of `journal`
/// intact: unchanged, except for hex letters of its frame header whose
/// case changed, which parse to the same length and CRC.
fn intact(journal: &[u8], flipped: &[u8], span: &Range<usize>) -> bool {
    let nl = span.start + header_end(&journal[span.clone()]);
    span.clone().all(|i| {
        let (was, is) = (journal[i], flipped[i]);
        was == is || (i > span.start && i < nl && matches!(was, b'a'..=b'f') && was ^ is == 0x20)
    })
}

/// Offset of the newline that ends a record's frame header.
fn header_end(record: &[u8]) -> usize {
    record
        .iter()
        .position(|&b| b == b'\n')
        .expect("frame header")
}

/// One record framed around `payload`, with its correct CRC.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = format!("+{:x} {:08x}\n", payload.len(), crc32(payload)).into_bytes();
    out.extend_from_slice(payload);
    out.push(b'\n');
    out
}

/// A journal written by a build that derived other keys — every build
/// before a change to how keys are hashed — replays nothing: the resume
/// re-simulates all 8 points, emits JSON byte-identical to the baseline
/// and appends its own records, which the next resume replays.
#[test]
fn a_journal_under_other_keys_replays_as_misses() {
    let (json, journal) = baseline();
    let mut bytes = journal[..MAGIC_LEN].to_vec();
    for span in record_spans(journal) {
        let text = std::str::from_utf8(payload(journal, span)).expect("text payload");
        let (key_line, rest) = text.split_once('\n').expect("a key line");
        let key = key_line.strip_prefix("key=").expect("the key comes first");
        let key = u64::from_str_radix(key, 16).expect("hex key");
        bytes.extend(frame(format!("key={:016x}\n{rest}", !key).as_bytes()));
    }
    let path = temp_journal("other_keys");
    std::fs::write(&path, &bytes).expect("seed journal");
    let spec = grid();
    let resume = || {
        let outcome = SweepRunner::new(&spec)
            .journal(path.to_str().unwrap())
            .resume(true)
            .deterministic_wall(true)
            .run()
            .expect("resumed sweep");
        assert_eq!(outcome.points.len(), 8);
        assert!(outcome.errors.is_empty());
        let replayed = outcome.points.iter().filter(|p| p.resumed).count();
        (outcome.to_json(), replayed)
    };
    let first = resume();
    let second = resume();
    std::fs::remove_file(&path).ok();
    assert_eq!(&first.0, json);
    assert_eq!(first.1, 0, "no record under another key replays");
    assert_eq!(&second.0, json);
    assert_eq!(second.1, 8, "the records the first resume appended replay");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Simulated crash: the journal cut at an arbitrary byte `k` —
    /// mid-header, mid-record, on a record boundary, anywhere. Resume
    /// must replay the valid prefix, re-run the rest, and emit JSON
    /// byte-identical to the uninterrupted run.
    #[test]
    fn resume_after_crash_at_any_byte_is_byte_identical(k in 0u32..u32::MAX) {
        let (json, journal) = baseline();
        let cut = (k as usize) % (journal.len() + 1);
        let resumed = resume_from(&journal[..cut], "cut");
        prop_assert_eq!(&resumed, json, "cut at byte {} of {}", cut, journal.len());
    }

    /// A torn concurrent write appended garbage past the last valid
    /// record: replay drops it, and the resumed sweep is still
    /// byte-identical.
    #[test]
    fn resume_with_garbled_tail_is_byte_identical(
        k in 0u32..u32::MAX,
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let (json, journal) = baseline();
        let cut = (k as usize) % (journal.len() + 1);
        let mut bytes = journal[..cut].to_vec();
        bytes.extend_from_slice(&garbage);
        let resumed = resume_from(&bytes, "garble");
        prop_assert_eq!(&resumed, json, "cut {} + {} garbage bytes", cut, garbage.len());
    }

    /// A panic at any grid point under `keep_going` fails exactly that
    /// point: 7 results, 1 structured panic error, and the sweep itself
    /// still returns `Ok`.
    #[test]
    fn panic_under_keep_going_fails_only_that_point(i in 0usize..8) {
        let spec = grid();
        let plan = FaultPlan::panic_at(i);
        let outcome = SweepRunner::new(&spec)
            .keep_going(true)
            .fault(&plan)
            .deterministic_wall(true)
            .run()
            .expect("sweep completes despite the panic");
        prop_assert_eq!(outcome.points.len(), 7);
        prop_assert_eq!(outcome.errors.len(), 1);
        prop_assert!(
            matches!(outcome.errors[0].cause, PointFailure::Panic(_)),
            "cause: {:?}", outcome.errors[0].cause
        );
        // The JSON error table carries the failure.
        prop_assert!(outcome.to_json().contains("\"cause\": \"panic\""));
    }

    /// Fail-fast (the default) with one worker: an error at point `i`
    /// records that error and skips the untouched tail, in order.
    #[test]
    fn fail_fast_skips_exactly_the_tail(i in 0usize..8) {
        let spec = grid();
        let plan = FaultPlan::error_at(i);
        let outcome = SweepRunner::new(&spec)
            .workers(1)
            .fault(&plan)
            .deterministic_wall(true)
            .run()
            .expect("sweep reports per-point errors, not a sweep error");
        prop_assert_eq!(outcome.points.len(), i);
        prop_assert_eq!(outcome.errors.len(), 8 - i);
        prop_assert!(matches!(outcome.errors[0].cause, PointFailure::Failed(_)));
        for e in &outcome.errors[1..] {
            prop_assert!(matches!(e.cause, PointFailure::Skipped), "cause: {:?}", e.cause);
        }
    }

    /// A transient failure (fails once, succeeds on retry) with one
    /// retry budget is invisible: all 8 points complete and the JSON is
    /// byte-identical to the fault-free baseline.
    #[test]
    fn transient_failure_with_retry_is_invisible(i in 0usize..8) {
        let (json, _) = baseline();
        let spec = grid();
        let plan = FaultPlan::fail_once_at(i);
        let outcome = SweepRunner::new(&spec)
            .retries(1)
            .fault(&plan)
            .deterministic_wall(true)
            .run()
            .expect("retry absorbs the transient failure");
        prop_assert!(outcome.errors.is_empty());
        let retried = outcome
            .points
            .iter()
            .find(|p| p.attempts == 2)
            .expect("one point took two attempts");
        prop_assert!(!retried.resumed);
        prop_assert_eq!(&outcome.to_json(), json);
    }
}

proptest! {
    /// One to four bytes flipped anywhere in a complete journal, a quarter
    /// of them in its first 16 bytes: the resume either replays what the
    /// checksums still vouch for and emits JSON byte-identical to the
    /// uninterrupted run, or — when a flip hit the header — refuses the
    /// file. It never panics and never reports other numbers.
    #[test]
    fn resume_after_flipped_bytes_is_byte_identical_or_refused(
        flips in proptest::collection::vec((0u32..4, any::<u32>(), 1u32..256), 1..5),
    ) {
        let (json, journal) = baseline();
        let mut bytes = journal.clone();
        for &(near_start, pos, mask) in &flips {
            let at = if near_start == 0 { pos as usize % 16 } else { pos as usize % bytes.len() };
            bytes[at] ^= mask as u8;
        }
        let hit_magic = bytes[..MAGIC_LEN] != journal[..MAGIC_LEN];
        match try_resume_from(&bytes, "flip") {
            Ok((resumed, replayed)) => {
                prop_assert!(!hit_magic, "a flipped header was accepted");
                prop_assert_eq!(&resumed, json, "flips {:?}", flips);
                // Exactly the records before the first damaged one replay.
                let spans = record_spans(journal);
                let intact_prefix = spans.iter().take_while(|s| intact(journal, &bytes, s)).count();
                prop_assert_eq!(replayed, intact_prefix, "flips {:?}", flips);
            }
            Err(e) => {
                prop_assert!(hit_magic, "flips {:?} refused: {}", flips, e);
                prop_assert!(e.contains("not a vex sweep journal"), "{}", e);
            }
        }
    }

    /// One record's payload mutated — bytes flipped, cut short, or a line
    /// duplicated — and framed again with a correct CRC, so the text
    /// reaches `JournalEntry::from_payload` and `SimStats::from_snapshot`.
    /// Opening the journal returns (`Ok` or `Err`) within a second and
    /// never panics.
    #[test]
    fn reframed_hostile_payload_is_replayed_or_refused_promptly(
        record in any::<u32>(),
        mode in 0u32..3,
        at in any::<u32>(),
        flips in proptest::collection::vec((any::<u32>(), 1u32..256), 1..5),
    ) {
        let (_, journal) = baseline();
        let mut records: Vec<Vec<u8>> =
            record_spans(journal).into_iter().map(|s| payload(journal, s).to_vec()).collect();
        prop_assert_eq!(records.len(), 8);
        let target = &mut records[record as usize % 8];
        match mode {
            0 => {
                for &(pos, mask) in &flips {
                    let i = pos as usize % target.len();
                    target[i] ^= mask as u8;
                }
            }
            1 => target.truncate(at as usize % (target.len() + 1)),
            _ => {
                let lines: Vec<Vec<u8>> =
                    target.split_inclusive(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
                let dup = at as usize % lines.len();
                *target = lines[..=dup].iter().chain(&lines[dup..]).flatten().copied().collect();
            }
        }
        let mut bytes = journal[..MAGIC_LEN].to_vec();
        for p in &records {
            bytes.extend(frame(p));
        }
        let path = temp_journal("hostile");
        std::fs::write(&path, &bytes).expect("seed journal");
        let start = Instant::now();
        let opened = Journal::open_resume(&path).map(|(_, entries, _)| entries.len());
        let took = start.elapsed();
        std::fs::remove_file(&path).ok();
        prop_assert!(took < Duration::from_secs(1), "open took {:?}: {:?}", took, opened);
        if let Ok(n) = opened {
            prop_assert!(n <= 8);
        }
    }
}
