//! The `VEXT` binary trace format, version 1.
//!
//! ```text
//! header (16 bytes, little-endian):
//!   0..4   magic           b"VEXT"
//!   4..6   version         u16   (currently 1)
//!   6..8   record_len      u16   (currently 20)
//!   8..10  n_contexts      u16
//!   10..12 hw_threads      u16
//!   12..14 n_clusters      u16
//!   14..16 reserved        u16   (0)
//!
//! record (20 bytes, little-endian):
//!   0      kind            u8    (see `kind` constants)
//!   1      flags           u8    (bit 0: Issue completed)
//!   2..4   thread / slot   u16
//!   4..6   a               u16   (Issue: ops; SplitCommit: parts;
//!                                 SlotAssign: ctx or NO_CTX)
//!   6..8   b               u16   (Issue: physical-cluster mask)
//!   8..12  c               u32   (Issue/SplitCommit: inst index;
//!                                 *Stall: penalty; MemPortStall: cycles)
//!   12..20 cycle           u64
//! ```
//!
//! Unused fields are written as zero and ignored on read, so the format
//! can grow per-kind payloads without a version bump as long as record
//! size is unchanged. Readers must reject a mismatched `record_len`
//! rather than guessing.
//!
//! [`TraceReader`] is the one decoder: it streams records out of any
//! [`Read`] through a fixed buffer; [`read_trace`] collects its events.

use crate::event::{TraceEvent, TraceMeta};
use std::io::{ErrorKind, Read};

/// File magic.
pub const MAGIC: [u8; 4] = *b"VEXT";
/// Format version this crate writes.
pub const VERSION: u16 = 1;
/// Bytes per event record.
pub const RECORD_LEN: usize = 20;
/// Bytes of file header before the first record.
pub const HEADER_LEN: usize = 16;

/// Record-kind discriminants (byte 0 of a record).
mod kind {
    pub const ISSUE: u8 = 1;
    pub const IMISS: u8 = 2;
    pub const DMISS: u8 = 3;
    pub const BRANCH: u8 = 4;
    pub const MEMPORT: u8 = 5;
    pub const COMM_HOLD: u8 = 6;
    pub const SPLIT_COMMIT: u8 = 7;
    pub const SLOT_ASSIGN: u8 = 8;
    pub const RETIRE: u8 = 9;
    pub const END: u8 = 10;
}

/// Encodes the file header for `meta`.
pub fn encode_header(meta: &TraceMeta) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC);
    h[4..6].copy_from_slice(&VERSION.to_le_bytes());
    h[6..8].copy_from_slice(&(RECORD_LEN as u16).to_le_bytes());
    h[8..10].copy_from_slice(&meta.n_contexts.to_le_bytes());
    h[10..12].copy_from_slice(&meta.hw_threads.to_le_bytes());
    h[12..14].copy_from_slice(&meta.n_clusters.to_le_bytes());
    h
}

/// Decodes and validates a file header.
pub fn decode_header(bytes: &[u8]) -> Result<TraceMeta, String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!(
            "trace header truncated: {} bytes, need {HEADER_LEN}",
            bytes.len()
        ));
    }
    if bytes[0..4] != MAGIC {
        return Err("not a VEXT trace (bad magic)".to_string());
    }
    let u16_at = |i: usize| u16::from_le_bytes([bytes[i], bytes[i + 1]]);
    let version = u16_at(4);
    if version != VERSION {
        return Err(format!(
            "unsupported trace version {version} (this build reads {VERSION})"
        ));
    }
    let record_len = u16_at(6) as usize;
    if record_len != RECORD_LEN {
        return Err(format!(
            "unsupported record length {record_len} (this build reads {RECORD_LEN})"
        ));
    }
    Ok(TraceMeta {
        n_contexts: u16_at(8),
        hw_threads: u16_at(10),
        n_clusters: u16_at(12),
    })
}

/// Encodes one event into a fixed-size record.
pub fn encode_record(ev: &TraceEvent) -> [u8; RECORD_LEN] {
    let (k, flags, thread, a, b, c, cycle) = match *ev {
        TraceEvent::Issue {
            cycle,
            thread,
            inst,
            ops,
            clusters,
            completed,
        } => (
            kind::ISSUE,
            completed as u8,
            thread,
            ops,
            clusters,
            inst,
            cycle,
        ),
        TraceEvent::IMissStall {
            cycle,
            thread,
            penalty,
        } => (kind::IMISS, 0, thread, 0, 0, penalty, cycle),
        TraceEvent::DMissStall {
            cycle,
            thread,
            penalty,
        } => (kind::DMISS, 0, thread, 0, 0, penalty, cycle),
        TraceEvent::BranchStall {
            cycle,
            thread,
            penalty,
        } => (kind::BRANCH, 0, thread, 0, 0, penalty, cycle),
        TraceEvent::MemPortStall { cycle, cycles } => (kind::MEMPORT, 0, 0, 0, 0, cycles, cycle),
        TraceEvent::CommHold { cycle, thread } => (kind::COMM_HOLD, 0, thread, 0, 0, 0, cycle),
        TraceEvent::SplitCommit {
            cycle,
            thread,
            inst,
            parts,
        } => (kind::SPLIT_COMMIT, 0, thread, parts, 0, inst, cycle),
        TraceEvent::SlotAssign { cycle, slot, ctx } => {
            (kind::SLOT_ASSIGN, 0, slot, ctx, 0, 0, cycle)
        }
        TraceEvent::Retire { cycle, thread } => (kind::RETIRE, 0, thread, 0, 0, 0, cycle),
        TraceEvent::End { cycle } => (kind::END, 0, 0, 0, 0, 0, cycle),
    };
    let mut r = [0u8; RECORD_LEN];
    r[0] = k;
    r[1] = flags;
    r[2..4].copy_from_slice(&thread.to_le_bytes());
    r[4..6].copy_from_slice(&a.to_le_bytes());
    r[6..8].copy_from_slice(&b.to_le_bytes());
    r[8..12].copy_from_slice(&c.to_le_bytes());
    r[12..20].copy_from_slice(&cycle.to_le_bytes());
    r
}

/// Decodes one record.
pub fn decode_record(r: &[u8; RECORD_LEN]) -> Result<TraceEvent, String> {
    let thread = u16::from_le_bytes([r[2], r[3]]);
    let a = u16::from_le_bytes([r[4], r[5]]);
    let b = u16::from_le_bytes([r[6], r[7]]);
    let c = u32::from_le_bytes([r[8], r[9], r[10], r[11]]);
    let cycle = u64::from_le_bytes(r[12..20].try_into().unwrap());
    Ok(match r[0] {
        kind::ISSUE => TraceEvent::Issue {
            cycle,
            thread,
            inst: c,
            ops: a,
            clusters: b,
            completed: r[1] & 1 != 0,
        },
        kind::IMISS => TraceEvent::IMissStall {
            cycle,
            thread,
            penalty: c,
        },
        kind::DMISS => TraceEvent::DMissStall {
            cycle,
            thread,
            penalty: c,
        },
        kind::BRANCH => TraceEvent::BranchStall {
            cycle,
            thread,
            penalty: c,
        },
        kind::MEMPORT => TraceEvent::MemPortStall { cycle, cycles: c },
        kind::COMM_HOLD => TraceEvent::CommHold { cycle, thread },
        kind::SPLIT_COMMIT => TraceEvent::SplitCommit {
            cycle,
            thread,
            inst: c,
            parts: a,
        },
        kind::SLOT_ASSIGN => TraceEvent::SlotAssign {
            cycle,
            slot: thread,
            ctx: a,
        },
        kind::RETIRE => TraceEvent::Retire { cycle, thread },
        kind::END => TraceEvent::End { cycle },
        other => return Err(format!("unknown trace record kind {other}")),
    })
}

/// Serialises a whole trace (header + records) — the in-memory
/// counterpart of [`crate::FileSink`], used by tests and by tools that
/// already hold the events.
pub fn write_trace(meta: &TraceMeta, events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + events.len() * RECORD_LEN);
    out.extend_from_slice(&encode_header(meta));
    for ev in events {
        out.extend_from_slice(&encode_record(ev));
    }
    out
}

/// Bytes a [`TraceReader`] buffers.
const READ_BUF_LEN: usize = 1 << 16;

/// Streams a `VEXT` trace out of `R`: [`TraceReader::new`] checks the
/// header, then the iterator decodes one event per 20-byte record out of
/// one fixed 64 KiB buffer, so memory stays constant however long the
/// trace is. A record may straddle two reads.
///
/// A trailing partial record is an error (the write was torn), as is any
/// unknown record kind or read error — a trace is evidence, and silently
/// dropping part of it would make the attribution lie. The iterator ends
/// after its first error.
pub struct TraceReader<R> {
    inner: R,
    meta: TraceMeta,
    buf: Box<[u8]>,
    /// The bytes read but not yet decoded are `buf[pos..len]`.
    pos: usize,
    len: usize,
    /// Records decoded so far.
    records: u64,
    /// Set at the end of the stream or at the first error.
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the header.
    pub fn new(mut inner: R) -> Result<Self, String> {
        let mut header = [0u8; HEADER_LEN];
        let got = fill(&mut inner, &mut header)?;
        let meta = decode_header(&header[..got])?;
        Ok(TraceReader {
            inner,
            meta,
            buf: vec![0; READ_BUF_LEN].into_boxed_slice(),
            pos: 0,
            len: 0,
            records: 0,
            done: false,
        })
    }

    /// The geometry declared by the header.
    pub fn meta(&self) -> TraceMeta {
        self.meta
    }

    /// Moves the unread bytes to the front of the buffer and reads more
    /// behind them. `Ok(false)` at the end of the input (or after an
    /// error); a partial record left at the end is a torn write.
    fn refill(&mut self) -> Result<bool, String> {
        if self.done {
            return Ok(false);
        }
        self.buf.copy_within(self.pos..self.len, 0);
        self.len -= self.pos;
        self.pos = 0;
        match fill(&mut self.inner, &mut self.buf[self.len..]) {
            Ok(got) => self.len += got,
            Err(e) => {
                self.done = true;
                return Err(e);
            }
        }
        if self.len >= RECORD_LEN {
            return Ok(true);
        }
        self.done = true;
        if self.len == 0 {
            return Ok(false);
        }
        Err(format!(
            "trace body is {} bytes, not a multiple of the {RECORD_LEN}-byte record \
             (torn write?)",
            self.records * RECORD_LEN as u64 + self.len as u64
        ))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceEvent, String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.len - self.pos < RECORD_LEN {
            match self.refill() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
        let rec: &[u8; RECORD_LEN] = self.buf[self.pos..self.pos + RECORD_LEN]
            .try_into()
            .expect("the slice is one record long");
        self.pos += RECORD_LEN;
        let i = self.records;
        self.records += 1;
        Some(decode_record(rec).map_err(|e| {
            self.done = true;
            self.pos = self.len;
            format!("record {i}: {e}")
        }))
    }
}

/// Reads until `buf` is full or the input ends; returns the bytes read.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, String> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("reading trace: {e}")),
        }
    }
    Ok(got)
}

/// Parses a whole trace back into its metadata and event stream, through
/// [`TraceReader`].
pub fn read_trace(bytes: &[u8]) -> Result<(TraceMeta, Vec<TraceEvent>), String> {
    let reader = TraceReader::new(bytes)?;
    let meta = reader.meta();
    let mut events = Vec::with_capacity(bytes.len().saturating_sub(HEADER_LEN) / RECORD_LEN);
    for ev in reader {
        events.push(ev?);
    }
    Ok((meta, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_CTX;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::SlotAssign {
                cycle: 0,
                slot: 0,
                ctx: 2,
            },
            TraceEvent::SlotAssign {
                cycle: 0,
                slot: 1,
                ctx: NO_CTX,
            },
            TraceEvent::Issue {
                cycle: 3,
                thread: 2,
                inst: 17,
                ops: 5,
                clusters: 0b1010,
                completed: false,
            },
            TraceEvent::Issue {
                cycle: 4,
                thread: 2,
                inst: 17,
                ops: 2,
                clusters: 0b0001,
                completed: true,
            },
            TraceEvent::IMissStall {
                cycle: 5,
                thread: 2,
                penalty: 20,
            },
            TraceEvent::DMissStall {
                cycle: 30,
                thread: 2,
                penalty: 20,
            },
            TraceEvent::BranchStall {
                cycle: 55,
                thread: 2,
                penalty: 1,
            },
            TraceEvent::MemPortStall {
                cycle: 60,
                cycles: 3,
            },
            TraceEvent::CommHold {
                cycle: 70,
                thread: 2,
            },
            TraceEvent::SplitCommit {
                cycle: 71,
                thread: 2,
                inst: 17,
                parts: 2,
            },
            TraceEvent::Retire {
                cycle: 90,
                thread: 2,
            },
            TraceEvent::End { cycle: 91 },
        ]
    }

    #[test]
    fn every_event_kind_round_trips() {
        for ev in sample_events() {
            let rec = encode_record(&ev);
            assert_eq!(decode_record(&rec).unwrap(), ev, "{ev:?}");
        }
    }

    #[test]
    fn whole_trace_round_trips() {
        let meta = TraceMeta {
            n_contexts: 3,
            hw_threads: 2,
            n_clusters: 4,
        };
        let events = sample_events();
        let bytes = write_trace(&meta, &events);
        assert_eq!(bytes.len(), HEADER_LEN + events.len() * RECORD_LEN);
        let (meta2, events2) = read_trace(&bytes).unwrap();
        assert_eq!(meta2, meta);
        assert_eq!(events2, events);
    }

    #[test]
    fn extreme_cycle_values_survive() {
        let ev = TraceEvent::End { cycle: u64::MAX };
        assert_eq!(decode_record(&encode_record(&ev)).unwrap(), ev);
    }

    #[test]
    fn bad_magic_version_and_torn_bodies_are_rejected() {
        let meta = TraceMeta {
            n_contexts: 1,
            hw_threads: 1,
            n_clusters: 1,
        };
        let good = write_trace(&meta, &[TraceEvent::End { cycle: 1 }]);

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(read_trace(&bad_magic).unwrap_err().contains("magic"));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(read_trace(&bad_version).unwrap_err().contains("version"));

        let mut torn = good.clone();
        torn.pop();
        assert!(read_trace(&torn).unwrap_err().contains("torn"));

        let mut bad_kind = good;
        bad_kind[HEADER_LEN] = 200;
        assert!(read_trace(&bad_kind).unwrap_err().contains("kind"));

        assert!(read_trace(&[]).unwrap_err().contains("truncated"));
    }

    /// Hands out 1–37 bytes per `read`, in a fixed pseudo-random pattern.
    struct Trickle<'a> {
        bytes: &'a [u8],
        state: u64,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let n = (1 + (self.state >> 33) % 37) as usize;
            let n = n.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_trickling_reader_decodes_what_read_trace_does() {
        let meta = TraceMeta {
            n_contexts: 3,
            hw_threads: 2,
            n_clusters: 4,
        };
        // 200 KB: the 64 KiB buffer refills with records straddling it.
        let events: Vec<TraceEvent> = sample_events().into_iter().cycle().take(10_000).collect();
        let bytes = write_trace(&meta, &events);
        let reader = TraceReader::new(Trickle {
            bytes: &bytes,
            state: 1,
        })
        .unwrap();
        assert_eq!(reader.meta(), meta);
        let streamed: Vec<TraceEvent> = reader.collect::<Result<_, _>>().unwrap();
        assert_eq!(streamed, read_trace(&bytes).unwrap().1);
        assert_eq!(streamed, events);

        let torn = Trickle {
            bytes: &bytes[..bytes.len() - 7],
            state: 2,
        };
        let mut reader = TraceReader::new(torn).unwrap();
        let err = reader.by_ref().collect::<Result<Vec<_>, _>>().unwrap_err();
        assert!(err.contains("torn"), "{err}");
        assert!(
            reader.next().is_none(),
            "the reader ends at its first error"
        );
    }
}
