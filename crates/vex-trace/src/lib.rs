//! # vex-trace — cycle-attribution trace stream
//!
//! A schema'd, versioned, compact binary event-record format for the
//! simulator's microarchitectural events, plus the replay layer that turns
//! a recorded stream back into a **per-thread, per-cycle attribution**:
//! every simulated cycle of every context binned by *why it was spent*
//! (issuing, stalled on an I$/D$ miss, frozen by memory-port contention,
//! held whole by the communication policy, losing an issue conflict, ...).
//!
//! The paper's headline results (Figures 13–16) are deltas between
//! technique points; this crate is what lets the reproduction say *where*
//! a delta comes from, the way the paper's analysis sections do.
//!
//! ## Layers
//!
//! * [`TraceEvent`] / [`TraceMeta`] — the event taxonomy. Each event
//!   carries its cycle plus the thread / cluster / instruction identity
//!   the replay needs; see `docs/TRACE.md` for the taxonomy's semantics.
//! * [`format`](mod@format) — the `VEXT` binary encoding: a 16-byte
//!   header followed by fixed 20-byte little-endian records, decoded by
//!   the streaming [`TraceReader`].
//! * [`TraceSink`] — where the engine streams events: [`RingSink`] keeps
//!   every event in memory, [`FileSink`] streams the binary format to
//!   disk.
//! * [`Attributor`] — validates and replays an event stream, one record
//!   at a time, into an [`Attribution`]: per-thread cycle bins that **sum
//!   exactly to the run's total cycles** (the identity the test suite pins
//!   against `SimStats`), plus per-cluster occupancy.
//!   [`attribute`](attribute()) runs it over a slice of events,
//!   [`attribute_stream`] over a `.vext` reader.
//!
//! The crate is dependency-free and knows nothing about the simulator's
//! types; `vex-sim` depends on it, not the other way around.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attr;
mod event;
pub mod format;
mod sink;

pub use attr::{attribute, attribute_stream, Attribution, Attributor, Bin, ClusterUse};
pub use event::{TraceEvent, TraceMeta, NO_CTX};
pub use format::{read_trace, write_trace, TraceReader};
pub use sink::{FileSink, RingSink, TraceSink};
