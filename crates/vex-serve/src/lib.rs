//! `vex-serve`: a fault-tolerant sweep service for the VEX simulator.
//!
//! Three roles, one wire protocol ([`proto`]):
//!
//! * **Server** ([`serve`]) — accepts [`SweepSpec`](vex_spec::SweepSpec)
//!   submissions over TCP, expands them into content-addressed point
//!   jobs, and fans the jobs out to a supervised pool of worker
//!   processes. A point that fails cleanly fails once; crashed and hung
//!   workers are reaped and their points re-queued with exponential
//!   backoff until the retry budget is spent, so a poison point cannot
//!   eat the pool. Results are journaled crash-safely and served from a
//!   content-addressed cache, so overlapping or repeated sweeps never
//!   recompute a point. SIGTERM drains gracefully.
//! * **Worker** ([`worker_main`]) — a simulation process that pulls
//!   assignments, heartbeats from inside the engine's cycle loop, and
//!   keeps nothing between assignments but the prepared programs of its
//!   last mix.
//! * **Client** ([`submit`](fn@submit)) — submits a spec, waits, and reassembles a
//!   [`SweepOutcome`](vex_experiments::SweepOutcome) byte-identical to an
//!   uninterrupted in-process run.
//!
//! The crate is std-only: `std::net` TCP, OS threads and processes — no
//! async runtime, no external dependencies.

#![warn(missing_docs)]

pub mod proto;
pub mod server;
pub mod submit;
pub mod worker;

pub use server::{serve, ServeConfig};
pub use submit::{submit, Submission};
pub use worker::worker_main;
