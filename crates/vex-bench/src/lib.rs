//! The paired `bench-gate` regression check. The library part holds the
//! gate's verdict ([`gate::judge`]); the binary times the two programs.
//! The paper's tables come from the `repro` binary and `vex sweep
//! examples/paper.toml`; the end-to-end benchmark is `perfbench/run.py`,
//! and `BENCH_e2e.json` keeps its trend record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
