//! Canonical printer for [`SweepSpec`]: every field explicit, fixed key
//! order, one normal form — so `parse(print(spec)) == spec` holds for any
//! spec value (property-tested in `tests/roundtrip.rs`).

use crate::SweepSpec;
use std::fmt::Write;
use vex_mem::CacheParams;

/// Prints the canonical text form of a spec.
pub fn print_sweep(s: &SweepSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "name = \"{}\"", s.name);
    let _ = writeln!(out, "inst_limit = {}", s.inst_limit);
    let _ = writeln!(out, "timeslice = {}", s.timeslice);
    let _ = writeln!(out, "seed = {}", s.seed);
    let threads: Vec<String> = s
        .threads
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    let _ = writeln!(out, "threads = [{}]", threads.join(", "));
    let techs: Vec<String> = s
        .techniques
        .iter()
        .map(|t| format!("\"{}\"", t.label()))
        .collect();
    let _ = writeln!(out, "techniques = [{}]", techs.join(", "));
    let _ = writeln!(out, "renaming = {}", s.renaming);
    let _ = writeln!(out, "memory = \"{}\"", s.memory.name());
    let _ = writeln!(out, "mt = \"{}\"", s.mt.name());
    let _ = writeln!(out, "respawn = {}", s.respawn);
    if let Some(t) = &s.trace {
        let _ = writeln!(out, "trace = \"{t}\"");
    }
    if let Some(j) = &s.journal {
        let _ = writeln!(out, "journal = \"{j}\"");
    }

    let _ = writeln!(out, "\n[limits]");
    let _ = writeln!(out, "max_cycles = {}", s.max_cycles);

    // `[serve]` only when the spec says something about serving: `None`
    // and `Some(default)` are distinct values, so the table must be
    // omitted (not defaulted) to keep `parse(print(s)) == s`.
    if let Some(v) = &s.serve {
        let _ = writeln!(out, "\n[serve]");
        let _ = writeln!(out, "workers = {}", v.workers);
        let _ = writeln!(out, "heartbeat_ms = {}", v.heartbeat_ms);
        let _ = writeln!(out, "retries = {}", v.retries);
    }

    let _ = writeln!(out, "\n[cache]");
    if s.caches.icache == s.caches.dcache {
        print_geometry(&mut out, s.caches.icache);
        let _ = writeln!(out, "miss_penalty = {}", s.caches.miss_penalty);
    } else {
        let _ = writeln!(out, "miss_penalty = {}", s.caches.miss_penalty);
        let _ = writeln!(out, "\n[icache]");
        print_geometry(&mut out, s.caches.icache);
        let _ = writeln!(out, "\n[dcache]");
        print_geometry(&mut out, s.caches.dcache);
    }

    for m in &s.machines {
        let _ = writeln!(out, "\n[[machine]]");
        let _ = writeln!(out, "name = \"{}\"", m.name);
        let c = &m.config;
        let _ = writeln!(out, "clusters = {}", c.n_clusters);
        let _ = writeln!(out, "slots = {}", c.cluster.slots);
        let _ = writeln!(out, "alu = {}", c.cluster.alu);
        let _ = writeln!(out, "mul = {}", c.cluster.mul);
        let _ = writeln!(out, "mem = {}", c.cluster.mem);
        let _ = writeln!(out, "br = {}", c.cluster.br);
        let _ = writeln!(out, "send = {}", c.cluster.send);
        let _ = writeln!(out, "recv = {}", c.cluster.recv);
        let _ = writeln!(out, "lat_alu = {}", c.lat.alu);
        let _ = writeln!(out, "lat_mul = {}", c.lat.mul);
        let _ = writeln!(out, "lat_mem = {}", c.lat.mem);
        let _ = writeln!(out, "lat_xfer = {}", c.lat.xfer);
        let _ = writeln!(out, "cmp_to_br = {}", c.lat.cmp_to_br);
        let _ = writeln!(out, "taken_branch_penalty = {}", c.taken_branch_penalty);
        let _ = writeln!(out, "gprs = {}", c.n_gprs);
        let _ = writeln!(out, "bregs = {}", c.n_bregs);
    }

    for x in &s.mixes {
        let _ = writeln!(out, "\n[[mix]]");
        let _ = writeln!(out, "name = \"{}\"", x.name);
        let _ = writeln!(out, "seed = {}", x.seed);
        let members: Vec<String> = x
            .members
            .iter()
            .map(|m| format!("\"{}\"", m.as_str()))
            .collect();
        let _ = writeln!(out, "members = [{}]", members.join(", "));
    }
    out
}

fn print_geometry(out: &mut String, p: CacheParams) {
    let _ = writeln!(out, "size_bytes = {}", p.size_bytes);
    let _ = writeln!(out, "assoc = {}", p.assoc);
    let _ = writeln!(out, "line_bytes = {}", p.line_bytes);
}
