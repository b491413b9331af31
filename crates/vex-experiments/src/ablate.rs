//! Ablation studies beyond the paper's figures (docs/SPECS.md lists the
//! corresponding spec shapes): cluster renaming, communication-split
//! sensitivity, timeslice stability, thread scaling and multithreading
//! disciplines. Each ablation is a thin spec-builder over the shared
//! [`SweepRunner`]: it varies exactly one scalar of a small [`SweepSpec`]
//! and tabulates the results.

use crate::runner::{SweepOutcome, SweepRunner};
use crate::{f2, pct, table, Scale};
use vex_sim::{speedup_pct, CommPolicy, MtMode, Technique};
use vex_spec::{MixSpec, SweepSpec, DEFAULT_SEED};

/// A base ablation spec: the given built-in mixes, techniques and thread
/// counts on the paper machine at `scale`.
fn spec(scale: Scale, mixes: &[&str], techniques: &[Technique], threads: &[u8]) -> SweepSpec {
    let mut s = SweepSpec::base(scale);
    s.name = "ablation".to_string();
    s.mixes = mixes
        .iter()
        .map(|m| MixSpec::builtin(m, DEFAULT_SEED))
        .collect();
    s.techniques = techniques.to_vec();
    s.threads = threads.to_vec();
    s
}

fn run(spec: &SweepSpec) -> Result<SweepOutcome, String> {
    SweepRunner::new(spec).run()
}

/// A1 — cluster renaming on/off for CSMT and CCSI AS on the `llll` and
/// `hhhh` mixes (4 threads): renaming removes the cluster-0 bias so every
/// merging technique should gain.
pub fn renaming(scale: Scale) -> Result<String, String> {
    let techs = [
        ("CSMT", Technique::csmt()),
        ("CCSI AS", Technique::ccsi(CommPolicy::AlwaysSplit)),
    ];
    let on_spec = spec(scale, &["llll", "hhhh"], &[techs[0].1, techs[1].1], &[4]);
    let mut off_spec = on_spec.clone();
    off_spec.renaming = false;
    let on = run(&on_spec)?;
    let off = run(&off_spec)?;

    let mut t = table(&["Mix", "Technique"], &["IPC off", "IPC on", "gain"]);
    for mix in ["llll", "hhhh"] {
        for (label, _) in techs {
            let ipc_on = on.ipc(mix, label, 4)?;
            let ipc_off = off.ipc(mix, label, 4)?;
            t.row(vec![
                mix.to_string(),
                label.to_string(),
                f2(ipc_off),
                f2(ipc_on),
                pct(speedup_pct(ipc_off, ipc_on)),
            ]);
        }
    }
    Ok(format!(
        "## Ablation A1: cluster renaming (4-thread)\n\n{}",
        t.render()
    ))
}

/// A2 — NS-vs-AS gap per ILP class: the paper attributes the gap to the
/// send/recv density of high-ILP code; comparing a low mix (`llll`)
/// against a high mix (`hhhh`) makes the correlation visible.
pub fn comm_split(scale: Scale) -> Result<String, String> {
    let outcome = run(&spec(
        scale,
        &["llll", "mmhh", "hhhh"],
        &[
            Technique::ccsi(CommPolicy::NoSplit),
            Technique::ccsi(CommPolicy::AlwaysSplit),
            Technique::oosi(CommPolicy::NoSplit),
            Technique::oosi(CommPolicy::AlwaysSplit),
        ],
        &[2],
    ))?;

    let mut t = table(&["Mix", "Technique"], &["IPC NS", "IPC AS", "AS gain"]);
    for mix in ["llll", "mmhh", "hhhh"] {
        for base in ["CCSI", "OOSI"] {
            let ipc_ns = outcome.ipc(mix, &format!("{base} NS"), 2)?;
            let ipc_as = outcome.ipc(mix, &format!("{base} AS"), 2)?;
            t.row(vec![
                mix.to_string(),
                base.to_string(),
                f2(ipc_ns),
                f2(ipc_as),
                pct(speedup_pct(ipc_ns, ipc_as)),
            ]);
        }
    }
    Ok(format!(
        "## Ablation A2: communication-split sensitivity (2-thread)\n\n{}",
        t.render()
    ))
}

/// A3 — timeslice sensitivity on `mmhh`: measured IPC should be stable
/// across a wide range of timeslice lengths (the paper's respawning setup
/// avoids needing FAME-style stabilisation).
pub fn timeslice(scale: Scale) -> Result<String, String> {
    let techs = [Technique::csmt(), Technique::ccsi(CommPolicy::AlwaysSplit)];
    let mut t = table(&[], &["Timeslice", "CSMT IPC", "CCSI AS IPC"]);
    for ts in [scale.timeslice / 4, scale.timeslice, scale.timeslice * 4] {
        let mut s = spec(scale, &["mmhh"], &techs, &[2]);
        s.timeslice = ts;
        let outcome = run(&s)?;
        t.row(vec![
            ts.to_string(),
            f2(outcome.ipc("mmhh", "CSMT", 2)?),
            f2(outcome.ipc("mmhh", "CCSI AS", 2)?),
        ]);
    }
    Ok(format!(
        "## Ablation A3: timeslice sensitivity (mmhh, 2-thread)\n\n{}",
        t.render()
    ))
}

/// A4 — machine scaling: how the CCSI-over-CSMT benefit moves with the
/// number of hardware threads (1, 2, 4) on a mixed-ILP workload. The
/// paper's Figures 14/16 cover 2 and 4 threads; the single-thread column
/// verifies that all techniques collapse to identical performance when
/// there is nothing to merge.
pub fn thread_scaling(scale: Scale) -> Result<String, String> {
    let techs = [
        ("CSMT", Technique::csmt()),
        ("CCSI AS", Technique::ccsi(CommPolicy::AlwaysSplit)),
        ("SMT", Technique::smt()),
        ("OOSI AS", Technique::oosi(CommPolicy::AlwaysSplit)),
    ];
    let outcome = run(&spec(
        scale,
        &["llhh"],
        &[techs[0].1, techs[1].1, techs[2].1, techs[3].1],
        &[1, 2, 4],
    ))?;

    let mut t = table(&[], &["Threads", "CSMT", "CCSI AS", "SMT", "OOSI AS"]);
    for threads in [1u8, 2, 4] {
        let mut row = vec![threads.to_string()];
        for (label, _) in techs {
            row.push(f2(outcome.ipc("llhh", label, threads)?));
        }
        t.row(row);
    }
    Ok(format!(
        "## Ablation A4: thread scaling on llhh (IPC per technique)\n\n{}",
        t.render()
    ))
}

/// A5 — multithreading disciplines (paper §I): Block MT and Interleaved MT
/// only reduce *vertical* waste (cycles with zero issue), while the SMT
/// family also attacks *horizontal* waste. The table reports IPC plus the
/// waste decomposition on the `llmm` mix (4 threads).
pub fn mt_modes(scale: Scale) -> Result<String, String> {
    let mut t = table(&["Scheme"], &["IPC", "vert.waste", "horiz.waste"]);
    let width = vex_isa::MachineConfig::paper_4c4w().total_issue_width();
    for (label, mode, tech) in [
        ("BMT", MtMode::Blocked, Technique::csmt()),
        ("IMT", MtMode::Interleaved, Technique::csmt()),
        ("CSMT", MtMode::Simultaneous, Technique::csmt()),
        (
            "CCSI AS",
            MtMode::Simultaneous,
            Technique::ccsi(CommPolicy::AlwaysSplit),
        ),
        ("SMT", MtMode::Simultaneous, Technique::smt()),
    ] {
        let mut s = spec(scale, &["llmm"], &[tech], &[4]);
        s.mt = mode;
        let outcome = run(&s)?;
        let stats = outcome.stats("llmm", tech.label(), 4)?;
        t.row(vec![
            label.to_string(),
            f2(stats.ipc()),
            format!("{:.1}%", 100.0 * stats.vertical_waste()),
            format!("{:.1}%", 100.0 * stats.horizontal_waste(width)),
        ]);
    }
    Ok(format!(
        "## Ablation A5: multithreading disciplines on llmm (4-thread)\n\n{}",
        t.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_sim::MemoryMode;

    #[test]
    fn perfect_memory_beats_real_memory() {
        let quick = Scale {
            inst_limit: 2_000,
            timeslice: 1_000,
        };
        let mut s = spec(quick, &["llmh"], &[Technique::csmt()], &[2]);
        let real = run(&s).unwrap().ipc("llmh", "CSMT", 2).unwrap();
        s.memory = MemoryMode::Perfect;
        let perfect = run(&s).unwrap().ipc("llmh", "CSMT", 2).unwrap();
        assert!(
            perfect >= real,
            "perfect {perfect:.3} must be >= real {real:.3}"
        );
    }
}
