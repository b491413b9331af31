//! Figure 13(a): benchmark characterisation — IPC with real memory (IPCr)
//! and perfect memory (IPCp) on the single-threaded 16-issue machine,
//! side by side with the paper's numbers.

use crate::runner::SweepRunner;
use crate::{f2, table, Scale};
use vex_sim::{MemoryMode, Technique};
use vex_spec::{MixSpec, SweepSpec};
use vex_workloads::BENCHMARKS;

/// One benchmark's measured and reference numbers.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// ILP class letter.
    pub class: char,
    /// Measured IPC, real memory.
    pub ipcr: f64,
    /// Measured IPC, perfect memory.
    pub ipcp: f64,
    /// Paper IPCr.
    pub paper_ipcr: f64,
    /// Paper IPCp.
    pub paper_ipcp: f64,
}

/// The characterisation spec: every benchmark alone on the single-thread
/// 16-issue machine, CSMT, no renaming, no timeslice switching.
fn spec(scale: Scale, memory: MemoryMode) -> SweepSpec {
    let mut s = SweepSpec::base(scale);
    s.name = "fig13-characterisation".to_string();
    s.techniques = vec![Technique::csmt()];
    s.threads = vec![1];
    s.renaming = false;
    s.memory = memory;
    s.timeslice = u64::MAX;
    s.mixes = BENCHMARKS
        .iter()
        .map(|b| MixSpec::single(b.name, 7))
        .collect();
    s
}

/// Runs the characterisation at the given scale.
pub fn run(scale: Scale) -> Result<Vec<Row>, String> {
    // The memory mode is a spec scalar, so the two 12-point sweeps are
    // separate runner invocations; overlap them so the combined fan-out
    // still fills machines with more cores than benchmarks.
    let real_spec = spec(scale, MemoryMode::Real);
    let perfect_spec = spec(scale, MemoryMode::Perfect);
    let (real, perfect) = std::thread::scope(|s| {
        let perfect = s.spawn(|| SweepRunner::new(&perfect_spec).run());
        let real = SweepRunner::new(&real_spec).run();
        (
            real,
            perfect
                .join()
                .unwrap_or_else(|p| Err(crate::panic_message(p.as_ref()))),
        )
    });
    let (real, perfect) = (real?, perfect?);

    BENCHMARKS
        .iter()
        .map(|b| {
            Ok(Row {
                name: b.name,
                class: b.ilp.letter(),
                ipcr: real.ipc(b.name, "CSMT", 1)?,
                ipcp: perfect.ipc(b.name, "CSMT", 1)?,
                paper_ipcr: b.paper_ipcr,
                paper_ipcp: b.paper_ipcp,
            })
        })
        .collect()
}

/// Renders the table in the paper's layout plus measured columns.
pub fn render(rows: &[Row]) -> String {
    let mut t = table(
        &["Benchmark", "ILP"],
        &["IPCr (paper)", "IPCr (ours)", "IPCp (paper)", "IPCp (ours)"],
    );
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            r.class.to_string(),
            f2(r.paper_ipcr),
            f2(r.ipcr),
            f2(r.paper_ipcp),
            f2(r.ipcp),
        ]);
    }
    format!(
        "## Figure 13(a): benchmark IPC characterisation\n\n{}",
        t.render()
    )
}
