//! Figure 16: absolute average IPC of every multithreading technique on
//! 2- and 4-thread machines.
//!
//! Shape targets from the paper: CCSI AS ≈ SMT on the 2-thread machine
//! (slightly better, in fact), and split-issue shrinking the CSMT→SMT gap
//! on the 4-thread machine from ~27% to ~13%.

use crate::runner::{PointError, SweepOutcome};
use crate::{f2, table};
use vex_sim::Technique;
use vex_workloads::MIXES;

/// Average IPC for each technique at each thread count.
#[derive(Clone, Debug)]
pub struct Results {
    /// Technique display labels in the paper's order.
    pub labels: Vec<&'static str>,
    /// Average IPC on the 2-thread machine, per label.
    pub ipc2: Vec<f64>,
    /// Average IPC on the 4-thread machine, per label.
    pub ipc4: Vec<f64>,
}

/// Computes the averages from the paper grid's outcome.
pub fn run(outcome: &SweepOutcome) -> Result<Results, String> {
    let labels: Vec<&'static str> = Technique::FIGURE16_SET.iter().map(|(l, _)| *l).collect();
    let ipc2 = labels
        .iter()
        .map(|l| avg_ipc(outcome, l, 2))
        .collect::<Result<_, _>>()?;
    let ipc4 = labels
        .iter()
        .map(|l| avg_ipc(outcome, l, 4))
        .collect::<Result<_, _>>()?;
    Ok(Results { labels, ipc2, ipc4 })
}

/// Average IPC of one technique across all mixes (the paper reports
/// arithmetic averages).
fn avg_ipc(outcome: &SweepOutcome, label: &str, threads: u8) -> Result<f64, PointError> {
    let mut sum = 0.0;
    for mix in MIXES {
        sum += outcome.ipc(mix.name, label, threads)?;
    }
    Ok(sum / MIXES.len() as f64)
}

impl Results {
    /// IPC by label and thread count.
    pub fn ipc(&self, label: &str, threads: u8) -> f64 {
        let i = self
            .labels
            .iter()
            .position(|l| *l == label)
            .expect("known label");
        match threads {
            2 => self.ipc2[i],
            4 => self.ipc4[i],
            _ => panic!("figure 16 covers 2 and 4 threads"),
        }
    }
}

/// Renders the figure as a table.
pub fn render(r: &Results) -> String {
    let mut t = table(&["Technique"], &["IPC 2T", "IPC 4T"]);
    for (i, l) in r.labels.iter().enumerate() {
        t.row(vec![(*l).to_string(), f2(r.ipc2[i]), f2(r.ipc4[i])]);
    }
    let gap = |a: f64, b: f64| (b / a - 1.0) * 100.0;
    let csmt4 = r.ipc("CSMT", 4);
    let smt4 = r.ipc("SMT", 4);
    let ccsi4 = r.ipc("CCSI AS", 4);
    format!(
        "## Figure 16: absolute performance of all techniques\n\n{}\n\
         CSMT->SMT gap at 4T: {:+.1}%  |  CCSI AS->SMT gap at 4T: {:+.1}%\n\
         (paper: split-issue shrinks the gap from ~27% to ~13%)\n",
        t.render(),
        gap(csmt4, smt4),
        gap(ccsi4, smt4),
    )
}
