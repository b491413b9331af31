//! Figure 14: speedup of CCSI (cluster-level split-issue with
//! cluster-level merging) over the CSMT baseline, for the NS and AS
//! communication policies, on 2- and 4-thread machines, across the nine
//! workload mixes.
//!
//! Paper reference points (§VI-B): NS averages +6.1% (2T) / +3.5% (4T);
//! AS averages +8.7% (2T) / +7.5% (4T); peaks ≈ +15% (llll, 2T NS) and
//! ≈ +20% (mmhh, 2T AS).

use crate::runner::SweepOutcome;
use crate::{pct, table};
use vex_sim::speedup_pct;
use vex_workloads::MIXES;

/// Speedup series for one thread count.
#[derive(Clone, Debug)]
pub struct Series {
    /// Hardware threads.
    pub threads: u8,
    /// Per-mix CCSI-NS speedup over CSMT (%).
    pub ns: Vec<f64>,
    /// Per-mix CCSI-AS speedup over CSMT (%).
    pub asplit: Vec<f64>,
}

impl Series {
    /// Average over mixes.
    pub fn avg_ns(&self) -> f64 {
        self.ns.iter().sum::<f64>() / self.ns.len() as f64
    }
    /// Average over mixes.
    pub fn avg_as(&self) -> f64 {
        self.asplit.iter().sum::<f64>() / self.asplit.len() as f64
    }
}

/// Computes both thread-count series from the paper grid's outcome.
pub fn run(outcome: &SweepOutcome) -> Result<Vec<Series>, String> {
    [2u8, 4]
        .iter()
        .map(|&threads| {
            let mut ns = Vec::new();
            let mut asplit = Vec::new();
            for mix in MIXES {
                let ipc = |label| outcome.ipc(mix.name, label, threads);
                let base = ipc("CSMT")?;
                ns.push(speedup_pct(base, ipc("CCSI NS")?));
                asplit.push(speedup_pct(base, ipc("CCSI AS")?));
            }
            Ok(Series {
                threads,
                ns,
                asplit,
            })
        })
        .collect()
}

/// Renders the figure as a table (mix rows, NS/AS columns per machine).
pub fn render(series: &[Series]) -> String {
    let mut t = table(&["Mix"], &["2T NS", "2T AS", "4T NS", "4T AS"]);
    let s2 = &series[0];
    let s4 = &series[1];
    for (m, mix) in MIXES.iter().enumerate() {
        t.row(vec![
            mix.name.to_string(),
            pct(s2.ns[m]),
            pct(s2.asplit[m]),
            pct(s4.ns[m]),
            pct(s4.asplit[m]),
        ]);
    }
    t.row(vec![
        "avg".to_string(),
        pct(s2.avg_ns()),
        pct(s2.avg_as()),
        pct(s4.avg_ns()),
        pct(s4.avg_as()),
    ]);
    format!(
        "## Figure 14: CCSI speedup over CSMT (%)\n\
         (paper averages: 2T NS +6.1, 2T AS +8.7, 4T NS +3.5, 4T AS +7.5)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{PointError, PointFailure};
    use crate::Scale;
    use vex_spec::SweepSpec;

    #[test]
    fn a_failed_point_reports_its_recorded_cause() {
        let outcome = SweepOutcome {
            spec: SweepSpec::paper_grid(Scale::QUICK),
            points: Vec::new(),
            errors: vec![PointError {
                key: 1,
                label: "llll/CSMT/2t/paper".to_string(),
                attempts: 1,
                cause: PointFailure::Failed("boom".to_string()),
            }],
        };
        let err = run(&outcome).unwrap_err();
        assert!(err.contains("boom"), "{err}");
    }
}
