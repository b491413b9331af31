//! Figure 15: speedups of cluster-level (COSI) and operation-level (OOSI)
//! split-issue over the SMT baseline (operation-level merging), for NS and
//! AS, on 2- and 4-thread machines.
//!
//! Paper reference points (§VI-B): COSI NS +7.5%/+6.4%, OOSI NS
//! +8.2%/+7.9%, COSI AS +9.8%/+9.4%, OOSI AS +13%/+15.7% (2T/4T
//! averages); peaks ≈ +19.5% (llll COSI AS 2T) and ≈ +22.7% (mmhh OOSI AS).

use crate::runner::SweepOutcome;
use crate::{pct, table};
use vex_sim::speedup_pct;
use vex_workloads::MIXES;

/// Speedup series over SMT for one thread count.
#[derive(Clone, Debug)]
pub struct Series {
    /// Hardware threads.
    pub threads: u8,
    /// COSI NS per-mix speedups (%).
    pub cosi_ns: Vec<f64>,
    /// COSI AS per-mix speedups (%).
    pub cosi_as: Vec<f64>,
    /// OOSI NS per-mix speedups (%).
    pub oosi_ns: Vec<f64>,
    /// OOSI AS per-mix speedups (%).
    pub oosi_as: Vec<f64>,
}

fn avg(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

impl Series {
    /// Averages over mixes: (COSI NS, COSI AS, OOSI NS, OOSI AS).
    pub fn averages(&self) -> (f64, f64, f64, f64) {
        (
            avg(&self.cosi_ns),
            avg(&self.cosi_as),
            avg(&self.oosi_ns),
            avg(&self.oosi_as),
        )
    }
}

/// Computes both thread-count series from the paper grid's outcome.
pub fn run(outcome: &SweepOutcome) -> Result<Vec<Series>, String> {
    [2u8, 4]
        .iter()
        .map(|&threads| {
            let mut s = Series {
                threads,
                cosi_ns: Vec::new(),
                cosi_as: Vec::new(),
                oosi_ns: Vec::new(),
                oosi_as: Vec::new(),
            };
            for mix in MIXES {
                let ipc = |label| outcome.ipc(mix.name, label, threads);
                let base = ipc("SMT")?;
                s.cosi_ns.push(speedup_pct(base, ipc("COSI NS")?));
                s.cosi_as.push(speedup_pct(base, ipc("COSI AS")?));
                s.oosi_ns.push(speedup_pct(base, ipc("OOSI NS")?));
                s.oosi_as.push(speedup_pct(base, ipc("OOSI AS")?));
            }
            Ok(s)
        })
        .collect()
}

/// Renders one thread count's table.
pub fn render_one(s: &Series) -> String {
    let mut t = table(&["Mix"], &["COSI NS", "COSI AS", "OOSI NS", "OOSI AS"]);
    for (m, mix) in MIXES.iter().enumerate() {
        t.row(vec![
            mix.name.to_string(),
            pct(s.cosi_ns[m]),
            pct(s.cosi_as[m]),
            pct(s.oosi_ns[m]),
            pct(s.oosi_as[m]),
        ]);
    }
    let (a, b, c, d) = s.averages();
    t.row(vec!["avg".to_string(), pct(a), pct(b), pct(c), pct(d)]);
    format!("### {}-thread machine\n{}", s.threads, t.render())
}

/// Renders the full figure.
pub fn render(series: &[Series]) -> String {
    format!(
        "## Figure 15: COSI and OOSI speedups over SMT (%)\n\
         (paper 2T averages: COSI NS +7.5, COSI AS +9.8, OOSI NS +8.2, OOSI AS +13.0)\n\
         (paper 4T averages: COSI NS +6.4, COSI AS +9.4, OOSI NS +7.9, OOSI AS +15.7)\n\n{}\n{}",
        render_one(&series[0]),
        render_one(&series[1])
    )
}
