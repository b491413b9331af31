//! Always-on, feature-light performance counters for the simulator's own
//! fast paths (not the simulated machine — see [`crate::stats`] for that).
//!
//! The memory-system and issue-stage optimisations (docs/PERF.md) each
//! carry a cheap counter: the cache MRU filter counts absorbed accesses,
//! the per-context software TLB counts hits versus page-directory walks,
//! and the issue stage counts how many record/demand-table entries it
//! examined. [`crate::Engine::profile`] aggregates them into a [`Profile`]
//! after (or during) a run; `vex run --profile` prints the block.

use crate::table::{Align, Table};

/// One cache's access counters, filter hits included.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheProfile {
    /// Total accesses (hits + misses).
    pub accesses: u64,
    /// Hits (filter hits included).
    pub hits: u64,
    /// Accesses absorbed by the MRU filter (subset of `hits`).
    pub filter_hits: u64,
}

impl CacheProfile {
    /// Fraction of accesses absorbed by the MRU filter, in [0, 1].
    pub fn filter_rate(&self) -> f64 {
        ratio(self.filter_hits, self.accesses)
    }

    /// Miss ratio in [0, 1] (0.0 for a never-accessed cache).
    pub fn miss_ratio(&self) -> f64 {
        ratio(self.accesses.saturating_sub(self.hits), self.accesses)
    }
}

/// Aggregated fast-path counters of one engine run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Profile {
    /// Simulated cycles the counters cover.
    pub cycles: u64,
    /// Instruction-cache counters.
    pub icache: CacheProfile,
    /// Data-cache counters.
    pub dcache: CacheProfile,
    /// Page lookups absorbed by the per-context software TLBs.
    pub tlb_hits: u64,
    /// Full page-directory walks (TLB misses), summed over contexts.
    pub page_walks: u64,
    /// Issue-stage attempts (one per runnable thread per cycle).
    pub issue_calls: u64,
    /// Record/demand-table entries the issue stage examined.
    pub issue_scans: u64,
    /// Evaluation phase: instruction activations (each evaluates one whole
    /// instruction functionally, §V-B).
    pub eval_activations: u64,
    /// Evaluation phase: operations evaluated across all activations.
    pub eval_ops: u64,
}

impl Profile {
    /// Fraction of page lookups served by the TLBs, in [0, 1].
    pub fn tlb_hit_rate(&self) -> f64 {
        ratio(self.tlb_hits, self.tlb_hits + self.page_walks)
    }

    /// Average table entries examined per issue attempt.
    pub fn scans_per_call(&self) -> f64 {
        ratio(self.issue_scans, self.issue_calls)
    }

    /// Average operations evaluated per activation.
    pub fn ops_per_activation(&self) -> f64 {
        ratio(self.eval_ops, self.eval_activations)
    }

    /// Average table entries examined per simulated cycle.
    pub fn scans_per_cycle(&self) -> f64 {
        ratio(self.issue_scans, self.cycles)
    }

    /// Human-readable counter block (the `vex run --profile` output),
    /// column-aligned by the shared [`Table`] formatter. Rates whose
    /// denominator is zero (a cache that was never accessed, a run with no
    /// issue attempts) print as `n/a` rather than a misleading `0.0%` —
    /// and never as `NaN`/`inf`, which a naive division would produce.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            ("", Align::Left),
            ("", Align::Right),
            ("", Align::Left),
            ("", Align::Right),
            ("", Align::Right),
            ("", Align::Left),
        ]);
        let cache = |t: &mut Table, name: &str, c: &CacheProfile| {
            t.row([
                format!("{name} accesses"),
                c.accesses.to_string(),
                "filter hits".to_string(),
                c.filter_hits.to_string(),
                format!("({})", pct_or_na(c.filter_hits, c.accesses, 1)),
                format!(
                    "miss ratio {}",
                    pct_or_na(c.accesses.saturating_sub(c.hits), c.accesses, 3)
                ),
            ]);
        };
        cache(&mut t, "I$", &self.icache);
        cache(&mut t, "D$", &self.dcache);
        t.row([
            "TLB lookups".to_string(),
            (self.tlb_hits + self.page_walks).to_string(),
            "hits".to_string(),
            self.tlb_hits.to_string(),
            format!(
                "({})",
                pct_or_na(self.tlb_hits, self.tlb_hits + self.page_walks, 1)
            ),
            format!("directory walks {}", self.page_walks),
        ]);
        let per = |num: u64, den: u64, unit: &str| -> String {
            if den == 0 {
                format!("n/a {unit}")
            } else {
                format!("{:.2} {unit}", num as f64 / den as f64)
            }
        };
        t.row([
            "issue calls".to_string(),
            self.issue_calls.to_string(),
            "scans".to_string(),
            self.issue_scans.to_string(),
            String::new(),
            format!(
                "({}, {})",
                per(self.issue_scans, self.issue_calls, "scans/call"),
                per(self.issue_scans, self.cycles, "scans/cycle")
            ),
        ]);
        t.row([
            "activations".to_string(),
            self.eval_activations.to_string(),
            "ops evaluated".to_string(),
            self.eval_ops.to_string(),
            String::new(),
            format!(
                "({})",
                per(self.eval_ops, self.eval_activations, "ops/activation")
            ),
        ]);
        format!("## simulator fast-path profile\n{}", t.render())
    }
}

/// A percentage for display: `n/a` when the denominator is zero (the rate
/// is undefined — rendering the raw division would print `NaN`).
fn pct_or_na(num: u64, den: u64, decimals: usize) -> String {
    if den == 0 {
        "n/a".to_string()
    } else {
        format!(
            "{:>5.decimals$}%",
            num as f64 / den as f64 * 100.0,
            decimals = decimals
        )
    }
}

/// Zero-safe ratio backing the numeric rate accessors: 0.0 when the
/// denominator is zero, so downstream arithmetic (JSON emission, averages)
/// never sees `NaN`/`inf`.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rendered row starting with `label`, column padding collapsed to
    /// single spaces.
    fn row(text: &str, label: &str) -> String {
        let line = text.lines().find(|l| l.starts_with(label)).expect(label);
        line.split_whitespace().collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn rates_are_well_defined_on_empty_profiles() {
        let p = Profile::default();
        assert_eq!(p.tlb_hit_rate(), 0.0);
        assert_eq!(p.icache.filter_rate(), 0.0);
        assert_eq!(p.scans_per_cycle(), 0.0);
        assert!(p.render().contains("simulator fast-path profile"));
    }

    #[test]
    fn zero_denominator_rates_render_as_na_not_nan() {
        // A freshly built engine (or a perfect-memory run) has caches with
        // zero accesses and no issue attempts: every rate is undefined and
        // must print as `n/a` — never `NaN`, `inf` or a misleading `0.0%`.
        let text = Profile::default().render();
        assert!(!text.contains("NaN"), "{text}");
        assert!(!text.contains("inf"), "{text}");
        assert!(text.contains("filter hits"), "{text}");
        assert!(text.contains("(n/a)"), "{text}");
        assert!(text.contains("miss ratio n/a"), "{text}");
        assert!(text.contains("(n/a scans/call, n/a scans/cycle)"), "{text}");
        assert_eq!(
            row(&text, "activations"),
            "activations 0 ops evaluated 0 (n/a ops/activation)",
            "{text}"
        );
    }

    #[test]
    fn partial_zero_denominators_render_defined_rates_only() {
        // Cycles ran but one cache was never touched: its rates are n/a
        // while the live counters still render numerically.
        let p = Profile {
            cycles: 50,
            dcache: CacheProfile {
                accesses: 100,
                hits: 90,
                filter_hits: 25,
            },
            issue_calls: 0,
            issue_scans: 0,
            ..Default::default()
        };
        let text = p.render();
        let icache_line = text
            .lines()
            .find(|l| l.starts_with("I$ accesses"))
            .expect("I$ row");
        assert!(icache_line.contains("miss ratio n/a"), "{text}");
        assert!(icache_line.contains("(n/a)"), "{text}");
        assert!(text.contains("( 25.0%)"), "{text}");
        assert!(text.contains("miss ratio 10.000%"), "{text}");
        assert!(text.contains("n/a scans/call"), "{text}");
        assert!(text.contains("0.00 scans/cycle"), "{text}");
    }

    #[test]
    fn render_reports_percentages() {
        let p = Profile {
            cycles: 100,
            icache: CacheProfile {
                accesses: 200,
                hits: 199,
                filter_hits: 100,
            },
            tlb_hits: 75,
            page_walks: 25,
            issue_calls: 400,
            issue_scans: 800,
            eval_activations: 40,
            eval_ops: 130,
            ..Default::default()
        };
        let text = p.render();
        assert!(text.contains("( 50.0%)"), "filter rate:\n{text}");
        assert!(text.contains("( 75.0%)"), "tlb rate:\n{text}");
        assert!(text.contains("2.00 scans/call"), "{text}");
        assert!(text.contains("8.00 scans/cycle"), "{text}");
        assert_eq!(
            row(&text, "activations"),
            "activations 40 ops evaluated 130 (3.25 ops/activation)",
            "{text}"
        );
    }
}
