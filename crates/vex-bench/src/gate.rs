//! The paired throughput gate behind `bench-gate`.
//!
//! A throughput number stored on one host and compared with a fresh one
//! on another measures the hosts as much as the code, and on a shared
//! machine the same binary can read 20% apart from one minute to the
//! next. So the gate never compares with a stored number. It times the
//! parent's and the change's binaries on the same arguments in the same
//! minutes, [`ROUNDS`] times, alternating which side goes first, and
//! judges the per-round ratios change ÷ parent (above 1: the change is
//! slower). A session fails only when
//!
//! 1. the median ratio is above `1 + FLOOR`: the typical round is
//!    slower by more than [`FLOOR`], and
//! 2. the lower quartile is above 1: at least three quarters of the
//!    rounds are slower, so the median is not carried by a few noisy
//!    rounds.
//!
//! The constants come from measured sessions on a shared 2-vCPU VM
//! (docs/PERF.md, "The paired regression gate"): every A/A session of
//! one binary against a copy of itself passes, every session against a
//! build simulating 1.233× the cycles fails, and five of six against
//! one simulating 1.118× fail.

/// Rounds per session; each round runs the parent once and the change
/// once.
pub const ROUNDS: usize = 12;

/// The median slowdown a change may show before it can fail the gate.
pub const FLOOR: f64 = 0.05;

/// The verdict of one session and the numbers behind it.
#[derive(Debug)]
pub struct Gate {
    /// Median of the per-round ratios change ÷ parent.
    pub median: f64,
    /// Lower quartile of the ratios.
    pub lower_quartile: f64,
    /// Rounds in which the change took longer than the parent.
    pub slower: usize,
    /// The median is above `1 + FLOOR` and the lower quartile above 1.
    pub fail: bool,
}

/// Judges a session of `(parent_s, change_s)` rounds. The quartiles
/// interpolate linearly between the sorted ratios. `rounds` must not be
/// empty.
pub fn judge(rounds: &[(f64, f64)]) -> Gate {
    let mut ratios: Vec<f64> = rounds
        .iter()
        .map(|&(parent, change)| change / parent)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = quantile(&ratios, 0.5);
    let lower_quartile = quantile(&ratios, 0.25);
    Gate {
        median,
        lower_quartile,
        slower: rounds
            .iter()
            .filter(|&&(parent, change)| change > parent)
            .count(),
        fail: median > 1.0 + FLOOR && lower_quartile > 1.0,
    }
}

/// The `q` quantile of a sorted, non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session whose rounds have these ratios, the parent at 1 s.
    fn session(ratios: &[f64]) -> Gate {
        let rounds: Vec<(f64, f64)> = ratios.iter().map(|&r| (1.0, r)).collect();
        judge(&rounds)
    }

    #[test]
    fn aa_mix_around_one_passes() {
        let g = session(&[
            0.91, 1.08, 0.97, 1.12, 0.99, 1.03, 0.88, 1.01, 0.95, 1.06, 0.93, 1.10,
        ]);
        assert!(!g.fail, "{g:?}");
        assert!((g.median - 1.0).abs() < 0.02);
    }

    #[test]
    fn significant_drop_beyond_floor_fails() {
        let g = session(&[1.10; ROUNDS]);
        assert!(g.fail);
        assert!((g.median - 1.10).abs() < 1e-12);
        assert_eq!(g.slower, ROUNDS);
    }

    #[test]
    fn drop_inside_noise_band_passes() {
        // Median 1.10, but three rounds of twelve faster: the lower
        // quartile interpolates to 0.9375.
        let g = session(&[
            0.80, 0.85, 0.90, 0.95, 1.10, 1.10, 1.10, 1.10, 1.10, 1.10, 1.10, 1.10,
        ]);
        assert!(g.median > 1.0 + FLOOR);
        assert!((g.lower_quartile - 0.9375).abs() < 1e-12);
        assert!(!g.fail);
    }

    #[test]
    fn median_of_exactly_the_floor_passes() {
        let g = session(&[1.05; ROUNDS]);
        assert_eq!(g.median, 1.0 + FLOOR);
        assert!(g.lower_quartile > 1.0);
        assert!(!g.fail);
    }

    #[test]
    fn improvement_passes() {
        let g = session(&[0.9; ROUNDS]);
        assert!(!g.fail);
        assert_eq!(g.slower, 0);
    }

    #[test]
    fn slower_rounds_are_counted() {
        // A tie is not slower.
        let rounds = [(1.0, 1.2), (1.0, 1.0), (2.0, 1.0), (1.0, 1.01), (0.5, 0.6)];
        let g = judge(&rounds);
        assert_eq!(g.slower, 3);
        // Sorted ratios 0.5, 1.0, 1.01, 1.2, 1.2: the median is the
        // middle one and the lower quartile the second.
        assert_eq!(g.median, 1.01);
        assert_eq!(g.lower_quartile, 1.0);
    }
}
