//! Retry pacing: truncated exponential backoff with deterministic jitter.
//!
//! The sweep service (`vex serve`) paces its re-queue of a point whose
//! worker crashed, hung or failed with this policy. `vex sweep` has no
//! retry path: it attempts each point once (see [`crate::runner`]).
//!
//! The jitter is *deterministic*: it is derived by hashing the point's
//! content-addressed key with the attempt number, not from a clock or an
//! RNG. Retries therefore de-synchronize across points (different keys
//! get different jitter) while every run of the same spec produces the
//! same schedule.

use crate::journal::Fnv64;
use std::hash::Hasher as _;

/// Truncated exponential backoff: attempt `n` (2 = first retry) waits
/// `base_ms << (n-2)` capped at `max_ms`, plus up to half that again of
/// deterministic jitter when `jitter` is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Ceiling on the un-jittered delay, in milliseconds.
    pub max_ms: u64,
    /// Add up to `delay/2` of key-derived jitter.
    pub jitter: bool,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ms: 100,
            max_ms: 5_000,
            jitter: true,
        }
    }
}

impl BackoffPolicy {
    /// A policy with no waiting at all (tests, or operators who want the
    /// pre-backoff immediate-retry behaviour).
    pub fn none() -> BackoffPolicy {
        BackoffPolicy {
            base_ms: 0,
            max_ms: 0,
            jitter: false,
        }
    }

    /// Delay in milliseconds before running `attempt` (1-based; attempt 1
    /// is the first try and never waits) of the point identified by `key`.
    pub fn delay_ms(&self, key: u64, attempt: u32) -> u64 {
        if attempt <= 1 || self.base_ms == 0 {
            return 0;
        }
        let exp = (attempt - 2).min(32);
        let delay = self
            .base_ms
            .saturating_mul(1u64 << exp)
            .min(self.max_ms.max(self.base_ms));
        if !self.jitter || delay == 0 {
            return delay;
        }
        // Key- and attempt-derived jitter in [0, delay/2]: deterministic,
        // but different per point, so a crashed batch doesn't thunder
        // back in lockstep.
        let mut h = Fnv64::new();
        h.update(&key.to_le_bytes());
        h.update(&attempt.to_le_bytes());
        delay + h.finish() % (delay / 2 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_attempt_never_waits() {
        let p = BackoffPolicy::default();
        assert_eq!(p.delay_ms(0xabc, 1), 0);
        assert_eq!(p.delay_ms(0xabc, 0), 0);
    }

    #[test]
    fn unjittered_delays_double_then_cap() {
        let p = BackoffPolicy {
            base_ms: 100,
            max_ms: 450,
            jitter: false,
        };
        assert_eq!(p.delay_ms(1, 2), 100);
        assert_eq!(p.delay_ms(1, 3), 200);
        assert_eq!(p.delay_ms(1, 4), 400);
        assert_eq!(p.delay_ms(1, 5), 450); // capped
        assert_eq!(p.delay_ms(1, 40), 450); // shift saturates safely
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = BackoffPolicy {
            base_ms: 100,
            max_ms: 5_000,
            jitter: true,
        };
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            for attempt in 2..8 {
                let base = BackoffPolicy { jitter: false, ..p }.delay_ms(key, attempt);
                let d = p.delay_ms(key, attempt);
                assert!(d >= base && d <= base + base / 2, "key={key} a={attempt}");
                assert_eq!(d, p.delay_ms(key, attempt), "deterministic");
            }
        }
    }

    #[test]
    fn distinct_keys_desynchronize() {
        let p = BackoffPolicy::default();
        let delays: Vec<u64> = (0u64..16).map(|k| p.delay_ms(k, 2)).collect();
        let distinct: std::collections::HashSet<_> = delays.iter().collect();
        assert!(distinct.len() > 1, "jitter must vary by key: {delays:?}");
    }

    #[test]
    fn none_policy_is_all_zero() {
        let p = BackoffPolicy::none();
        for attempt in 0..10 {
            assert_eq!(p.delay_ms(7, attempt), 0);
        }
    }
}
