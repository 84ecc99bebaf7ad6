//! Deadline-aware retry: exponential backoff with deterministic
//! seeded jitter, funded by the frame's remaining deadline slack.
//!
//! A frame only buys what its deadline slack can pay for: a retry is
//! scheduled only when `backoff + retry cost` still fits under the
//! deadline. A QuAMax retry is *warm*:
//! the failed attempt's best candidate seeds a `decode_reverse_from`
//! reverse anneal, so the retry's anneal bill is a configured fraction
//! of a cold job's ([`RetryPolicy::warm_fraction`]).

/// How (and whether) failed attempts are retried.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed per job, including the first (1 =
    /// retries disabled).
    pub max_attempts: u32,
    /// First retry's backoff, µs.
    pub base_backoff_us: f64,
    /// Backoff growth per additional retry (exponential).
    pub multiplier: f64,
    /// Jitter half-width as a fraction of the deterministic backoff
    /// (`0.2` = ±20%), drawn from a seeded hash — two runs with the
    /// same seeds jitter identically.
    pub jitter_fraction: f64,
    /// Anneal-cost fraction of a warm (`decode_reverse_from`) retry
    /// relative to a cold job, in `(0, 1]`. Warm restarts re-anneal
    /// from the failed attempt's best candidate at the reversal point
    /// instead of from scratch, so they need fewer (shorter) anneals.
    pub warm_fraction: f64,
}

impl RetryPolicy {
    /// Retries disabled: one attempt, then escalate or fail.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_us: 0.0,
            multiplier: 2.0,
            jitter_fraction: 0.0,
            warm_fraction: 1.0,
        }
    }

    /// The guarded default: up to 3 attempts, 20 µs base backoff
    /// doubling per retry, ±20% jitter, warm retries at half a cold
    /// job's anneal bill.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 20.0,
            multiplier: 2.0,
            jitter_fraction: 0.2,
            warm_fraction: 0.5,
        }
    }

    /// Backoff before retry number `retry` (1 = first retry), µs:
    /// `base · multiplier^(retry−1)`, jittered by a deterministic
    /// `seed`-keyed factor in `[1 − jitter, 1 + jitter]`.
    ///
    /// # Panics
    /// Panics when `retry` is zero (the first attempt has no backoff).
    fn backoff_us(&self, retry: u32, seed: u64) -> f64 {
        assert!(retry >= 1, "backoff precedes a retry, not the first try");
        let deterministic = self.base_backoff_us * self.multiplier.powi(retry as i32 - 1);
        if self.jitter_fraction == 0.0 || deterministic == 0.0 {
            return deterministic;
        }
        let unit = (splitmix(seed, retry as u64) >> 11) as f64 / (1u64 << 53) as f64;
        deterministic * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))
    }

    /// Whether (and when) a retry is funded: given that the failure
    /// was observed `elapsed_us` after the frame's arrival, a deadline
    /// of `deadline_us`, and a retry costing `retry_cost_us` of
    /// service, returns the backoff to wait — or `None` when the
    /// attempt cap is hit or the deadline slack cannot pay for
    /// `backoff + retry_cost` (a retry that cannot land in time only
    /// burns the pool). `next_attempt` is the attempt number the retry
    /// would be (2 = first retry).
    pub fn fund_retry(
        &self,
        next_attempt: u32,
        elapsed_us: f64,
        deadline_us: f64,
        retry_cost_us: f64,
        seed: u64,
    ) -> Option<f64> {
        if next_attempt > self.max_attempts {
            return None;
        }
        let backoff = self.backoff_us(next_attempt - 1, seed);
        let slack = deadline_us - elapsed_us;
        if backoff + retry_cost_us > slack {
            return None;
        }
        Some(backoff)
    }
}

/// SplitMix64 of `(seed, k)` — the jitter stream.
fn splitmix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy {
            jitter_fraction: 0.0,
            ..RetryPolicy::standard()
        };
        assert!((p.backoff_us(1, 0) - 20.0).abs() < 1e-12);
        assert!((p.backoff_us(2, 0) - 40.0).abs() < 1e-12);
        assert!((p.backoff_us(3, 0) - 80.0).abs() < 1e-12);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetryPolicy::standard();
        for seed in 0..200 {
            let b = p.backoff_us(1, seed);
            assert!((16.0..=24.0).contains(&b), "±20% of 20: {b}");
            assert_eq!(b.to_bits(), p.backoff_us(1, seed).to_bits());
        }
        // Jitter actually varies across seeds.
        let spread: std::collections::HashSet<u64> =
            (0..50).map(|s| p.backoff_us(1, s).to_bits()).collect();
        assert!(spread.len() > 40);
    }

    #[test]
    fn funding_respects_cap_and_slack() {
        let p = RetryPolicy {
            jitter_fraction: 0.0,
            ..RetryPolicy::standard()
        };
        // Plenty of slack: funded with the deterministic backoff.
        assert_eq!(p.fund_retry(2, 100.0, 3_000.0, 500.0, 0), Some(20.0));
        // Attempt cap: max_attempts = 3 allows attempts 2 and 3 only.
        assert_eq!(p.fund_retry(4, 0.0, 1e9, 0.0, 0), None);
        // Slack cannot pay for backoff + cost: not funded.
        assert_eq!(p.fund_retry(2, 2_900.0, 3_000.0, 90.0, 0), None);
        // Exactly affordable: funded.
        assert_eq!(p.fund_retry(2, 2_880.0, 3_000.0, 100.0, 0), Some(20.0));
        // A frame past its deadline funds nothing.
        assert_eq!(p.fund_retry(2, 5_000.0, 3_000.0, 0.0, 0), None);
    }

    #[test]
    fn disabled_policy_funds_nothing() {
        let p = RetryPolicy::disabled();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.fund_retry(2, 0.0, 1e9, 0.0, 7), None);
    }
}
