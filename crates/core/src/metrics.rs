//! Communications-specific performance metrics (§5.2).
//!
//! * **TTS(P)** — expected time to observe the ground state with
//!   confidence `P`: `TTS = T_cycle · ln(1−P)/ln(1−P₀)` where `P₀` is
//!   the per-anneal ground-state probability (§5.2.1, the QA
//!   literature's standard metric with `P = 0.99`).
//! * **E[BER(Na)]** — the paper's Eq. 9: the expected bit error rate of
//!   the *best* of `Na` anneals, an order statistic over the ranked
//!   solution distribution.
//! * **TTB(p)** — time to reach BER `p`: the smallest `Na` with
//!   `E[BER(Na)] ≤ p`, converted to wall clock as `Na·T_cycle/P_f`
//!   (§5.2.2), amortizing over the chip's parallelization factor.
//! * **TTF(p)** — same for frame error rate via
//!   `FER = 1 − (1−BER)^bits`.

use crate::decoder::DecodeRun;
use quamax_wireless::{count_bit_errors, fer_from_ber};

/// Expected time-to-solution: `T_cycle·ln(1−target)/ln(1−p0)`, in the
/// units of `cycle_time`. Returns `None` when `p0 = 0` (ground state
/// never observed); returns `cycle_time` when `p0 ≥ 1` (every anneal
/// succeeds — one cycle suffices at any confidence).
fn time_to_solution(p0: f64, cycle_time: f64, target_confidence: f64) -> Option<f64> {
    assert!(
        (0.0..1.0).contains(&target_confidence) || target_confidence < 1.0,
        "confidence must be < 1"
    );
    assert!(
        (0.0..=1.0).contains(&p0),
        "p0 must be a probability, got {p0}"
    );
    if p0 == 0.0 {
        return None;
    }
    if p0 >= 1.0 {
        return Some(cycle_time);
    }
    let repeats = (1.0 - target_confidence).ln() / (1.0 - p0).ln();
    Some(cycle_time * repeats.max(1.0))
}

/// The per-rank bit-error profile of one decode run: everything Eq. 9
/// needs. `probs[r]` is the empirical probability of the rank-`r`
/// solution, `errors[r]` its bit errors against ground truth, `n_bits`
/// the payload size `N`.
#[derive(Clone, Debug, PartialEq)]
pub struct BitErrorProfile {
    probs: Vec<f64>,
    errors: Vec<usize>,
    n_bits: usize,
}

impl BitErrorProfile {
    /// Builds the profile from a decode run and the transmitted bits.
    ///
    /// # Panics
    /// Panics when `tx_bits` length differs from the run's payload.
    pub fn from_run(run: &DecodeRun, tx_bits: &[u8]) -> Self {
        let entries = run.distribution().entries();
        let total = run.distribution().total_samples() as f64;
        let mut probs = Vec::with_capacity(entries.len());
        let mut errors = Vec::with_capacity(entries.len());
        for (rank, e) in entries.iter().enumerate() {
            probs.push(e.count as f64 / total);
            let bits = run
                .bits_for_rank(rank)
                .expect("rank enumerated from the run's own entries");
            errors.push(count_bit_errors(&bits, tx_bits));
        }
        BitErrorProfile {
            probs,
            errors,
            n_bits: tx_bits.len(),
        }
    }

    /// Builds a profile from raw parts (tests, canned distributions).
    pub fn from_parts(probs: Vec<f64>, errors: Vec<usize>, n_bits: usize) -> Self {
        assert_eq!(probs.len(), errors.len(), "ranks disagree");
        assert!(n_bits > 0, "empty payload");
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "probabilities must sum to 1, got {total}"
        );
        BitErrorProfile {
            probs,
            errors,
            n_bits,
        }
    }

    /// Payload size `N` in bits.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Bit errors of the best (rank-0) solution — the BER floor this
    /// run converges to as `Na → ∞`.
    pub fn floor_ber(&self) -> f64 {
        self.errors
            .first()
            .map_or(0.0, |&e| e as f64 / self.n_bits as f64)
    }

    /// The paper's Eq. 9: expected BER of the minimum-energy solution
    /// among `na` anneals.
    ///
    /// `E[BER(Na)] = Σ_k [ (Σ_{r≥k} p_r)^Na − (Σ_{r≥k+1} p_r)^Na ] · F_k / N`.
    ///
    /// Monotone non-increasing in `na` whenever bit errors are
    /// non-decreasing with rank; with channel noise the ground state
    /// itself can carry errors while an excited solution does not
    /// (Fig. 4's non-monotone green curves), in which case `E[BER]`
    /// legitimately converges *upward* to [`BitErrorProfile::floor_ber`].
    pub fn expected_ber(&self, na: usize) -> f64 {
        assert!(na > 0, "need at least one anneal");
        let l = self.probs.len();
        if l == 0 {
            return 0.0;
        }
        // tail[k] = Σ_{r ≥ k} p_r, accumulated from the high ranks so
        // the floating-point tail is exact at the top.
        let mut tail = vec![0.0; l + 1];
        for k in (0..l).rev() {
            tail[k] = tail[k + 1] + self.probs[k];
        }
        let na_f = na as f64;
        let mut acc = 0.0;
        for k in 0..l {
            if self.errors[k] == 0 {
                continue;
            }
            let p_best_is_k = tail[k].powf(na_f) - tail[k + 1].powf(na_f);
            acc += p_best_is_k * self.errors[k] as f64;
        }
        acc / self.n_bits as f64
    }

    /// Smallest `Na` with `E[BER(Na)] ≤ target`, or `None` when the
    /// run's floor BER exceeds the target (more anneals cannot help).
    ///
    /// Assumes the monotone regime (see [`BitErrorProfile::expected_ber`])
    /// for its binary search; in the rare non-monotone regime the
    /// returned `Na` still satisfies the target but may not be minimal.
    pub fn anneals_to_ber(&self, target: f64) -> Option<usize> {
        assert!(target >= 0.0, "target BER must be non-negative");
        if self.expected_ber(1) <= target {
            return Some(1);
        }
        if self.floor_ber() > target {
            return None;
        }
        // Exponential bracket, then binary search. Cap at 10^9 anneals:
        // beyond that the run is useless in practice (and tail^Na
        // underflows anyway).
        let mut hi = 2usize;
        while self.expected_ber(hi) > target {
            hi *= 2;
            if hi > 1_000_000_000 {
                return None;
            }
        }
        let mut lo = hi / 2;
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.expected_ber(mid) <= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }
}

/// Per-instance run statistics: the bit-error profile plus the wall
/// clock accounting needed to turn anneal counts into microseconds.
#[derive(Clone, Debug)]
pub struct RunStatistics {
    /// Eq. 9 inputs.
    pub profile: BitErrorProfile,
    /// Per-anneal ground-state probability (vs the known ground
    /// energy), for TTS.
    pub p0: f64,
    /// One anneal cycle `Ta + Tp` in µs.
    pub cycle_us: f64,
    /// Geometric parallelization factor `P_f ≥ 1`.
    pub parallel_factor: usize,
}

impl RunStatistics {
    /// Assembles statistics from a decode run, ground-truth bits, and
    /// the known ground energy (`None` = use the best energy this run
    /// observed, the standard fallback for sizes beyond exact search).
    pub fn from_run(run: &DecodeRun, tx_bits: &[u8], ground_energy: Option<f64>) -> Self {
        let profile = BitErrorProfile::from_run(run, tx_bits);
        let reference = ground_energy
            .or_else(|| run.distribution().best_energy())
            .unwrap_or(0.0);
        let tol = 1e-6 * reference.abs().max(1.0);
        let p0 = run.distribution().probability_of_energy(reference, tol);
        RunStatistics {
            profile,
            p0,
            cycle_us: run.anneal_cycle_us(),
            parallel_factor: run.parallel_factor().max(1),
        }
    }

    /// TTS(0.99) in µs (§5.2.1's convention), un-amortized.
    pub fn tts99_us(&self) -> Option<f64> {
        time_to_solution(self.p0, self.cycle_us, 0.99)
    }

    /// Time-to-BER in µs: `Na(p)·cycle/P_f` (§5.2.2). Amortizes over
    /// the parallelization factor but never reports less than one
    /// cycle.
    pub fn ttb_us(&self, target_ber: f64) -> Option<f64> {
        let na = self.profile.anneals_to_ber(target_ber)?;
        let raw = na as f64 * self.cycle_us / self.parallel_factor as f64;
        Some(raw.max(self.cycle_us / self.parallel_factor as f64))
    }

    /// Time-to-FER in µs for `frame_bytes` frames: smallest `Na` whose
    /// `FER(E[BER(Na)]) ≤ target`, then the same wall-clock conversion.
    pub fn ttf_us(&self, target_fer: f64, frame_bytes: usize) -> Option<f64> {
        // FER is monotone in BER, so invert it once: find the BER level
        // equivalent to the FER target…
        if fer_from_ber(self.profile.floor_ber(), frame_bytes) > target_fer {
            return None;
        }
        // …by bisection on BER in [0, 1].
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if fer_from_ber(mid, frame_bytes) <= target_fer {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        self.ttb_us(lo)
    }

    /// Expected BER after `na` anneals (Eq. 9 passthrough).
    pub fn expected_ber(&self, na: usize) -> f64 {
        self.profile.expected_ber(na)
    }

    /// Wall-clock µs corresponding to `na` anneals on this instance.
    pub fn time_for_anneals_us(&self, na: usize) -> f64 {
        na as f64 * self.cycle_us / self.parallel_factor as f64
    }
}

/// The `q`-th percentile (0–100) of `xs` by linear interpolation.
/// Infinite entries sort to the top, so medians over partially-failed
/// instance sets behave sensibly.
///
/// # Panics
/// Panics on an empty slice or out-of-range `q`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&q), "percentile must lie in 0–100");
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let idx = pos.floor() as usize;
    let frac = pos - idx as f64;
    // frac = 0 must not touch v[idx+1]: `0.0 × ∞ = NaN` would poison
    // medians over instance sets containing unbounded TTBs.
    if frac > 0.0 && idx + 1 < v.len() {
        v[idx] * (1.0 - frac) + v[idx + 1] * frac
    } else {
        v[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tts_formula() {
        // p0 = 0.5, cycle 1 µs, target 0.99: ln(0.01)/ln(0.5) ≈ 6.64.
        let t = time_to_solution(0.5, 1.0, 0.99).unwrap();
        assert!((t - 6.6438).abs() < 1e-3, "{t}");
        // Certain success: one cycle.
        assert_eq!(time_to_solution(1.0, 3.0, 0.99), Some(3.0));
        // Never observed: unbounded.
        assert_eq!(time_to_solution(0.0, 1.0, 0.99), None);
        // Near-certain per anneal: floor at one cycle, not less.
        assert_eq!(time_to_solution(0.9999, 2.0, 0.5), Some(2.0));
    }

    /// A canned profile: rank 0 = correct (p=0.3), rank 1 = 1 bit error
    /// (p=0.5), rank 2 = 3 bit errors (p=0.2); N = 10 bits.
    fn canned() -> BitErrorProfile {
        BitErrorProfile::from_parts(vec![0.3, 0.5, 0.2], vec![0, 1, 3], 10)
    }

    #[test]
    fn eq9_single_anneal_is_the_mixture_mean() {
        let p = canned();
        // E[BER(1)] = (0.3·0 + 0.5·1 + 0.2·3)/10 = 0.11.
        assert!((p.expected_ber(1) - 0.11).abs() < 1e-12);
    }

    #[test]
    fn eq9_matches_direct_order_statistic_for_two_anneals() {
        let p = canned();
        // With 2 anneals the best rank is min of two iid draws:
        // P(best=0) = 1−0.7² = 0.51; P(best=1) = 0.7²−0.2² = 0.45;
        // P(best=2) = 0.04. E[BER] = (0.45·1 + 0.04·3)/10 = 0.057.
        assert!((p.expected_ber(2) - 0.057).abs() < 1e-12);
    }

    #[test]
    fn eq9_monotone_and_converges_to_floor() {
        let p = canned();
        let mut prev = f64::INFINITY;
        for na in [1usize, 2, 4, 8, 16, 64, 256, 4096] {
            let b = p.expected_ber(na);
            assert!(b <= prev + 1e-15, "not monotone at {na}");
            prev = b;
        }
        assert!(
            p.expected_ber(10_000) < 1e-12,
            "floor should be 0 (rank 0 correct)"
        );
        assert_eq!(p.floor_ber(), 0.0);
    }

    #[test]
    fn eq9_agrees_with_monte_carlo() {
        // Resample the canned distribution and compare Eq. 9 with the
        // empirical mean of min-rank errors.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let p = canned();
        let mut rng = StdRng::seed_from_u64(1);
        let na = 3;
        let trials = 200_000;
        let mut acc = 0.0;
        for _ in 0..trials {
            let mut best_rank = usize::MAX;
            for _ in 0..na {
                let u: f64 = rng.random();
                let rank = if u < 0.3 {
                    0
                } else if u < 0.8 {
                    1
                } else {
                    2
                };
                best_rank = best_rank.min(rank);
            }
            acc += [0.0, 1.0, 3.0][best_rank] / 10.0;
        }
        let mc = acc / trials as f64;
        let eq9 = p.expected_ber(na);
        assert!((mc - eq9).abs() < 5e-4, "MC {mc} vs Eq.9 {eq9}");
    }

    #[test]
    fn anneals_to_ber_inverts_eq9() {
        let p = canned();
        let na = p.anneals_to_ber(1e-3).unwrap();
        assert!(p.expected_ber(na) <= 1e-3);
        assert!(
            na == 1 || p.expected_ber(na - 1) > 1e-3,
            "not minimal: {na}"
        );
    }

    #[test]
    fn unreachable_ber_returns_none() {
        // Rank 0 itself has an error: floor BER = 0.1 > target.
        let p = BitErrorProfile::from_parts(vec![0.6, 0.4], vec![1, 2], 10);
        assert_eq!(p.anneals_to_ber(1e-6), None);
        assert!((p.floor_ber() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn run_statistics_wall_clock_accounting() {
        let stats = RunStatistics {
            profile: canned(),
            p0: 0.3,
            cycle_us: 2.0,
            parallel_factor: 4,
        };
        // Na(1e-3) cycles of 2 µs amortized 4×.
        let na = stats.profile.anneals_to_ber(1e-3).unwrap();
        let ttb = stats.ttb_us(1e-3).unwrap();
        assert!((ttb - na as f64 * 2.0 / 4.0).abs() < 1e-9);
        assert!(stats.tts99_us().is_some());
        assert!((stats.time_for_anneals_us(10) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ttf_threshold_is_consistent_with_fer() {
        let stats = RunStatistics {
            profile: canned(),
            p0: 0.3,
            cycle_us: 1.0,
            parallel_factor: 1,
        };
        let ttf = stats.ttf_us(1e-4, 1500).unwrap();
        // The BER needed for FER 1e-4 over 12,000 bits ≈ 8.3e-9; the
        // implied anneal count must reach it.
        let na = (ttf / 1.0).round() as usize;
        assert!(fer_from_ber(stats.expected_ber(na), 1500) <= 1e-4 * 1.01);
    }

    #[test]
    fn ttf_unreachable_when_floor_ber_too_high() {
        let p = BitErrorProfile::from_parts(vec![1.0], vec![2], 10);
        let stats = RunStatistics {
            profile: p,
            p0: 0.0,
            cycle_us: 1.0,
            parallel_factor: 1,
        };
        assert_eq!(stats.ttf_us(1e-4, 1500), None);
        assert_eq!(stats.tts99_us(), None);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        // Infinities sort high and dominate upper percentiles only.
        let with_inf = [1.0, f64::INFINITY, 2.0];
        assert_eq!(percentile(&with_inf, 50.0), 2.0);
        assert_eq!(percentile(&with_inf, 100.0), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_profile_probabilities_panic() {
        let _ = BitErrorProfile::from_parts(vec![0.5, 0.2], vec![0, 1], 4);
    }
}
