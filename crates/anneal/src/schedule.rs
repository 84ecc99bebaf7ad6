//! Annealing schedules: the `s(t)` ramp, the `A(s)/B(s)` energy
//! curves, and their mapping to Monte-Carlo sweep plans.
//!
//! On hardware, the *annealing fraction* `s` ramps linearly from 0 to 1
//! over the anneal time `Ta`; an optional pause holds `s` fixed at
//! `s_p` for `Tp` (§2.2, §4). Two signals depend on `s`: the transverse
//! (quantum fluctuation) scale `A(s)`, maximal at `s = 0` and ~zero at
//! `s = 1`, and the problem energy scale `B(s)`, growing from ~0 to its
//! maximum. We use smooth closed-form stand-ins for the published DW2Q
//! curves:
//!
//! * `A(s) = A₀·(1−s)³` — fast early decay of quantum fluctuations;
//! * `B(s) = B₀·s·(0.2 + 0.8·s)` — near-quadratic growth,
//!   `B(1) = B₀ = 12 GHz` (h·GHz units).
//!
//! For the SA backend the schedule becomes a temperature ladder: the
//! physical energy scale at fraction `s` is `B(s)/B(1)` of the final
//! one, and the device bath sits at `T ≈ 13 mK` (≈ 0.27 GHz·h), so the
//! effective inverse temperature in programmed-coefficient units is
//! `β(s) = β_cold·B(s)/B(1)` with `β_cold = B₀/(2·k_B·T) ≈ 22`. A pause
//! inserts extra sweeps at the fixed `β(s_p)` — which is precisely why
//! pausing helps when `s_p` lands near the ordering region (Fig. 7).

/// Hardware-inspired constants for the schedule curves.
pub mod curves {
    /// Transverse-field scale at `s = 0`, h·GHz.
    pub const A0_GHZ: f64 = 6.0;
    /// Problem energy scale at `s = 1`, h·GHz.
    pub const B0_GHZ: f64 = 12.0;
    /// Effective device temperature in h·GHz (13 mK · k_B / h).
    pub const KT_GHZ: f64 = 0.27;

    /// Transverse signal `A(s)` in h·GHz.
    pub fn a(s: f64) -> f64 {
        A0_GHZ * (1.0 - s).powi(3)
    }

    /// Problem signal `B(s)` in h·GHz.
    pub fn b(s: f64) -> f64 {
        B0_GHZ * s * (0.2 + 0.8 * s)
    }

    /// Effective inverse temperature at fraction `s`, in units of the
    /// programmed (dimensionless) coefficients.
    pub fn beta(s: f64) -> f64 {
        b(s) / (2.0 * KT_GHZ)
    }
}

/// An annealing schedule: forward ramp with optional mid-anneal pause,
/// or a *reverse* anneal (§8's "new QA techniques such as reverse
/// annealing"): start fully annealed at `s = 1` from a candidate
/// state, ramp *down* to a reversal point, hold, and ramp back up —
/// a local refinement around the candidate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Schedule {
    /// Anneal (ramp) time `Ta` in microseconds. Hardware range 1–300 µs.
    /// For reverse schedules this is the total down+up ramp time.
    pub anneal_time_us: f64,
    /// Optional pause `(s_p, Tp µs)`: hold the schedule at fraction
    /// `s_p` for `Tp` microseconds. For reverse schedules, `s_p` is the
    /// reversal point and the hold there is mandatory.
    pub pause: Option<(f64, f64)>,
    /// `true` for a reverse anneal (1 → s_p → 1 instead of 0 → 1).
    pub reverse: bool,
}

impl Schedule {
    /// A plain ramp of `ta_us` microseconds.
    ///
    /// # Panics
    /// Panics outside the hardware's 1–300 µs range.
    pub fn standard(ta_us: f64) -> Self {
        assert!(
            (1.0..=300.0).contains(&ta_us),
            "anneal time must lie in the hardware range 1–300 µs, got {ta_us}"
        );
        Schedule {
            anneal_time_us: ta_us,
            pause: None,
            reverse: false,
        }
    }

    /// A ramp with a pause of `tp_us` at fraction `sp` (paper sweeps
    /// `sp ∈ 0.15–0.55`, `Tp ∈ {1, 10, 100} µs`).
    ///
    /// # Panics
    /// Panics for `sp` outside `(0, 1)` or non-positive `tp_us`.
    pub fn with_pause(ta_us: f64, sp: f64, tp_us: f64) -> Self {
        let mut s = Schedule::standard(ta_us);
        assert!(
            sp > 0.0 && sp < 1.0,
            "pause position must lie in (0,1), got {sp}"
        );
        assert!(tp_us > 0.0, "pause duration must be positive, got {tp_us}");
        s.pause = Some((sp, tp_us));
        s
    }

    /// A reverse anneal: down-ramp from `s = 1` to `s_target` over
    /// `ta_us/2`, hold for `hold_us`, up-ramp back to 1. Requires a
    /// candidate initial state at run time: the session reverse entries
    /// (`quamax_core`'s `DecodeSession::decode_reverse_from` and
    /// `VppSession::precode_reverse_from`) expand one onto the chains
    /// and pass it as the [`AnnealJob::init`](crate::AnnealJob::init)
    /// of an [`Annealer::run_jobs`](crate::Annealer::run_jobs) call.
    ///
    /// # Panics
    /// Panics for `s_target` outside `(0, 1)` or non-positive `hold_us`.
    pub fn reverse(ta_us: f64, s_target: f64, hold_us: f64) -> Self {
        let mut s = Schedule::with_pause(ta_us, s_target, hold_us);
        s.reverse = true;
        s
    }

    /// Total wall-clock duration of one anneal: `Ta + Tp`.
    pub fn total_time_us(&self) -> f64 {
        self.anneal_time_us + self.pause.map_or(0.0, |(_, tp)| tp)
    }

    /// The annealing fraction at wall-clock time `t_us ∈ [0, total]`.
    pub fn fraction_at(&self, t_us: f64) -> f64 {
        let t = t_us.clamp(0.0, self.total_time_us());
        if self.reverse {
            let (s_target, hold) = self.pause.expect("reverse schedules always hold");
            let half = self.anneal_time_us / 2.0;
            return if t < half {
                // Down-ramp 1 → s_target.
                1.0 - (1.0 - s_target) * (t / half)
            } else if t < half + hold {
                s_target
            } else {
                s_target + (1.0 - s_target) * ((t - half - hold) / half)
            };
        }
        match self.pause {
            None => t / self.anneal_time_us,
            Some((sp, tp)) => {
                let t_pause_start = sp * self.anneal_time_us;
                if t < t_pause_start {
                    t / self.anneal_time_us
                } else if t < t_pause_start + tp {
                    sp
                } else {
                    (t - tp) / self.anneal_time_us
                }
            }
        }
    }

    /// The per-sweep plan: the sequence of annealing fractions visited
    /// by consecutive Monte-Carlo sweeps at `sweeps_per_us` density.
    /// Always yields at least two sweeps (start and end of the ramp).
    pub fn sweep_fractions(&self, sweeps_per_us: f64) -> Vec<f64> {
        assert!(sweeps_per_us > 0.0, "sweep density must be positive");
        let total = self.total_time_us();
        let n = ((total * sweeps_per_us).round() as usize).max(2);
        (0..n)
            .map(|k| {
                // Sample sweep k at the midpoint of its time slot so a
                // 1-sweep-long pause still lands on s_p.
                let t = (k as f64 + 0.5) * total / n as f64;
                self.fraction_at(t)
            })
            .collect()
    }

    /// `true` when this schedule needs a candidate initial state.
    pub fn is_reverse(&self) -> bool {
        self.reverse
    }

    /// The reverse-anneal counterpart of this (forward) schedule: the
    /// same ramp time `Ta`, reversal point `s_target`, holding for the
    /// forward pause duration (or `Ta/2` when unpaused). This is the
    /// warm-start schedule an iterative detector derives from its
    /// forward operating point — the refinement anneal costs wall-clock
    /// time of the same order as the forward cycle it follows, and the
    /// deadline accounting reads the derived schedule's
    /// [`Schedule::total_time_us`] directly.
    ///
    /// A schedule that is already reverse is returned unchanged (its
    /// own reversal point wins).
    ///
    /// # Panics
    /// Panics for `s_target` outside `(0, 1)`.
    pub fn reverse_matched(&self, s_target: f64) -> Schedule {
        if self.reverse {
            return *self;
        }
        let hold = self.pause.map_or(self.anneal_time_us / 2.0, |(_, tp)| tp);
        Schedule::reverse(self.anneal_time_us, s_target, hold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_endpoints() {
        assert!((curves::a(0.0) - curves::A0_GHZ).abs() < 1e-12);
        assert!(curves::a(1.0).abs() < 1e-12);
        assert!(curves::b(0.0).abs() < 1e-12);
        assert!((curves::b(1.0) - curves::B0_GHZ).abs() < 1e-12);
    }

    #[test]
    fn curves_are_monotone() {
        for k in 0..100 {
            let s0 = k as f64 / 100.0;
            let s1 = (k + 1) as f64 / 100.0;
            assert!(curves::a(s1) <= curves::a(s0), "A must decay");
            assert!(curves::b(s1) >= curves::b(s0), "B must grow");
            assert!(curves::beta(s1) >= curves::beta(s0), "β must grow");
        }
    }

    #[test]
    fn final_beta_is_cold() {
        // B0/(2·kT) = 12/0.54 ≈ 22: deep in the ordered regime for
        // programmed coefficients of order 1.
        let b = curves::beta(1.0);
        assert!((b - 12.0 / 0.54).abs() < 1e-9, "β(1)={b}");
    }

    #[test]
    fn plain_ramp_fraction() {
        let s = Schedule::standard(10.0);
        assert_eq!(s.total_time_us(), 10.0);
        assert!((s.fraction_at(0.0) - 0.0).abs() < 1e-12);
        assert!((s.fraction_at(5.0) - 0.5).abs() < 1e-12);
        assert!((s.fraction_at(10.0) - 1.0).abs() < 1e-12);
        // Clamped outside.
        assert!((s.fraction_at(99.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pause_holds_fraction() {
        let s = Schedule::with_pause(10.0, 0.3, 5.0);
        assert_eq!(s.total_time_us(), 15.0);
        // Before the pause: plain ramp.
        assert!((s.fraction_at(2.0) - 0.2).abs() < 1e-12);
        // During the pause (starts at t=3): held at 0.3.
        assert!((s.fraction_at(3.5) - 0.3).abs() < 1e-12);
        assert!((s.fraction_at(7.9) - 0.3).abs() < 1e-12);
        // After: resumes where it left off.
        assert!((s.fraction_at(8.5) - 0.35).abs() < 1e-12);
        assert!((s.fraction_at(15.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_plan_counts_and_monotonicity() {
        let s = Schedule::standard(5.0);
        let plan = s.sweep_fractions(20.0);
        assert_eq!(plan.len(), 100);
        for w in plan.windows(2) {
            assert!(w[1] >= w[0], "ramp plan must be non-decreasing");
        }
        assert!(plan[0] < 0.02);
        assert!(*plan.last().unwrap() > 0.98);
    }

    #[test]
    fn paused_plan_spends_sweeps_at_sp() {
        let s = Schedule::with_pause(1.0, 0.4, 9.0);
        let plan = s.sweep_fractions(10.0);
        assert_eq!(plan.len(), 100);
        let at_pause = plan.iter().filter(|&&f| (f - 0.4).abs() < 1e-9).count();
        // 9 of 10 µs are pause: ~90% of sweeps at s_p.
        assert!(at_pause >= 85, "only {at_pause} sweeps at the pause point");
    }

    #[test]
    fn very_short_anneal_still_has_a_plan() {
        let s = Schedule::standard(1.0);
        let plan = s.sweep_fractions(1.0);
        assert!(plan.len() >= 2);
    }

    #[test]
    fn reverse_schedule_shape() {
        let s = Schedule::reverse(2.0, 0.4, 3.0);
        assert!(s.is_reverse());
        assert_eq!(s.total_time_us(), 5.0);
        // Starts annealed…
        assert!((s.fraction_at(0.0) - 1.0).abs() < 1e-12);
        // …halfway down the down-ramp…
        assert!((s.fraction_at(0.5) - 0.7).abs() < 1e-12);
        // …holds at the reversal point…
        assert!((s.fraction_at(1.0) - 0.4).abs() < 1e-12);
        assert!((s.fraction_at(3.9) - 0.4).abs() < 1e-12);
        // …and returns to 1.
        assert!((s.fraction_at(5.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reverse_sweep_plan_is_v_shaped() {
        let s = Schedule::reverse(2.0, 0.3, 2.0);
        let plan = s.sweep_fractions(10.0);
        let min = plan.iter().copied().fold(f64::INFINITY, f64::min);
        assert!((min - 0.3).abs() < 1e-9);
        assert!(plan[0] > 0.9, "must start near s=1");
        assert!(*plan.last().unwrap() > 0.9, "must end near s=1");
    }

    #[test]
    fn reverse_matched_derives_a_reverse_schedule() {
        // Paused forward point: the hold carries over.
        let fwd = Schedule::with_pause(1.0, 0.35, 1.0);
        let rev = fwd.reverse_matched(0.6);
        assert!(rev.is_reverse());
        assert_eq!(rev.anneal_time_us, 1.0);
        assert_eq!(rev.pause, Some((0.6, 1.0)));
        assert_eq!(rev.total_time_us(), fwd.total_time_us());
        // Unpaused forward point: hold of Ta/2.
        let plain = Schedule::standard(2.0).reverse_matched(0.5);
        assert_eq!(plain.pause, Some((0.5, 1.0)));
        // Already reverse: unchanged.
        let already = Schedule::reverse(2.0, 0.4, 3.0);
        assert_eq!(already.reverse_matched(0.9), already);
    }

    #[test]
    #[should_panic(expected = "1–300")]
    fn out_of_range_anneal_time_panics() {
        let _ = Schedule::standard(0.5);
    }

    #[test]
    #[should_panic(expected = "pause position")]
    fn bad_pause_position_panics() {
        let _ = Schedule::with_pause(1.0, 1.5, 1.0);
    }
}
