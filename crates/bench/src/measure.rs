//! Interleaved host-time measurement: the one way a bench times code.
//!
//! [`interleave`] runs two or more arms round by round. In each round
//! every arm makes `samples / 4` untimed calls and then `samples` timed
//! ones, and the arm that goes first rotates from round to round, so a
//! slow phase of the host lands on every arm alike instead of on
//! whichever ran during it. A [`Timing`] reports each arm's minimum and
//! median call and, for a pair of arms, the median over rounds of the
//! ratio of their per-round medians with a percentile-bootstrap 95%
//! interval over rounds (fixed seed: the same times give the same
//! interval).
//!
//! Gates compare per-arm minima ([`Timing::min_ratio`]): on a shared
//! machine the fastest call is the one least touched by neighbors. The
//! paired ratio and its interval are reported beside it, not gated;
//! their width shows how far the host moved during the run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::time::Instant;

/// Resamples of the round ratios behind every interval.
const RESAMPLES: usize = 1000;

/// One arm: its name and the call it times.
pub type Arm<'a> = (&'static str, &'a mut dyn FnMut());

/// Runs `arms` for `rounds` rounds of `samples` timed calls each; in
/// round `r` the arms run in order from arm `r % arms.len()`.
///
/// # Panics
/// Panics with fewer than two arms or with zero rounds or samples.
pub fn interleave(rounds: usize, samples: usize, arms: &mut [Arm<'_>]) -> Timing {
    let k = arms.len();
    assert!(
        k >= 2 && rounds > 0 && samples > 0,
        "two arms, a round, a sample"
    );
    let mut ns = vec![Vec::with_capacity(rounds); k];
    for round in 0..rounds {
        for arm in (round..round + k).map(|slot| slot % k) {
            let call = &mut arms[arm].1;
            (0..samples / 4).for_each(|_| call());
            let block = (0..samples).map(|_| {
                let t0 = Instant::now();
                call();
                t0.elapsed().as_secs_f64() * 1e9
            });
            ns[arm].push(block.collect());
        }
    }
    let names = arms.iter().map(|(name, _)| *name).collect();
    Timing { names, ns }
}

/// Every timed call of an [`interleave`] run.
#[derive(Clone, Debug)]
pub struct Timing {
    names: Vec<&'static str>,
    /// `ns[arm][round]`: the arm's per-call nanoseconds in that round.
    ns: Vec<Vec<Vec<f64>>>,
}

/// A paired ratio: the median over rounds and its bootstrap 95%
/// interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Paired {
    /// Median over rounds of the per-round median ratio.
    pub median: f64,
    /// Percentile-bootstrap 95% interval of that median.
    pub ci95: [f64; 2],
}

impl Timing {
    /// The arm's fastest call, in nanoseconds.
    pub fn min_ns(&self, arm: usize) -> f64 {
        self.calls(arm).fold(f64::INFINITY, f64::min)
    }

    /// The arm's median call, in nanoseconds.
    pub fn median_ns(&self, arm: usize) -> f64 {
        median(&self.calls(arm).collect::<Vec<_>>())
    }

    /// `base`'s fastest call over `other`'s: the statistic gates use.
    pub fn min_ratio(&self, base: usize, other: usize) -> f64 {
        self.min_ns(base) / self.min_ns(other)
    }

    /// `base` over `other`, paired round by round.
    pub fn paired(&self, base: usize, other: usize) -> Paired {
        paired(&self.ns[base], &self.ns[other], 2019)
    }

    /// The object `head` with the pair's fields appended: the `unit`,
    /// each arm's minimum and median call in it (nanoseconds times
    /// `scale`), the minimum ratio, and the paired ratio with its
    /// interval.
    pub fn pair_json(&self, head: Value, pair: (usize, usize), scale: f64, unit: &str) -> Value {
        let (base, other) = pair;
        let arm = |a: usize| {
            let (min, median) = (self.min_ns(a) * scale, self.median_ns(a) * scale);
            serde_json::json!({ "min": sig4(min), "median": sig4(median) })
        };
        let paired = self.paired(base, other);
        let Value::Object(mut fields) = head else {
            panic!("a row is a JSON object, got {head:?}");
        };
        fields.extend([
            ("unit".into(), unit.into()),
            (self.names[base].into(), arm(base)),
            (self.names[other].into(), arm(other)),
            ("min_ratio".into(), sig4(self.min_ratio(base, other)).into()),
            ("paired_median_ratio".into(), sig4(paired.median).into()),
            (
                "paired_ratio_ci95".into(),
                paired.ci95.map(sig4).to_vec().into(),
            ),
        ]);
        Value::Object(fields)
    }

    /// The pair as one line of text, in the units of
    /// [`Timing::pair_json`].
    pub fn pair_line(&self, (base, other): (usize, usize), scale: f64, unit: &str) -> String {
        let Paired { median, ci95 } = self.paired(base, other);
        let (min_base, min_other) = (self.min_ns(base) * scale, self.min_ns(other) * scale);
        format!(
            "{} {} {} {} ({unit})   min ratio {:.2}x   paired {median:.2}x [{:.2}, {:.2}]",
            self.names[base],
            sig4(min_base),
            self.names[other],
            sig4(min_other),
            self.min_ratio(base, other),
            ci95[0],
            ci95[1],
        )
    }

    fn calls(&self, arm: usize) -> impl Iterator<Item = f64> + '_ {
        self.ns[arm].iter().flatten().copied()
    }
}

/// The median of `xs` (the mean of the two middle values when their
/// count is even).
///
/// # Panics
/// Panics on an empty slice or a NaN.
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = sorted.len() / 2;
    match sorted.len() % 2 {
        1 => sorted[mid],
        _ => (sorted[mid - 1] + sorted[mid]) / 2.0,
    }
}

/// The paired ratio of `base` over `other`, given each one's per-call
/// times by round: the median over rounds of `median(base[r]) /
/// median(other[r])`, with the 2.5th and 97.5th percentiles of that
/// median over 1000 resamples of the rounds drawn from `seed`.
///
/// # Panics
/// Panics when the arms ran a different number of rounds or none.
fn paired(base: &[Vec<f64>], other: &[Vec<f64>], seed: u64) -> Paired {
    assert_eq!(base.len(), other.len(), "paired arms run the same rounds");
    let ratios: Vec<f64> = (base.iter().zip(other))
        .map(|(b, o)| median(b) / median(o))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut resample = vec![0.0; ratios.len()];
    let mut medians: Vec<f64> = (0..RESAMPLES)
        .map(|_| {
            resample.fill_with(|| ratios[rng.random_range(0..ratios.len())]);
            median(&resample)
        })
        .collect();
    medians.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let percentile = |q: f64| medians[((RESAMPLES - 1) as f64 * q).round() as usize];
    let ci95 = [percentile(0.025), percentile(0.975)];
    Paired {
        median: median(&ratios),
        ci95,
    }
}

/// `x` rounded to four significant digits.
fn sig4(x: f64) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let digits = 3 - x.abs().log10().floor() as i32;
    let p = 10f64.powi(digits.abs());
    match digits >= 0 {
        true => (x * p).round() / p,
        false => (x / p).round() * p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_statistics_read_every_call() {
        let ns = vec![
            vec![vec![5.0, 3.0], vec![4.0, 9.0]],
            vec![vec![2.0, 2.0], vec![1.0, 6.0]],
        ];
        let t = Timing {
            names: vec!["a", "b"],
            ns,
        };
        assert_eq!(
            (t.min_ns(0), t.min_ns(1), t.min_ratio(0, 1)),
            (3.0, 1.0, 3.0)
        );
        assert_eq!((t.median_ns(0), t.median_ns(1)), (4.5, 2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let row = t.pair_json(serde_json::json!({ "row": "x" }), (0, 1), 1e-3, "us");
        let field = |path: &[&str]| path.iter().try_fold(&row, |v, k| v.get(k))?.as_f64();
        assert_eq!(
            (field(&["a", "min"]), field(&["b", "median"])),
            (Some(0.003), Some(0.002))
        );
        assert_eq!(field(&["min_ratio"]), Some(3.0));
        assert_eq!((sig4(123_456.0), sig4(0.012_345_6)), (123_500.0, 0.012_35));
    }

    #[test]
    fn paired_ratio_is_the_median_of_round_ratios() {
        // Per-round median ratios 2, 4 and 3.
        let base = vec![vec![4.0, 4.0, 6.0], vec![8.0], vec![3.0, 9.0]];
        let other = vec![vec![2.0], vec![1.0, 3.0], vec![2.0]];
        let p = paired(&base, &other, 1);
        assert_eq!(p.median, 3.0);
        assert!(2.0 <= p.ci95[0] && p.ci95[0] <= 3.0 && 3.0 <= p.ci95[1] && p.ci95[1] <= 4.0);
    }

    #[test]
    fn bootstrap_interval_is_deterministic_per_seed_and_one_for_identical_arms() {
        let base: Vec<Vec<f64>> = (0..12).map(|r| vec![10.0 + (r * 7 % 5) as f64]).collect();
        let other: Vec<Vec<f64>> = (0..12).map(|r| vec![5.0 + (r * 3 % 4) as f64]).collect();
        let p = paired(&base, &other, 7);
        assert_eq!(p, paired(&base, &other, 7));
        assert!(p.ci95[0] <= p.median && p.median <= p.ci95[1], "{p:?}");
        assert!(
            p.ci95[0] < p.ci95[1],
            "twelve different ratios spread: {p:?}"
        );
        let same = paired(&base, &base, 7);
        assert_eq!((same.median, same.ci95), (1.0, [1.0, 1.0]));
    }

    #[test]
    fn arms_alternate_and_run_equally_often() {
        let log = &std::cell::RefCell::new(Vec::new());
        let arm = |i: usize| move || log.borrow_mut().push(i);
        let (mut a, mut b, mut c) = (arm(0), arm(1), arm(2));
        let t = interleave(3, 4, &mut [("a", &mut a), ("b", &mut b)]);
        // Each block: one untimed call, then four timed ones.
        let blocks = [0, 1, 1, 0, 0, 1].map(|arm| vec![arm; 5]);
        assert_eq!(*log.borrow(), blocks.concat());
        assert!(t.ns.iter().all(|rounds| rounds.len() == 3));
        assert!(t.ns.iter().flatten().all(|round| round.len() == 4));
        log.borrow_mut().clear();
        interleave(3, 1, &mut [("a", &mut a), ("b", &mut b), ("c", &mut c)]);
        assert_eq!(*log.borrow(), [0, 1, 2, 1, 2, 0, 2, 0, 1]);
    }
}
