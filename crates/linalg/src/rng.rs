//! Gaussian and exponential sampling, hand-rolled on top of `rand`'s
//! uniform streams.
//!
//! Two samplers serve two kinds of consumer:
//!
//! * **Channels** — AWGN noise (`n ~ CN(0, σ²)` per receive antenna,
//!   paper Eq. 1) and Rayleigh taps (`h ~ CN(0, 1)`) — draw from
//!   [`standard_normal`], the polar (Marsaglia) variant of Box–Muller.
//!   It avoids the trig calls of the classic form and rejects ~21.5%
//!   of candidate pairs. Every workload input (channels, payloads,
//!   noise) is generated through it, so inputs stay byte-stable.
//! * **The annealer** draws from 256-layer ziggurats (Marsaglia &
//!   Tsang, "The ziggurat method for generating random variables",
//!   J. Stat. Softw. 2000): [`NormalZiggurat`] for the intrinsic
//!   control error (ICE) — real Gaussian perturbations of Ising
//!   coefficients with the moments measured in the paper (§4) — and
//!   [`ExpZiggurat`] for the Metropolis accept (`E ~ Exp(1)`, accept an
//!   uphill move iff `β·ΔE < E`). Both take one `next_u64` per deviate
//!   on the fast path (~99% of draws), which carries the layer index in
//!   its low 8 bits and the uniform in its high 53, and need no `ln`,
//!   `exp` or `sqrt` there.
//!
//! Both samplers are exact: every deviate has the target distribution
//! up to floating-point resolution. Each is a pure function of the
//! caller's stream, so seeds stay reproducible across the workspace.
//! The ziggurat tables are built once per process from their defining
//! recurrence (see [`NormalZiggurat::get`]), not typed in.

use crate::Complex;
use rand::Rng;
use std::sync::OnceLock;

/// Draws one standard-normal deviate (mean 0, variance 1).
///
/// Marsaglia polar method; consumes uniforms from `rng` until a pair lands
/// inside the unit disc, returning one of the two deviates it produces.
/// (The second is intentionally discarded: stateless call sites are worth
/// more than the ~2× sample reuse.)
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random_range(-1.0..1.0);
        let v: f64 = rng.random_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let factor = (-2.0 * s.ln() / s).sqrt();
            return u * factor;
        }
    }
}

/// Ziggurat layers: 256, so one byte of a draw picks the layer.
const LAYERS: usize = 256;

/// `2⁻⁵²` and `2⁻⁵³`, the steps of the uniforms cut from a draw's high
/// 53 bits.
const STEP_52: f64 = 1.0 / (1u64 << 52) as f64;
const STEP_53: f64 = 1.0 / (1u64 << 53) as f64;

/// The layer tables of a 256-layer ziggurat over a decreasing
/// (unnormalised) density `f` on `[0, ∞)` with `f(0) = 1`.
///
/// Layer `i ≥ 1` is the box `[0, x[i]) × [f(x[i]), f(x[i+1]))`; layer 0
/// is the base strip `[0, R) × [0, f(R))` plus the tail beyond `R`,
/// drawn as a box of *virtual* width `x[0] = V / f(R)`. Every layer has
/// area `V`, so a uniform layer index and a uniform abscissa pick a
/// point uniformly under the ziggurat.
#[derive(Clone, Debug)]
struct Layers {
    /// Right edges: `x[0] = V/f(R)`, `x[1] = R`, …, `x[256] = 0`.
    x: [f64; LAYERS + 1],
    /// `f[i] = f(x[i])`, increasing to `f[256] = 1`.
    f: [f64; LAYERS + 1],
    /// Where the tail starts.
    r: f64,
}

impl Layers {
    /// The layers from their defining recurrence: `V = R·f(R) + ∫_R^∞ f`,
    /// `x[1] = R`, `x[i+1] = f⁻¹(f(x[i]) + V/x[i])`, with `R` the root
    /// (found by bisection in `[lo, hi]`) at which the top layer closes:
    /// `x[255]·(1 − f(x[255])) = V`.
    fn solve(
        lo: f64,
        hi: f64,
        f: fn(f64) -> f64,
        f_inv: fn(f64) -> f64,
        tail: fn(f64) -> f64,
    ) -> Self {
        let volume = |r: f64| r * f(r) + tail(r);
        // Positive when the stack of V-area layers tops out before the
        // 256th (V too large, R too small), negative when it falls short.
        let overshoot = |r: f64| {
            let v = volume(r);
            let mut x = r;
            for _ in 1..LAYERS - 1 {
                let y = f(x) + v / x;
                if y >= 1.0 {
                    return 1.0;
                }
                x = f_inv(y);
            }
            f(x) + v / x - 1.0
        };
        let (mut lo, mut hi) = (lo, hi);
        assert!(
            overshoot(lo) > 0.0 && overshoot(hi) < 0.0,
            "ziggurat root not bracketed"
        );
        loop {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if overshoot(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let r = hi;
        let v = volume(r);
        let mut x = [0.0; LAYERS + 1];
        x[0] = v / f(r);
        x[1] = r;
        for i in 1..LAYERS - 1 {
            x[i + 1] = f_inv(f(x[i]) + v / x[i]);
        }
        // x[256] = 0: the top layer's left edge.
        let mut fs = [0.0; LAYERS + 1];
        for (fi, &xi) in fs.iter_mut().zip(&x) {
            *fi = f(xi);
        }
        Layers { x, f: fs, r }
    }

    /// Splits one draw into its layer (low 8 bits) and its top 53 bits.
    #[inline]
    fn split(bits: u64) -> (usize, u64) {
        ((bits & 0xff) as usize, bits >> 11)
    }

    /// The wedge test of layer `i ≥ 1` at abscissa `|x|`: a uniform
    /// height in the layer lands under the density.
    #[cold]
    fn under_wedge<R: Rng + ?Sized>(
        &self,
        i: usize,
        x: f64,
        f: fn(f64) -> f64,
        rng: &mut R,
    ) -> bool {
        let y = self.f[i] + (self.f[i + 1] - self.f[i]) * rng.random::<f64>();
        y < f(x)
    }
}

/// A uniform in the open interval `(0, 1)`: never 0, so its logarithm
/// is finite.
#[inline]
fn open01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * STEP_53
}

fn gauss(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

fn gauss_inv(y: f64) -> f64 {
    (-2.0 * y.ln()).sqrt()
}

/// `∫_R^∞ e^{−t²/2} dt` by the Laplace continued fraction of the Mills
/// ratio, `e^{−R²/2} / (R + 1/(R + 2/(R + 3/(R + …))))`, evaluated
/// backwards from 400 terms (converged to f64 resolution for `R ≥ 3`).
fn gauss_tail(r: f64) -> f64 {
    let mut cf = r;
    for k in (1..=400).rev() {
        cf = r + k as f64 / cf;
    }
    gauss(r) / cf
}

fn expo(x: f64) -> f64 {
    (-x).exp()
}

fn expo_inv(y: f64) -> f64 {
    -y.ln()
}

fn expo_tail(r: f64) -> f64 {
    (-r).exp()
}

/// The 256-layer ziggurat standard normal (Marsaglia & Tsang 2000):
/// the annealer's ICE sampler.
#[derive(Clone, Debug)]
pub struct NormalZiggurat(Layers);

impl NormalZiggurat {
    /// The process-wide tables, built on first use from the ziggurat
    /// recurrence for `f(x) = e^{−x²/2}` (`R ≈ 3.6541528853610088`,
    /// `V ≈ 4.92867323399·10⁻³`). Callers on a hot path fetch them once
    /// and keep the reference.
    pub fn get() -> &'static NormalZiggurat {
        static TABLES: OnceLock<NormalZiggurat> = OnceLock::new();
        TABLES.get_or_init(|| NormalZiggurat(Layers::solve(3.0, 4.5, gauss, gauss_inv, gauss_tail)))
    }

    /// Draws one standard-normal deviate: one `next_u64` on the fast
    /// path (layer `i` from the low byte, `u ∈ [−1, 1)` from the high 53
    /// bits, accept `x = u·x[i]` when `|x| < x[i+1]`); the wedge and the
    /// tail (Marsaglia's `−ln U / R` rejection) draw more.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z = &self.0;
        loop {
            let (i, top) = Layers::split(rng.next_u64());
            let u = (top as i64 - (1 << 52)) as f64 * STEP_52;
            let x = u * z.x[i];
            if x.abs() < z.x[i + 1] {
                return x;
            }
            if i == 0 {
                return self.tail(u < 0.0, rng);
            }
            if z.under_wedge(i, x.abs(), gauss, rng) {
                return x;
            }
        }
    }

    /// A deviate from the tail beyond `±R`.
    #[cold]
    fn tail<R: Rng + ?Sized>(&self, negative: bool, rng: &mut R) -> f64 {
        let r = self.0.r;
        loop {
            let x = -open01(rng).ln() / r;
            let y = -open01(rng).ln();
            if 2.0 * y >= x * x {
                return if negative { -(r + x) } else { r + x };
            }
        }
    }
}

/// The 256-layer ziggurat `Exp(1)` sampler (Marsaglia & Tsang 2000):
/// the annealer's Metropolis accept draws `E` from it.
#[derive(Clone, Debug)]
pub struct ExpZiggurat(Layers);

impl ExpZiggurat {
    /// The process-wide tables, built on first use from the ziggurat
    /// recurrence for `f(x) = e^{−x}` (`R ≈ 7.69711747013104972`,
    /// `V ≈ 3.94965982258·10⁻³`). Callers on a hot path fetch them once
    /// and keep the reference.
    pub fn get() -> &'static ExpZiggurat {
        static TABLES: OnceLock<ExpZiggurat> = OnceLock::new();
        TABLES.get_or_init(|| ExpZiggurat(Layers::solve(6.0, 9.0, expo, expo_inv, expo_tail)))
    }

    /// Draws one `Exp(1)` deviate: one `next_u64` on the fast path
    /// (layer from the low byte, `u ∈ [0, 1)` from the high 53 bits,
    /// accept `x = u·x[i]` when `x < x[i+1]`); the wedge draws one more
    /// uniform, and the tail is `R + Exp(1)` by memorylessness.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z = &self.0;
        loop {
            let (i, top) = Layers::split(rng.next_u64());
            let x = top as f64 * STEP_53 * z.x[i];
            if x < z.x[i + 1] {
                return x;
            }
            if i == 0 {
                return self.tail(rng);
            }
            if z.under_wedge(i, x, expo, rng) {
                return x;
            }
        }
    }

    #[cold]
    fn tail<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.0.r - open01(rng).ln()
    }
}

/// A circularly-symmetric complex Gaussian distribution `CN(0, σ²)`:
/// real and imaginary parts independent `N(0, σ²/2)`.
///
/// With `σ² = 1` ([`ComplexGaussian::unit`]) this is the Rayleigh-fading
/// channel tap distribution; with `σ² = noise power` it is the AWGN term
/// `n` of the paper's system model `y = Hv̄ + n`.
#[derive(Clone, Copy, Debug)]
pub struct ComplexGaussian {
    /// Standard deviation of each of the real/imaginary parts.
    part_std: f64,
}

impl ComplexGaussian {
    /// `CN(0, variance)` with the variance split evenly across parts.
    ///
    /// # Panics
    /// Panics on negative variance.
    pub fn with_variance(variance: f64) -> Self {
        assert!(variance >= 0.0, "variance must be non-negative");
        ComplexGaussian {
            part_std: (variance / 2.0).sqrt(),
        }
    }

    /// Unit-variance `CN(0, 1)` (Rayleigh channel taps).
    pub fn unit() -> Self {
        ComplexGaussian::with_variance(1.0)
    }

    /// Draws one complex deviate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Complex {
        Complex::new(
            self.part_std * standard_normal(rng),
            self.part_std * standard_normal(rng),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Sample-moment check: mean and variance of 200k draws must land
    /// within loose (5σ-ish) confidence bands.
    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn complex_gaussian_variance_split() {
        let g = ComplexGaussian::with_variance(4.0);
        assert!((g.part_std - (2.0f64).sqrt()).abs() < 1e-12);

        let mut rng = StdRng::seed_from_u64(45);
        let n = 100_000;
        let mut power = 0.0;
        for _ in 0..n {
            power += g.sample(&mut rng).norm_sqr();
        }
        let avg_power = power / n as f64;
        assert!((avg_power - 4.0).abs() < 0.1, "E|z|²={avg_power}");
    }

    #[test]
    fn zero_variance_is_degenerate() {
        let g = ComplexGaussian::with_variance(0.0);
        let mut rng = StdRng::seed_from_u64(46);
        let z = g.sample(&mut rng);
        assert_eq!(z, Complex::ZERO);
    }

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_variance_panics() {
        let _ = ComplexGaussian::with_variance(-1.0);
    }

    // ---- Ziggurat samplers --------------------------------------------

    /// Draws per sampler test; KS and χ² thresholds below are the
    /// p = 0.001 critical values at this size.
    const DRAWS: usize = 1_000_000;

    /// `∫_a^b f` by composite Simpson on `steps` (even) intervals.
    fn simpson(f: fn(f64) -> f64, a: f64, b: f64, steps: usize) -> f64 {
        let h = (b - a) / steps as f64;
        let inner: f64 = (1..steps)
            .map(|k| f(a + k as f64 * h) * if k % 2 == 1 { 4.0 } else { 2.0 })
            .sum();
        (f(a) + inner + f(b)) * h / 3.0
    }

    /// The standard normal CDF: the Maclaurin series of `erf` inside
    /// `|x| < 3` (cancellation costs < 4 digits there), the Mills-ratio
    /// continued fraction outside.
    fn normal_cdf(x: f64) -> f64 {
        let upper = |r: f64| gauss_tail(r) / (2.0 * std::f64::consts::PI).sqrt();
        if x >= 3.0 {
            return 1.0 - upper(x);
        }
        if x <= -3.0 {
            return upper(-x);
        }
        let t = x / std::f64::consts::SQRT_2;
        let (mut term, mut erf) = (t, 0.0);
        for n in 0..200 {
            erf += term / (2 * n + 1) as f64;
            term *= -t * t / (n + 1) as f64;
        }
        0.5 * (1.0 + erf * 2.0 / std::f64::consts::PI.sqrt())
    }

    fn exp_cdf(x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-x).exp_m1()
        }
    }

    /// Kolmogorov–Smirnov statistic of `draws` against `cdf`.
    fn ks(mut draws: Vec<f64>, cdf: fn(f64) -> f64) -> f64 {
        draws.sort_by(f64::total_cmp);
        let n = draws.len() as f64;
        draws
            .iter()
            .enumerate()
            .map(|(k, &x)| {
                let c = cdf(x);
                (c - k as f64 / n).max((k + 1) as f64 / n - c)
            })
            .fold(0.0, f64::max)
    }

    /// Pearson χ² of `draws` over the bins cut at `edges` (plus the two
    /// open end bins), expected counts from `cdf`.
    fn chi_square(draws: &[f64], edges: &[f64], cdf: fn(f64) -> f64) -> f64 {
        let mut counts = vec![0usize; edges.len() + 1];
        for &x in draws {
            counts[edges.partition_point(|&e| e <= x)] += 1;
        }
        let mut cuts = vec![0.0];
        cuts.extend(edges.iter().map(|&e| cdf(e)));
        cuts.push(1.0);
        let n = draws.len() as f64;
        counts
            .iter()
            .zip(cuts.windows(2))
            .map(|(&c, p)| {
                let expect = n * (p[1] - p[0]);
                (c as f64 - expect).powi(2) / expect
            })
            .sum()
    }

    /// FNV-1a over the bit patterns of `values`.
    fn fnv(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
            x.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        })
    }

    fn draws(sample: impl Fn(&mut StdRng) -> f64, seed: u64, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| sample(&mut rng)).collect()
    }

    /// Every layer of both ziggurats has area `V` to 1e-12: the boxes
    /// `x[i]·(f(x[i+1]) − f(x[i]))`, and the base strip `R·f(R)` plus
    /// the tail, integrated here independently of `Layers::solve`.
    /// `V` is the base box's `x[0]·f(R)`; the solved `R` and `V` are
    /// Marsaglia & Tsang's.
    #[test]
    fn ziggurat_layers_all_have_area_v() {
        let normal = &NormalZiggurat::get().0;
        let expo_z = &ExpZiggurat::get().0;
        let area_v = |z: &Layers| z.x[0] * z.f[1];
        for (z, f, tail) in [
            (
                normal,
                gauss as fn(f64) -> f64,
                simpson(gauss, normal.r, normal.r + 12.0, 200_000),
            ),
            (
                expo_z,
                expo as fn(f64) -> f64,
                simpson(expo, expo_z.r, expo_z.r + 60.0, 200_000),
            ),
        ] {
            let v = area_v(z);
            assert_eq!(z.x[1], z.r);
            assert!((z.r * f(z.r) + tail - v).abs() < 1e-12, "base layer");
            for i in 1..LAYERS {
                let area = z.x[i] * (z.f[i + 1] - z.f[i]);
                assert!((area - v).abs() < 1e-12, "layer {i}: {area} vs {v}");
            }
            assert_eq!(z.x[LAYERS], 0.0);
            assert_eq!(z.f[LAYERS], 1.0);
            assert!(
                z.x.windows(2).skip(1).all(|w| w[1] < w[0]),
                "edges decrease"
            );
        }
        assert!(
            (normal.r - 3.654_152_885_361_009).abs() < 1e-12,
            "R = {}",
            normal.r
        );
        // The paper prints V to 12 digits; its last one is off by ~1.5.
        let v = area_v(normal);
        assert!((v - 4.928_673_233_99e-3).abs() < 2e-14, "V = {v}");
        assert!(
            (expo_z.r - 7.697_117_470_131_05).abs() < 1e-12,
            "R = {}",
            expo_z.r
        );
        let v = area_v(expo_z);
        assert!((v - 3.949_659_822_581_557e-3).abs() < 1e-14, "V = {v}");
    }

    /// The ziggurat normal against `N(0, 1)` on 10⁶ draws: moments, the
    /// mass beyond the tail start `R`, KS and a 64-bin χ².
    #[test]
    fn ziggurat_normal_matches_the_standard_normal() {
        let zig = NormalZiggurat::get();
        let xs = draws(|rng| zig.sample(rng), 11, DRAWS);
        let n = DRAWS as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| x * x).sum::<f64>() / n;
        let kurt = xs.iter().map(|x| x.powi(4)).sum::<f64>() / n;
        // Standard errors: 1e-3, 1.4e-3, 1e-2.
        assert!(mean.abs() < 5e-3, "mean={mean}");
        assert!((var - 1.0).abs() < 7e-3, "var={var}");
        assert!((kurt - 3.0).abs() < 5e-2, "E[x⁴]={kurt}");
        // P(|Z| > R) ≈ 2.58e-4: ~258 draws, σ ≈ 16.
        let beyond = xs.iter().filter(|x| x.abs() > zig.0.r).count() as f64;
        let expect = n * 2.0 * (1.0 - normal_cdf(zig.0.r));
        assert!(
            (beyond - expect).abs() < 5.0 * expect.sqrt(),
            "{beyond} vs {expect}"
        );
        let edges: Vec<f64> = (1..64).map(|k| -4.0 + 8.0 * k as f64 / 64.0).collect();
        let chi2 = chi_square(&xs, &edges, normal_cdf);
        // 63 degrees of freedom: p = 0.001 at 103.4.
        assert!(chi2 < 103.4, "χ² = {chi2}");
        let d = ks(xs, normal_cdf);
        assert!(d < 1.95 / n.sqrt(), "KS D = {d}");
    }

    /// The ziggurat exponential against `Exp(1)` on 10⁶ draws: moments,
    /// the mass beyond `R`, KS and a χ² over 64 equiprobable bins.
    #[test]
    fn ziggurat_exp_matches_the_unit_exponential() {
        let zig = ExpZiggurat::get();
        let xs = draws(|rng| zig.sample(rng), 12, DRAWS);
        let n = DRAWS as f64;
        assert!(xs.iter().all(|&x| x >= 0.0));
        let mean = xs.iter().sum::<f64>() / n;
        let second = xs.iter().map(|x| x * x).sum::<f64>() / n;
        // E = 1, E[x²] = 2; standard errors 1e-3 and ~4.5e-3.
        assert!((mean - 1.0).abs() < 5e-3, "mean={mean}");
        assert!((second - 2.0).abs() < 2.5e-2, "E[x²]={second}");
        // P(E > R) = e^{−R} ≈ 4.54e-4: ~454 draws, σ ≈ 21.
        let beyond = xs.iter().filter(|&&x| x > zig.0.r).count() as f64;
        let expect = n * (-zig.0.r).exp();
        assert!(
            (beyond - expect).abs() < 5.0 * expect.sqrt(),
            "{beyond} vs {expect}"
        );
        let edges: Vec<f64> = (1..64).map(|k| -(1.0 - k as f64 / 64.0).ln()).collect();
        let chi2 = chi_square(&xs, &edges, exp_cdf);
        assert!(chi2 < 103.4, "χ² = {chi2}");
        let d = ks(xs, exp_cdf);
        assert!(d < 1.95 / n.sqrt(), "KS D = {d}");
    }

    /// The tail samplers draw the target conditioned on `x > R`: KS on
    /// 10⁵ tail draws each against `1 − Q(x)/Q(R)` (normal) and
    /// `1 − e^{−(x−R)}` (exponential). The moments and full-range tests
    /// above see only the ~2.6·10⁻⁴ of draws that land here.
    #[test]
    fn ziggurat_tails_match_the_conditional_tails() {
        const TAIL_DRAWS: usize = 100_000;
        let threshold = 1.95 / (TAIL_DRAWS as f64).sqrt();
        let normal = NormalZiggurat::get();
        let xs = draws(|rng| normal.tail(false, rng), 14, TAIL_DRAWS);
        assert!(xs.iter().all(|&x| x > normal.0.r));
        let d = ks(xs, |x| {
            1.0 - gauss_tail(x) / gauss_tail(NormalZiggurat::get().0.r)
        });
        assert!(d < threshold, "normal tail KS D = {d}");
        let negative = draws(|rng| normal.tail(true, rng), 15, 1000);
        assert!(negative.iter().all(|&x| x < -normal.0.r));
        let expo_z = ExpZiggurat::get();
        let xs = draws(|rng| expo_z.tail(rng), 16, TAIL_DRAWS);
        let d = ks(xs, |x| exp_cdf(x - ExpZiggurat::get().0.r));
        assert!(d < threshold, "exponential tail KS D = {d}");
    }

    /// The fast path is one `next_u64` per deviate for ~99% of draws, so
    /// a deviate costs under 1.04 draws on average.
    #[test]
    fn ziggurats_take_about_one_draw_per_deviate() {
        struct Counting(StdRng, usize);
        impl RngCore for Counting {
            fn next_u64(&mut self) -> u64 {
                self.1 += 1;
                self.0.next_u64()
            }
        }
        let mut rng = Counting(StdRng::seed_from_u64(13), 0);
        for _ in 0..100_000 {
            NormalZiggurat::get().sample(&mut rng);
        }
        assert!(rng.1 < 104_000, "normal: {} draws", rng.1);
        rng.1 = 0;
        for _ in 0..100_000 {
            ExpZiggurat::get().sample(&mut rng);
        }
        assert!(rng.1 < 104_000, "exponential: {} draws", rng.1);
    }

    /// Golden digests of the first 256 deviates of each ziggurat from
    /// seed 2000: any edit to the tables or to how a draw is cut into
    /// layer and uniform moves them.
    #[test]
    fn ziggurat_streams_are_stable() {
        let normal = draws(|rng| NormalZiggurat::get().sample(rng), 2000, 256);
        let expo = draws(|rng| ExpZiggurat::get().sample(rng), 2000, 256);
        let digests = [fnv(&normal), fnv(&expo)];
        assert_eq!(
            digests,
            [0xf3b3_41cc_a354_3ca9, 0x1db9_6bf4_0f34_1eee],
            "{digests:#x?}"
        );
    }
}
