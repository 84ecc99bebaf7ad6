//! Gaussian sampling, hand-rolled on top of `rand`'s uniform streams.
//!
//! Three consumers in this workspace need normal deviates:
//! AWGN channel noise (`n ~ CN(0, σ²)` per receive antenna, paper Eq. 1),
//! Rayleigh channel taps (`h ~ CN(0, 1)`), and the annealer's intrinsic
//! control error (ICE) — real Gaussian perturbations of Ising coefficients
//! with the moments measured in the paper (§4).
//!
//! The polar (Marsaglia) variant of Box–Muller is used: it avoids the
//! trig calls of the classic form and rejects at most ~21.5% of candidate
//! pairs. Determinism matters more than raw speed here — every experiment
//! is seeded — and this implementation draws a *data-independent* number
//! of uniforms per accepted pair from the caller's RNG, which keeps seeds
//! reproducible across the workspace.

use crate::Complex;
use rand::Rng;

/// Draws one standard-normal deviate (mean 0, variance 1).
///
/// Marsaglia polar method; consumes uniforms from `rng` until a pair lands
/// inside the unit disc, returning one of the two deviates it produces.
/// (The second is intentionally discarded: stateless call sites are worth
/// more than the ~2× sample reuse. Bulk callers use
/// [`fill_standard_normal`], which returns this exact stream faster.)
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

/// Candidates staged per pass of [`fill_standard_normal`].
const FILL_CHUNK: usize = 64;

/// Fills `out` with exactly the deviates that `out.len()` successive
/// [`standard_normal`] calls would return, leaving `rng` in the same
/// state.
///
/// Two passes per chunk of `FILL_CHUNK` (64) outputs. The first draws
/// candidate pairs and stores every `(u, s)` at the write index, which
/// advances by `(0 < s < 1) as usize`: a rejected candidate is simply
/// overwritten by the next one, so the ~21.5% rejection is data flow,
/// not a mispredicted branch. The second applies the polar transform to
/// the kept candidates, whose `ln`/`sqrt` chains are independent and
/// overlap. The arithmetic is the scalar sampler's, operation for
/// operation, so every deviate is bit-identical.
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let mut radii = [0.0f64; FILL_CHUNK];
    for chunk in out.chunks_mut(FILL_CHUNK) {
        let radii = &mut radii[..chunk.len()];
        let mut i = 0;
        while i < chunk.len() {
            let u: f64 = rng.random_range(-1.0..1.0);
            let v: f64 = rng.random_range(-1.0..1.0);
            let s = u * u + v * v;
            chunk[i] = u;
            radii[i] = s;
            i += ((s > 0.0) & (s < 1.0)) as usize;
        }
        for (x, &s) in chunk.iter_mut().zip(radii.iter()) {
            let factor = (-2.0 * s.ln() / s).sqrt();
            *x *= factor;
        }
    }
}

/// Draws one `N(mean, std²)` deviate.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
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

    /// Per-part standard deviation (exposed for tests).
    pub fn part_std(&self) -> f64 {
        self.part_std
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
    use proptest::prelude::*;
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
    fn fill_matches_distribution() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut buf = vec![0.0; 100_001]; // odd length exercises the tail path
        fill_standard_normal(&mut rng, &mut buf);
        let n = buf.len() as f64;
        let mean = buf.iter().sum::<f64>() / n;
        let var = buf.iter().map(|x| x * x).sum::<f64>() / n - mean * mean;
        assert!(mean.abs() < 0.03, "mean={mean}");
        assert!((var - 1.0).abs() < 0.04, "var={var}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bulk sampler is the scalar stream, value for value, and
        /// leaves the generator where the scalar calls would.
        #[test]
        fn fill_equals_successive_scalar_draws(seed in 0u64..u64::MAX) {
            for len in [0usize, 1, 2, 3, 257] {
                let mut bulk_rng = StdRng::seed_from_u64(seed);
                let mut scalar_rng = bulk_rng.clone();
                let mut bulk = vec![0.0; len];
                fill_standard_normal(&mut bulk_rng, &mut bulk);
                let scalar: Vec<f64> =
                    (0..len).map(|_| standard_normal(&mut scalar_rng)).collect();
                prop_assert_eq!(
                    bulk.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    scalar.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
                prop_assert_eq!(bulk_rng.next_u64(), scalar_rng.next_u64());
            }
        }
    }

    #[test]
    fn normal_shift_and_scale() {
        let mut rng = StdRng::seed_from_u64(44);
        let n = 100_000;
        let (mu, sigma) = (3.0, 0.5);
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = normal(&mut rng, mu, sigma);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - mu).abs() < 0.02, "mean={mean}");
        assert!((var - sigma * sigma).abs() < 0.02, "var={var}");
    }

    #[test]
    fn complex_gaussian_variance_split() {
        let g = ComplexGaussian::with_variance(4.0);
        assert!((g.part_std() - (2.0f64).sqrt()).abs() < 1e-12);

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
}
