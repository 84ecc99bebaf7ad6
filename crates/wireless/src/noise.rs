//! Additive white Gaussian noise.

use quamax_linalg::rng::ComplexGaussian;
use quamax_linalg::CVector;
use rand::Rng;

/// Draws an AWGN vector `n ∈ C^{nr}` with total complex variance
/// `sigma2` per entry (`CN(0, σ²)` circularly symmetric).
fn awgn_vector<R: Rng + ?Sized>(nr: usize, sigma2: f64, rng: &mut R) -> CVector {
    let g = ComplexGaussian::with_variance(sigma2);
    CVector::from_fn(nr, |_| g.sample(rng))
}

/// Returns `y + n` with fresh AWGN of per-entry variance `sigma2` —
/// the `y = Hv̄ + n` perturbation of the paper's system model (Eq. 1).
pub fn apply_awgn<R: Rng + ?Sized>(y: &CVector, sigma2: f64, rng: &mut R) -> CVector {
    &awgn_vector(y.len(), sigma2, rng) + y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noise_power_matches_variance() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = awgn_vector(50_000, 0.25, &mut rng);
        let avg = n.norm_sqr() / 50_000.0;
        assert!((avg - 0.25).abs() < 0.01, "E|n|²={avg}");
    }

    #[test]
    fn zero_variance_noise_is_identity() {
        let mut rng = StdRng::seed_from_u64(6);
        let y = CVector::from_reals(&[1.0, -2.0, 3.0]);
        let out = apply_awgn(&y, 0.0, &mut rng);
        assert_eq!(out, y);
    }

    #[test]
    fn noise_is_zero_mean() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = awgn_vector(100_000, 1.0, &mut rng);
        let mean = n.as_slice().iter().copied().sum::<quamax_linalg::Complex>() / 100_000.0;
        assert!(mean.abs() < 0.02, "mean={mean}");
    }
}
