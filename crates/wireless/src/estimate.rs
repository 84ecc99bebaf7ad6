//! Pilot-based channel estimation.
//!
//! The paper assumes `H` is known at the receiver, "practically
//! estimated and tracked via preambles and/or pilot tones" (§2.1,
//! footnote 2). This module implements the standard least-squares
//! estimator from orthogonal pilots so experiments can quantify what
//! imperfect CSI does to QuAMax (the `ablation_csi` bench):
//!
//! Each user transmits a known pilot sequence of length `Np ≥ Nt`;
//! stacking received vectors gives `Y = H·P + N` with `P ∈ C^{Nt×Np}`
//! the pilot matrix. With orthogonal rows (`P·P* = Np·I`, e.g. DFT
//! sequences), the LS estimate is `Ĥ = Y·P*/Np`, and its per-entry
//! error variance is `σ²/Np` — pilots average noise down linearly.

use quamax_linalg::{CMatrix, Complex};

/// An orthogonal pilot matrix `P ∈ C^{Nt×Np}`: row `u` is user `u`'s
/// pilot sequence, rows mutually orthogonal with `‖row‖² = Np`.
/// Construction: rows of the `Np`-point DFT matrix (unit-modulus
/// symbols, constant transmit power — the practical choice).
pub fn dft_pilots(nt: usize, np: usize) -> CMatrix {
    assert!(np >= nt, "need at least as many pilot slots as users");
    CMatrix::from_fn(nt, np, |u, t| {
        Complex::from_phase(-std::f64::consts::TAU * (u * t) as f64 / np as f64)
    })
}

/// Least-squares channel estimate from pilot observations:
/// `Ĥ = Y·P*/Np` where `Y ∈ C^{Nr×Np}` collects the received vectors
/// of the `Np` pilot slots.
///
/// # Panics
/// Panics on dimension mismatch.
fn ls_estimate(y_pilots: &CMatrix, pilots: &CMatrix) -> CMatrix {
    assert_eq!(
        y_pilots.cols(),
        pilots.cols(),
        "observation and pilot slot counts differ"
    );
    let np = pilots.cols() as f64;
    y_pilots
        .mul_mat(&pilots.hermitian())
        .scale(Complex::real(1.0 / np))
}

/// Simulates the pilot phase: transmits `pilots` through `h` with AWGN
/// of variance `sigma2` per entry and returns the LS estimate.
pub fn estimate_channel<R: rand::Rng + ?Sized>(
    h: &CMatrix,
    pilots: &CMatrix,
    sigma2: f64,
    rng: &mut R,
) -> CMatrix {
    assert_eq!(h.cols(), pilots.rows(), "pilot rows must match users");
    let clean = h.mul_mat(pilots);
    let g = quamax_linalg::rng::ComplexGaussian::with_variance(sigma2);
    let noisy = CMatrix::from_fn(clean.rows(), clean.cols(), |r, c| {
        clean[(r, c)] + g.sample(rng)
    });
    ls_estimate(&noisy, pilots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rayleigh_channel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pilots_are_orthogonal_and_unit_modulus() {
        let p = dft_pilots(4, 8);
        for u in 0..4 {
            for v in 0..4 {
                let dot = p.row(u).dot(&p.row(v));
                let want = if u == v { 8.0 } else { 0.0 };
                assert!((dot.re - want).abs() < 1e-9, "({u},{v}): {dot}");
                assert!(dot.im.abs() < 1e-9);
            }
        }
        for z in p.as_slice() {
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn noiseless_estimation_is_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = rayleigh_channel(6, 4, &mut rng);
        let p = dft_pilots(4, 4);
        let est = estimate_channel(&h, &p, 0.0, &mut rng);
        for r in 0..6 {
            for c in 0..4 {
                assert!((est[(r, c)] - h[(r, c)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn error_variance_scales_as_sigma2_over_np() {
        let mut rng = StdRng::seed_from_u64(2);
        let h = rayleigh_channel(4, 4, &mut rng);
        let sigma2 = 0.4;
        let mse_for = |np: usize, rng: &mut StdRng| -> f64 {
            let p = dft_pilots(4, np);
            let trials = 200;
            let mut acc = 0.0;
            for _ in 0..trials {
                let est = estimate_channel(&h, &p, sigma2, rng);
                acc += (&est - &h).frobenius_sqr() / 16.0;
            }
            acc / trials as f64
        };
        let mse4 = mse_for(4, &mut rng);
        let mse16 = mse_for(16, &mut rng);
        assert!((mse4 / (sigma2 / 4.0) - 1.0).abs() < 0.2, "mse4={mse4}");
        assert!((mse16 / (sigma2 / 16.0) - 1.0).abs() < 0.2, "mse16={mse16}");
    }

    #[test]
    #[should_panic(expected = "pilot slots")]
    fn too_few_pilots_panics() {
        let _ = dft_pilots(4, 2);
    }
}
