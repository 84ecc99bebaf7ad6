//! Hand-rolled complex linear algebra for the QuAMax reproduction.
//!
//! The QuAMax paper (SIGCOMM 2019) works throughout with complex-valued
//! channel matrices `H ∈ C^{Nr×Nt}` and received vectors `y ∈ C^{Nr}`:
//! the maximum-likelihood reduction needs column inner products (Eqs. 6–8,
//! 13–14), the Sphere Decoder baseline needs a complex QR decomposition,
//! and the zero-forcing / MMSE baselines need regularized pseudo-inverses.
//!
//! Everything here is written from scratch (no BLAS/LAPACK, no `num`),
//! per this reproduction's "all numerics hand-rolled" ground rule. The
//! implementations favour clarity and numerical robustness over raw speed;
//! matrices in this problem domain are at most a few hundred elements on a
//! side, so `O(n³)` dense algorithms with stable pivoting are the right
//! tool.
//!
//! Modules:
//! * [`complex`] — a minimal `Complex` (f64) type with the usual field ops.
//! * [`vector`] — dense complex vectors ([`CVector`]).
//! * [`matrix`] — dense complex matrices ([`CMatrix`]) in row-major order.
//! * [`qr`] — Householder QR for rectangular complex matrices.
//! * [`lattice`] — LLL reduction of a real lattice basis given by its
//!   Gram matrix, with an exact unimodular basis change.
//! * [`solve`] — LU with partial pivoting, Hermitian solves, pseudo-inverse.
//! * [`rng`] — Box–Muller standard-normal and complex-Gaussian sampling.

pub mod complex;
pub mod lattice;
pub mod matrix;
pub mod qr;
pub mod rng;
pub mod solve;
pub mod vector;

pub use complex::Complex;
pub use lattice::LllReduction;
pub use matrix::CMatrix;
pub use qr::QrDecomposition;
pub use rng::{standard_normal, ComplexGaussian};
pub use solve::{cholesky, is_hermitian, lu_solve, pseudo_inverse, LinalgError, LuFactor};
pub use vector::CVector;

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of matrix factorizations performed (LU and QR).
///
/// Factorizations are the `O(n³)` work that detection filters pay per
/// *channel*, not per received vector; the compile-once detector
/// sessions exist to hoist them out of the per-decode path. This tally
/// lets benches and tests *assert* that hoisting (e.g. "K decodes
/// through a session cost 1 factorization, not K") instead of inferring
/// it from wall-clock noise.
static FACTORIZATIONS: AtomicU64 = AtomicU64::new(0);

/// Total LU + QR factorizations performed by this process so far.
///
/// Monotonic; take a snapshot before and after a region and subtract.
/// (Counts are global across threads, so bracketed regions should not
/// run concurrently with unrelated factorizing work.)
pub fn factorization_count() -> u64 {
    FACTORIZATIONS.load(Ordering::Relaxed)
}

pub(crate) fn record_factorization() {
    FACTORIZATIONS.fetch_add(1, Ordering::Relaxed);
}

/// Tolerance used by the crate's own tests and by callers that need a
/// "same up to rounding" comparison for unit-scale quantities.
pub const EPS: f64 = 1e-9;

/// `true` when `a` and `b` agree to within `tol` absolutely or relatively.
///
/// The relative branch keeps comparisons meaningful for quantities far from
/// unit scale (e.g. Ising couplings of magnitude ~1e2 built from 48×48
/// channels).
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}
