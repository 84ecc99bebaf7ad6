//! Linear solvers and pseudo-inverse.
//!
//! Zero-forcing detection computes `H⁺y = (H*H)⁻¹H*y`; MMSE adds a noise
//! regularizer `(H*H + σ²I)⁻¹H*y`. Both reduce to solving a Hermitian
//! positive-(semi)definite system. We implement:
//!
//! * [`lu_solve`] — general complex LU with partial pivoting (also used to
//!   invert small matrices in tests and in the C-RAN cost models); the
//!   Hermitian systems go through it too: the matrices here are at most
//!   ~100×100, so a dedicated Cholesky buys little;
//! * [`pseudo_inverse`] — Moore–Penrose for tall full-column-rank matrices
//!   with a documented failure mode ([`LinalgError::Singular`]) instead of
//!   silent garbage when the channel is rank-deficient (the paper's
//!   "poorly-conditioned channel" regime, §5.4).

use crate::{CMatrix, CVector, Complex};

/// Errors surfaced by the solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// The system matrix is singular to working precision; for detection
    /// callers this means the channel cannot be (pseudo-)inverted and a
    /// regularized or ML detector must be used instead.
    Singular,
    /// Input dimensions are inconsistent.
    ShapeMismatch,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::ShapeMismatch => write!(f, "inconsistent matrix/vector dimensions"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// A reusable LU factorization `P·A = L·U` of a square complex matrix.
///
/// Detection filters solve against the *same* system matrix for every
/// received vector of a coherence interval (MMSE's regularized Gram,
/// ZF's Gram): factor once with [`LuFactor::compute`], then
/// [`LuFactor::solve`] per right-hand side at `O(n²)`. Solving through
/// a stored factor performs the identical floating-point operations in
/// the identical order as the historical one-shot [`lu_solve`], so
/// results are bit-identical — the factor is an amortization, not a
/// different algorithm.
#[derive(Clone, Debug)]
pub struct LuFactor {
    /// Combined factors: `U` on and above the diagonal, the elimination
    /// multipliers of `L` (unit diagonal implied) strictly below.
    lu: CMatrix,
    /// Row swaps in elimination order: step `k` swapped rows `k` and
    /// `swaps[k]`.
    swaps: Vec<usize>,
}

impl LuFactor {
    /// Factors square `a` with partial pivoting.
    ///
    /// Returns [`LinalgError::Singular`] when a pivot falls below a
    /// scaled epsilon, and [`LinalgError::ShapeMismatch`] when `a` is
    /// not square.
    pub fn compute(a: &CMatrix) -> Result<LuFactor, LinalgError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::ShapeMismatch);
        }
        crate::record_factorization();
        let mut lu = a.clone();
        let mut swaps = vec![0usize; n];

        // Scale-aware singularity threshold: pivots are compared against
        // the largest magnitude of the input times machine epsilon (with
        // a floor so the all-zero matrix is rejected too).
        let max_abs = lu.as_slice().iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        let tol = (max_abs * 1e-13).max(1e-300);

        for k in 0..n {
            // Partial pivoting: pick the largest |a_ik| for i >= k.
            let mut piv = k;
            let mut piv_mag = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let m = lu[(i, k)].abs();
                if m > piv_mag {
                    piv = i;
                    piv_mag = m;
                }
            }
            if piv_mag <= tol {
                return Err(LinalgError::Singular);
            }
            swaps[k] = piv;
            if piv != k {
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(piv, c)];
                    lu[(piv, c)] = tmp;
                }
            }

            // Eliminate below the pivot, storing the multiplier in the
            // zeroed position.
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor == Complex::ZERO {
                    continue;
                }
                for c in (k + 1)..n {
                    let delta = factor * lu[(k, c)];
                    lu[(i, c)] -= delta;
                }
            }
        }
        Ok(LuFactor { lu, swaps })
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` against the stored factorization (`O(n²)`).
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `b` has the wrong
    /// length.
    pub fn solve(&self, b: &CVector) -> Result<CVector, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch);
        }
        let mut x: Vec<Complex> = b.as_slice().to_vec();
        // Apply the recorded row swaps, then forward-eliminate with the
        // stored multipliers — the same per-entry operations, in the
        // same order, as the interleaved one-shot elimination.
        for (k, &piv) in self.swaps.iter().enumerate() {
            if piv != k {
                x.swap(k, piv);
            }
        }
        for k in 0..n {
            for i in (k + 1)..n {
                let factor = self.lu[(i, k)];
                if factor == Complex::ZERO {
                    continue;
                }
                let delta = factor * x[k];
                x[i] -= delta;
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            let mut acc = x[k];
            #[allow(clippy::needless_range_loop)] // c indexes both U's row and x
            for c in (k + 1)..n {
                acc -= self.lu[(k, c)] * x[c];
            }
            x[k] = acc / self.lu[(k, k)];
        }
        Ok(CVector::from_vec(x))
    }
}

/// Solves `A·x = b` for square complex `A` by LU with partial pivoting.
///
/// Returns [`LinalgError::Singular`] when a pivot falls below a scaled
/// epsilon, and [`LinalgError::ShapeMismatch`] when `A` is not square or
/// `b` has the wrong length.
///
/// One-shot form of [`LuFactor`]: callers solving against the same `A`
/// repeatedly should factor once and reuse it.
pub fn lu_solve(a: &CMatrix, b: &CVector) -> Result<CVector, LinalgError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(LinalgError::ShapeMismatch);
    }
    if n == 0 {
        return Ok(CVector::zeros(0));
    }
    LuFactor::compute(a)?.solve(b)
}

/// Moore–Penrose pseudo-inverse `A⁺ = (A*A)⁻¹A*` for tall (or square)
/// full-column-rank `A`.
///
/// Fails with [`LinalgError::Singular`] when `A*A` is singular — i.e. the
/// channel does not support zero-forcing. Callers (e.g. the ZF detector)
/// surface this as a detection failure rather than fabricating output.
pub fn pseudo_inverse(a: &CMatrix) -> Result<CMatrix, LinalgError> {
    if a.rows() < a.cols() {
        return Err(LinalgError::ShapeMismatch);
    }
    let ah = a.hermitian();
    let gram = ah.mul_mat(a);
    let n = gram.rows();
    // Invert the Gram matrix column by column: G·X = A*, X = A⁺. One
    // factorization serves every column (bit-identical to refactoring
    // per column, since each would reproduce the same factors).
    let factor = LuFactor::compute(&gram)?;
    let mut out = CMatrix::zeros(n, a.rows());
    for c in 0..a.rows() {
        let rhs = ah.col(c);
        let x = factor.solve(&rhs)?;
        for r in 0..n {
            out[(r, c)] = x[r];
        }
    }
    Ok(out)
}

/// Inverts a square matrix (used by cost models and tests; detection code
/// prefers the solve forms above to avoid forming explicit inverses).
pub fn invert(a: &CMatrix) -> Result<CMatrix, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::ShapeMismatch);
    }
    let mut out = CMatrix::zeros(n, n);
    for c in 0..n {
        let mut e = CVector::zeros(n);
        e[c] = Complex::ONE;
        let x = lu_solve(a, &e)?;
        for r in 0..n {
            out[(r, c)] = x[r];
        }
    }
    Ok(out)
}

/// Cholesky factorization `A = L·L*` of a Hermitian positive-definite
/// matrix, returning the lower-triangular factor `L`.
///
/// Used to colour white Gaussians with a target spatial covariance (the
/// synthetic many-antenna channel traces): if `g ~ CN(0, I)` then
/// `L·g ~ CN(0, A)`.
///
/// Returns [`LinalgError::Singular`] when a pivot is not strictly positive
/// (matrix not positive definite to working precision).
pub fn cholesky(a: &CMatrix) -> Result<CMatrix, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::ShapeMismatch);
    }
    let mut l = CMatrix::zeros(n, n);
    for j in 0..n {
        // Diagonal entry: l_jj = sqrt(a_jj − Σ_k |l_jk|²), must be real > 0.
        let mut d = a[(j, j)].re;
        for k in 0..j {
            d -= l[(j, k)].norm_sqr();
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::Singular);
        }
        let ljj = d.sqrt();
        l[(j, j)] = Complex::real(ljj);
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)].conj();
            }
            l[(i, j)] = s / ljj;
        }
    }
    Ok(l)
}

/// `true` when `a` equals its conjugate transpose to within `tol`.
pub fn is_hermitian(a: &CMatrix, tol: f64) -> bool {
    if a.rows() != a.cols() {
        return false;
    }
    for r in 0..a.rows() {
        for c in 0..=r {
            let d = a[(r, c)] - a[(c, r)].conj();
            if d.abs() > tol {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::rng::ComplexGaussian;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_matrix(rng: &mut StdRng, m: usize, n: usize) -> CMatrix {
        let g = ComplexGaussian::unit();
        CMatrix::from_fn(m, n, |_, _| g.sample(rng))
    }

    /// Solves the Hermitian system `A·x = b` (`A` a Gram matrix,
    /// possibly plus `σ²I`).
    fn hermitian_solve(a: &CMatrix, b: &CVector) -> Result<CVector, LinalgError> {
        assert!(is_hermitian(a, 1e-9), "matrix is not Hermitian");
        lu_solve(a, b)
    }

    fn random_vector(rng: &mut StdRng, n: usize) -> CVector {
        let g = ComplexGaussian::unit();
        CVector::from_fn(n, |_| g.sample(rng))
    }

    #[test]
    fn lu_solve_round_trip() {
        let mut rng = StdRng::seed_from_u64(10);
        for n in [1usize, 2, 4, 9, 16, 32] {
            let a = random_matrix(&mut rng, n, n);
            let x_true = random_vector(&mut rng, n);
            let b = a.mul_vec(&x_true);
            let x = lu_solve(&a, &b).expect("solvable");
            for i in 0..n {
                assert!(
                    approx_eq(x[i].re, x_true[i].re, 1e-7)
                        && approx_eq(x[i].im, x_true[i].im, 1e-7),
                    "n={n} i={i}: {} vs {}",
                    x[i],
                    x_true[i]
                );
            }
        }
    }

    /// The historical one-shot elimination (pre-`LuFactor`), with the
    /// right-hand side updated *inside* the factorization loop. Kept
    /// verbatim as the reference for the bit-identity contract — the
    /// production `lu_solve` now routes through `LuFactor`, so testing
    /// against `lu_solve` alone would be circular.
    fn reference_interleaved_lu_solve(a: &CMatrix, b: &CVector) -> Result<CVector, LinalgError> {
        let n = a.rows();
        if a.cols() != n || b.len() != n {
            return Err(LinalgError::ShapeMismatch);
        }
        let mut lu = a.clone();
        let mut x: Vec<Complex> = b.as_slice().to_vec();
        let max_abs = lu.as_slice().iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        let tol = (max_abs * 1e-13).max(1e-300);
        for k in 0..n {
            let mut piv = k;
            let mut piv_mag = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let m = lu[(i, k)].abs();
                if m > piv_mag {
                    piv = i;
                    piv_mag = m;
                }
            }
            if piv_mag <= tol {
                return Err(LinalgError::Singular);
            }
            if piv != k {
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(piv, c)];
                    lu[(piv, c)] = tmp;
                }
                x.swap(k, piv);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                if factor == Complex::ZERO {
                    continue;
                }
                lu[(i, k)] = Complex::ZERO;
                for c in (k + 1)..n {
                    let delta = factor * lu[(k, c)];
                    lu[(i, c)] -= delta;
                }
                let delta = factor * x[k];
                x[i] -= delta;
            }
        }
        for k in (0..n).rev() {
            let mut acc = x[k];
            for c in (k + 1)..n {
                acc -= lu[(k, c)] * x[c];
            }
            x[k] = acc / lu[(k, k)];
        }
        Ok(CVector::from_vec(x))
    }

    #[test]
    fn lu_factor_solve_is_bit_identical_to_interleaved_elimination() {
        // The compiled-filter guarantee: the split factor-then-solve
        // performs the identical floating-point operations as the
        // historical interleaved elimination — exactly, not just
        // approximately. This pins every pre-PR decode result that
        // flowed through the old lu_solve.
        let mut rng = StdRng::seed_from_u64(21);
        for n in [1usize, 3, 6, 12, 24] {
            let a = random_matrix(&mut rng, n, n);
            let factor = LuFactor::compute(&a).expect("well-conditioned");
            assert_eq!(factor.dim(), n);
            for _ in 0..4 {
                let b = random_vector(&mut rng, n);
                let reference = reference_interleaved_lu_solve(&a, &b).unwrap();
                let via_factor = factor.solve(&b).unwrap();
                let one_shot = lu_solve(&a, &b).unwrap();
                for i in 0..n {
                    assert_eq!(reference[i], via_factor[i], "n={n} i={i}");
                    assert_eq!(reference[i], one_shot[i], "n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn reference_and_factor_agree_on_singularity() {
        let a = CMatrix::zeros(3, 3);
        let b = CVector::zeros(3);
        assert_eq!(
            reference_interleaved_lu_solve(&a, &b),
            Err(LinalgError::Singular)
        );
    }

    #[test]
    fn lu_factor_rejects_bad_shapes_and_singularity() {
        assert_eq!(
            LuFactor::compute(&CMatrix::zeros(2, 3)).err(),
            Some(LinalgError::ShapeMismatch)
        );
        assert_eq!(
            LuFactor::compute(&CMatrix::zeros(3, 3)).err(),
            Some(LinalgError::Singular)
        );
        let mut rng = StdRng::seed_from_u64(22);
        let f = LuFactor::compute(&random_matrix(&mut rng, 4, 4)).unwrap();
        assert_eq!(
            f.solve(&CVector::zeros(5)).err(),
            Some(LinalgError::ShapeMismatch)
        );
    }

    #[test]
    fn factorization_tally_counts_lu_and_qr() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = random_matrix(&mut rng, 5, 5);
        let b = random_vector(&mut rng, 5);
        let before = crate::factorization_count();
        let factor = LuFactor::compute(&a).unwrap();
        for _ in 0..10 {
            factor.solve(&b).unwrap();
        }
        let _ = crate::QrDecomposition::compute(&a);
        let after = crate::factorization_count();
        // Tests run concurrently, so other threads may also factor;
        // this thread contributed exactly 2 (solves are free).
        assert!(after - before >= 2);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        // Rank-1 matrix.
        let a = CMatrix::from_rows(&[
            vec![Complex::real(1.0), Complex::real(2.0)],
            vec![Complex::real(2.0), Complex::real(4.0)],
        ]);
        let b = CVector::from_reals(&[1.0, 1.0]);
        assert_eq!(lu_solve(&a, &b), Err(LinalgError::Singular));
    }

    #[test]
    fn zero_matrix_is_singular() {
        let a = CMatrix::zeros(3, 3);
        let b = CVector::zeros(3);
        assert_eq!(lu_solve(&a, &b), Err(LinalgError::Singular));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = CMatrix::zeros(2, 3);
        let b = CVector::zeros(2);
        assert_eq!(lu_solve(&a, &b), Err(LinalgError::ShapeMismatch));
        assert_eq!(pseudo_inverse(&a), Err(LinalgError::ShapeMismatch));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = CMatrix::from_rows(&[
            vec![Complex::ZERO, Complex::real(1.0)],
            vec![Complex::real(1.0), Complex::ZERO],
        ]);
        let b = CVector::from_reals(&[3.0, 5.0]);
        let x = lu_solve(&a, &b).unwrap();
        assert!(approx_eq(x[0].re, 5.0, 1e-12));
        assert!(approx_eq(x[1].re, 3.0, 1e-12));
    }

    #[test]
    fn pseudo_inverse_of_tall_matrix() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_matrix(&mut rng, 8, 4);
        let pinv = pseudo_inverse(&a).unwrap();
        // A⁺·A = I (left inverse).
        let prod = pinv.mul_mat(&a);
        for r in 0..4 {
            for c in 0..4 {
                let want = if r == c { 1.0 } else { 0.0 };
                assert!(approx_eq(prod[(r, c)].re, want, 1e-8));
                assert!(approx_eq(prod[(r, c)].im, 0.0, 1e-8));
            }
        }
    }

    #[test]
    fn pseudo_inverse_square_equals_inverse() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = random_matrix(&mut rng, 5, 5);
        let pinv = pseudo_inverse(&a).unwrap();
        let inv = invert(&a).unwrap();
        for r in 0..5 {
            for c in 0..5 {
                assert!(approx_eq(pinv[(r, c)].re, inv[(r, c)].re, 1e-7));
                assert!(approx_eq(pinv[(r, c)].im, inv[(r, c)].im, 1e-7));
            }
        }
    }

    #[test]
    fn pseudo_inverse_rejects_rank_deficient() {
        // Two identical columns: H*H singular.
        let c = [Complex::real(1.0), Complex::real(-2.0), Complex::real(0.5)];
        let a = CMatrix::from_fn(3, 2, |r, _| c[r]);
        assert_eq!(pseudo_inverse(&a), Err(LinalgError::Singular));
    }

    #[test]
    fn hermitian_solve_on_gram_plus_ridge() {
        // The MMSE normal equations: (H*H + σ²I)x = H*y.
        let mut rng = StdRng::seed_from_u64(13);
        let h = random_matrix(&mut rng, 6, 6);
        let gram = h.gram();
        let sigma2 = 0.3;
        let mut reg = gram.clone();
        for i in 0..6 {
            reg[(i, i)] += Complex::real(sigma2);
        }
        assert!(is_hermitian(&reg, 1e-10));
        let y = random_vector(&mut rng, 6);
        let rhs = h.hermitian().mul_vec(&y);
        let x = hermitian_solve(&reg, &rhs).unwrap();
        // Verify residual of the normal equations.
        let lhs = reg.mul_vec(&x);
        for i in 0..6 {
            assert!(approx_eq(lhs[i].re, rhs[i].re, 1e-8));
            assert!(approx_eq(lhs[i].im, rhs[i].im, 1e-8));
        }
    }

    #[test]
    fn cholesky_reconstructs() {
        let mut rng = StdRng::seed_from_u64(14);
        // A = B*B + I is Hermitian positive definite.
        let b = random_matrix(&mut rng, 6, 6);
        let mut a = b.gram();
        for i in 0..6 {
            a[(i, i)] += Complex::ONE;
        }
        let l = cholesky(&a).unwrap();
        let back = l.mul_mat(&l.hermitian());
        for r in 0..6 {
            for c in 0..6 {
                assert!(approx_eq(back[(r, c)].re, a[(r, c)].re, 1e-8));
                assert!(approx_eq(back[(r, c)].im, a[(r, c)].im, 1e-8));
            }
        }
        // L strictly lower-triangular above the diagonal.
        for r in 0..6 {
            for c in (r + 1)..6 {
                assert_eq!(l[(r, c)], Complex::ZERO);
            }
            assert!(l[(r, r)].re > 0.0 && l[(r, r)].im == 0.0);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        // diag(1, −1) is not PD.
        let mut a = CMatrix::identity(2);
        a[(1, 1)] = Complex::real(-1.0);
        assert_eq!(cholesky(&a), Err(LinalgError::Singular));
    }

    #[test]
    fn invert_identity_is_identity() {
        let inv = invert(&CMatrix::identity(4)).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                let want = if r == c { 1.0 } else { 0.0 };
                assert!(approx_eq(inv[(r, c)].re, want, 1e-12));
            }
        }
    }

    #[test]
    fn empty_system_is_ok() {
        let x = lu_solve(&CMatrix::zeros(0, 0), &CVector::zeros(0)).unwrap();
        assert!(x.is_empty());
    }
}
