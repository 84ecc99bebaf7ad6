//! LLL lattice-basis reduction (Lenstra–Lenstra–Lovász) over a real
//! Gram matrix.
//!
//! A lattice `{Fz : z ∈ ℤⁿ}` is described here only by its basis Gram
//! `G = FᵀF`: reduction never needs the basis vectors themselves, only
//! their inner products. [`LllReduction::reduce`] finds a unimodular
//! integer `T` (`|det T| = 1`, so `z ↦ Tz` is a bijection of `ℤⁿ`)
//! whose columns select a *reduced* basis `F̃ = FT`:
//!
//! * size-reduced — every Gram–Schmidt coefficient `|μ_kj| ≤ ½`;
//! * Lovász — `‖b*_k‖² ≥ (δ − μ²_{k,k−1})·‖b*_{k−1}‖²` for every `k`.
//!
//! Such a basis is close to orthogonal, so rounding in its coordinates
//! (Babai's rounding) lands near the closest lattice point — the
//! property lattice-reduction-aided precoding and detection exploit.
//! `T` and its inverse are tracked exactly in `i64` through every
//! column operation, so the basis change itself carries no rounding.
//!
//! The algorithm is Cohen's integral-free LLL (*A Course in
//! Computational Algebraic Number Theory*, Alg. 2.6.3) on the Gram
//! matrix, with incremental Gram–Schmidt updates: `O(n)` work per size
//! reduction step and per swap.

/// Largest magnitude an entry of `T` or `T⁻¹` may reach: every entry
/// stays an integer that `f64` represents exactly, so callers can use
/// the basis change in floating-point arithmetic without rounding it.
const ENTRY_LIMIT: i64 = 1 << 52;

/// Lovász parameter δ: the textbook `3/4`, which bounds the swap count
/// polynomially while still yielding a near-orthogonal basis.
const DELTA: f64 = 0.75;

/// A unimodular basis change `T` with its exact integer inverse, both
/// `dim × dim` and row-major. Column `j` of `T` holds the integer
/// coordinates of reduced basis vector `j` in the original basis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LllReduction {
    dim: usize,
    basis: Vec<i64>,
    inverse: Vec<i64>,
}

impl LllReduction {
    /// LLL-reduces the lattice with basis Gram `gram` (`dim × dim`,
    /// row-major, symmetric positive definite) at Lovász parameter
    /// δ = 3/4.
    ///
    /// The result is always unimodular with an exact inverse. Should
    /// floating-point breakdown threaten exactness (a coefficient or an
    /// entry of `T` past `2^52`, or a swap count beyond any
    /// well-conditioned run), reduction stops early on the last exact
    /// basis change rather than panic.
    ///
    /// # Panics
    /// Panics when `gram.len() != dim²`.
    pub fn reduce(gram: &[f64], dim: usize) -> Self {
        assert_eq!(gram.len(), dim * dim, "Gram matrix must be dim × dim");
        let mut state = State {
            n: dim,
            g: gram.to_vec(),
            mu: vec![0.0; dim * dim],
            b: vec![0.0; dim],
            t: LllReduction::identity(dim),
        };
        if dim < 2 {
            return state.t;
        }
        state.b[0] = state.g[0];
        let max_swaps = 64 * dim * dim;
        let (mut k, mut kmax, mut swaps) = (1, 0, 0);
        while k < dim {
            if k > kmax {
                kmax = k;
                state.orthogonalize(k);
            }
            if !state.size_reduce(k, k - 1) {
                break;
            }
            let m = state.mu[k * dim + k - 1];
            if state.b[k] < (DELTA - m * m) * state.b[k - 1] {
                swaps += 1;
                if swaps > max_swaps {
                    break;
                }
                state.swap(k, kmax);
                k = (k - 1).max(1);
            } else {
                if !(0..k - 1).rev().all(|l| state.size_reduce(k, l)) {
                    break;
                }
                k += 1;
            }
        }
        state.t
    }

    /// The identity basis change on `ℤ^dim`.
    fn identity(dim: usize) -> Self {
        let eye: Vec<i64> = (0..dim * dim)
            .map(|x| i64::from(x / dim == x % dim))
            .collect();
        LllReduction {
            dim,
            basis: eye.clone(),
            inverse: eye,
        }
    }

    /// Lattice dimension `n`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `T`, row-major: reduced basis vector `j` is `Σ_i T_ij·b_i`.
    pub fn basis(&self) -> &[i64] {
        &self.basis
    }

    /// `T⁻¹`, row-major, exact.
    pub fn inverse(&self) -> &[i64] {
        &self.inverse
    }

    /// `T·z`: reduced-basis coordinates back to original ones.
    pub fn to_original(&self, z: &[i64]) -> Vec<i64> {
        assert_eq!(z.len(), self.dim, "vector length mismatch");
        self.basis
            .chunks_exact(self.dim.max(1))
            .map(|row| row.iter().zip(z).map(|(&t, &v)| t * v).sum())
            .collect()
    }

    /// `T⁻¹·x`: the reduced-basis coordinates of a point `x`, which
    /// need not lie on the lattice (exact for a lattice point, since
    /// `T⁻¹`'s entries are integers `f64` represents exactly).
    pub fn to_reduced(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "vector length mismatch");
        self.inverse
            .chunks_exact(self.dim.max(1))
            .map(|row| row.iter().zip(x).map(|(&t, &v)| t as f64 * v).sum())
            .collect()
    }

    /// `Tᵀ·x` for a real vector `x` — a linear functional on original
    /// coordinates re-expressed on reduced ones.
    pub fn transpose_mul(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "vector length mismatch");
        let n = self.dim;
        let mut out = vec![0.0; n];
        for (row, &xi) in self.basis.chunks_exact(n.max(1)).zip(x) {
            for (o, &t) in out.iter_mut().zip(row) {
                if t != 0 {
                    *o += t as f64 * xi;
                }
            }
        }
        out
    }

    /// The reduced basis Gram `TᵀGT` (`dim × dim`, row-major, exactly
    /// symmetric), summed term by term from `gram` and the integer `T`.
    ///
    /// # Panics
    /// Panics when `gram.len() != dim²`.
    pub fn reduced_gram(&self, gram: &[f64]) -> Vec<f64> {
        let n = self.dim;
        assert_eq!(gram.len(), n * n, "Gram matrix must be dim × dim");
        // GT, skipping T's zeros (a reduced T is mostly small integers
        // and zeros).
        let mut gt = vec![0.0; n * n];
        for (k, trow) in self.basis.chunks_exact(n.max(1)).enumerate() {
            for (j, &t) in trow.iter().enumerate() {
                if t == 0 {
                    continue;
                }
                let t = t as f64;
                for i in 0..n {
                    gt[i * n + j] += gram[i * n + k] * t;
                }
            }
        }
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let mut acc = 0.0;
                for k in 0..n {
                    let t = self.basis[k * n + i];
                    if t != 0 {
                        acc += t as f64 * gt[k * n + j];
                    }
                }
                out[i * n + j] = acc;
                out[j * n + i] = acc;
            }
        }
        out
    }
}

/// The reduction in progress: the current basis Gram `g`, its
/// Gram–Schmidt coefficients `mu` (strictly lower, row-major) and
/// squared orthogonal norms `b`, and the basis change so far.
struct State {
    n: usize,
    g: Vec<f64>,
    mu: Vec<f64>,
    b: Vec<f64>,
    t: LllReduction,
}

impl State {
    /// Gram–Schmidt row `k` from the current Gram and rows `< k`.
    fn orthogonalize(&mut self, k: usize) {
        let n = self.n;
        for j in 0..=k {
            let mut u = self.g[k * n + j];
            for i in 0..j {
                u -= self.mu[j * n + i] * self.mu[k * n + i] * self.b[i];
            }
            if j < k {
                self.mu[k * n + j] = u / self.b[j];
            } else {
                self.b[k] = u;
            }
        }
    }

    /// Size-reduces basis vector `k` against vector `l < k`:
    /// `b_k ← b_k − q·b_l` with `q = round(μ_kl)`. Returns `false`, and
    /// changes nothing, when the step would leave `T` or `T⁻¹` inexact.
    fn size_reduce(&mut self, k: usize, l: usize) -> bool {
        let n = self.n;
        let m = self.mu[k * n + l];
        if m.abs() <= 0.5 {
            return true;
        }
        let q = m.round();
        if q.is_nan() || q.abs() >= ENTRY_LIMIT as f64 {
            return false;
        }
        let qi = q as i64;
        // T' = T·E and T'⁻¹ = E⁻¹·T⁻¹ with E = I − q·e_l·e_kᵀ: column k
        // of T loses q times column l, row l of T⁻¹ gains q times row k.
        let (basis, inverse) = (&self.t.basis, &self.t.inverse);
        let fits = |a: i64, b: i64| {
            b.checked_mul(qi)
                .and_then(|p| a.checked_add(p))
                .is_some_and(|v| v.abs() < ENTRY_LIMIT)
        };
        if !(0..n).all(|r| fits(basis[r * n + k], -basis[r * n + l]))
            || !(0..n).all(|c| fits(inverse[l * n + c], inverse[k * n + c]))
        {
            return false;
        }
        for r in 0..n {
            self.t.basis[r * n + k] -= qi * self.t.basis[r * n + l];
        }
        for c in 0..n {
            self.t.inverse[l * n + c] += qi * self.t.inverse[k * n + c];
        }
        // Gram: column k, then row k (the diagonal picks up both).
        for i in 0..n {
            self.g[i * n + k] -= q * self.g[i * n + l];
        }
        for j in 0..n {
            self.g[k * n + j] -= q * self.g[l * n + j];
        }
        self.mu[k * n + l] -= q;
        for i in 0..l {
            self.mu[k * n + i] -= q * self.mu[l * n + i];
        }
        true
    }

    /// Exchanges basis vectors `k − 1` and `k` and updates the
    /// Gram–Schmidt data of rows `k − 1 ..= kmax`.
    fn swap(&mut self, k: usize, kmax: usize) {
        let n = self.n;
        for r in 0..n {
            self.t.basis.swap(r * n + k - 1, r * n + k);
            self.g.swap(r * n + k - 1, r * n + k);
        }
        for c in 0..n {
            self.t.inverse.swap((k - 1) * n + c, k * n + c);
            self.g.swap((k - 1) * n + c, k * n + c);
        }
        for j in 0..k - 1 {
            self.mu.swap(k * n + j, (k - 1) * n + j);
        }
        let m = self.mu[k * n + k - 1];
        let bb = self.b[k] + m * m * self.b[k - 1];
        self.mu[k * n + k - 1] = m * self.b[k - 1] / bb;
        self.b[k] = self.b[k - 1] * self.b[k] / bb;
        self.b[k - 1] = bb;
        let mk = self.mu[k * n + k - 1];
        for i in k + 1..=kmax {
            let t = self.mu[i * n + k];
            self.mu[i * n + k] = self.mu[i * n + k - 1] - m * t;
            self.mu[i * n + k - 1] = t + mk * self.mu[i * n + k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::standard_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `FᵀF` of a random `rows × dim` Gaussian basis, columns scaled
    /// by `spread^(j/dim)` so the lattice is skewed.
    fn random_gram(rng: &mut StdRng, rows: usize, dim: usize, spread: f64) -> Vec<f64> {
        let f: Vec<f64> = (0..rows * dim)
            .map(|x| standard_normal(rng) * spread.powf((x % dim) as f64 / dim as f64))
            .collect();
        let mut g = vec![0.0; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                g[i * dim + j] = (0..rows).map(|r| f[r * dim + i] * f[r * dim + j]).sum();
            }
        }
        g
    }

    /// Gram–Schmidt coefficients (strictly lower, row-major) and
    /// squared orthogonal norms of a basis given by its Gram.
    fn gram_schmidt(g: &[f64], n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut mu = vec![0.0; n * n];
        let mut b = vec![0.0; n];
        for k in 0..n {
            for j in 0..=k {
                let mut u = g[k * n + j];
                for i in 0..j {
                    u -= mu[j * n + i] * mu[k * n + i] * b[i];
                }
                if j < k {
                    mu[k * n + j] = u / b[j];
                } else {
                    b[k] = u;
                }
            }
        }
        (mu, b)
    }

    fn cases() -> Vec<(usize, Vec<f64>)> {
        let mut rng = StdRng::seed_from_u64(0x111);
        let mut out = Vec::new();
        for &(rows, dim, spread) in &[
            (2, 2, 1.0),
            (4, 4, 30.0),
            (8, 8, 1.0),
            (12, 8, 100.0),
            (16, 16, 10.0),
            (32, 32, 1.0),
            (32, 32, 1e3),
        ] {
            for _ in 0..3 {
                out.push((dim, random_gram(&mut rng, rows, dim, spread)));
            }
        }
        out
    }

    #[test]
    fn lll_basis_change_is_unimodular_with_an_exact_inverse() {
        for (n, g) in cases() {
            let red = LllReduction::reduce(&g, n);
            for i in 0..n {
                for j in 0..n {
                    let dot: i64 = (0..n)
                        .map(|k| red.basis()[i * n + k] * red.inverse()[k * n + j])
                        .sum();
                    assert_eq!(dot, i64::from(i == j), "T·T⁻¹ at ({i}, {j}), n = {n}");
                }
            }
            let z: Vec<i64> = (0..n as i64).map(|k| k * 7 - 11).collect();
            let x: Vec<f64> = red.to_original(&z).iter().map(|&v| v as f64).collect();
            let back: Vec<f64> = z.iter().map(|&v| v as f64).collect();
            assert_eq!(red.to_reduced(&x), back);
        }
    }

    #[test]
    fn lll_output_is_size_reduced_and_meets_lovasz() {
        for (n, g) in cases() {
            let red = LllReduction::reduce(&g, n);
            let (mu, b) = gram_schmidt(&red.reduced_gram(&g), n);
            for k in 1..n {
                for j in 0..k {
                    assert!(
                        mu[k * n + j].abs() <= 0.5 + 1e-9,
                        "n = {n}: |μ[{k}][{j}]| = {}",
                        mu[k * n + j].abs()
                    );
                }
                let m = mu[k * n + k - 1];
                assert!(
                    b[k] >= (DELTA - m * m) * b[k - 1] * (1.0 - 1e-9),
                    "n = {n}: Lovász fails at k = {k}"
                );
            }
        }
    }

    #[test]
    fn lll_reduces_a_skewed_basis_and_keeps_the_lattice() {
        // b0 = (1, 0), b1 = (100, 1): the reduced basis is the unit
        // square's, up to order and sign.
        let g = vec![1.0, 100.0, 100.0, 10_001.0];
        let red = LllReduction::reduce(&g, 2);
        assert_eq!(red.reduced_gram(&g), vec![1.0, 0.0, 0.0, 1.0]);
        // An already reduced basis is left alone.
        let eye = vec![1.0, 0.0, 0.0, 2.0];
        assert_eq!(LllReduction::reduce(&eye, 2), LllReduction::identity(2));
    }

    #[test]
    fn lll_transpose_is_the_adjoint_of_the_basis_change() {
        let mut rng = StdRng::seed_from_u64(0x222);
        let g = random_gram(&mut rng, 6, 6, 50.0);
        let red = LllReduction::reduce(&g, 6);
        let x: Vec<i64> = vec![3, -1, 0, 4, -2, 1];
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        // ⟨Tᵀx, z⟩ = ⟨x, Tz⟩.
        let z: Vec<i64> = vec![1, 0, -2, 1, 1, -1];
        let lhs: f64 = red
            .transpose_mul(&xf)
            .iter()
            .zip(&z)
            .map(|(&a, &b)| a * b as f64)
            .sum();
        let rhs: f64 = red
            .to_original(&z)
            .iter()
            .zip(&x)
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        assert_eq!(lhs, rhs);
    }
}
