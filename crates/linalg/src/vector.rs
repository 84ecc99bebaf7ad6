//! Dense complex vectors.

use crate::Complex;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense complex column vector.
///
/// In the paper's notation these hold received signals `y ∈ C^{Nr}`,
/// transmitted symbol vectors `v ∈ O^{Nt}`, and noise `n`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CVector {
    data: Vec<Complex>,
}

impl CVector {
    /// An all-zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        CVector {
            data: vec![Complex::ZERO; n],
        }
    }

    /// Wraps an existing buffer.
    pub fn from_vec(data: Vec<Complex>) -> Self {
        CVector { data }
    }

    /// Builds from a closure over indices.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> Complex) -> Self {
        CVector {
            data: (0..n).map(&mut f).collect(),
        }
    }

    /// Builds a vector of purely real entries.
    pub fn from_reals(re: &[f64]) -> Self {
        CVector {
            data: re.iter().map(|&r| Complex::real(r)).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying entries.
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Hermitian inner product `⟨self, other⟩ = Σᵢ self̄ᵢ·otherᵢ`.
    ///
    /// Conjugate-linear in `self`, linear in `other` — the convention under
    /// which `v.dot(&v)` is real and equals `‖v‖²`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn dot(&self, other: &CVector) -> Complex {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Squared Euclidean norm `‖v‖² = Σᵢ |vᵢ|²` — the ML decoding metric.
    pub fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Entrywise scaling by a complex factor.
    pub fn scale(&self, k: Complex) -> CVector {
        CVector {
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// Entrywise conjugate.
    pub fn conj(&self) -> CVector {
        CVector {
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }
}

impl Index<usize> for CVector {
    type Output = Complex;
    fn index(&self, i: usize) -> &Complex {
        &self.data[i]
    }
}

impl IndexMut<usize> for CVector {
    fn index_mut(&mut self, i: usize) -> &mut Complex {
        &mut self.data[i]
    }
}

impl Add for &CVector {
    type Output = CVector;
    fn add(self, rhs: &CVector) -> CVector {
        assert_eq!(self.len(), rhs.len(), "add: length mismatch");
        CVector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CVector {
    type Output = CVector;
    fn sub(self, rhs: &CVector) -> CVector {
        assert_eq!(self.len(), rhs.len(), "sub: length mismatch");
        CVector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul<Complex> for &CVector {
    type Output = CVector;
    fn mul(self, k: Complex) -> CVector {
        self.scale(k)
    }
}

impl FromIterator<Complex> for CVector {
    fn from_iter<T: IntoIterator<Item = Complex>>(iter: T) -> Self {
        CVector {
            data: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn v(entries: &[(f64, f64)]) -> CVector {
        entries
            .iter()
            .map(|&(re, im)| Complex::new(re, im))
            .collect()
    }

    #[test]
    fn dot_is_conjugate_linear_in_self() {
        let a = v(&[(1.0, 1.0), (0.0, -2.0)]);
        let b = v(&[(2.0, 0.0), (1.0, 1.0)]);
        // ⟨a,b⟩ = (1−j)·2 + (2j·? ...) compute: conj(1+1j)*2 = 2−2j;
        // conj(0−2j)*(1+1j) = (2j)(1+1j) = −2+2j; total = 0 + 0j.
        let d = a.dot(&b);
        assert!(approx_eq(d.re, 0.0, 1e-12));
        assert!(approx_eq(d.im, 0.0, 1e-12));
    }

    #[test]
    fn self_dot_is_norm_sqr() {
        let a = v(&[(3.0, 4.0), (-1.0, 2.0)]);
        let d = a.dot(&a);
        assert!(approx_eq(d.re, a.norm_sqr(), 1e-12));
        assert!(approx_eq(d.im, 0.0, 1e-12));
        assert!(approx_eq(a.norm_sqr(), 25.0 + 5.0, 1e-12));
    }

    #[test]
    fn part_products_decompose_hermitian_dot() {
        // Re⟨a,b⟩ = a_I·b_I + a_Q·b_Q ; Im⟨a,b⟩ = a_I·b_Q − a_Q·b_I
        let a = v(&[(0.3, -1.2), (2.0, 0.7), (-0.4, 0.1)]);
        let b = v(&[(1.1, 0.2), (-0.6, 1.4), (0.9, -2.0)]);
        let d = a.dot(&b);
        let (x, y) = (a.as_slice(), b.as_slice());
        let re: f64 = x
            .iter()
            .zip(y)
            .map(|(p, q)| p.re * q.re + p.im * q.im)
            .sum();
        let im: f64 = x
            .iter()
            .zip(y)
            .map(|(p, q)| p.re * q.im - p.im * q.re)
            .sum();
        assert!(approx_eq(d.re, re, 1e-12));
        assert!(approx_eq(d.im, im, 1e-12));
    }

    #[test]
    fn add_sub_round_trip() {
        let a = v(&[(1.0, 2.0), (3.0, 4.0)]);
        let b = v(&[(-0.5, 0.25), (2.0, -2.0)]);
        let s = &(&a + &b) - &b;
        for i in 0..a.len() {
            assert!(approx_eq(s[i].re, a[i].re, 1e-12));
            assert!(approx_eq(s[i].im, a[i].im, 1e-12));
        }
    }

    #[test]
    fn scale_by_j_rotates() {
        let a = v(&[(1.0, 0.0)]);
        let r = a.scale(Complex::J);
        assert!(approx_eq(r[0].re, 0.0, 1e-12));
        assert!(approx_eq(r[0].im, 1.0, 1e-12));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let a = CVector::zeros(2);
        let b = CVector::zeros(3);
        let _ = a.dot(&b);
    }

    #[test]
    fn from_fn_and_reals() {
        let a = CVector::from_fn(3, |i| Complex::real(i as f64));
        let b = CVector::from_reals(&[0.0, 1.0, 2.0]);
        assert_eq!(a, b);
    }
}
