//! Dense complex matrices in row-major storage.

use crate::{CVector, Complex};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense complex matrix, row-major.
///
/// Holds wireless channels `H ∈ C^{Nr×Nt}` and the factors of their
/// decompositions. Indexing is `(row, col)`.
#[derive(Clone, PartialEq, Default)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Builds from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        CMatrix { rows, cols, data }
    }

    /// Builds from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: buffer size mismatch");
        CMatrix { rows, cols, data }
    }

    /// Builds from row slices (convenience for tests and examples).
    pub fn from_rows(rows: &[Vec<Complex>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|row| row.len() == c),
            "from_rows: ragged rows"
        );
        CMatrix {
            rows: r,
            cols: c,
            data: rows.concat(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the row-major buffer.
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// The `c`-th column as a vector (`H_(:,c)` in the paper's notation).
    pub fn col(&self, c: usize) -> CVector {
        assert!(c < self.cols, "col index out of range");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The `r`-th row as a vector.
    pub fn row(&self, r: usize) -> CVector {
        assert!(r < self.rows, "row index out of range");
        self.data[r * self.cols..(r + 1) * self.cols]
            .iter()
            .copied()
            .collect()
    }

    /// Conjugate (Hermitian) transpose `A*`.
    pub fn hermitian(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Plain transpose without conjugation.
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &CVector) -> CVector {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        CVector::from_fn(self.rows, |r| {
            let mut acc = Complex::ZERO;
            for c in 0..self.cols {
                acc += self[(r, c)] * x[c];
            }
            acc
        })
    }

    /// Matrix product `A·B`.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn mul_mat(&self, b: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, b.rows, "mul_mat: dimension mismatch");
        let mut out = CMatrix::zeros(self.rows, b.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a_rk = self[(r, k)];
                if a_rk == Complex::ZERO {
                    continue;
                }
                for c in 0..b.cols {
                    out[(r, c)] += a_rk * b[(k, c)];
                }
            }
        }
        out
    }

    /// Gram matrix `A*·A` (Hermitian, positive semi-definite).
    ///
    /// Bit for bit `self.hermitian().mul_mat(self)` at about half its
    /// multiplies: the upper triangle accumulates exactly as that
    /// product does, and each lower entry is its mirror's conjugate.
    /// The mirror is exact wherever its parts are nonzero (both sums
    /// run over the same terms up to sign); a zero part's sign depends
    /// on which terms the product skips, so those entries are summed
    /// directly.
    pub fn gram(&self) -> CMatrix {
        let n = self.cols;
        let mut out = CMatrix::zeros(n, n);
        for r in 0..n {
            for k in 0..self.rows {
                let a = self[(k, r)].conj();
                if a == Complex::ZERO {
                    continue;
                }
                let row = &self.data[k * n + r..(k + 1) * n];
                for (o, &b) in out.data[r * n + r..(r + 1) * n].iter_mut().zip(row) {
                    *o += a * b;
                }
            }
        }
        for r in 1..n {
            for c in 0..r {
                let upper = out[(c, r)];
                out[(r, c)] = if mirrors_exactly(upper.re) && mirrors_exactly(upper.im) {
                    upper.conj()
                } else {
                    self.gram_entry(r, c)
                };
            }
        }
        out
    }

    /// `Re(A*·A)` as a row-major `cols × cols` buffer: bit for bit the
    /// real part of [`CMatrix::gram`], without the imaginary half of
    /// its multiplies (real-symmetric consumers such as the BPSK
    /// reduction read nothing else).
    pub fn gram_real(&self) -> Vec<f64> {
        let n = self.cols;
        let mut out = vec![0.0; n * n];
        for r in 0..n {
            for k in 0..self.rows {
                let a = self[(k, r)].conj();
                if a == Complex::ZERO {
                    continue;
                }
                let row = &self.data[k * n + r..(k + 1) * n];
                for (o, &b) in out[r * n + r..(r + 1) * n].iter_mut().zip(row) {
                    // `(a * b).re`, with the product's own arithmetic.
                    *o += a.re * b.re - a.im * b.im;
                }
            }
        }
        for r in 1..n {
            for c in 0..r {
                let upper = out[c * n + r];
                out[r * n + c] = if mirrors_exactly(upper) {
                    upper
                } else {
                    self.gram_entry(r, c).re
                };
            }
        }
        out
    }

    /// Entry `(r, c)` of `A*·A`, summed term by term as
    /// `hermitian().mul_mat` sums it.
    fn gram_entry(&self, r: usize, c: usize) -> Complex {
        let mut acc = Complex::ZERO;
        for k in 0..self.rows {
            let a = self[(k, r)].conj();
            if a != Complex::ZERO {
                acc += a * self[(k, c)];
            }
        }
        acc
    }

    /// Frobenius norm squared `Σ |aᵢⱼ|²`.
    pub fn frobenius_sqr(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Entrywise scaling.
    pub fn scale(&self, k: Complex) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }

    /// Maximum column-sum norm (induced 1-norm); cheap conditioning probe.
    pub fn norm_one(&self) -> f64 {
        (0..self.cols)
            .map(|c| (0..self.rows).map(|r| self[(r, c)].abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }
}

/// `true` when a Gram entry's part is reproduced exactly by mirroring
/// it across the diagonal (see [`CMatrix::gram`]).
fn mirrors_exactly(part: f64) -> bool {
    part != 0.0 && part.is_finite()
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex {
        debug_assert!(r < self.rows && c < self.cols, "index out of range");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex {
        debug_assert!(r < self.rows && c < self.cols, "index out of range");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add: shape mismatch"
        );
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub: shape mismatch"
        );
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        self.mul_mat(rhs)
    }
}

impl Mul<&CVector> for &CMatrix {
    type Output = CVector;
    fn mul(self, rhs: &CVector) -> CVector {
        self.mul_vec(rhs)
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn m2(a: f64, b: f64, c: f64, d: f64) -> CMatrix {
        CMatrix::from_rows(&[
            vec![Complex::real(a), Complex::real(b)],
            vec![Complex::real(c), Complex::real(d)],
        ])
    }

    #[test]
    fn identity_is_neutral() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let i = CMatrix::identity(2);
        assert_eq!(a.mul_mat(&i), a);
        assert_eq!(i.mul_mat(&a), a);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = CMatrix::from_rows(&[
            vec![Complex::new(1.0, 1.0), Complex::new(0.0, -1.0)],
            vec![Complex::new(2.0, 0.0), Complex::new(1.0, 0.0)],
        ]);
        let x = CVector::from_vec(vec![Complex::new(1.0, 0.0), Complex::new(0.0, 1.0)]);
        let y = a.mul_vec(&x);
        // row0: (1+1j)·1 + (−j)·j = 1+1j + 1 = 2+1j
        assert!(approx_eq(y[0].re, 2.0, 1e-12));
        assert!(approx_eq(y[0].im, 1.0, 1e-12));
        // row1: 2·1 + 1·j = 2+1j
        assert!(approx_eq(y[1].re, 2.0, 1e-12));
        assert!(approx_eq(y[1].im, 1.0, 1e-12));
    }

    #[test]
    fn hermitian_transpose_conjugates() {
        let a = CMatrix::from_rows(&[vec![Complex::new(1.0, 2.0), Complex::new(3.0, -1.0)]]);
        let h = a.hermitian();
        assert_eq!(h.rows(), 2);
        assert_eq!(h.cols(), 1);
        assert_eq!(h[(0, 0)], Complex::new(1.0, -2.0));
        assert_eq!(h[(1, 0)], Complex::new(3.0, 1.0));
    }

    #[test]
    fn gram_is_hermitian_psd() {
        let a = CMatrix::from_rows(&[
            vec![Complex::new(1.0, 0.5), Complex::new(-0.3, 1.1)],
            vec![Complex::new(0.2, -0.9), Complex::new(2.0, 0.0)],
            vec![Complex::new(-1.0, 0.0), Complex::new(0.4, 0.4)],
        ]);
        let g = a.gram();
        assert_eq!(g.rows(), 2);
        for r in 0..2 {
            for c in 0..2 {
                let gc = g[(c, r)].conj();
                assert!(approx_eq(g[(r, c)].re, gc.re, 1e-12));
                assert!(approx_eq(g[(r, c)].im, gc.im, 1e-12));
            }
            assert!(g[(r, r)].re >= 0.0);
        }
    }

    #[test]
    fn associativity_of_products() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let b = m2(0.0, 1.0, -1.0, 0.5);
        let c = m2(2.0, -1.0, 0.0, 3.0);
        let left = a.mul_mat(&b).mul_mat(&c);
        let right = a.mul_mat(&b.mul_mat(&c));
        for r in 0..2 {
            for cc in 0..2 {
                assert!(approx_eq(left[(r, cc)].re, right[(r, cc)].re, 1e-12));
            }
        }
    }

    #[test]
    fn col_row_extraction() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        assert_eq!(
            a.col(1).as_slice(),
            &[Complex::real(2.0), Complex::real(4.0)]
        );
        assert_eq!(
            a.row(1).as_slice(),
            &[Complex::real(3.0), Complex::real(4.0)]
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_vec_shape_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let x = CVector::zeros(2);
        let _ = a.mul_vec(&x);
    }

    #[test]
    fn frobenius_and_one_norm() {
        let a = m2(3.0, 0.0, 4.0, 0.0);
        assert!(approx_eq(a.frobenius_sqr(), 25.0, 1e-12));
        assert!(approx_eq(a.norm_one(), 7.0, 1e-12));
    }
}
