//! A minimal double-precision complex number.
//!
//! Only the operations the rest of the workspace needs are implemented;
//! this is deliberately not a general-purpose `num_complex` replacement.
//! The representation is a plain `{ re, im }` pair so a `&[Complex]` can be
//! iterated without indirection and copied freely.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `j` (electrical-engineering spelling, as in the paper).
    pub const J: Complex = Complex { re: 0.0, im: 1.0 };

    /// Builds `re + j·im`.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Builds a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Builds a purely imaginary complex number.
    #[inline]
    pub const fn imag(im: f64) -> Self {
        Complex { re: 0.0, im }
    }

    /// Builds `e^{jθ}` — the unit-modulus complex number at phase `theta`
    /// radians. Random-phase unit-gain channels (paper §5.3) are built from
    /// these.
    #[inline]
    pub fn from_phase(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate `re − j·im`.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `re² + im²`. Preferred over `abs()²` — it is exact
    /// and cheaper, and it is what the ML metric ‖y − Hv‖² sums.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`, computed via `hypot` for overflow safety.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase) in radians, in `(−π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse. Returns a non-finite result when `self` is
    /// zero, mirroring `f64` division semantics.
    #[inline]
    fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}-{}j", self.re, -self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z·w⁻¹ is the definition
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        self.scale(1.0 / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, z| acc + z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn field_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
        assert_eq!(z - z, Complex::ZERO);
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        let p = a * b;
        // (1+2j)(−3+0.5j) = −3 + 0.5j − 6j + j²·1 = −4 − 5.5j
        assert!(approx_eq(p.re, -4.0, 1e-12));
        assert!(approx_eq(p.im, -5.5, 1e-12));
    }

    #[test]
    fn conjugate_and_norm() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.conj(), Complex::new(3.0, -4.0));
        assert!(approx_eq(z.norm_sqr(), 25.0, 1e-12));
        assert!(approx_eq(z.abs(), 5.0, 1e-12));
        // z·z̄ = |z|²
        let p = z * z.conj();
        assert!(approx_eq(p.re, 25.0, 1e-12));
        assert!(approx_eq(p.im, 0.0, 1e-12));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(0.7, -1.3);
        let b = Complex::new(-2.4, 0.9);
        let q = (a * b) / b;
        assert!(approx_eq(q.re, a.re, 1e-12));
        assert!(approx_eq(q.im, a.im, 1e-12));
    }

    #[test]
    fn recip_of_zero_is_non_finite() {
        assert!(!Complex::ZERO.recip().is_finite());
    }

    #[test]
    fn phase_round_trip() {
        for k in 0..16 {
            let theta = -3.0 + 0.4 * k as f64;
            let z = Complex::from_phase(theta);
            assert!(approx_eq(z.abs(), 1.0, 1e-12));
            // arg is wrapped to (−π, π]; compare via unit vectors.
            let w = Complex::from_phase(z.arg());
            assert!(approx_eq(w.re, z.re, 1e-12));
            assert!(approx_eq(w.im, z.im, 1e-12));
        }
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2j");
    }

    #[test]
    fn sum_folds_from_zero() {
        let zs = [Complex::new(1.0, 1.0), Complex::new(2.0, -3.0)];
        let s: Complex = zs.iter().copied().sum();
        assert_eq!(s, Complex::new(3.0, -2.0));
    }
}
