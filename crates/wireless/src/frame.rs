//! Frames and error-rate bookkeeping.
//!
//! The paper evaluates two physical-layer figures of merit: bit error
//! rate (BER) averaged across users, and frame error rate computed from
//! it as `FER = 1 − (1 − BER)^frame_bits` (§5.2.2, footnote 5) for
//! 1,500-byte internet MTU frames down to 50-byte TCP-ACK frames
//! (Fig. 11).

use rand::Rng;

/// Frame sizes the paper reports (bytes).
pub const FRAME_BYTES_MTU: usize = 1500;
/// TCP-ACK-sized frame (bytes), the small end of Fig. 11's sweep.
pub const FRAME_BYTES_ACK: usize = 50;

/// A frame of payload bits belonging to one user.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    bits: Vec<u8>,
}

impl Frame {
    /// A frame of `bytes` random payload bytes.
    pub fn random<R: Rng + ?Sized>(bytes: usize, rng: &mut R) -> Self {
        Frame {
            bits: (0..bytes * 8)
                .map(|_| rng.random_range(0..=1) as u8)
                .collect(),
        }
    }

    /// Wraps explicit bits (each 0/1).
    pub fn from_bits(bits: Vec<u8>) -> Self {
        debug_assert!(bits.iter().all(|&b| b <= 1));
        Frame { bits }
    }

    /// Payload bits.
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }
}

/// Counts positions where `a` and `b` differ.
///
/// # Panics
/// Panics when lengths differ — a length mismatch is a pipeline bug, not
/// a channel error, and must not be silently scored.
pub fn count_bit_errors(a: &[u8], b: &[u8]) -> usize {
    assert_eq!(a.len(), b.len(), "bit strings must have equal length");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Frame error rate from bit error rate, for a frame of `frame_bytes`
/// bytes, under the paper's independent-bit-error model:
/// `FER = 1 − (1 − BER)^{8·frame_bytes}`.
///
/// Numerically robust for tiny BER via `ln1p`/`exp_m1`.
pub fn fer_from_ber(ber: f64, frame_bytes: usize) -> f64 {
    assert!(
        (0.0..=1.0).contains(&ber),
        "BER must be a probability, got {ber}"
    );
    let n = (frame_bytes * 8) as f64;
    // 1 − (1−p)^n = −expm1(n·ln1p(−p))
    -f64::exp_m1(n * f64::ln_1p(-ber))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bit_error_counting() {
        assert_eq!(count_bit_errors(&[0, 1, 1, 0], &[0, 1, 1, 0]), 0);
        assert_eq!(count_bit_errors(&[0, 1, 1, 0], &[1, 1, 0, 0]), 2);
        assert_eq!(count_bit_errors(&[], &[]), 0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = count_bit_errors(&[0], &[0, 1]);
    }

    #[test]
    fn fer_limits() {
        assert_eq!(fer_from_ber(0.0, 1500), 0.0);
        assert!((fer_from_ber(1.0, 1500) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fer_matches_naive_formula_at_moderate_ber() {
        let ber: f64 = 1e-3;
        let naive = 1.0 - (1.0 - ber).powi(1500 * 8);
        assert!((fer_from_ber(ber, 1500) - naive).abs() < 1e-12);
    }

    #[test]
    fn fer_is_accurate_for_tiny_ber() {
        // At BER 1e-9 and 12,000 bits, FER ≈ 1.2e-5; the naive formula in
        // f64 still works here but ln1p form must agree to high precision.
        let ber = 1e-9;
        let fer = fer_from_ber(ber, 1500);
        assert!((fer - 1.2e-5).abs() / 1.2e-5 < 1e-3, "fer={fer}");
    }

    #[test]
    fn fer_monotone_in_frame_size() {
        let ber = 1e-5;
        assert!(fer_from_ber(ber, FRAME_BYTES_ACK) < fer_from_ber(ber, FRAME_BYTES_MTU));
    }

    #[test]
    fn small_ber_regime_is_linear() {
        // For n·BER ≪ 1, FER ≈ n·BER: 1,500-byte frames at BER 1e-6 give
        // FER ≈ 1.2e-2, and 50-byte frames at BER 2.5e-7 give FER ≈ 1e-4
        // (the paper's TTF targets live in this linear regime).
        let fer_mtu = fer_from_ber(1e-6, FRAME_BYTES_MTU);
        assert!((fer_mtu - 1.2e-2).abs() / 1.2e-2 < 0.01, "{fer_mtu}");
        let fer_ack = fer_from_ber(2.5e-7, FRAME_BYTES_ACK);
        assert!((fer_ack - 1e-4).abs() / 1e-4 < 0.01, "{fer_ack}");
    }

    #[test]
    fn random_frame_has_requested_size_and_binary_content() {
        let mut rng = StdRng::seed_from_u64(8);
        let f = Frame::random(50, &mut rng);
        assert_eq!(f.bits().len(), 400);
        assert!(f.bits().iter().all(|&b| b <= 1));
        // Roughly balanced bits.
        let ones: usize = f.bits().iter().map(|&b| b as usize).sum();
        assert!(ones > 120 && ones < 280, "ones={ones}");
    }
}
