//! Gray ↔ binary codes and the QuAMax bitwise post-translation (Fig. 2).
//!
//! Transmitters Gray-code bits onto constellation points so that nearest-
//! neighbour symbol errors cost one bit. The QuAMax receiver instead uses
//! the *linear* "QuAMax transform" (binary-weighted levels, Fig. 2(a)),
//! because only a linear bit→symbol map keeps the ML norm expansion
//! quadratic (§3.2.1); Gray's map would introduce cubic/quartic terms
//! needing quadratization. The disparity is repaired after annealing by a
//! bitwise translation from Fig. 2(a) to Fig. 2(d), which the paper
//! factors through an intermediate code (Fig. 2(b)) and a differential
//! bit encoding (Fig. 2(c)). Both the paper's two-step route and its
//! closed per-dimension form are implemented here, and tested equal.

/// Binary index → Gray code (`k XOR (k >> 1)`).
#[inline]
pub fn binary_to_gray(k: u32) -> u32 {
    k ^ (k >> 1)
}

/// Gray code → binary index (prefix-XOR scan).
#[inline]
pub fn gray_to_binary(g: u32) -> u32 {
    let mut b = g;
    let mut shift = 1;
    while (g >> shift) != 0 {
        b ^= g >> shift;
        shift += 1;
    }
    b
}

/// Translates one symbol's QuAMax-transform bits into Gray-coded bits —
/// the receiver-side post-translation of §3.2.1.
///
/// `bits` holds the symbol's bits, I-dimension bits first then
/// Q-dimension bits (`bits.len()` = Q = bits/symbol; each dimension has
/// `Q/2` bits, or BPSK's single I bit). Per dimension the translation is
/// binary-index → Gray-index on the level bits: `g₁ = b₁`,
/// `gₖ = bₖ ⊕ bₖ₋₁` — the closed form of the paper's
/// intermediate-code + differential-encoding route. For BPSK and QPSK (one bit per
/// dimension) the translation is the identity, as the paper notes.
pub fn quamax_bits_to_gray(bits: &[u8]) -> Vec<u8> {
    per_dimension(bits, |dim| {
        let mut out = Vec::with_capacity(dim.len());
        let mut prev = 0u8;
        for &b in dim {
            out.push(b ^ prev);
            prev = b;
        }
        out
    })
}

/// Inverse of [`quamax_bits_to_gray`]: Gray-coded bits → the QuAMax
/// transform's binary-weighted bits. Used to express ground-truth
/// transmitted bits in QUBO-variable space when scoring anneals.
pub fn gray_bits_to_quamax(bits: &[u8]) -> Vec<u8> {
    per_dimension(bits, |dim| {
        let mut out = Vec::with_capacity(dim.len());
        let mut acc = 0u8;
        for &g in dim {
            acc ^= g;
            out.push(acc);
        }
        out
    })
}

/// Splits `bits` into its I/Q dimension groups, applies `f` to each, and
/// re-concatenates. A 1-bit-per-dimension group passes through unchanged
/// by both translations above, so BPSK needs no special casing.
fn per_dimension(bits: &[u8], f: impl Fn(&[u8]) -> Vec<u8>) -> Vec<u8> {
    debug_assert!(bits.iter().all(|&b| b <= 1), "bits must be 0/1");
    if bits.len() <= 1 {
        return bits.to_vec();
    }
    assert!(
        bits.len().is_multiple_of(2),
        "complex modulations carry an even bit count"
    );
    let half = bits.len() / 2;
    let mut out = f(&bits[..half]);
    out.extend(f(&bits[half..]));
    out
}

/// Packs bit slice (MSB first) into an index.
pub fn bits_to_index(bits: &[u8]) -> u32 {
    bits.iter().fold(0u32, |acc, &b| (acc << 1) | u32::from(b))
}

/// Unpacks an index into `width` bits, MSB first.
pub fn index_to_bits(k: u32, width: usize) -> Vec<u8> {
    (0..width).rev().map(|i| ((k >> i) & 1) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's literal two-step 16-QAM translation: Fig. 2(a) → 2(b)
    /// (flip the Q bits when the second I bit is 1 — "flip even-numbered
    /// columns upside down") → 2(d) (differential bit encoding over the whole
    /// 4-bit string, `b̂ₖ = b′ₖ ⊕ b′ₖ₋₁`).
    ///
    /// It pins [`quamax_bits_to_gray`]'s closed form to the paper's worked
    /// examples (1100 → 1111 → 1000). 16-QAM only: `bits.len() == 4`.
    fn quamax_to_gray_via_intermediate(bits: &[u8]) -> Vec<u8> {
        // Step 1: intermediate code (Fig. 2(a) → 2(b)).
        let mut b = bits.to_vec();
        if b[1] == 1 {
            b[2] ^= 1;
            b[3] ^= 1;
        }
        // Step 2: differential bit encoding across the 4-bit string.
        let mut out = Vec::with_capacity(4);
        let mut prev = 0u8;
        for &bit in &b {
            out.push(bit ^ prev);
            prev = bit;
        }
        out
    }

    #[test]
    fn gray_round_trip_all_u8() {
        for k in 0u32..256 {
            assert_eq!(gray_to_binary(binary_to_gray(k)), k);
        }
    }

    #[test]
    fn gray_neighbours_differ_in_one_bit() {
        for k in 0u32..255 {
            let diff = binary_to_gray(k) ^ binary_to_gray(k + 1);
            assert_eq!(diff.count_ones(), 1, "k={k}");
        }
    }

    #[test]
    fn gray_sequence_for_two_bits() {
        // The paper's 4-PAM Gray labels: 00, 01, 11, 10.
        let seq: Vec<u32> = (0..4).map(binary_to_gray).collect();
        assert_eq!(seq, vec![0b00, 0b01, 0b11, 0b10]);
    }

    #[test]
    fn paper_worked_example_1100() {
        // §3.2.1: QUBO output 1100 → intermediate 1111 → Gray 1000.
        let qubo = [1, 1, 0, 0];
        let gray = quamax_to_gray_via_intermediate(&qubo);
        assert_eq!(gray, vec![1, 0, 0, 0]);
        // The intermediate step itself: second bit is 1 → flip bits 3,4.
        let closed = quamax_bits_to_gray(&qubo);
        assert_eq!(closed, gray);
    }

    #[test]
    fn two_routes_agree_on_all_16qam_symbols() {
        for k in 0u32..16 {
            let bits = index_to_bits(k, 4);
            assert_eq!(
                quamax_bits_to_gray(&bits),
                quamax_to_gray_via_intermediate(&bits),
                "k={k:04b}"
            );
        }
    }

    #[test]
    fn translation_is_a_bijection() {
        for width in [1usize, 2, 4, 6] {
            let mut seen = std::collections::HashSet::new();
            for k in 0..(1u32 << width) {
                let bits = index_to_bits(k, width);
                let g = quamax_bits_to_gray(&bits);
                assert!(seen.insert(g), "collision at width={width} k={k}");
            }
        }
    }

    #[test]
    fn translation_round_trip() {
        for width in [1usize, 2, 4, 6] {
            for k in 0..(1u32 << width) {
                let bits = index_to_bits(k, width);
                let there = quamax_bits_to_gray(&bits);
                let back = gray_bits_to_quamax(&there);
                assert_eq!(back, bits, "width={width} k={k}");
            }
        }
    }

    #[test]
    fn bpsk_and_qpsk_translation_is_identity() {
        // One bit per dimension: the paper keeps BPSK/QPSK untranslated.
        for bits in [
            vec![0u8],
            vec![1],
            vec![0, 0],
            vec![0, 1],
            vec![1, 0],
            vec![1, 1],
        ] {
            assert_eq!(quamax_bits_to_gray(&bits), bits);
        }
    }

    #[test]
    fn bits_index_round_trip() {
        for width in [1usize, 4, 6, 8] {
            for k in 0..(1u32 << width) {
                assert_eq!(bits_to_index(&index_to_bits(k, width)), k);
            }
        }
    }
}
