//! Counter-based draws for the SA sweep (Salmon et al., "Parallel
//! random numbers: as easy as 1, 2, 3", SC '11).
//!
//! An SA anneal draws one 64-bit key from its stream, after the ICE
//! refreeze and the initial spins. Every uniform after that is a pure
//! function of `(key, sweep t, site)`: spin `i` proposes at site `i`,
//! chain `c` at site `n + c`. Nothing is consumed in order, so a draw
//! that decides nothing (a downhill or deep-cold move) costs nothing,
//! and the proposals of one color class can be decided together in any
//! grouping with the same result. [`accept`] is the one-proposal
//! decide; the sweep kernel decides [`LANES`] proposals at once with the
//! same arithmetic lane by lane, and skips nothing: every lane's draw
//! and exponential are computed, so the eight lanes run as one vector
//! with no branch.
//!
//! Every operation here is a plain IEEE add, multiply or bit move, so
//! each compiled instruction set gets the same bits as this source
//! (Rust never contracts a multiply and an add into an FMA).

use crate::sa::CERTAIN_REJECT_EXPONENT;

/// Proposals the sweep kernel decides at once: one 8-wide replica strip,
/// or `8 / W` spins of one color class at width `W`.
pub const LANES: usize = 8;

/// The Weyl increment of SplitMix64.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function (Stafford's mix 13).
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Weyl term of counter `(t << 32 | site)`: what position `t, site`
/// adds to a key before [`mix`]. Lane-independent, so the kernel
/// computes it once per spin.
#[inline(always)]
pub(crate) fn weyl(t: u32, site: u32) -> u64 {
    let counter = (u64::from(t) << 32) | u64::from(site);
    counter.wrapping_add(1).wrapping_mul(GOLDEN)
}

/// The uniform of 64 random `bits`: `(2m + 1)·2⁻⁵³` for their top 52
/// bits `m`.
#[inline(always)]
fn to_uniform(bits: u64) -> f64 {
    // 1 + m·2⁻⁵² minus (1 − 2⁻⁵³): exact (Sterbenz).
    const ONE: u64 = 0x3FF0_0000_0000_0000;
    f64::from_bits(ONE | (bits >> 12)) - (1.0 - f64::EPSILON / 2.0)
}

/// The uniform of `key` at the position whose [`weyl`] term is `weyl`:
/// [`uniform`] with the lane-independent half computed once.
#[inline(always)]
pub(crate) fn uniform_at(key: u64, weyl: u64) -> f64 {
    to_uniform(mix(key.wrapping_add(weyl)))
}

/// The uniform of `(key, t, site)`: `(2m + 1)·2⁻⁵³` for the top 52
/// bits `m` of position `(t << 32 | site)` of the SplitMix64 stream
/// seeded with `key`, so `u ∈ [2⁻⁵³, 1 − 2⁻⁵³]` and never 0.
#[inline(always)]
pub fn uniform(key: u64, t: u32, site: u32) -> f64 {
    uniform_at(key, weyl(t, site))
}

/// `ln 2` split for Cody–Waite reduction: `LN2_HI` has 32 trailing zero
/// bits, so `k·LN2_HI` is exact for every `k` this module reaches.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// `1.5·2⁵²`: adding it rounds a small non-negative value to an integer
/// held in the low mantissa bits.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// The Taylor coefficients of `e^{−r}`, `(−1)^j / j!`, `j = 0..=11`.
const C: [f64; 12] = [
    1.0,
    -1.0,
    1.0 / 2.0,
    -1.0 / 6.0,
    1.0 / 24.0,
    -1.0 / 120.0,
    1.0 / 720.0,
    -1.0 / 5_040.0,
    1.0 / 40_320.0,
    -1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    -1.0 / 39_916_800.0,
];

/// `e^{−x}` for `x ∈ [0, 40]`, within 1e-13 relative of `f64::exp`.
///
/// `x = k·ln 2 + r` with `k` the nearest integer and `|r| ≤ ln 2 / 2`;
/// `e^{−r}` is a degree-11 Taylor polynomial in Estrin's form (a
/// dependency chain of about seven operations instead of Horner's 22),
/// and `2^{−k}` is built from its exponent bits. Outside `[0, 40]` the
/// result is meaningless.
#[inline(always)]
pub fn exp_neg(x: f64) -> f64 {
    let rounded = x * std::f64::consts::LOG2_E + ROUND;
    let k = rounded.to_bits().wrapping_sub(ROUND.to_bits());
    let kd = rounded - ROUND;
    let r = (x - kd * LN2_HI) - kd * LN2_LO;
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let p01 = C[0] + C[1] * r;
    let p23 = C[2] + C[3] * r;
    let p45 = C[4] + C[5] * r;
    let p67 = C[6] + C[7] * r;
    let p89 = C[8] + C[9] * r;
    let p1011 = C[10] + C[11] * r;
    let q0 = p01 + p23 * r2;
    let q1 = p45 + p67 * r2;
    let q2 = p89 + p1011 * r2;
    let poly = (q0 + q1 * r4) + q2 * r8;
    poly * f64::from_bits(1023u64.wrapping_sub(k) << 52)
}

/// The counter-based Metropolis decision for one proposal: accept a
/// move of energy change `delta` at inverse temperature `beta` iff
/// `delta ≤ 0` or `u < e^{−β·delta}`, with `u` the [`uniform`] of
/// `(key, t, site)`. A move with `β·delta ≥ 40` rejects: `e^{−40}` is
/// below the smallest `u`.
#[inline(always)]
pub fn accept(beta: f64, delta: f64, key: u64, t: u32, site: u32) -> bool {
    accept_with(beta, delta, || uniform(key, t, site))
}

/// [`accept`] with the uniform supplied by `u`, called only when the
/// decision needs it.
#[inline(always)]
fn accept_with(beta: f64, delta: f64, u: impl FnOnce() -> f64) -> bool {
    if delta <= 0.0 {
        return true;
    }
    let x = beta * delta;
    x < CERTAIN_REJECT_EXPONENT && u() < exp_neg(x)
}

/// [`accept`] for [`LANES`] proposals at once: lane `l` proposes
/// `delta[l]` under `keys[l]` at the position whose [`weyl`] term is
/// `weyls[l]`. Byte `l` of the result is lane `l`'s decision (0 or 1).
/// Branch-free: every lane draws and evaluates the exponential, and
/// only the decision masks which results count.
#[inline(always)]
pub(crate) fn decide(
    beta: f64,
    delta: &[f64; LANES],
    keys: &[u64; LANES],
    weyls: &[u64; LANES],
) -> u64 {
    let mut accepted = [0u8; LANES];
    for l in 0..LANES {
        let d = delta[l];
        let x = beta * d;
        let down = d <= 0.0;
        let live = !down & (x < CERTAIN_REJECT_EXPONENT);
        // Clamped into exp_neg's domain; live lanes are already in it.
        let x = if x >= 0.0 { x } else { 0.0 };
        let x = if x < CERTAIN_REJECT_EXPONENT {
            x
        } else {
            CERTAIN_REJECT_EXPONENT
        };
        let u = uniform_at(keys[l], weyls[l]);
        accepted[l] = (down | (live & (u < exp_neg(x)))) as u8;
    }
    u64::from_le_bytes(accepted)
}

/// [`accept`] for `W ≤ 8` proposals whose uniforms `u` are already
/// drawn: byte `r` of the result is lane `r`'s decision, made as
/// [`accept`] makes it (the exponential only where it decides).
#[inline(always)]
pub(crate) fn decide_drawn<const W: usize>(beta: f64, delta: &[f64; W], u: &[f64; W]) -> u64 {
    let mut accepted = [0u8; LANES];
    for r in 0..W {
        accepted[r] = accept_with(beta, delta[r], || u[r]) as u8;
    }
    u64::from_le_bytes(accepted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniforms_stay_inside_the_open_interval() {
        assert_eq!(
            f64::from_bits(0x3FF0_0000_0000_0000) - (1.0 - f64::EPSILON / 2.0),
            f64::EPSILON / 2.0
        );
        for site in 0..1000 {
            let u = uniform(7, 3, site);
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn decide_is_accept_lane_by_lane() {
        let u = |l: usize, step: usize| {
            uniform(
                11 + l as u64 * 0x1234_5678_9ABC,
                step as u32,
                40 + 3 * l as u32,
            )
        };
        let keys: [u64; LANES] = std::array::from_fn(|l| 11 + l as u64 * 0x1234_5678_9ABC);
        let sites: [u32; LANES] = std::array::from_fn(|l| 40 + 3 * l as u32);
        for step in 0..2000 {
            let delta: [f64; LANES] =
                std::array::from_fn(|l| ((step * 7 + l * 13) % 97) as f64 / 16.0 - 2.0);
            let beta = 0.05 * (step % 400) as f64;
            let weyls = sites.map(|site| weyl(step as u32, site));
            let mask = decide(beta, &delta, &keys, &weyls);
            let drawn = decide_drawn::<LANES>(beta, &delta, &std::array::from_fn(|l| u(l, step)));
            let one_lane = decide_drawn::<1>(beta, &[delta[0]], &[u(0, step)]);
            assert_eq!(one_lane, mask & 0xFF);
            assert_eq!(drawn, mask);
            for l in 0..LANES {
                let one = accept(beta, delta[l], keys[l], step as u32, sites[l]);
                assert_eq!(mask >> (8 * l) & 0xFF, one as u64, "step {step} lane {l}");
            }
        }
    }
}
