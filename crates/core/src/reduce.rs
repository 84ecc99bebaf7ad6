//! ML-to-QUBO/Ising problem reduction (§3.2).
//!
//! Two independent constructions of the same problem:
//!
//! 1. `qubo_from_ml` — the *generic* reduction. Any modulation whose
//!    variable-to-symbol transform `T` is linear in the bits can be
//!    written `T(qᵢ) = c + Σ_b w_b·q_{i,b}` with complex per-bit
//!    weights `w_b`; expanding `‖y − He‖²` then yields exactly
//!    (using `q² = q`):
//!
//!    ```text
//!    Q_nn = −2·Re⟨ỹ, aₙ⟩ + ‖aₙ‖²,   Q_nm = 2·Re⟨aₙ, a_m⟩  (n < m),
//!    offset = ‖ỹ‖²,
//!    ```
//!
//!    with `aₙ = w_n·H_(:,user(n))` and `ỹ = y − H·c̄`. This path works
//!    for all four modulations (64-QAM included) and carries the exact
//!    energy offset, so `E_qubo(q) + offset = ‖y − He‖²` always.
//!
//! 2. [`ising_from_ml`] — the paper's closed-form *generalized Ising
//!    parameters*: Eq. 6 (BPSK), Eqs. 7–8 (QPSK), Eqs. 13–14 (16-QAM),
//!    written directly in terms of column dot products of `H` and `y`.
//!    These are what a production QuAMax front-end would compute (§3.2.2
//!    notes the conversion cost is negligible); tests pin them
//!    coefficient-by-coefficient against path 1.
//!
//! Both paths produce problems whose ground state is the ML solution
//! expressed in QuAMax-transform bits; the decoder's post-translation
//! (wireless::gray) converts those to the transmitted Gray bits.

use quamax_ising::{qubo_to_ising, IsingProblem, Listed, QuboProblem, UpperCouplings};
use quamax_linalg::{CMatrix, CVector, Complex};
use quamax_wireless::Modulation;
use std::sync::Arc;

/// Per-bit complex weights of the QuAMax transform for one user symbol,
/// and the constant term: `T(q) = offset + Σ_b weights[b]·q_b`.
///
/// BPSK: `2q − 1`; QPSK: `(2q₁−1) + j(2q₂−1)`;
/// 16-QAM: `(4q₁+2q₂−3) + j(4q₃+2q₄−3)`; 64-QAM analogous with 8/4/2.
fn transform_weights(modulation: Modulation) -> (Vec<Complex>, Complex) {
    let bits_per_dim = modulation.bits_per_dimension();
    let levels = modulation.levels_per_dimension() as f64;
    let mut weights = Vec::with_capacity(modulation.bits_per_symbol());
    // I-dimension bits, most significant first: weight 2^(bits−b)·…
    for b in 0..bits_per_dim {
        weights.push(Complex::real(f64::from(1u32 << (bits_per_dim - b))));
    }
    if modulation.dimensions() == 2 {
        for b in 0..bits_per_dim {
            weights.push(Complex::imag(f64::from(1u32 << (bits_per_dim - b))));
        }
    }
    let c = -(levels - 1.0);
    let offset = if modulation.dimensions() == 2 {
        Complex::new(c, c)
    } else {
        Complex::real(c)
    };
    (weights, offset)
}

/// The generic ML→QUBO reduction (Eq. 5 expanded).
///
/// Returns `(qubo, offset)` with `qubo.energy(q) + offset = ‖y − He‖²`
/// for every bit assignment `q`, where `e` is the QuAMax-transform
/// symbol vector of `q`.
///
/// # Panics
/// Panics when `h` and `y` disagree on the receive dimension.
fn qubo_from_ml(h: &CMatrix, y: &CVector, modulation: Modulation) -> (QuboProblem, f64) {
    assert_eq!(h.rows(), y.len(), "H and y disagree on receive antennas");
    let nt = h.cols();
    let q_bits = modulation.bits_per_symbol();
    let n = nt * q_bits;
    let (weights, t0) = transform_weights(modulation);

    // ỹ = y − H·c̄ (the constant part of every user's transform).
    let c_vec = CVector::from_fn(nt, |_| t0);
    let y_tilde = y - &h.mul_vec(&c_vec);

    // aₙ = w_b · H_(:,u): per-variable receive-space signatures.
    let a: Vec<CVector> = (0..n)
        .map(|var| {
            let user = var / q_bits;
            let w = weights[var % q_bits];
            h.col(user).scale(w)
        })
        .collect();

    let mut qubo = QuboProblem::new(n);
    #[allow(clippy::needless_range_loop)] // j indexes the strict upper triangle
    for i in 0..n {
        let ai = &a[i];
        qubo.set_diagonal(i, -2.0 * ai.dot(&y_tilde).re + ai.norm_sqr());
        for j in (i + 1)..n {
            let v = 2.0 * ai.dot(&a[j]).re;
            if v != 0.0 {
                qubo.set_off_diagonal(i, j, v);
            }
        }
    }
    (qubo, y_tilde.norm_sqr())
}

/// The paper's generalized Ising parameters, dispatched by modulation.
///
/// For BPSK/QPSK/16-QAM these are the literal closed forms of Eqs. 6–8
/// and 13–14. 64-QAM (not given in closed form in the paper) routes
/// through the generic reduction plus the Eq. 4 conversion; its returned
/// problem satisfies the same energy identity.
///
/// The returned offset satisfies
/// `ising.energy(s) + offset = ‖y − He‖²` (s = 2q − 1).
pub fn ising_from_ml(h: &CMatrix, y: &CVector, modulation: Modulation) -> (IsingProblem, f64) {
    if modulation == Modulation::Qam64 {
        return generic_ising(h, y, modulation);
    }
    let reduction = MlReduction::new(h, modulation);
    let (fields, offset) = reduction.reduce(y);
    (reduction.couplings().to_ising(&fields), offset)
}

/// The generic route: [`qubo_from_ml`] plus the Eq. 4 conversion.
fn generic_ising(h: &CMatrix, y: &CVector, modulation: Modulation) -> (IsingProblem, f64) {
    let (qubo, off_q) = qubo_from_ml(h, y, modulation);
    let (ising, off_i) = qubo_to_ising(&qubo);
    (ising, off_q + off_i)
}

/// The ML reduction split at the coherence interval.
///
/// Every closed-form coupling `g_ij` is a function of the Gram matrix
/// `H*H` alone, and `H` is constant for a channel coherence interval
/// (~30 ms at walking speed, §2.1 footnote 2), while the fields `f_i`
/// read the matched filter `H*y` of each received vector. So a
/// front-end builds the couplings once per interval with
/// [`MlReduction::new`] and pays only the `O(Nr·Nt)` matched filter, the
/// fields and the offset per vector in [`MlReduction::reduce`] — the
/// form behind §3.2.2's "computational time and resources required for
/// ML-to-QA problem conversion are insignificant". The Gram is formed
/// once, as its upper triangle; BPSK reads only its real part.
///
/// The reduction keeps `H`, the offset constants and the interval's
/// couplings, held once as an [`UpperCouplings`] that the session and
/// every run share by `Arc`; `reduce(y)` returns `y`'s fields alone.
/// Those fields over [`MlReduction::couplings`] are
/// [`ising_from_ml`]`(h, y, modulation)` exactly: the same problem
/// (couplings listed in the same adjacency order) and the same offset
/// bits. 64-QAM has no closed form; its couplings are still
/// `y`-independent, but each vector goes through the generic reduction
/// whole and keeps only its fields.
#[derive(Clone, Debug)]
pub struct MlReduction {
    h: CMatrix,
    modulation: Modulation,
    couplings: Arc<UpperCouplings>,
    /// The offset's `y`-independent term: `Σ‖H_i‖²` for BPSK,
    /// `2·Σ‖H_i‖²` for QPSK (unused otherwise).
    norm_offset: f64,
    /// 16-QAM's offset probe `H·v` at every symbol `T(0) = −3−3j`
    /// (empty otherwise).
    probe: CVector,
}

impl MlReduction {
    /// The couplings and offset constants of `(H, modulation)`.
    pub fn new(h: &CMatrix, modulation: Modulation) -> Self {
        let nt = h.cols();
        let (couplings, norm_offset, probe) = match modulation {
            // Eq. 6: g_ij = 2·Re⟨H_i, H_j⟩.
            Modulation::Bpsk => {
                let gram = h.gram_real();
                let couplings = UpperCouplings::from_fn(nt, Listed::AcrossBlocks(1), |i, j| {
                    2.0 * gram[i * nt + j]
                });
                // ‖y − Hv‖² = ‖y‖² − 2Re⟨y,Hv⟩ + ‖Hv‖²; with v = s the
                // Ising part covers the cross terms; the constant is
                // ‖y‖² + Σ_i ‖H_i‖².
                let norms = (0..nt).map(|i| gram[i * nt + i]).sum::<f64>();
                (couplings, norms, CVector::zeros(0))
            }
            // Eq. 8. Spin order: `s_{2n}` is user `n`'s I bit and
            // `s_{2n+1}` its Q bit (the paper's 1-based odd/even split).
            // Same-symbol I/Q couplers vanish: pairs within a user's
            // block of two are not listed.
            Modulation::Qpsk => {
                let gram = h.gram();
                let couplings = UpperCouplings::from_fn(2 * nt, Listed::AcrossBlocks(2), |i, j| {
                    let hh = gram[(i / 2, j / 2)];
                    match (i % 2, j % 2) {
                        // Same parity (both I or both Q): 2·Re⟨H_i, H_j⟩.
                        (0, 0) | (1, 1) => 2.0 * hh.re,
                        // I then Q: −2·Im⟨H_i, H_j⟩; Q then I: +2·Im⟨H_i, H_j⟩.
                        (0, 1) => -2.0 * hh.im,
                        _ => 2.0 * hh.im,
                    }
                });
                // Constant: ‖y‖² + E‖Hv‖² over the ±1±j lattice
                // = ‖y‖² + 2Σ‖H_i‖².
                let norms = 2.0 * (0..nt).map(|i| gram[(i, i)].re).sum::<f64>();
                (couplings, norms, CVector::zeros(0))
            }
            // Eq. 14. Spin order per user `n` (paper's 1-based 4n−3 …
            // 4n): I-MSB, I-LSB, Q-MSB, Q-LSB, with transform weights
            // 4, 2, 4j, 2j.
            Modulation::Qam16 => {
                let gram = h.gram();
                let couplings = UpperCouplings::from_fn(4 * nt, Listed::Nonzero, |i, j| {
                    let (user, pos, user_j, pos_j) = (i / 4, i % 4, j / 4, j % 4);
                    let w = qam16_weight(pos) * qam16_weight(pos_j) / 2.0;
                    let hh = gram[(user, user_j)];
                    match (pos >= 2, pos_j >= 2) {
                        // Same dimension: w·Re⟨H_i, H_j⟩ — including the
                        // same-user I-MSB/I-LSB pair (Eq. 14's 4‖H‖² case).
                        (false, false) | (true, true) => w * hh.re,
                        // I then Q: −w·Im⟨H_i,H_j⟩ (zero for the same user,
                        // matching the paper's "coupler strength … is 0").
                        (false, true) => -w * hh.im,
                        (true, false) => w * hh.im,
                    }
                });
                let probe = h.mul_vec(&CVector::from_fn(nt, |_| Complex::new(-3.0, -3.0)));
                (couplings, 0.0, probe)
            }
            Modulation::Qam64 => {
                let (generic, _) = generic_ising(h, &CVector::zeros(h.rows()), modulation);
                let n = generic.num_spins();
                let mut dense = vec![0.0; n * n];
                for (i, j, g) in generic.couplings() {
                    dense[i * n + j] = g;
                }
                let couplings =
                    UpperCouplings::from_fn(n, Listed::Nonzero, |i, j| dense[i * n + j]);
                (couplings, 0.0, CVector::zeros(0))
            }
        };
        MlReduction {
            h: h.clone(),
            modulation,
            couplings: Arc::new(couplings),
            norm_offset,
            probe,
        }
    }

    /// The modulation the couplings were built for.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// The interval's couplings: the coupling half of every
    /// [`MlReduction::reduce`] output.
    pub fn couplings(&self) -> &Arc<UpperCouplings> {
        &self.couplings
    }

    /// The fields of one received vector and its offset: over
    /// [`MlReduction::couplings`] they make the Ising problem with
    /// `ising.energy(s) + offset = ‖y − He‖²` (Eqs. 6, 7, 13).
    ///
    /// # Panics
    /// Panics when `y`'s length differs from the receive antennas.
    pub fn reduce(&self, y: &CVector) -> (Vec<f64>, f64) {
        assert_eq!(
            y.len(),
            self.h.rows(),
            "received vector length differs from receive antennas"
        );
        let nt = self.h.cols();
        match self.modulation {
            // Eq. 6: f_i = −2·Re⟨H_i, y⟩.
            Modulation::Bpsk => {
                let fields = (0..nt)
                    .map(|i| -2.0 * self.matched_filter_re(y, i))
                    .collect();
                (fields, y.norm_sqr() + self.norm_offset)
            }
            // Eq. 7: odd (I) spins couple to Re⟨H,y⟩, even (Q) to Im.
            Modulation::Qpsk => {
                let mut fields = Vec::with_capacity(2 * nt);
                for user in 0..nt {
                    let hy = self.matched_filter(y, user);
                    fields.extend([-2.0 * hy.re, -2.0 * hy.im]);
                }
                (fields, y.norm_sqr() + self.norm_offset)
            }
            // Eq. 13: I spins → weight·Re⟨H,y⟩; Q spins → weight·Im⟨H,y⟩.
            Modulation::Qam16 => {
                let mut fields = Vec::with_capacity(4 * nt);
                for user in 0..nt {
                    let hy = self.matched_filter(y, user);
                    fields.extend((0..4).map(|pos| {
                        if pos >= 2 {
                            -qam16_weight(pos) * hy.im
                        } else {
                            -qam16_weight(pos) * hy.re
                        }
                    }));
                }
                // The energy offset (the spin-independent part of the
                // expanded norm). Unlike BPSK/QPSK, 16-QAM's |v|² is
                // spin-dependent — its spin-dependent part lives in the
                // amplitude-pair couplers — so rather than carry a
                // separate closed form for the remaining constant, pin
                // it by evaluating both sides at one configuration
                // (all-(−1) spins ⇔ every symbol at T(0) = −3−3j).
                let e_ising = self.couplings.energy(&fields, &vec![-1; fields.len()]);
                let ml = (y - &self.probe).norm_sqr();
                (fields, ml - e_ising)
            }
            Modulation::Qam64 => {
                let (generic, offset) = generic_ising(&self.h, y, self.modulation);
                (generic.linear_terms().to_vec(), offset)
            }
        }
    }

    /// `(H*y)_user`, summed as `H.hermitian().mul_vec(y)` sums it.
    fn matched_filter(&self, y: &CVector, user: usize) -> Complex {
        let mut acc = Complex::ZERO;
        for (c, &yc) in y.as_slice().iter().enumerate() {
            acc += self.h[(c, user)].conj() * yc;
        }
        acc
    }

    /// `Re (H*y)_user` alone, with [`MlReduction::matched_filter`]'s
    /// arithmetic.
    fn matched_filter_re(&self, y: &CVector, user: usize) -> f64 {
        let mut acc = 0.0;
        for (c, &yc) in y.as_slice().iter().enumerate() {
            let a = self.h[(c, user)].conj();
            acc += a.re * yc.re - a.im * yc.im;
        }
        acc
    }
}

/// 16-QAM's per-position real transform weight (4, 2, 4, 2).
fn qam16_weight(pos: usize) -> f64 {
    if pos.is_multiple_of(2) {
        4.0
    } else {
        2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use quamax_ising::spins_to_bits;
    use quamax_linalg::rng::ComplexGaussian;
    use quamax_wireless::gray::index_to_bits;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_case(rng: &mut StdRng, nr: usize, nt: usize) -> (CMatrix, CVector) {
        let g = ComplexGaussian::unit();
        let h = CMatrix::from_fn(nr, nt, |_, _| g.sample(rng));
        let y = CVector::from_fn(nr, |_| g.sample(rng));
        (h, y)
    }

    fn complex() -> impl Strategy<Value = Complex> {
        (-2.0f64..2.0, -2.0f64..2.0).prop_map(|(re, im)| Complex::new(re, im))
    }

    fn channel(nr: usize, nt: usize) -> impl Strategy<Value = CMatrix> {
        proptest::collection::vec(complex(), nr * nt)
            .prop_map(move |d| CMatrix::from_vec(nr, nt, d))
    }

    fn received(nr: usize) -> impl Strategy<Value = CVector> {
        proptest::collection::vec(complex(), nr).prop_map(CVector::from_vec)
    }

    fn modulation() -> impl Strategy<Value = Modulation> {
        prop_oneof![
            Just(Modulation::Bpsk),
            Just(Modulation::Qpsk),
            Just(Modulation::Qam16),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The generic QUBO reduction satisfies the exact energy identity
        /// `E(q) + offset = ‖y − He‖²` at random bit assignments.
        #[test]
        fn qubo_energy_identity(
            h in channel(3, 2),
            y in received(3),
            m in modulation(),
            k in 0u32..256,
        ) {
            let (qubo, offset) = qubo_from_ml(&h, &y, m);
            let n = 2 * m.bits_per_symbol();
            let bits: Vec<u8> = (0..n).map(|b| ((k >> b) & 1) as u8).collect();
            let v = m.map_quamax_vector(&bits);
            let ml = (&y - &h.mul_vec(&v)).norm_sqr();
            let e = qubo.energy(&bits) + offset;
            prop_assert!((e - ml).abs() < 1e-8 * ml.max(1.0), "{e} vs {ml}");
        }

        /// Closed-form Ising coefficients equal the generic path's, for
        /// every modulation the paper gives closed forms for.
        #[test]
        fn closed_form_matches_generic(
            h in channel(4, 3),
            y in received(4),
            m in modulation(),
        ) {
            let (closed, _) = ising_from_ml(&h, &y, m);
            let (qubo, _) = qubo_from_ml(&h, &y, m);
            let (generic, _) = qubo_to_ising(&qubo);
            let n = 3 * m.bits_per_symbol();
            for i in 0..n {
                prop_assert!((closed.linear(i) - generic.linear(i)).abs() < 1e-8);
                for j in (i + 1)..n {
                    prop_assert!(
                        (closed.coupling(i, j) - generic.coupling(i, j)).abs() < 1e-8,
                        "({i},{j})"
                    );
                }
            }
        }
    }

    /// Enumerate all bit vectors of n bits.
    fn all_bits(n: usize) -> impl Iterator<Item = Vec<u8>> {
        (0..(1u32 << n)).map(move |k| (0..n).map(|b| ((k >> b) & 1) as u8).collect())
    }

    fn ml_norm(h: &CMatrix, y: &CVector, m: Modulation, bits: &[u8]) -> f64 {
        let v = m.map_quamax_vector(bits);
        (y - &h.mul_vec(&v)).norm_sqr()
    }

    #[test]
    fn generic_qubo_energy_equals_ml_norm_all_modulations() {
        let mut rng = StdRng::seed_from_u64(1);
        for m in Modulation::ALL {
            // Keep the enumeration tractable: 2 users max, 64-QAM 1 user.
            let nt = if m == Modulation::Qam64 { 1 } else { 2 };
            let (h, y) = random_case(&mut rng, 3, nt);
            let (qubo, offset) = qubo_from_ml(&h, &y, m);
            let n = nt * m.bits_per_symbol();
            assert_eq!(qubo.num_bits(), n);
            for bits in all_bits(n) {
                let lhs = qubo.energy(&bits) + offset;
                let rhs = ml_norm(&h, &y, m, &bits);
                assert!(
                    (lhs - rhs).abs() < 1e-9 * rhs.abs().max(1.0),
                    "{}: bits {bits:?}: {lhs} vs {rhs}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn closed_form_ising_energy_equals_ml_norm() {
        let mut rng = StdRng::seed_from_u64(2);
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let nt = if m == Modulation::Qam16 { 2 } else { 3 };
            let (h, y) = random_case(&mut rng, 4, nt);
            let (ising, offset) = ising_from_ml(&h, &y, m);
            let n = nt * m.bits_per_symbol();
            for bits in all_bits(n) {
                let spins: Vec<i8> = bits.iter().map(|&b| 2 * b as i8 - 1).collect();
                let lhs = ising.energy(&spins) + offset;
                let rhs = ml_norm(&h, &y, m, &bits);
                assert!(
                    (lhs - rhs).abs() < 1e-9 * rhs.abs().max(1.0),
                    "{}: bits {bits:?}: {lhs} vs {rhs}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn closed_forms_match_generic_reduction_coefficients() {
        // The paper's Eqs. 6–8/13–14 against the norm expansion + Eq. 4,
        // coefficient by coefficient.
        let mut rng = StdRng::seed_from_u64(3);
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let nt = 3;
            let (h, y) = random_case(&mut rng, 5, nt);
            let (closed, _) = ising_from_ml(&h, &y, m);
            let (qubo, _) = qubo_from_ml(&h, &y, m);
            let (generic, _) = qubo_to_ising(&qubo);
            let n = nt * m.bits_per_symbol();
            for i in 0..n {
                assert!(
                    (closed.linear(i) - generic.linear(i)).abs() < 1e-9,
                    "{} f_{i}: {} vs {}",
                    m.name(),
                    closed.linear(i),
                    generic.linear(i)
                );
                for j in (i + 1)..n {
                    assert!(
                        (closed.coupling(i, j) - generic.coupling(i, j)).abs() < 1e-9,
                        "{} g_{i}{j}: {} vs {}",
                        m.name(),
                        closed.coupling(i, j),
                        generic.coupling(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn ground_state_is_ml_solution() {
        // The argmin of the Ising problem must be the exhaustive-ML
        // argmin (in QuAMax-transform bits).
        let mut rng = StdRng::seed_from_u64(4);
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let nt = if m == Modulation::Qam16 { 2 } else { 4 };
            let (h, y) = random_case(&mut rng, nt, nt);
            let (ising, _) = ising_from_ml(&h, &y, m);
            let gs = quamax_ising::exact_ground_state(&ising);
            let n = nt * m.bits_per_symbol();
            let best_bits = all_bits(n)
                .min_by(|a, b| {
                    ml_norm(&h, &y, m, a)
                        .partial_cmp(&ml_norm(&h, &y, m, b))
                        .unwrap()
                })
                .unwrap();
            assert_eq!(gs.ground_states.len(), 1, "{}: degenerate ML", m.name());
            assert_eq!(
                spins_to_bits(&gs.ground_states[0]),
                best_bits,
                "{}",
                m.name()
            );
        }
    }

    #[test]
    fn qpsk_same_symbol_couplers_vanish() {
        let mut rng = StdRng::seed_from_u64(5);
        let (h, y) = random_case(&mut rng, 4, 4);
        let (ising, _) = ising_from_ml(&h, &y, Modulation::Qpsk);
        for u in 0..4 {
            assert_eq!(ising.coupling(2 * u, 2 * u + 1), 0.0, "user {u}");
        }
    }

    #[test]
    fn qam16_same_symbol_iq_couplers_vanish_but_amplitude_pairs_do_not() {
        let mut rng = StdRng::seed_from_u64(6);
        let (h, y) = random_case(&mut rng, 4, 2);
        let (ising, _) = ising_from_ml(&h, &y, Modulation::Qam16);
        for u in 0..2 {
            let base = 4 * u;
            // I–Q cross couplers of one symbol vanish (Im⟨H_u,H_u⟩ = 0).
            for (a, b) in [(0, 2), (0, 3), (1, 2), (1, 3)] {
                assert!(
                    ising.coupling(base + a, base + b).abs() < 1e-12,
                    "user {u}: ({a},{b})"
                );
            }
            // Amplitude pairs within a dimension carry 4‖H_u‖².
            let norm = h.col(u).norm_sqr();
            assert!((ising.coupling(base, base + 1) - 4.0 * norm).abs() < 1e-9);
            assert!((ising.coupling(base + 2, base + 3) - 4.0 * norm).abs() < 1e-9);
        }
    }

    #[test]
    fn noiseless_ground_state_decodes_transmitted_bits() {
        // y = H·v̄ exactly: the ML/Ising ground state must reproduce the
        // transmitted bits (via the Fig. 2 translation).
        use quamax_wireless::gray::quamax_bits_to_gray;
        let mut rng = StdRng::seed_from_u64(7);
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let nt = 2;
            let q = m.bits_per_symbol();
            let g = ComplexGaussian::unit();
            let h = CMatrix::from_fn(3, nt, |_, _| g.sample(&mut rng));
            let tx: Vec<u8> = index_to_bits(rng.random_range(0..(1u32 << (nt * q))), nt * q);
            let v = m.map_gray_vector(&tx);
            let y = h.mul_vec(&v);
            let (ising, offset) = ising_from_ml(&h, &y, m);
            let gs = quamax_ising::exact_ground_state(&ising);
            // Ground energy equals 0 (+ offset identity: ‖y−Hv̄‖² = 0).
            assert!((gs.energy + offset).abs() < 1e-8, "{}", m.name());
            let qubo_bits = spins_to_bits(&gs.ground_states[0]);
            // Translate per symbol and compare with the Gray tx bits.
            let decoded: Vec<u8> = qubo_bits.chunks(q).flat_map(quamax_bits_to_gray).collect();
            assert_eq!(decoded, tx, "{}", m.name());
        }
    }

    #[test]
    #[should_panic(expected = "receive antennas")]
    fn dimension_mismatch_panics() {
        let h = CMatrix::zeros(3, 2);
        let y = CVector::zeros(4);
        let _ = qubo_from_ml(&h, &y, Modulation::Bpsk);
    }
}
