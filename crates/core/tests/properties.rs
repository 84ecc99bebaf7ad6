//! Property-based tests for the ML reductions, Eq. 9 metrics, the
//! compile-once decode-session equivalence contract, and the downlink
//! VPP precoding reduction.

use proptest::prelude::*;
use quamax_anneal::{Annealer, AnnealerConfig, IceModel, Schedule};
use quamax_core::metrics::BitErrorProfile;
use quamax_core::reduce::{ising_from_ml, qubo_from_ml};
use quamax_core::{DecoderConfig, QuamaxDecoder, Scenario};
use quamax_ising::qubo_to_ising;
use quamax_linalg::{CMatrix, CVector, Complex};
use quamax_wireless::{Modulation, Snr};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn complex() -> impl Strategy<Value = Complex> {
    (-2.0f64..2.0, -2.0f64..2.0).prop_map(|(re, im)| Complex::new(re, im))
}

fn channel(nr: usize, nt: usize) -> impl Strategy<Value = CMatrix> {
    proptest::collection::vec(complex(), nr * nt).prop_map(move |d| CMatrix::from_vec(nr, nt, d))
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

    /// Eq. 9 is non-increasing in Na when bit errors are non-decreasing
    /// with rank (the typical regime where the lowest-energy solution
    /// has the fewest errors; with *non-monotone* error profiles — the
    /// paper's own Fig. 4 green curves — Eq. 9 can legitimately grow
    /// with Na, so no bound is asserted there).
    #[test]
    fn eq9_bounds(
        mut raw in proptest::collection::vec((1u32..100, 0usize..5), 1..6),
        n_bits in 8usize..64,
    ) {
        raw.sort_by_key(|&(_, e)| e);
        let total: u32 = raw.iter().map(|&(w, _)| w).sum();
        let probs: Vec<f64> = raw.iter().map(|&(w, _)| w as f64 / total as f64).collect();
        let errors: Vec<usize> = raw.iter().map(|&(_, e)| e.min(n_bits)).collect();
        let profile = BitErrorProfile::from_parts(probs, errors.clone(), n_bits);
        let one = profile.expected_ber(1);
        let mut prev = one;
        for na in [2usize, 5, 17, 133] {
            let b = profile.expected_ber(na);
            prop_assert!(b <= prev + 1e-12);
            prop_assert!(b >= profile.floor_ber() - 1e-12);
            prev = b;
        }
        // anneals_to_ber is consistent with expected_ber whenever it
        // returns.
        if let Some(na) = profile.anneals_to_ber(one * 0.5) {
            prop_assert!(profile.expected_ber(na) <= one * 0.5 + 1e-12);
        }
    }
}

/// A fast annealer for the equivalence properties: the contract under
/// test is bit-identity, not solution quality, so short schedules and
/// the calibrated ICE model (exercising the refreeze path) suffice.
fn session_annealer() -> Annealer {
    Annealer::new(AnnealerConfig {
        sweeps_per_us: 10.0,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `DecodeSession::decode_batch` over one coherence interval is
    /// bit-identical to repeated one-shot `QuamaxDecoder::decode` at
    /// the same seeds — the API-redesign contract, across modulations,
    /// user counts, channel seeds, and decode seeds (ICE on, so the
    /// per-anneal refreeze stream equivalence is covered too).
    #[test]
    fn session_batch_equals_repeated_one_shot(
        m in prop_oneof![
            Just(Modulation::Bpsk),
            Just(Modulation::Qpsk),
            Just(Modulation::Qam16),
        ],
        channel_seed in 0u64..1_000,
        decode_seed in 0u64..100_000,
        users in 2usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(channel_seed);
        let sc = Scenario::new(users, users, m);
        let interval = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(session_annealer(), DecoderConfig::default());

        // One coherence interval: fixed H, three received vectors.
        let items: Vec<(CVector, u64)> = (0..3u64)
            .map(|k| {
                let inst = interval.renoise(Snr::from_db(20.0), &mut rng);
                (inst.y().clone(), decode_seed + k)
            })
            .collect();

        let session = decoder.compile(&interval.detection_input()).expect("fits the chip");
        let batch = session.decode_batch(&items, 15);

        for ((y, seed), run) in items.iter().zip(&batch) {
            let input = quamax_core::DetectionInput {
                h: interval.h().clone(),
                y: y.clone(),
                modulation: m,
            };
            let mut one_rng = StdRng::seed_from_u64(*seed);
            let one = decoder.decode(&input, 15, &mut one_rng).unwrap();
            prop_assert_eq!(one.best_bits(), run.best_bits());
            prop_assert_eq!(one.distribution(), run.distribution());
            prop_assert_eq!(one.ml_offset(), run.ml_offset());
            prop_assert_eq!(one.chain_break_fraction(), run.chain_break_fraction());
        }
    }

    /// The same contract holds for reverse annealing through a session.
    #[test]
    fn session_reverse_equals_one_shot_reverse(
        channel_seed in 0u64..1_000,
        decode_seed in 0u64..100_000,
    ) {
        let mut rng = StdRng::seed_from_u64(channel_seed);
        let sc = Scenario::new(4, 4, Modulation::Qpsk);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let mut candidate = inst.tx_bits().to_vec();
        candidate[2] ^= 1;
        let decoder = QuamaxDecoder::new(
            session_annealer(),
            DecoderConfig {
                schedule: Schedule::reverse(1.0, 0.6, 1.0),
                ..Default::default()
            },
        );
        let mut one_rng = StdRng::seed_from_u64(decode_seed);
        let one = decoder
            .decode_reverse(&input, 12, &candidate, &mut one_rng)
            .unwrap();
        let mut session = decoder.compile(&input).expect("fits the chip");
        let mut s_rng = StdRng::seed_from_u64(decode_seed);
        let via = session.decode_reverse(&input.y, 12, &candidate, &mut s_rng);
        prop_assert_eq!(one.best_bits(), via.best_bits());
        prop_assert_eq!(one.distribution(), via.distribution());
    }

    /// A zero-ICE session also matches (the refreeze path disabled —
    /// the programmed coefficients themselves are compared through the
    /// sweep dynamics).
    #[test]
    fn session_equivalence_without_ice(
        channel_seed in 0u64..1_000,
        decode_seed in 0u64..100_000,
    ) {
        let mut rng = StdRng::seed_from_u64(channel_seed);
        let sc = Scenario::new(3, 3, Modulation::Qam16);
        let interval = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(
            Annealer::new(AnnealerConfig {
                ice: IceModel::none(),
                sweeps_per_us: 10.0,
                ..Default::default()
            }),
            DecoderConfig::default(),
        );
        let inst = interval.renoise(Snr::from_db(15.0), &mut rng);
        let input = inst.detection_input();
        let mut session = decoder.compile(&interval.detection_input()).expect("fits the chip");
        let via = session.decode(&input.y, 20, decode_seed);
        let mut one_rng = StdRng::seed_from_u64(decode_seed);
        let one = decoder.decode(&input, 20, &mut one_rng).unwrap();
        prop_assert_eq!(one.best_bits(), via.best_bits());
        prop_assert_eq!(one.distribution(), via.distribution());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Trait-path equivalence: for every classical backend,
    /// `Detector::compile` + `DetectorSession::detect` is bit-identical
    /// to the backend's direct API on the same `(H, y)`, per modulation.
    #[test]
    fn trait_path_equals_direct_api_classical(
        m in modulation(),
        channel_seed in 0u64..10_000,
        users in 2usize..4,
    ) {
        use quamax_baselines::{MmseDetector, SphereDecoder, ZeroForcingDetector, exhaustive_ml};
        use quamax_core::{Detector, DetectorKind, DetectorSession};

        let mut rng = StdRng::seed_from_u64(channel_seed);
        let snr = Snr::from_db(12.0);
        let sc = Scenario::new(users, users, m).with_rayleigh().with_snr(snr);
        let interval = sc.sample(&mut rng);
        let input = interval.detection_input();
        let sigma2 = snr.noise_variance(m);

        // Three received vectors over the same channel: the session is
        // compiled once, the direct APIs re-factor per call.
        let ys: Vec<CVector> = (0..3)
            .map(|_| interval.renoise(snr, &mut rng).y().clone())
            .collect();

        let zf = ZeroForcingDetector::new(m);
        let mmse = MmseDetector::new(m, sigma2);
        let sphere = SphereDecoder::new(m);
        if zf.decode(&input.h, &input.y).is_err() {
            return Ok(()); // rank-deficient draw: trait compile fails identically
        }

        let mut zf_s = DetectorKind::zf().compile(&input).unwrap();
        let mut mmse_s = DetectorKind::mmse(sigma2).compile(&input).unwrap();
        let mut sphere_s = DetectorKind::sphere().compile(&input).unwrap();
        let mut ml_s = DetectorKind::exact_ml().compile(&input).unwrap();

        for y in &ys {
            prop_assert_eq!(zf_s.detect(y, 0).unwrap().bits, zf.decode(&input.h, y).unwrap());
            prop_assert_eq!(mmse_s.detect(y, 0).unwrap().bits, mmse.decode(&input.h, y).unwrap());
            let via = sphere_s.detect(y, 0).unwrap();
            let direct = sphere.decode(&input.h, y).unwrap();
            prop_assert_eq!(via.bits, direct.bits);
            prop_assert_eq!(via.metric, Some(direct.metric));
            let ml = exhaustive_ml(&input.h, y, m);
            let via_ml = ml_s.detect(y, 0).unwrap();
            prop_assert_eq!(via_ml.bits, ml.bits);
            prop_assert_eq!(via_ml.metric, Some(ml.metric));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Trait-path equivalence for the annealed backend: the
    /// `DetectorKind::quamax` session reproduces one-shot
    /// `QuamaxDecoder::decode` bit for bit under the same seed.
    #[test]
    fn trait_path_equals_direct_api_quamax(
        m in modulation(),
        channel_seed in 0u64..1_000,
        decode_seed in 0u64..100_000,
    ) {
        use quamax_core::{Detector, DetectorKind, DetectorSession};

        let mut rng = StdRng::seed_from_u64(channel_seed);
        let sc = Scenario::new(3, 3, m);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let config = DecoderConfig::default();
        let kind = DetectorKind::quamax(session_annealer(), config, 15);
        let mut session = kind.compile(&input).unwrap();
        let via = session.detect(&input.y, decode_seed).unwrap();

        let decoder = QuamaxDecoder::new(session_annealer(), config);
        let mut one_rng = StdRng::seed_from_u64(decode_seed);
        let one = decoder.decode(&input, 15, &mut one_rng).unwrap();
        prop_assert_eq!(one.best_bits(), via.bits);
        let run = via.annealed_run().expect("annealed run attached");
        prop_assert_eq!(one.distribution(), run.distribution());
        prop_assert_eq!(one.ml_offset(), run.ml_offset());
    }

    /// The hybrid router's decisions are deterministic and its output
    /// is always exactly one of its two sub-sessions' detections.
    #[test]
    fn hybrid_output_is_one_of_its_routes(
        m in modulation(),
        channel_seed in 0u64..10_000,
        margin in 0.5f64..4.0,
    ) {
        use quamax_core::{Detector, DetectorKind, DetectorSession, Route, RoutePolicy};

        let mut rng = StdRng::seed_from_u64(channel_seed);
        let snr = Snr::from_db(11.0);
        let sc = Scenario::new(3, 3, m).with_rayleigh().with_snr(snr);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        if quamax_baselines::ZeroForcingDetector::new(m).decode(&input.h, &input.y).is_err() {
            return Ok(());
        }
        let policy = RoutePolicy::noise_matched(snr, m, margin);
        let kind = DetectorKind::hybrid(DetectorKind::zf(), DetectorKind::sphere(), policy);
        let mut session = kind.compile(&input).unwrap();
        let det = session.detect(&input.y, 3).unwrap();

        let mut zf_s = DetectorKind::zf().compile(&input).unwrap();
        let zf_det = zf_s.detect(&input.y, 3).unwrap();
        let mut sp_s = DetectorKind::sphere().compile(&input).unwrap();
        let sp_det = sp_s.detect(&input.y, 3).unwrap();

        // The routing decision replays the policy exactly…
        let per_antenna = zf_det.metric.unwrap() / input.nr() as f64;
        let expect_route = if per_antenna <= policy.max_residual_per_antenna {
            Route::Primary
        } else {
            Route::Fallback
        };
        prop_assert_eq!(det.route(), Some(expect_route));
        // …and the bits are exactly the chosen sub-session's.
        match expect_route {
            Route::Primary => prop_assert_eq!(det.bits, zf_det.bits),
            Route::Fallback => prop_assert_eq!(det.bits, sp_det.bits),
        }
    }

    /// The soft-output contract, every backend × modulation: one LLR
    /// per payload bit, magnitudes within the clamp, and every LLR's
    /// *sign* agreeing with the backend's own hard decision (positive
    /// ⇒ bit 1, negative ⇒ bit 0, zero unconstrained). The soft
    /// session's `detect` also equals the hard compile's `detect` in
    /// bits, metric and route.
    #[test]
    fn llr_signs_match_hard_bits_for_every_backend(
        m in modulation(),
        channel_seed in 0u64..10_000,
        snr_db in 4.0f64..18.0,
    ) {
        use quamax_core::{Detector, DetectorKind, DetectorSession, RoutePolicy, SoftSpec};

        let mut rng = StdRng::seed_from_u64(channel_seed);
        let snr = Snr::from_db(snr_db);
        let sc = Scenario::new(2, 2, m).with_rayleigh().with_snr(snr);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let spec = SoftSpec::noise_matched(snr, m);
        let kinds = [
            DetectorKind::zf(),
            DetectorKind::mmse(spec.noise_variance),
            DetectorKind::sphere(),
            DetectorKind::exact_ml(),
            DetectorKind::quamax(session_annealer(), DecoderConfig::default(), 20),
            DetectorKind::hybrid(
                DetectorKind::zf(),
                DetectorKind::sphere(),
                RoutePolicy::noise_matched(snr, m, 2.0),
            ),
        ];
        for kind in kinds {
            let name = kind.name();
            let mut session = match kind.compile_soft(&input, spec) {
                Ok(s) => s,
                // A rank-deficient draw can sink the pure linear
                // kinds; the property quantifies the sessions that
                // do compile.
                Err(_) => continue,
            };
            let soft = session.detect_soft(&input.y, channel_seed).unwrap();
            prop_assert_eq!(soft.llrs.len(), input.num_bits(), "{}", name);
            prop_assert_eq!(soft.bits.len(), input.num_bits(), "{}", name);
            for (k, (&llr, &bit)) in soft.llrs.iter().zip(&soft.bits).enumerate() {
                prop_assert!(llr.is_finite(), "{} bit {}", name, k);
                prop_assert!(
                    llr.abs() <= spec.max_llr + 1e-12,
                    "{} bit {}: |{}| above the clamp", name, k, llr
                );
                if llr > 0.0 {
                    prop_assert_eq!(bit, 1, "{} bit {}: llr {}", name, k, llr);
                } else if llr < 0.0 {
                    prop_assert_eq!(bit, 0, "{} bit {}: llr {}", name, k, llr);
                }
            }
            // One session per backend: the soft session's hard face is
            // the hard compile's session, bit for bit.
            let via_soft = session.detect(&input.y, channel_seed).unwrap();
            let mut hard = kind.compile(&input).unwrap();
            let via_hard = hard.detect(&input.y, channel_seed).unwrap();
            prop_assert_eq!(&via_soft.bits, &via_hard.bits, "{}", name);
            prop_assert_eq!(via_soft.metric, via_hard.metric, "{}", name);
            prop_assert_eq!(via_soft.route(), via_hard.route(), "{}", name);
        }
    }

    /// The IDD iteration-1 contract, every backend × modulation:
    /// `detect_soft_with_priors` under uninformative (all-zero) priors
    /// is *bit-identical* to `detect_soft` — same bits, same LLRs,
    /// same extrinsic, same objective — so iteration 1 of the feedback
    /// loop is exactly the existing soft pipeline.
    #[test]
    fn zero_priors_are_bit_identical_to_detect_soft(
        m in modulation(),
        channel_seed in 0u64..10_000,
        snr_db in 3.0f64..18.0,
    ) {
        use quamax_core::{DetectorKind, RoutePolicy, SoftSpec};

        let mut rng = StdRng::seed_from_u64(channel_seed);
        let snr = Snr::from_db(snr_db);
        let sc = Scenario::new(2, 2, m).with_rayleigh().with_snr(snr);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let spec = SoftSpec::noise_matched(snr, m);
        let zeros = vec![0.0f64; input.num_bits()];
        let kinds = [
            DetectorKind::zf(),
            DetectorKind::mmse(spec.noise_variance),
            DetectorKind::sphere(),
            DetectorKind::exact_ml(),
            DetectorKind::quamax(session_annealer(), DecoderConfig::default(), 20),
            DetectorKind::hybrid(
                DetectorKind::zf(),
                DetectorKind::sphere(),
                RoutePolicy::noise_matched(snr, m, 2.0),
            ),
        ];
        for kind in kinds {
            let name = kind.name();
            let mut plain_session = match kind.compile_soft(&input, spec) {
                Ok(s) => s,
                Err(_) => continue, // rank-deficient draw sinks linear kinds
            };
            let mut prior_session = kind.compile_soft(&input, spec).unwrap();
            let plain = plain_session.detect_soft(&input.y, channel_seed).unwrap();
            let with = prior_session
                .detect_soft_with_priors(&input.y, &zeros, channel_seed)
                .unwrap();
            prop_assert_eq!(&plain.bits, &with.bits, "{}", name);
            prop_assert_eq!(&plain.llrs, &with.llrs, "{}", name);
            prop_assert_eq!(&plain.extrinsic, &with.extrinsic, "{}", name);
            prop_assert_eq!(plain.objective, with.objective, "{}", name);
            // Without priors the extrinsic IS the posterior.
            prop_assert_eq!(&plain.extrinsic, &plain.llrs, "{}", name);
        }
    }

    /// `run_idd` with `max_iters = 1` is the existing `CodedFrame`
    /// pipeline: identical channels, detections, and decode under the
    /// same seed, across modulations and backends.
    #[test]
    fn single_iteration_idd_equals_coded_frame_run(
        m in modulation(),
        seed in 0u64..10_000,
        snr_db in 2.0f64..10.0,
    ) {
        use quamax_core::coded::IddSpec;
        use quamax_core::{CodedFrame, DetectorKind, SoftSpec};

        let frame = CodedFrame::new(2, m, 30);
        let snr = Snr::from_db(snr_db);
        let spec = SoftSpec::noise_matched(snr, m);
        let mut rng = StdRng::seed_from_u64(seed);
        let payload = frame.random_payload(&mut rng);
        for kind in [
            DetectorKind::mmse(spec.noise_variance),
            DetectorKind::sphere(),
            DetectorKind::quamax(session_annealer(), DecoderConfig::default(), 10),
        ] {
            let name = kind.name();
            let plain = frame.run(&kind, spec, snr, &payload, seed).unwrap();
            let idd = frame
                .run_idd(&kind, spec, IddSpec::single(), snr, &payload, seed)
                .unwrap();
            prop_assert_eq!(idd.iters_run(), 1, "{}", name);
            prop_assert_eq!(idd.payload(), plain.soft_payload.as_slice(), "{}", name);
            prop_assert_eq!(idd.last().payload_errors, plain.soft_errors, "{}", name);
            prop_assert_eq!(idd.last().raw_errors, plain.raw_errors, "{}", name);
        }
    }

    /// Saturating a detection's LLRs (hard-bit signs, one common
    /// magnitude) and soft-Viterbi-decoding is bit-identical to
    /// hard-decision Viterbi over the hard bits — the coded pipeline's
    /// soft path strictly generalizes the hard path, end to end
    /// through the interleaver.
    #[test]
    fn saturated_llr_pipeline_equals_hard_pipeline(
        m in modulation(),
        channel_seed in 0u64..10_000,
        magnitude in 0.5f64..30.0,
    ) {
        use quamax_core::{CodedFrame, DetectorKind, SoftSpec};

        let frame = CodedFrame::new(2, m, 30);
        let snr = Snr::from_db(6.0); // noisy: real detection errors
        let spec = SoftSpec::noise_matched(snr, m);
        let mut rng = StdRng::seed_from_u64(channel_seed);
        let payload = frame.random_payload(&mut rng);
        let out = frame
            .run(&DetectorKind::mmse(spec.noise_variance), spec, snr, &payload, channel_seed)
            .unwrap();
        let saturated: Vec<f64> = out
            .detected_bits
            .iter()
            .map(|&b| if b == 0 { -magnitude } else { magnitude })
            .collect();
        prop_assert_eq!(
            frame.decode_soft(&saturated),
            frame.decode_hard(&out.detected_bits)
        );
        prop_assert_eq!(&frame.decode_hard(&out.detected_bits), &out.hard_payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The VPP QUBO reduction satisfies the exact energy identity
    /// `E(q) + offset = ‖P(u + τv)‖²` at random channels, symbol
    /// vectors, modulo bases, encoding widths, and bit assignments —
    /// the downlink mirror of `qubo_energy_identity`.
    #[test]
    fn vpp_qubo_energy_identity(
        h in channel(2, 3),
        u in received(2),
        m in modulation(),
        t in 1usize..=3,
        tau in 0.5f64..12.0,
        k in 0u32..65_536,
    ) {
        use quamax_core::VppModel;
        // Random draws can be rank-deficient; the reduction rejects
        // them identically to any ZF precoder, which is not what this
        // property quantifies.
        let Ok(model) = VppModel::with_tau(&h, m, t, tau) else {
            return Ok(());
        };
        let n = model.num_vars();
        let bits: Vec<u8> = (0..n).map(|b| ((k >> (b % 32)) & 1) as u8).collect();
        let v = model.decode_perturbation(&bits);
        let direct = model.direct_energy(&u, &v);
        let (qubo, offset) = model.qubo_for(&u);
        let e = qubo.energy(&bits) + offset;
        prop_assert!(
            (e - direct).abs() < 1e-8 * direct.max(1.0),
            "t={t} τ={tau}: QUBO {e} vs direct {direct}"
        );
    }

    /// Zero-perturbation precoding through the VPP model is
    /// bit-identical to the ZF registry backend: `x = Pu` exactly, the
    /// τ → ∞ limit where no perturbation ever helps.
    #[test]
    fn vpp_zero_perturbation_is_bit_identical_to_zf(
        m in modulation(),
        channel_seed in 0u64..10_000,
        users in 2usize..4,
        extra in 0usize..3,
    ) {
        use quamax_core::{PrecodeInput, Precoder, PrecoderKind, VppModel};
        use quamax_wireless::rayleigh_channel;

        let mut rng = StdRng::seed_from_u64(channel_seed);
        let input = PrecodeInput {
            h: rayleigh_channel(users, users + extra, &mut rng),
            modulation: m,
        };
        let Ok(mut zf) = PrecoderKind::zf().compile(&input) else {
            return Ok(());
        };
        let bits: Vec<u8> = (0..input.num_bits()).map(|b| (channel_seed >> (b % 32) & 1) as u8).collect();
        let u = m.map_gray_vector(&bits);
        let zf_out = zf.precode(&u, 7).unwrap();
        let model = VppModel::new(&input.h, m, 1).unwrap();
        let zero = CVector::zeros(users);
        let x = model.transmit(&u, &zero);
        prop_assert_eq!(zf_out.x.as_slice(), x.as_slice(), "ZF ≠ zero-perturbation VPP");
        prop_assert_eq!(zf_out.perturbation.as_slice(), zero.as_slice());
        prop_assert_eq!(zf_out.power, model.direct_energy(&u, &zero));
    }
}
