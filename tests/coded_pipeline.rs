//! End-to-end coded uplink through the facade: annealed soft-output
//! detection (list demapping over the anneal ensemble) feeding the
//! soft-input Viterbi, against the hard-input path on the *same*
//! detections.

use quamax::prelude::*;

/// A deadline-starved annealer: few sweeps per µs, so detection keeps
/// a residual BER for FEC to handle (§5.3.3's operating regime).
fn starved_quamax(anneals: usize) -> DetectorKind {
    DetectorKind::quamax(
        Annealer::new(AnnealerConfig {
            sweeps_per_us: 2.0,
            threads: 1,
            ..Default::default()
        }),
        DecoderConfig {
            schedule: quamax_anneal::Schedule::standard(1.0),
            ..Default::default()
        },
        anneals,
    )
}

#[test]
fn annealed_soft_decoding_beats_hard_decoding() {
    let frame = CodedFrame::new(8, Modulation::Qpsk, 114);
    let snr = Snr::from_db(3.0);
    let spec = SoftSpec::noise_matched(snr, Modulation::Qpsk);
    let kind = starved_quamax(12);
    let mut rng = Rng::seed_from_u64(33);
    let (mut raw, mut hard, mut soft) = (0usize, 0usize, 0usize);
    for k in 0..8u64 {
        let payload = frame.random_payload(&mut rng);
        let out = frame
            .run(&kind, spec, snr, &payload, 500 + k)
            .expect("8-user QPSK embeds");
        raw += out.raw_errors;
        hard += out.hard_errors;
        soft += out.soft_errors;
    }
    assert!(raw > 0, "the starved annealer must leave detector errors");
    assert!(hard > 0, "the hard path should not fully absorb them here");
    assert!(
        soft < hard,
        "the anneal ensemble's LLRs must help the code: soft {soft} vs hard {hard}"
    );
}

#[test]
fn soft_detection_is_the_hard_detection_plus_reliabilities() {
    // Facade-level contract: for the annealed backend, detect_soft's
    // bits and objective are exactly the hard session's under the same
    // seed, and the LLR signs agree with the bits.
    let mut rng = Rng::seed_from_u64(5);
    let snr = Snr::from_db(12.0);
    let inst = Scenario::new(4, 4, Modulation::Qam16)
        .with_snr(snr)
        .sample(&mut rng);
    let input = inst.detection_input();
    let kind = starved_quamax(40);
    let spec = SoftSpec::noise_matched(snr, Modulation::Qam16);
    let mut hard_session = kind.compile(&input).unwrap();
    let mut soft_session = kind.compile_soft(&input, spec).unwrap();
    let hard = hard_session.detect(&input.y, 9).unwrap();
    let soft = soft_session.detect_soft(&input.y, 9).unwrap();
    assert_eq!(hard.bits, soft.bits);
    assert_eq!(hard.metric, soft.objective);
    assert_eq!(soft.llrs.len(), 16);
    for (&llr, &bit) in soft.llrs.iter().zip(&soft.bits) {
        if llr > 0.0 {
            assert_eq!(bit, 1);
        }
        if llr < 0.0 {
            assert_eq!(bit, 0);
        }
    }
}
