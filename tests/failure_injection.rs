//! Failure-injection tests: the pipeline must fail loudly and
//! specifically, never silently corrupt.

use quamax::chimera::{ChimeraGraph, CliqueEmbedding, EmbeddingError};
use quamax::prelude::*;
use quamax_anneal::IceModel;
use quamax_baselines::sphere::SphereError;
use quamax_core::Error;
use quamax_linalg::{pseudo_inverse, CMatrix, LinalgError};
use quamax_wireless::count_bit_errors;

#[test]
fn oversized_problems_report_does_not_fit() {
    let mut rng = Rng::seed_from_u64(1);
    // 20-user 16-QAM = 80 logical > 64 (Table 2's bold region).
    let inst = Scenario::new(20, 20, Modulation::Qam16).sample(&mut rng);
    let decoder = QuamaxDecoder::new(
        Annealer::dw2q(AnnealerConfig::default()),
        DecoderConfig::default(),
    );
    match decoder.decode(&inst.detection_input(), 1, &mut rng) {
        Err(Error::Embedding(EmbeddingError::DoesNotFit {
            n,
            needed,
            available,
        })) => {
            assert_eq!(n, 80);
            assert_eq!(needed, 20);
            assert_eq!(available, 16);
        }
        other => panic!("expected DoesNotFit, got {other:?}"),
    }
}

#[test]
fn defect_inside_the_triangle_is_reported_with_context() {
    let mut graph = ChimeraGraph::dw2q_ideal();
    let dead = graph.qubit(2, 1, quamax::chimera::graph::Side::Right, 3);
    graph.add_defect(dead);
    match CliqueEmbedding::new(&graph, 36) {
        Err(EmbeddingError::DefectInTheWay { qubit, .. }) => assert_eq!(qubit, dead),
        other => panic!("expected DefectInTheWay, got {other:?}"),
    }
}

#[test]
fn singular_channel_fails_zf_but_not_quamax() {
    // Two users with identical channels: ZF must refuse; QuAMax still
    // returns its best effort (the ML metric remains well defined; the
    // two users' bits are simply ambiguous).
    let mut rng = Rng::seed_from_u64(2);
    let col = quamax_wireless::rayleigh_channel(4, 1, &mut rng);
    let h = CMatrix::from_fn(4, 2, |r, _| col[(r, 0)]);
    assert_eq!(pseudo_inverse(&h), Err(LinalgError::Singular));

    let inst =
        quamax_core::scenario::Instance::transmit(h, vec![1, 0], Modulation::Bpsk, None, &mut rng);
    let decoder = QuamaxDecoder::new(
        Annealer::new(AnnealerConfig {
            ice: IceModel::none(),
            ..Default::default()
        }),
        DecoderConfig::default(),
    );
    let run = decoder
        .decode(&inst.detection_input(), 100, &mut rng)
        .unwrap();
    // Degenerate ML: both [1,0] and [0,1] give the same received
    // signal; accept either, reject anything else.
    let bits = run.best_bits();
    assert!(bits == vec![1, 0] || bits == vec![0, 1], "got {bits:?}");
}

#[test]
fn extreme_ice_degrades_but_does_not_crash() {
    let mut rng = Rng::seed_from_u64(3);
    let inst = Scenario::new(12, 12, Modulation::Bpsk).sample(&mut rng);
    let annealer = Annealer::new(AnnealerConfig {
        ice: IceModel::dw2q().scaled(50.0), // absurd noise
        ..Default::default()
    });
    let decoder = QuamaxDecoder::new(annealer, DecoderConfig::default());
    let run = decoder
        .decode(&inst.detection_input(), 50, &mut rng)
        .unwrap();
    // Output is structurally valid even when informationally useless.
    assert_eq!(run.best_bits().len(), 12);
    let errors = count_bit_errors(&run.best_bits(), inst.tx_bits());
    assert!(errors <= 12);
}

#[test]
fn sphere_budget_and_radius_failures_are_typed() {
    let mut rng = Rng::seed_from_u64(4);
    let inst = Scenario::new(10, 10, Modulation::Qpsk)
        .with_rayleigh()
        .with_snr(Snr::from_db(5.0))
        .sample(&mut rng);
    let tiny_radius = SphereDecoder::new(Modulation::Qpsk)
        .with_initial_radius(1e-15)
        .decode(inst.h(), inst.y());
    assert_eq!(tiny_radius.unwrap_err(), SphereError::RadiusTooSmall);

    let tiny_budget = SphereDecoder::new(Modulation::Qpsk)
        .with_node_budget(2)
        .decode(inst.h(), inst.y());
    assert_eq!(tiny_budget.unwrap_err(), SphereError::BudgetExhausted);
}

#[test]
fn zero_snr_still_produces_valid_structures() {
    // SNR of −20 dB: noise 100× the signal. Everything stays finite
    // and structurally correct.
    let mut rng = Rng::seed_from_u64(5);
    let sc = Scenario::new(4, 4, Modulation::Qpsk).with_snr(Snr::from_db(-20.0));
    let inst = sc.sample(&mut rng);
    assert!(inst.y().is_finite());
    let decoder = QuamaxDecoder::new(
        Annealer::dw2q(AnnealerConfig::default()),
        DecoderConfig::default(),
    );
    let run = decoder
        .decode(&inst.detection_input(), 50, &mut rng)
        .unwrap();
    assert_eq!(run.best_bits().len(), 8);
}
