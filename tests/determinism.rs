//! Reproducibility: every stochastic component of the workspace is
//! seed-deterministic, independent of thread count.

use quamax::ising::{CompiledProblem, Spin};
use quamax::prelude::*;
use quamax_anneal::{AnnealJob, Backend, CompiledChains, Schedule};
use quamax_wireless::{TraceConfig, TraceGenerator};

#[test]
fn scenario_sampling_is_deterministic() {
    let draw = |seed: u64| {
        let mut rng = Rng::seed_from_u64(seed);
        let sc = Scenario::new(6, 6, Modulation::Qam16).with_snr(Snr::from_db(15.0));
        let inst = sc.sample(&mut rng);
        (inst.h().clone(), inst.y().clone(), inst.tx_bits().to_vec())
    };
    assert_eq!(draw(11).2, draw(11).2);
    assert_eq!(draw(11).0, draw(11).0);
    assert_ne!(draw(11).2, draw(12).2);
}

#[test]
fn decode_is_deterministic_across_thread_counts() {
    let run_with_threads = |threads: usize| {
        let mut rng = Rng::seed_from_u64(21);
        let inst = Scenario::new(8, 8, Modulation::Qpsk).sample(&mut rng);
        let annealer = Annealer::new(AnnealerConfig {
            threads,
            ..Default::default()
        });
        let decoder = QuamaxDecoder::new(annealer, DecoderConfig::default());
        let run = decoder
            .decode(&inst.detection_input(), 64, &mut rng)
            .unwrap();
        (run.best_bits(), run.distribution().num_distinct())
    };
    assert_eq!(run_with_threads(1), run_with_threads(4));
}

#[test]
fn annealer_streams_are_stable() {
    let mut problem = quamax::ising::IsingProblem::new(6);
    problem.set_coupling(0, 1, -1.0);
    problem.set_coupling(2, 3, 0.5);
    problem.set_linear(4, 0.3);
    let annealer = Annealer::dw2q(AnnealerConfig::default());
    let a = annealer.run(&problem, &Schedule::standard(1.0), 32, 99);
    let b = annealer.run(&problem, &Schedule::standard(1.0), 32, 99);
    assert_eq!(a, b);

    // Golden digests of the sampled values themselves, so a change to
    // any stream (ICE deviates, init draws, sweep proposals) fails here
    // even when every pair of paths compared elsewhere moves together.
    // All three run under calibrated ICE with chain moves.
    let (embedded, chains) = chained_problem();
    let schedule = Schedule::standard(1.0);
    let sa = Annealer::new(AnnealerConfig::default());
    let sa_samples = sa.run_chained(&embedded, &chains, &schedule, 20, 5);
    let sqa = Annealer::new(AnnealerConfig {
        backend: Backend::Sqa { slices: 4 },
        ..Default::default()
    });
    let sqa_samples = sqa.run_chained(&embedded, &chains, &schedule, 12, 6);

    // A mixed-job window: two programmed problems sharing one structure,
    // one of them reverse-started from a candidate, packed so that
    // windows straddle the job boundary.
    let structure = CompiledProblem::new(&embedded);
    let compiled_chains = CompiledChains::compile(&structure, &chains);
    let mut shifted = structure.clone();
    for i in 0..shifted.num_spins() {
        shifted.set_linear_term(i, 0.1 - 0.02 * i as f64);
    }
    let candidate: Vec<Spin> = (0..structure.num_spins())
        .map(|i| if i % 3 == 0 { -1 } else { 1 })
        .collect();
    let jobs = [
        AnnealJob {
            problem: &structure,
            init: None,
            num_anneals: 5,
            seed: 1,
        },
        AnnealJob {
            problem: &shifted,
            init: Some(&candidate),
            num_anneals: 6,
            seed: 2,
        },
    ];
    let mixed = Annealer::new(AnnealerConfig {
        ..Default::default()
    });
    let mixed_samples: Vec<Vec<Spin>> = mixed
        .run_jobs(&structure, &compiled_chains, &schedule, &jobs)
        .concat();

    let digests = [
        digest(&sa_samples),
        digest(&sqa_samples),
        digest(&mixed_samples),
    ];
    assert_eq!(
        digests,
        [
            0x2c4d_9cf2_4d74_90ef,
            0xa7cb_fb74_297f_0525,
            0x1cb7_c5e3_2135_df4d
        ],
        "{digests:#x?}"
    );
}

/// A 12-qubit embedded problem: four ferromagnetic chains and a dense
/// set of inter-chain couplers and fields.
fn chained_problem() -> (quamax::ising::IsingProblem, Vec<Vec<usize>>) {
    let chains = vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7], vec![8, 9, 10, 11]];
    let mut p = quamax::ising::IsingProblem::new(12);
    for chain in &chains {
        for pair in chain.windows(2) {
            p.set_coupling(pair[0], pair[1], -1.0);
        }
    }
    for i in 0..12 {
        p.set_linear(i, 0.05 * (i as f64 - 5.5));
        for j in (i + 1)..12 {
            if p.coupling(i, j) == 0.0 && (i * 7 + j) % 3 != 0 {
                p.set_coupling(i, j, 0.3 - 0.05 * ((i + 2 * j) % 11) as f64);
            }
        }
    }
    (p, chains)
}

/// FNV-1a over every sample's spins, in output order.
fn digest(samples: &[Vec<Spin>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &s in samples.iter().flatten() {
        h ^= s as u8 as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn trace_generator_is_deterministic() {
    let gen = |seed: u64| {
        let mut rng = Rng::seed_from_u64(seed);
        let mut g = TraceGenerator::new(TraceConfig::default(), &mut rng);
        let u1 = g.next_use(&mut rng);
        let u2 = g.next_use(&mut rng);
        (u1.h_full, u2.snr_db)
    };
    let (h_a, snr_a) = gen(5);
    let (h_b, snr_b) = gen(5);
    assert_eq!(h_a, h_b);
    assert_eq!(snr_a, snr_b);
}
