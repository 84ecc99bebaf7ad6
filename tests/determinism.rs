//! Reproducibility: every stochastic component of the workspace is
//! seed-deterministic, independent of thread count.

use quamax::ising::{CompiledProblem, Spin};
use quamax::prelude::*;
use quamax_anneal::{AnnealJob, Backend, CompiledChains, Schedule};
use quamax_chimera::EmbedParams;
use quamax_core::{DecodeRun, PrecodeStats, ThpPrecodeSession, VppPrecoder};
use quamax_wireless::{rayleigh_channel, TraceConfig, TraceGenerator};

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
    // All four run under calibrated ICE with chain moves.
    let (embedded, chains) = chained_problem();
    let schedule = Schedule::standard(1.0);
    let sa = Annealer::new(AnnealerConfig::default());
    let sa_samples = sa.run_chained(&embedded, &chains, &schedule, 20, 5);
    let sqa = Annealer::new(AnnealerConfig {
        backend: Backend::Sqa { slices: 4 },
        ..Default::default()
    });
    let sqa_samples = sqa.run_chained(&embedded, &chains, &schedule, 12, 6);
    // The case above reads the ground state on every sample; a sparse
    // sweep density keeps this one spread over many configurations, so
    // the SQA digest cannot go weak unnoticed.
    let sparse_sqa = Annealer::new(AnnealerConfig {
        backend: Backend::Sqa { slices: 4 },
        sweeps_per_us: 2.0,
        ..Default::default()
    });
    let sparse_sqa_samples = sparse_sqa.run_chained(&embedded, &chains, &schedule, 32, 6);
    assert_spread(&sparse_sqa_samples, "sparse SQA");
    // The SA case above is one configuration too, so it cannot see a
    // changed chain decision. On one thread 47 anneals run in five
    // windows of 8 replicas, then 4, 2 and 1, so this digest pins every
    // width the kernel is compiled for.
    let sparse_sa = Annealer::new(AnnealerConfig {
        sweeps_per_us: 2.0,
        threads: 1,
        ..Default::default()
    });
    let sparse_sa_samples = sparse_sa.run_chained(&embedded, &chains, &schedule, 47, 9);
    assert_spread(&sparse_sa_samples, "sparse SA");

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
        digest(&sparse_sqa_samples),
        digest(&sparse_sa_samples),
    ];
    assert_eq!(
        digests,
        [
            0x7864_f3fe_dba7_7125,
            0xa7cb_fb74_297f_0525,
            0x34c1_848c_e29e_c215,
            0x7b94_7ca7_b417_674d,
            0xe566_66fe_f95b_5dad
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

/// Asserts `samples` spread over at least four configurations, so their
/// digest sees a changed decision.
fn assert_spread(samples: &[Vec<Spin>], what: &str) {
    let mut distinct = samples.to_vec();
    distinct.sort();
    distinct.dedup();
    assert!(
        distinct.len() >= 4,
        "{what} samples collapsed to {} configurations",
        distinct.len()
    );
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
fn annealed_sessions_are_stable() {
    // Golden digests of everything the uplink and downlink annealed
    // sessions report, batched and reverse-started: a refactor of the
    // shared compile → bind → anneal → unembed path must leave every
    // sample, energy, chain-break count and floor decision in place.
    let mut rng = Rng::seed_from_u64(31);
    let reverse = Schedule::reverse(1.0, 0.55, 1.0);
    // A weak chain strength breaks chains, so the unembedding votes
    // are part of what the digests pin.
    let weak_chains = DecoderConfig {
        embed: EmbedParams {
            j_ferro: 1.0,
            ..Default::default()
        },
        ..Default::default()
    };
    let calibrated = Annealer::new(AnnealerConfig::default());
    // 10 and 12 logical spins embed as 4-qubit chains, whose votes can
    // tie; a sparse sweep density breaks many of them, so the last two
    // digests pin the unembedding tie-break draws.
    let sparse = Annealer::new(AnnealerConfig {
        sweeps_per_us: 2.0,
        ..Default::default()
    });
    let digests = [
        uplink_digest(&mut rng, 8, &calibrated, DecoderConfig::default(), &reverse),
        downlink_digest(&mut rng, 4, &calibrated, weak_chains, &reverse),
        uplink_digest(&mut rng, 5, &sparse, weak_chains, &reverse),
        downlink_digest(&mut rng, 3, &sparse, weak_chains, &reverse),
    ];
    assert_eq!(
        digests,
        [
            0xb5e1_41d9_059c_6a19,
            0xf445_5bff_9bb1_7c7f,
            0xb974_aa2d_1a95_7a00,
            0xbdd9_3fa3_1120_6715
        ],
        "{digests:#x?}"
    );
}

/// `users`×`users` QPSK uplink at 2 dB (low SNR spreads each run over
/// several distinct solutions): six items through `decode_batch`, then
/// each through `decode_reverse_from` a one-bit-wrong candidate.
fn uplink_digest(
    rng: &mut Rng,
    users: usize,
    annealer: &Annealer,
    config: DecoderConfig,
    reverse: &Schedule,
) -> u64 {
    let base = Scenario::new(users, users, Modulation::Qpsk)
        .with_snr(Snr::from_db(2.0))
        .sample(rng);
    let decoder = QuamaxDecoder::new(annealer.clone(), config);
    let mut session = decoder.compile(&base.detection_input()).unwrap();
    let items: Vec<(CVector, u64)> = (0..6u64)
        .map(|k| (base.renoise(Snr::from_db(2.0), rng).y().clone(), 40 + k))
        .collect();
    let mut fnv = Fnv::new();
    for run in session.decode_batch(&items, 24) {
        fnv.decode_run(&run);
    }
    for (k, (y, seed)) in items.iter().enumerate() {
        let mut candidate = base.tx_bits().to_vec();
        candidate[k] ^= 1;
        fnv.decode_run(&session.decode_reverse_from(y, 24, &candidate, reverse, *seed));
    }
    fnv.0
}

/// `users`-user QPSK VPP (a one-bit lattice-reduced box) on a square Rayleigh
/// channel: six symbol vectors through `precode_batch`, then each
/// through `precode_reverse_from` THP's perturbation.
fn downlink_digest(
    rng: &mut Rng,
    users: usize,
    annealer: &Annealer,
    config: DecoderConfig,
    reverse: &Schedule,
) -> u64 {
    let input = PrecodeInput {
        h: rayleigh_channel(users, users, rng),
        modulation: Modulation::Qpsk,
    };
    let mut vpp = VppPrecoder::new(annealer.clone(), config, 24, 1)
        .compile(&input)
        .unwrap();
    let thp = ThpPrecodeSession::new(&input).unwrap();
    let symbols: Vec<(CVector, u64)> = (0..6u64)
        .map(|k| {
            let bits: Vec<u8> = (0..input.num_bits())
                .map(|_| rand::Rng::random_range(rng, 0..2u8))
                .collect();
            (Modulation::Qpsk.map_gray_vector(&bits), 70 + k)
        })
        .collect();
    let mut fnv = Fnv::new();
    for p in vpp.precode_batch(&symbols) {
        fnv.precoding(&p);
    }
    for (u, seed) in &symbols {
        let candidate = thp.perturbation(u);
        fnv.precoding(&vpp.precode_reverse_from(u, &candidate, reverse, *seed));
    }
    fnv.0
}

/// FNV-1a over the observables of annealed session outputs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn decode_run(&mut self, run: &DecodeRun) {
        for b in run.best_bits() {
            self.word(b as u64);
        }
        for e in run.distribution().entries() {
            for &s in &e.spins {
                self.word(s as u8 as u64);
            }
            self.word(e.energy.to_bits());
            self.word(e.count as u64);
        }
        self.word(run.chain_break_fraction().to_bits());
    }

    fn precoding(&mut self, p: &Precoding) {
        for i in 0..p.perturbation.len() {
            self.word(p.perturbation[i].re.to_bits());
            self.word(p.perturbation[i].im.to_bits());
        }
        self.word(p.power.to_bits());
        let PrecodeStats::Annealed {
            chain_break_fraction,
            num_distinct,
            zero_floor,
        } = p.stats
        else {
            panic!("VPP reports annealed stats");
        };
        self.word(chain_break_fraction.to_bits());
        self.word(num_distinct as u64);
        self.word(zero_floor as u64);
    }
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
