//! The chip-structure cache behind `QuamaxDecoder::compile` and
//! `VppPrecoder::compile` is unobservable: every session decodes and
//! precodes bit for bit like the uncached composition of the public
//! layer functions, whichever shapes were compiled before it, and
//! threads compiling different shapes at once agree with serial
//! compiles.
//!
//! The cache keys a structure on (chip, logical size, embedding
//! parameters) alone: the embedding programs a coupler for every
//! logical pair, a zero coupling is a zero-weight coupler, and ICE
//! draws no deviate for it. The shapes are chosen so that a structure
//! whose zero couplers drew noise, or colored differently from the
//! composition, shows: 16-user BPSK, 8-user QPSK (exact-zero couplings
//! between each user's two bits) and 16-user BPSK over an orthogonal
//! channel (no nonzero problem coupler) share one 16-spin structure,
//! and so do 4-user VPP over a Rayleigh and a diagonal channel.

use quamax::prelude::*;
use quamax_anneal::{CompiledChains, SolutionDistribution};
use quamax_chimera::{
    unembed_majority_vote, ChimeraGraph, CliqueEmbedding, EmbedParams, EmbeddedProblem,
};
use quamax_core::{ising_from_ml, DecodeRun, Instance, PrecodeStats, VppModel, VppPrecoder};
use quamax_ising::{qubo_to_ising, spins_to_bits, CompiledProblem, IsingProblem};
use quamax_wireless::rayleigh_channel;
use std::sync::{Arc, Barrier};

const ANNEALS: usize = 12;

/// One annealed decode composed from the public layers, never touching
/// a session: embed → freeze → `run_compiled` → majority vote → rank.
struct Composed {
    logical: IsingProblem,
    offset: f64,
    distribution: SolutionDistribution,
    chain_break_fraction: f64,
}

fn compose(
    annealer: &Annealer,
    graph: &ChimeraGraph,
    config: &DecoderConfig,
    (logical, offset): (IsingProblem, f64),
    anneals: usize,
    seed: u64,
) -> Composed {
    let embedding = CliqueEmbedding::new(graph, logical.num_spins()).unwrap();
    let embedded = EmbeddedProblem::compile(graph, &embedding, &logical, config.embed);
    let compiled = CompiledProblem::new(embedded.problem());
    let chains = CompiledChains::compile(&compiled, embedded.chains());
    let mut rng = Rng::seed_from_u64(seed);
    let anneal_seed: u64 = rand::Rng::random(&mut rng);
    let samples = annealer.run_compiled(&compiled, &chains, &config.schedule, anneals, anneal_seed);
    let mut broken = 0;
    let logical_samples: Vec<_> = samples
        .iter()
        .map(|s| {
            let out = unembed_majority_vote(&embedded, s, &mut rng);
            broken += out.broken_chains;
            out.logical
        })
        .collect();
    let distribution = SolutionDistribution::from_samples(&logical, &logical_samples);
    let chain_break_fraction =
        broken as f64 / (logical.num_spins().max(1) * samples.len().max(1)) as f64;
    Composed {
        logical,
        offset,
        distribution,
        chain_break_fraction,
    }
}

fn assert_run_matches(run: &DecodeRun, composed: &Composed, what: &str) {
    assert_eq!(
        run.distribution(),
        &composed.distribution,
        "{what}: distribution"
    );
    assert_eq!(
        run.logical_problem().to_ising(),
        composed.logical,
        "{what}: logical problem"
    );
    assert_eq!(
        run.ml_offset().to_bits(),
        composed.offset.to_bits(),
        "{what}: offset"
    );
    assert_eq!(
        run.chain_break_fraction().to_bits(),
        composed.chain_break_fraction.to_bits(),
        "{what}: chain breaks"
    );
}

/// `H` with only a random complex diagonal: its Gram has exact-zero
/// off-diagonals, so the reduction programs no problem coupler.
fn orthogonal_channel(users: usize, rng: &mut Rng) -> CMatrix {
    let g = quamax_linalg::ComplexGaussian::unit();
    let diagonal: Vec<Complex> = (0..users).map(|_| g.sample(rng)).collect();
    CMatrix::from_fn(users, users, |r, c| {
        if r == c {
            diagonal[r]
        } else {
            Complex::ZERO
        }
    })
}

/// Three received vectors over `h` with their decode seeds.
fn received(h: &CMatrix, modulation: Modulation, rng: &mut Rng) -> Vec<(CVector, u64)> {
    (0..3u64)
        .map(|k| {
            let bits: Vec<u8> = (0..h.cols() * modulation.bits_per_symbol())
                .map(|_| rand::Rng::random_range(rng, 0..2u8))
                .collect();
            let inst =
                Instance::transmit(h.clone(), bits, modulation, Some(Snr::from_db(12.0)), rng);
            (inst.y().clone(), 500 + k)
        })
        .collect()
}

/// Compiles `(h, modulation)` on `decoder` and checks `decode` and
/// `decode_batch` against the uncached composition, item by item.
fn check_uplink(
    decoder: &QuamaxDecoder,
    annealer: &Annealer,
    graph: &ChimeraGraph,
    h: &CMatrix,
    modulation: Modulation,
    rng: &mut Rng,
    what: &str,
) {
    let items = received(h, modulation, rng);
    let input = DetectionInput {
        h: h.clone(),
        y: items[0].0.clone(),
        modulation,
    };
    let mut session = decoder.compile(&input).unwrap();
    let batch = session.decode_batch(&items, ANNEALS);
    for (k, ((y, seed), batched)) in items.iter().zip(&batch).enumerate() {
        let composed = compose(
            annealer,
            graph,
            decoder.config(),
            ising_from_ml(h, y, modulation),
            ANNEALS,
            *seed,
        );
        assert_run_matches(batched, &composed, &format!("{what} decode_batch #{k}"));
        let single = session.decode(y, ANNEALS, *seed);
        assert_run_matches(&single, &composed, &format!("{what} decode #{k}"));
    }
}

/// The session's `finish` over a composed VPP anneal: best annealed
/// perturbation, guarded by the `v = 0` power floor.
fn compose_precoding(model: &VppModel, u: &CVector, composed: &Composed) -> Precoding {
    let zero = CVector::zeros(model.num_users());
    let zero_power = model.direct_energy(u, &zero);
    let corner = model.box_corner(u);
    let best = composed.distribution.best_solution().map(|entry| {
        let v = model.decode_perturbation(&corner, &spins_to_bits(&entry.spins));
        let power = model.direct_energy(u, &v);
        (v, power)
    });
    let (v, power, zero_floor) = match best {
        Some((v, power)) if power < zero_power => (v, power, false),
        _ => (zero, zero_power, true),
    };
    Precoding {
        x: model.transmit(u, &v),
        perturbation: v,
        power,
        stats: PrecodeStats::Annealed {
            chain_break_fraction: composed.chain_break_fraction,
            num_distinct: composed.distribution.num_distinct(),
            zero_floor,
        },
    }
}

fn assert_precoding_matches(p: &Precoding, expect: &Precoding, what: &str) {
    assert_eq!(p.perturbation, expect.perturbation, "{what}: perturbation");
    assert_eq!(p.power.to_bits(), expect.power.to_bits(), "{what}: power");
    assert_eq!(p.x, expect.x, "{what}: transmit vector");
    match (&p.stats, &expect.stats) {
        (
            PrecodeStats::Annealed {
                chain_break_fraction: a,
                num_distinct: b,
                zero_floor: c,
            },
            PrecodeStats::Annealed {
                chain_break_fraction: x,
                num_distinct: y,
                zero_floor: z,
            },
        ) => assert_eq!((a.to_bits(), b, c), (x.to_bits(), y, z), "{what}: stats"),
        other => panic!("{what}: not annealed stats: {other:?}"),
    }
}

/// Compiles `h` on `precoder` and checks `precode` and `precode_batch`
/// against the uncached composition of `VppModel::qubo_for`.
#[allow(clippy::too_many_arguments)]
fn check_downlink(
    precoder: &VppPrecoder,
    annealer: &Annealer,
    graph: &ChimeraGraph,
    config: &DecoderConfig,
    bits: usize,
    anneals: usize,
    h: &CMatrix,
    rng: &mut Rng,
    what: &str,
) {
    let modulation = Modulation::Qpsk;
    let input = PrecodeInput {
        h: h.clone(),
        modulation,
    };
    let model = VppModel::new(h, modulation, bits).unwrap();
    let items: Vec<(CVector, u64)> = (0..3u64)
        .map(|k| {
            let bits: Vec<u8> = (0..input.num_bits())
                .map(|_| rand::Rng::random_range(rng, 0..2u8))
                .collect();
            (modulation.map_gray_vector(&bits), 900 + k)
        })
        .collect();
    let mut session = precoder.compile(&input).unwrap();
    let batch = session.precode_batch(&items);
    for (k, ((u, seed), batched)) in items.iter().zip(&batch).enumerate() {
        let (qubo, power_offset) = model.qubo_for(u);
        let (logical, conversion_offset) = qubo_to_ising(&qubo);
        let composed = compose(
            annealer,
            graph,
            config,
            (logical, conversion_offset + power_offset),
            anneals,
            *seed,
        );
        let expect = compose_precoding(&model, u, &composed);
        assert_precoding_matches(batched, &expect, &format!("{what} precode_batch #{k}"));
        let single = session.precode(u, *seed);
        assert_precoding_matches(&single, &expect, &format!("{what} precode #{k}"));
    }
}

fn noisy_annealer() -> Annealer {
    // Calibrated ICE: a structure with a coupler too many or too few
    // draws a different noise stream, so a wrong cache hit shows.
    Annealer::new(AnnealerConfig {
        sweeps_per_us: 4.0,
        threads: 1,
        ..Default::default()
    })
}

#[test]
fn cached_structures_decode_like_uncached_compositions() {
    let mut rng = Rng::seed_from_u64(0x5eed);
    let annealer = noisy_annealer();
    let graph = ChimeraGraph::dw2q_ideal();
    let decoder =
        QuamaxDecoder::with_graph(annealer.clone(), graph.clone(), DecoderConfig::default());

    let bpsk16 = rayleigh_channel(16, 16, &mut rng);
    check_uplink(
        &decoder,
        &annealer,
        &graph,
        &bpsk16,
        Modulation::Bpsk,
        &mut rng,
        "16u BPSK",
    );
    let qpsk8 = rayleigh_channel(8, 8, &mut rng);
    check_uplink(
        &decoder,
        &annealer,
        &graph,
        &qpsk8,
        Modulation::Qpsk,
        &mut rng,
        "8u QPSK",
    );
    let orthogonal = orthogonal_channel(16, &mut rng);
    check_uplink(
        &decoder,
        &annealer,
        &graph,
        &orthogonal,
        Modulation::Bpsk,
        &mut rng,
        "orthogonal 16u BPSK",
    );
    // The first shape again, now found rather than built.
    check_uplink(
        &decoder,
        &annealer,
        &graph,
        &bpsk16,
        Modulation::Bpsk,
        &mut rng,
        "16u BPSK, warm",
    );

    // The first defect map (17 dead qubits, like the paper's chip) the
    // 16-spin clique embeds around.
    let defective = (0..)
        .map(|seed| ChimeraGraph::dw2q_with_defects(17, seed))
        .find(|g| CliqueEmbedding::new(g, 16).is_ok())
        .unwrap();
    let on_defects = QuamaxDecoder::with_graph(
        annealer.clone(),
        defective.clone(),
        DecoderConfig::default(),
    );
    check_uplink(
        &on_defects,
        &annealer,
        &defective,
        &bpsk16,
        Modulation::Bpsk,
        &mut rng,
        "16u BPSK on a defective chip",
    );

    let decoder = QuamaxDecoder::with_graph(
        annealer.clone(),
        graph.clone(),
        DecoderConfig {
            embed: EmbedParams {
                j_ferro: 2.5,
                improved_range: false,
            },
            ..DecoderConfig::default()
        },
    );
    check_uplink(
        &decoder,
        &annealer,
        &graph,
        &bpsk16,
        Modulation::Bpsk,
        &mut rng,
        "16u BPSK, second EmbedParams",
    );

    // Downlink: 4-user QPSK VPP with two box bits per dimension is 16
    // variables too; its orthogonal (diagonal-H) twin couples only bits
    // of one dimension, so most of its couplings are exact zeros.
    let config = DecoderConfig::default();
    let precoder = VppPrecoder::with_graph(annealer.clone(), graph.clone(), config, ANNEALS, 2);
    for (what, h) in [
        ("4u VPP", rayleigh_channel(4, 4, &mut rng)),
        ("orthogonal 4u VPP", orthogonal_channel(4, &mut rng)),
    ] {
        check_downlink(
            &precoder, &annealer, &graph, &config, 2, ANNEALS, &h, &mut rng, what,
        );
    }
}

#[test]
fn concurrent_compiles_agree_with_serial_compiles() {
    let shapes: Vec<(usize, Modulation, u64)> = vec![
        (12, Modulation::Bpsk, 1),
        (6, Modulation::Qpsk, 2),
        (3, Modulation::Qam16, 3),
        (10, Modulation::Bpsk, 4),
    ];
    let annealer = noisy_annealer();
    let decode = |users: usize, modulation: Modulation, seed: u64| -> Vec<DecodeRun> {
        let mut rng = Rng::seed_from_u64(seed);
        let h = rayleigh_channel(users, users, &mut rng);
        let items = received(&h, modulation, &mut rng);
        let input = DetectionInput {
            h,
            y: items[0].0.clone(),
            modulation,
        };
        QuamaxDecoder::new(annealer.clone(), DecoderConfig::default())
            .compile(&input)
            .unwrap()
            .decode_batch(&items, ANNEALS)
    };
    let barrier = Arc::new(Barrier::new(shapes.len()));
    let concurrent: Vec<Vec<DecodeRun>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shapes
            .iter()
            .map(|&(users, modulation, seed)| {
                let barrier = Arc::clone(&barrier);
                let decode = &decode;
                scope.spawn(move || {
                    barrier.wait();
                    decode(users, modulation, seed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (&(users, modulation, seed), runs) in shapes.iter().zip(&concurrent) {
        let serial = decode(users, modulation, seed);
        for (k, (a, b)) in runs.iter().zip(&serial).enumerate() {
            let what = format!("{users}u {} #{k}", modulation.name());
            assert_eq!(a.distribution(), b.distribution(), "{what}");
            assert_eq!(
                a.logical_problem().to_ising(),
                b.logical_problem().to_ising(),
                "{what}"
            );
            assert_eq!(a.ml_offset().to_bits(), b.ml_offset().to_bits(), "{what}");
        }
    }
}
