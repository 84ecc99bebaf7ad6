//! The SA sampler's counter-based draws (`quamax_anneal::draws`) and
//! the vector kernel that decides them eight at a time: every
//! instruction set matches the one-proposal-at-a-time scalar reference
//! bit for bit, the exponential meets its error bound, the keyed hash
//! is uniform and independent across lanes, and a sample does not
//! depend on the order of the spins inside a color class.

use quamax::prelude::*;
use quamax_anneal::kernel::SA_WIDTHS;
use quamax_anneal::{draws, sa, CompiledChains, IceModel, Isa, ReplicaBatch, WindowCoefficients};
use quamax_chimera::{ChimeraGraph, CliqueEmbedding, EmbedParams, EmbeddedProblem};
use quamax_core::reduce::ising_from_ml;
use quamax_ising::{CompiledProblem, IsingProblem, Spin};
use rand::RngCore;

/// A `users`-user BPSK ML problem clique-embedded on the ideal chip,
/// with its chains.
fn embedded(users: usize, seed: u64) -> (IsingProblem, Vec<Vec<usize>>) {
    let mut rng = Rng::seed_from_u64(seed);
    let inst = Scenario::new(users, users, Modulation::Bpsk).sample(&mut rng);
    let (logical, _) = ising_from_ml(inst.h(), inst.y(), Modulation::Bpsk);
    let graph = ChimeraGraph::dw2q_ideal();
    let embedding = CliqueEmbedding::new(&graph, users).expect("fits the chip");
    let embedded = EmbeddedProblem::compile(&graph, &embedding, &logical, EmbedParams::default());
    (embedded.problem().clone(), embedded.chains().to_vec())
}

/// A `rows × cols` grid (bipartite: two color classes) whose fields
/// and couplings are multiples of 1/8 no larger than 1, so every field
/// and energy sum is exact in any order.
fn dyadic_grid(rows: usize, cols: usize, seed: u64) -> IsingProblem {
    let mut rng = Rng::seed_from_u64(seed);
    let mut dyadic = || (rand::Rng::random_range(&mut rng, 0..17i32) - 8) as f64 / 8.0;
    let mut p = IsingProblem::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            p.set_linear(i, dyadic());
            if c + 1 < cols {
                p.set_coupling(i, i + 1, dyadic());
            }
            if r + 1 < rows {
                p.set_coupling(i, i + cols, dyadic());
            }
        }
    }
    p
}

/// A fully coupled problem: every color class is one spin.
fn dense(n: usize, seed: u64) -> IsingProblem {
    let mut rng = Rng::seed_from_u64(seed);
    let mut p = IsingProblem::new(n);
    for i in 0..n {
        p.set_linear(i, rand::Rng::random_range(&mut rng, -1.0..1.0));
        for j in i + 1..n {
            p.set_coupling(i, j, rand::Rng::random_range(&mut rng, -1.0..1.0));
        }
    }
    p
}

/// A β ladder from hot (most proposals accept) to cold (most reject
/// without a draw).
fn ladder() -> Vec<f64> {
    (0..12).map(|k| 0.05 * 1.8f64.powi(k)).collect()
}

fn streams(width: usize, seed: u64) -> Vec<Rng> {
    (0..width)
        .map(|r| Rng::seed_from_u64(seed + 977 * r as u64))
        .collect()
}

/// Binds, draws initial spins and keys, and rebuilds the fields of a
/// `width`-wide window the way `ReplicaBatch::anneal_window` does, step
/// by step through the public layers; returns the keys.
fn set_up(
    batch: &mut ReplicaBatch,
    structure: &CompiledProblem,
    problems: Option<(&[&CompiledProblem], &IceModel)>,
    rngs: &mut [Rng],
) -> Vec<u64> {
    let width = rngs.len();
    match problems {
        None => batch.reset_shared(structure, 1, width),
        Some((problems, ice)) => {
            batch.reset_per_replica(structure, 1, width);
            batch.bind_window_ice(problems, ice, rngs);
        }
    }
    for (r, rng) in rngs.iter_mut().enumerate() {
        batch.draw_replica(r, rng);
    }
    let keys = rngs.iter_mut().map(|rng| rng.next_u64()).collect();
    batch.rebuild_fields(structure);
    keys
}

/// Asserts two batches hold the same spins and field bits.
fn assert_same(a: &ReplicaBatch, b: &ReplicaBatch, what: &str) {
    assert_eq!(a.width(), b.width());
    for r in 0..a.width() {
        assert_eq!(
            a.replica_spins(r, 0),
            b.replica_spins(r, 0),
            "{what}: replica {r}"
        );
        for i in 0..a.num_spins() {
            assert_eq!(
                a.field(i, r).to_bits(),
                b.field(i, r).to_bits(),
                "{what}: field of spin {i}, replica {r}"
            );
        }
    }
}

#[test]
fn every_instruction_set_matches_the_scalar_reference() {
    let every_window: Vec<(usize, bool)> = SA_WIDTHS
        .into_iter()
        .flat_map(|width| [(width, false), (width, true)])
        .collect();
    let (embedded12, chain_sets12) = embedded(12, 5);
    // The uplink operating point: 48 chains of 13 qubits, one 8-wide
    // per-replica window under calibrated ICE.
    let (embedded48, chain_sets48) = embedded(48, 1);
    let cases = [
        (
            "embedded 12u",
            embedded12,
            chain_sets12,
            every_window.clone(),
        ),
        ("embedded 48u", embedded48, chain_sets48, vec![(8, true)]),
        (
            "dyadic 7x9 grid",
            dyadic_grid(7, 9, 6),
            Vec::new(),
            every_window.clone(),
        ),
        (
            "dense 11",
            dense(11, 7),
            vec![vec![0, 1, 2], vec![5, 6]],
            every_window,
        ),
    ];
    for isa in Isa::ALL {
        if !isa.is_supported() {
            eprintln!("skipped {isa:?}: this host does not support it");
        }
    }
    let betas = ladder();
    let ice = IceModel::calibrated();
    for (name, problem, chain_sets, windows) in &cases {
        let structure = CompiledProblem::new(problem);
        let chains = CompiledChains::compile(&structure, chain_sets);
        // A second problem over the same structure, for windows that
        // pack two jobs.
        let mut other = structure.clone();
        other.perturb_linear(|f| 0.9 * f - 0.05);
        for &(width, per_replica) in windows {
            let problems: Vec<&CompiledProblem> = (0..width)
                .map(|r| if r % 2 == 0 { &structure } else { &other })
                .collect();
            let what = format!("{name}, width {width}, per-replica {per_replica}");
            let window = per_replica.then_some((&problems[..], &ice));
            let seed = 40 + width as u64;
            let mut reference = ReplicaBatch::new();
            let mut reference_rngs = streams(width, seed);
            let keys = set_up(&mut reference, &structure, window, &mut reference_rngs);
            sa::anneal_batch_reference(&structure, &chains, &betas, &mut reference, &keys);

            for isa in Isa::ALL.into_iter().filter(|isa| isa.is_supported()) {
                let mut batch = ReplicaBatch::new();
                let keys = set_up(&mut batch, &structure, window, &mut streams(width, seed));
                batch.anneal(isa, &structure, &chains, &betas, &keys);
                assert_same(&batch, &reference, &format!("{what}, {isa:?}"));
            }

            // The dispatched window, setup included, leaves each
            // stream where the reference left it.
            let mut batch = ReplicaBatch::new();
            let mut rngs = streams(width, seed);
            let coefficients = match window {
                None => WindowCoefficients::Shared(&structure),
                Some((problems, ice)) => WindowCoefficients::PerReplica {
                    structure: &structure,
                    problems,
                    ice,
                },
            };
            batch.anneal_window(coefficients, |_| None, &chains, &betas, &mut rngs);
            assert_same(&batch, &reference, &format!("{what}, window"));
            for (r, (a, b)) in rngs.iter_mut().zip(&mut reference_rngs).enumerate() {
                assert_eq!(a.next_u64(), b.next_u64(), "{what}: stream {r} moved");
            }
        }
    }
}

#[test]
fn exp_neg_is_within_1e_13_of_exp_on_0_to_40() {
    let mut worst = 0.0f64;
    let steps = 4_000_000;
    let ln2 = std::f64::consts::LN_2;
    let grid = (0..=steps).map(|k| 40.0 * k as f64 / steps as f64);
    // The reduction's seams, k·ln 2 ± ln 2 / 2, where |r| is largest.
    let seams = (0..=58).flat_map(|k| {
        let mid = (k as f64 + 0.5) * ln2;
        [mid.next_down(), mid, mid.next_up(), k as f64 * ln2]
    });
    for x in grid.chain(seams.filter(|x| *x <= 40.0)) {
        let exact = (-x).exp();
        let err = ((draws::exp_neg(x) - exact) / exact).abs();
        assert!(err <= 1e-13, "exp_neg({x}) is off by {err:e}");
        worst = worst.max(err);
    }
    eprintln!("exp_neg worst relative error on [0, 40]: {worst:e}");
}

/// The χ² statistic of `counts` against a uniform expectation.
fn chi2(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    let expect = total as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| (c as f64 - expect).powi(2) / expect)
        .sum()
}

/// p = 0.001 critical values for 63 and 255 degrees of freedom.
const CHI2_63: f64 = 103.4;
const CHI2_255: f64 = 330.5;

#[test]
fn keyed_uniforms_are_uniform_and_independent_across_lanes() {
    let mut keys = Rng::seed_from_u64(11);
    let lane_keys: Vec<u64> = (0..8).map(|_| keys.next_u64()).collect();
    // Uniformity, per lane, over the (sweep, site) grid one window of
    // the 48-user problem reads: 64 bins.
    for (l, &key) in lane_keys.iter().enumerate() {
        let mut bins = [0u64; 64];
        for t in 0..8 {
            for site in 0..672 {
                bins[(draws::uniform(key, t, site) * 64.0) as usize] += 1;
            }
        }
        let stat = chi2(&bins);
        assert!(stat < CHI2_63, "lane {l}: χ² = {stat}");
    }
    // Independence: the joint histogram of two lanes at the same
    // counter (one 8-wide strip), and of one lane at neighboring sites
    // (one class block at width 1), 16 × 16 bins.
    let joint = |pair: &dyn Fn(u32, u32) -> (f64, f64)| {
        let mut bins = [0u64; 256];
        for t in 0..16 {
            for site in 0..4096 {
                let (a, b) = pair(t, site);
                bins[(a * 16.0) as usize * 16 + (b * 16.0) as usize] += 1;
            }
        }
        chi2(&bins)
    };
    for l in 1..8 {
        let (a, b) = (lane_keys[0], lane_keys[l]);
        let stat = joint(&|t, site| (draws::uniform(a, t, site), draws::uniform(b, t, site)));
        assert!(stat < CHI2_255, "lanes 0 and {l}: χ² = {stat}");
    }
    let key = lane_keys[3];
    let stat = joint(&|t, site| {
        (
            draws::uniform(key, t, site),
            draws::uniform(key, t, site + 1),
        )
    });
    assert!(stat < CHI2_255, "neighboring sites: χ² = {stat}");
    let stat = joint(&|t, site| {
        (
            draws::uniform(key, t, site),
            draws::uniform(key, t + 1, site),
        )
    });
    assert!(stat < CHI2_255, "neighboring sweeps: χ² = {stat}");
}

#[test]
fn samples_do_not_depend_on_the_order_inside_a_class() {
    let problem = dyadic_grid(9, 11, 21);
    let compiled = CompiledProblem::new(&problem);
    let classes: Vec<&[u32]> = compiled.color_classes().collect();
    assert_eq!(classes.len(), 2);
    // Each class reversed, then each class rotated by a third.
    let reversed: Vec<u32> = classes
        .iter()
        .flat_map(|c| c.iter().rev().copied())
        .collect();
    let rotated: Vec<u32> = classes
        .iter()
        .flat_map(|c| {
            let mut c = c.to_vec();
            let third = c.len() / 3;
            c.rotate_left(third);
            c
        })
        .collect();
    let betas = ladder();
    let mut rng = Rng::seed_from_u64(22);
    for _ in 0..6 {
        let key = rng.next_u64();
        let start: Vec<Spin> = (0..problem.num_spins())
            .map(|_| if rng.next_u64() & 1 == 1 { 1 } else { -1 })
            .collect();
        let run = |order: &[u32]| {
            let mut spins = start.clone();
            for (t, &beta) in betas.iter().enumerate() {
                sa::sweep(&problem, order, &mut spins, beta, key, t as u32);
            }
            spins
        };
        let class_order = run(compiled.sweep_order());
        assert_eq!(run(&reversed), class_order);
        assert_eq!(run(&rotated), class_order);
        // The dispatched kernel samples the same: every sum is exact,
        // so incremental fields equal recomputed ones.
        let mut batch = ReplicaBatch::new();
        batch.reset_shared(&compiled, 1, 1);
        batch.init_replica(&compiled, 0, 0, &start);
        let no_chains = CompiledChains::default();
        batch.anneal(Isa::detect(), &compiled, &no_chains, &betas, &[key]);
        assert_eq!(batch.replica_spins(0, 0), class_order);
    }
}
