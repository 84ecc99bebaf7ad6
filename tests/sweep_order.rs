//! The SA spin pass's color-class order
//! (`CompiledProblem::sweep_order`): its structure on the problems the
//! decoder anneals, and what it buys at the uplink operating point.

use quamax::prelude::*;
use quamax_anneal::IceModel;
use quamax_chimera::{ChimeraGraph, CliqueEmbedding, EmbedParams, EmbeddedProblem};
use quamax_core::reduce::ising_from_ml;
use quamax_core::Instance;
use quamax_ising::{CompiledProblem, IsingProblem};
use quamax_wireless::rayleigh_channel;

/// `users`-user BPSK ML problem clique-embedded on `graph`.
fn embedded(graph: &ChimeraGraph, users: usize, seed: u64) -> IsingProblem {
    let mut rng = Rng::seed_from_u64(seed);
    let inst = Scenario::new(users, users, Modulation::Bpsk).sample(&mut rng);
    let (logical, _) = ising_from_ml(inst.h(), inst.y(), Modulation::Bpsk);
    let embedding = CliqueEmbedding::new(graph, users).expect("fits the chip");
    EmbeddedProblem::compile(graph, &embedding, &logical, EmbedParams::default())
        .problem()
        .clone()
}

/// Asserts the order is a permutation of the spins and every class an
/// independent set; returns the class count.
fn check_classes(c: &CompiledProblem) -> usize {
    let mut seen = vec![false; c.num_spins()];
    for &i in c.sweep_order() {
        assert!(!seen[i as usize], "spin {i} appears twice");
        seen[i as usize] = true;
    }
    assert!(seen.iter().all(|&s| s), "the order misses a spin");
    let mut class_of = vec![usize::MAX; c.num_spins()];
    let mut visited = 0;
    for (k, class) in c.color_classes().enumerate() {
        assert!(!class.is_empty(), "class {k} is empty");
        assert!(class.windows(2).all(|w| w[0] < w[1]), "class {k} unsorted");
        for &i in class {
            class_of[i as usize] = k;
        }
        visited += class.len();
    }
    assert_eq!(visited, c.num_spins(), "classes do not tile the order");
    let classes: Vec<&[u32]> = c.color_classes().collect();
    assert_eq!(
        classes.concat(),
        c.sweep_order(),
        "order is not class-major"
    );
    for i in 0..c.num_spins() {
        for &j in c.row(i).0 {
            assert_ne!(
                class_of[i], class_of[j as usize],
                "coupled spins {i} and {j} share class {}",
                class_of[i]
            );
        }
    }
    classes.len()
}

#[test]
fn embeddings_sweep_in_two_independent_classes() {
    let ideal = ChimeraGraph::dw2q_ideal();
    for users in [4, 8, 16, 24, 32, 40, 48, 56, 64] {
        let c = CompiledProblem::new(&embedded(&ideal, users, users as u64));
        assert_eq!(check_classes(&c), 2, "{users} users on the ideal chip");
    }
    let defective = ChimeraGraph::dw2q_with_defects(17, 2);
    for users in 4..=12 {
        let c = CompiledProblem::new(&embedded(&defective, users, 100 + users as u64));
        assert_eq!(check_classes(&c), 2, "{users} users on a 17-defect chip");
    }
}

#[test]
fn dense_logical_problems_keep_index_order() {
    let mut rng = Rng::seed_from_u64(3);
    let inst = Scenario::new(24, 24, Modulation::Bpsk).sample(&mut rng);
    let (logical, _) = ising_from_ml(inst.h(), inst.y(), Modulation::Bpsk);
    let c = CompiledProblem::new(&logical);
    assert_eq!(
        c.num_couplings(),
        24 * 23 / 2,
        "the logical problem is dense"
    );
    assert_eq!(check_classes(&c), 24);
    let identity: Vec<u32> = (0..24).collect();
    assert_eq!(c.sweep_order(), &identity[..]);
}

#[test]
fn clones_and_variants_share_one_order() {
    let base = CompiledProblem::new(&embedded(&ChimeraGraph::dw2q_ideal(), 16, 7));
    let clone = base.clone();
    assert!(std::ptr::eq(clone.sweep_order(), base.sweep_order()));
    // A per-replica variant: perturbed coefficients, rebound fields.
    let mut variant = base.clone();
    variant.perturb_linear(|f| f + 0.01);
    variant.perturb_couplings(|g| 0.9 * g);
    variant.set_linear_term(0, -1.0);
    assert_eq!(variant.sweep_order(), base.sweep_order());
    // A scratch refrozen from the base (fresh shape, then same shape).
    let mut scratch = CompiledProblem::new(&IsingProblem::new(3));
    scratch.refreeze_from(&base);
    assert!(std::ptr::eq(scratch.sweep_order(), base.sweep_order()));
    scratch.refreeze_from(&variant);
    assert_eq!(scratch.sweep_order(), base.sweep_order());
    // The order is a function of the structure alone.
    let other = CompiledProblem::new(&embedded(&ChimeraGraph::dw2q_ideal(), 16, 8));
    assert_eq!(other.sweep_order(), base.sweep_order());
}

/// Mean chain-break fraction of 48-user BPSK decodes at the uplink
/// operating point: 20 dB, 4 sweeps/µs, `Ta = 1 µs` plus a 1 µs pause,
/// calibrated ICE, ten anneals per decode, fixed seeds. Index-order
/// sweeps broke 0.431 of the chains here and class-order sweeps 0.152;
/// the bound sits halfway.
#[test]
fn class_order_keeps_chains_intact_at_the_uplink_operating_point() {
    let annealer = Annealer::new(AnnealerConfig {
        sweeps_per_us: 4.0,
        ice: IceModel::calibrated(),
        threads: 1,
        ..Default::default()
    });
    let decoder = QuamaxDecoder::new(annealer, DecoderConfig::default());
    let snr = Snr::from_db(20.0);
    let mut rng = Rng::seed_from_u64(48);
    let mut fractions = Vec::new();
    for _ in 0..4 {
        let h = rayleigh_channel(48, 48, &mut rng);
        let items: Vec<(CVector, u64)> = (0..4u64)
            .map(|k| {
                let bits: Vec<u8> = (0..48)
                    .map(|i| (i * 7 + k as usize).is_multiple_of(3) as u8)
                    .collect();
                let inst =
                    Instance::transmit(h.clone(), bits, Modulation::Bpsk, Some(snr), &mut rng);
                (inst.y().clone(), 1000 + k)
            })
            .collect();
        let input = DetectionInput {
            h: h.clone(),
            y: items[0].0.clone(),
            modulation: Modulation::Bpsk,
        };
        let session = decoder.compile(&input).expect("48 users fit the chip");
        fractions.extend(
            session
                .decode_batch(&items, 10)
                .iter()
                .map(|run| run.chain_break_fraction()),
        );
    }
    let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
    println!(
        "mean chain-break fraction {mean:.4} over {} decodes",
        fractions.len()
    );
    assert!(
        mean < 0.29,
        "mean chain-break fraction {mean:.3} (bound 0.29)"
    );
}
