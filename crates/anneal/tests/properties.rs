//! Property-based tests for the annealer device.

use proptest::prelude::*;
use quamax_anneal::sa::{self, chain_flip_delta};
use quamax_anneal::sqa;
use quamax_anneal::{
    Annealer, AnnealerConfig, Backend, CompiledChains, IceModel, ReplicaBatch, Schedule,
};
use quamax_ising::{CompiledProblem, IsingProblem};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const N: usize = 8;

fn problem() -> impl Strategy<Value = IsingProblem> {
    let count = N + N * (N - 1) / 2;
    proptest::collection::vec(-2.0f64..2.0, count).prop_map(|c| {
        let mut p = IsingProblem::new(N);
        let mut it = c.into_iter();
        for i in 0..N {
            p.set_linear(i, it.next().unwrap());
        }
        for i in 0..N {
            for j in (i + 1)..N {
                p.set_coupling(i, j, it.next().unwrap());
            }
        }
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Samples are always valid ±1 configurations of the right size,
    /// and runs are deterministic in the seed.
    #[test]
    fn samples_are_valid_and_deterministic(p in problem(), seed in 0u64..1000) {
        let annealer = Annealer::new(AnnealerConfig {
            sweeps_per_us: 5.0,
            ..Default::default()
        });
        let sched = Schedule::standard(1.0);
        let a = annealer.run(&p, &sched, 8, seed);
        let b = annealer.run(&p, &sched, 8, seed);
        prop_assert_eq!(&a, &b);
        for s in &a {
            prop_assert_eq!(s.len(), N);
            prop_assert!(s.iter().all(|&x| x == 1 || x == -1));
        }
    }

    /// Chain-flip delta equals the direct energy difference for an
    /// arbitrary path through the problem graph.
    #[test]
    fn chain_delta_identity(
        p in problem(),
        k in 0u32..256,
        start in 0usize..N,
        len in 1usize..4,
    ) {
        let spins: Vec<i8> = (0..N).map(|i| if (k >> i) & 1 == 1 { 1 } else { -1 }).collect();
        // A "chain" of consecutive indices (all pairs coupled: the
        // problem is fully connected, so windows(2) couplings exist).
        let chain: Vec<usize> = (0..len).map(|o| (start + o) % N).collect();
        let before = p.energy(&spins);
        let mut flipped = spins.clone();
        for &i in &chain {
            flipped[i] = -flipped[i];
        }
        let direct = p.energy(&flipped) - before;
        let fast = chain_flip_delta(&p, &spins, &chain);
        prop_assert!((direct - fast).abs() < 1e-9, "{direct} vs {fast}");
    }

    /// Batches are bit-identical across thread counts, for both
    /// backends, with ICE noise active (the kernel's determinism
    /// contract: splitmix-per-anneal streams + layout-stable draw
    /// order — see the crate's DESIGN docs).
    #[test]
    fn thread_count_never_changes_samples(p in problem(), seed in 0u64..1000) {
        for backend in [Backend::Sa, Backend::Sqa { slices: 4 }] {
            let run_with = |threads: usize| {
                Annealer::new(AnnealerConfig {
                    backend,
                    sweeps_per_us: 4.0,
                    threads,
                    ..Default::default()
                })
                .run(&p, &Schedule::standard(1.0), 10, seed)
            };
            prop_assert_eq!(run_with(1), run_with(4), "backend {:?}", backend);
        }
    }

    /// The incremental sweep kernel stays exact over a long random
    /// walk: every ΔE a width-1 batch proposes equals the naive
    /// adjacency-list ΔE on a shadow copy of its spins, for single
    /// spins and chain-collective flips, with random accept decisions.
    #[test]
    fn replica_batch_tracks_naive_deltas(p in problem(), k in 0u32..256, walk in 0usize..8) {
        let compiled = CompiledProblem::new(&p);
        let chains = vec![vec![0usize, 1, 2], vec![4, 5]];
        let cc = CompiledChains::compile(&compiled, &chains);
        let mut shadow: Vec<i8> = (0..N).map(|i| if (k >> i) & 1 == 1 { 1 } else { -1 }).collect();
        let mut batch = ReplicaBatch::new();
        batch.reset_shared(&compiled, 1, 1);
        batch.init_replica(&compiled, 0, 0, &shadow);
        let mut coin = StdRng::seed_from_u64(u64::from(k));
        let mut worst = 0.0f64;
        for _ in 0..walk {
            batch.sweep_spins(&compiled, |i, _, delta| {
                worst = worst.max((delta - p.flip_delta(&shadow, i)).abs());
                let flip = coin.random_bool(0.5);
                if flip {
                    shadow[i] = -shadow[i];
                }
                flip
            });
            for (c, chain) in chains.iter().enumerate() {
                let naive = chain_flip_delta(&p, &shadow, chain);
                let flip = coin.random_bool(0.5);
                batch.sweep_chain(&compiled, &cc, c, |_, delta| {
                    worst = worst.max((delta - naive).abs());
                    flip
                });
                if flip {
                    for &i in chain {
                        shadow[i] = -shadow[i];
                    }
                }
            }
        }
        prop_assert!(worst < 1e-9, "worst ΔE error {worst}");
        prop_assert_eq!(batch.replica_spins(0, 0), shadow.clone());
        prop_assert!((batch.energy(0, 0) - p.energy(&shadow)).abs() < 1e-9);

        // Per-replica arm: four replicas bound to differently perturbed
        // variants (chain-internal couplers included, as under ICE),
        // each checked against its own variant's naive deltas.
        let variants: Vec<IsingProblem> = (0..4)
            .map(|r| {
                let mut q = p.clone();
                for i in 0..N {
                    q.set_linear(i, p.linear(i) + 0.03 * (r as f64) - 0.01 * (i as f64));
                }
                for (i, j, g) in p.couplings() {
                    q.set_coupling(i, j, g * (1.0 - 0.04 * r as f64) + 0.01 * ((i + j + r) % 3) as f64);
                }
                q
            })
            .collect();
        let mut shadows: Vec<Vec<i8>> = (0..4)
            .map(|r| (0..N).map(|i| if (k >> ((i + r) % N)) & 1 == 1 { 1 } else { -1 }).collect())
            .collect();
        let mut batch = ReplicaBatch::new();
        batch.reset_per_replica(&compiled, 1, 4);
        for (r, q) in variants.iter().enumerate() {
            batch.bind_replica(r, &CompiledProblem::new(q));
            batch.init_replica(&compiled, r, 0, &shadows[r]);
        }
        let mut worst = 0.0f64;
        for _ in 0..walk {
            batch.sweep_spins(&compiled, |i, r, delta| {
                worst = worst.max((delta - variants[r].flip_delta(&shadows[r], i)).abs());
                let flip = coin.random_bool(0.5);
                if flip {
                    shadows[r][i] = -shadows[r][i];
                }
                flip
            });
            for (c, chain) in chains.iter().enumerate() {
                let naive: Vec<f64> = (0..4)
                    .map(|r| chain_flip_delta(&variants[r], &shadows[r], chain))
                    .collect();
                let flips: Vec<bool> = (0..4).map(|_| coin.random_bool(0.5)).collect();
                batch.sweep_chain(&compiled, &cc, c, |r, delta| {
                    worst = worst.max((delta - naive[r]).abs());
                    flips[r]
                });
                for (shadow, _) in shadows.iter_mut().zip(&flips).filter(|(_, &f)| f) {
                    for &i in chain {
                        shadow[i] = -shadow[i];
                    }
                }
            }
        }
        prop_assert!(worst < 1e-9, "worst per-replica ΔE error {worst}");
        for (r, (q, shadow)) in variants.iter().zip(&shadows).enumerate() {
            prop_assert_eq!(batch.replica_spins(r, 0), shadow.clone());
            prop_assert!((batch.energy(r, 0) - q.energy(shadow)).abs() < 1e-9);
        }
    }

    /// The batched SA kernel's stream-splitting contract: replica `r`
    /// of a [`ReplicaBatch`] at width 2, 4 or 8 is bit-identical
    /// (spins, fields, energy) to the same stream annealed alone in a
    /// width-1 batch, in shared mode and in per-replica mode with every
    /// replica bound to differently-perturbed coefficients, chains
    /// included.
    #[test]
    fn sa_replica_batch_matches_serial(p in problem(), seed in 0u64..1000) {
        let compiled = CompiledProblem::new(&p);
        let chain_sets = vec![vec![0usize, 1, 2], vec![4, 5]];
        let cc = CompiledChains::compile(&compiled, &chain_sets);
        let betas: Vec<f64> = (0..10).map(|k| 0.2 * 1.3f64.powi(k)).collect();
        let stream = |r: usize| StdRng::seed_from_u64(seed.wrapping_add(r as u64));
        for width in [2usize, 4, 8] {
            // Per-replica coefficient variants sharing the structure.
            let variants: Vec<CompiledProblem> = (0..width)
                .map(|r| {
                    let mut q = compiled.clone();
                    q.perturb_linear(|f| f + 0.1 * (r as f64));
                    q.perturb_couplings(|g| g * (1.0 + 0.05 * r as f64));
                    q
                })
                .collect();
            for shared in [true, false] {
                // Width-1 references, one stream per replica.
                let serial: Vec<ReplicaBatch> = (0..width)
                    .map(|r| {
                        let q = if shared { &compiled } else { &variants[r] };
                        let mut rng = [stream(r)];
                        let mut single = ReplicaBatch::new();
                        single.reset_shared(q, 1, 1);
                        single.init_replica_random(q, 0, &mut rng[0]);
                        sa::anneal_batch_compiled(q, &cc, &betas, &mut single, &mut rng);
                        single
                    })
                    .collect();
                // Batched run over the same streams.
                let mut rngs: Vec<StdRng> = (0..width).map(stream).collect();
                let mut batch = ReplicaBatch::new();
                if shared {
                    batch.reset_shared(&compiled, 1, width);
                } else {
                    batch.reset_per_replica(&compiled, 1, width);
                    for (r, q) in variants.iter().enumerate() {
                        batch.bind_replica(r, q);
                    }
                }
                for (r, rng) in rngs.iter_mut().enumerate() {
                    batch.init_replica_random(&compiled, r, rng);
                }
                sa::anneal_batch_compiled(&compiled, &cc, &betas, &mut batch, &mut rngs);
                for (r, single) in serial.iter().enumerate() {
                    prop_assert_eq!(batch.replica_spins(r, 0), single.replica_spins(0, 0));
                    for i in 0..N {
                        prop_assert_eq!(batch.field(i, r), single.field(i, 0));
                    }
                    prop_assert_eq!(batch.energy(r, 0), single.energy(0, 0));
                }
            }
        }
    }

    /// The SQA analogue of `sa_replica_batch_matches_serial`: every
    /// replica of a `P`-slice [`ReplicaBatch`] at width 2, 4 or 8 is
    /// bit-identical to the same stream annealed alone at width 1 — all
    /// Trotter slices, slice energies, and the best-slice readout —
    /// shared and per-replica, chains included.
    #[test]
    fn sqa_replica_batch_matches_serial(p in problem(), seed in 0u64..1000) {
        let compiled = CompiledProblem::new(&p);
        let chain_sets = vec![vec![0usize, 1, 2], vec![4, 5]];
        let cc = CompiledChains::compile(&compiled, &chain_sets);
        let fractions: Vec<f64> = (0..8).map(|k| (k as f64 + 0.5) / 8.0).collect();
        let slices = 4;
        let stream = |r: usize| StdRng::seed_from_u64(seed.wrapping_add(r as u64));
        for width in [2usize, 4, 8] {
            let variants: Vec<CompiledProblem> = (0..width)
                .map(|r| {
                    let mut q = compiled.clone();
                    q.perturb_linear(|f| f - 0.07 * (r as f64));
                    q.perturb_couplings(|g| g * (1.0 - 0.04 * r as f64));
                    q
                })
                .collect();
            for shared in [true, false] {
                let serial: Vec<ReplicaBatch> = (0..width)
                    .map(|r| {
                        let q = if shared { &compiled } else { &variants[r] };
                        let mut rng = [stream(r)];
                        let mut single = ReplicaBatch::new();
                        single.reset_shared(q, slices, 1);
                        single.init_replica_random(q, 0, &mut rng[0]);
                        sqa::anneal_batch_compiled(q, &cc, &fractions, &mut single, &mut rng);
                        single
                    })
                    .collect();
                let mut rngs: Vec<StdRng> = (0..width).map(stream).collect();
                let mut batch = ReplicaBatch::new();
                if shared {
                    batch.reset_shared(&compiled, slices, width);
                } else {
                    batch.reset_per_replica(&compiled, slices, width);
                    for (r, q) in variants.iter().enumerate() {
                        batch.bind_replica(r, q);
                    }
                }
                for (r, rng) in rngs.iter_mut().enumerate() {
                    batch.init_replica_random(&compiled, r, rng);
                }
                sqa::anneal_batch_compiled(&compiled, &cc, &fractions, &mut batch, &mut rngs);
                for (r, single) in serial.iter().enumerate() {
                    for k in 0..slices {
                        prop_assert_eq!(batch.replica_spins(r, k), single.replica_spins(0, k));
                        prop_assert_eq!(batch.energy(r, k), single.energy(0, k));
                    }
                    prop_assert_eq!(
                        sqa::best_slice_batch(&batch, r),
                        sqa::best_slice_batch(single, 0)
                    );
                }
            }
        }
    }

    /// Binding a window under ICE (`bind_window_ice`) is the reference
    /// `IceModel::refreeze` + `bind_replica`, replica for replica:
    /// bit-identical fields and energies after a random init, and every
    /// stream left at the same next draw. One-slice (SA) and
    /// three-slice (SQA) batches, widths 1, 3 and 8, calibrated and
    /// paper ICE moments, on the dense problem and on a sparse one (so
    /// CSR rows and coupler twins are irregular), with odd replicas
    /// bound to a second problem of the same structure (a window
    /// packing two jobs).
    #[test]
    fn ice_bind_matches_refreeze_then_bind(p in problem(), seed in 0u64..1000) {
        let mut sparse = IsingProblem::new(N);
        for i in 0..N {
            sparse.set_linear(i, p.linear(i));
        }
        for (i, j, g) in p.couplings() {
            if g > 0.0 {
                sparse.set_coupling(i, j, g);
            }
        }
        let slices = 3;
        for q in [&p, &sparse] {
            let base = CompiledProblem::new(q);
            let mut shifted = base.clone();
            shifted.perturb_linear(|f| f - 0.25);
            shifted.perturb_couplings(|g| 0.5 * g);
            let mut scratch = base.clone();
            for ice in [IceModel::calibrated(), IceModel::dw2q()] {
                for width in [1usize, 3, 8] {
                    let stream = |r: usize| StdRng::seed_from_u64(seed ^ ((r as u64) << 32));
                    let (mut sa_ref, mut sa_fused) = (ReplicaBatch::new(), ReplicaBatch::new());
                    sa_ref.reset_per_replica(&base, 1, width);
                    sa_fused.reset_per_replica(&base, 1, width);
                    let (mut sqa_ref, mut sqa_fused) =
                        (ReplicaBatch::new(), ReplicaBatch::new());
                    sqa_ref.reset_per_replica(&base, slices, width);
                    sqa_fused.reset_per_replica(&base, slices, width);
                    let problems: Vec<&CompiledProblem> = (0..width)
                        .map(|r| if r % 2 == 1 { &shifted } else { &base })
                        .collect();
                    let mut sa_streams: Vec<StdRng> = (0..width).map(stream).collect();
                    let mut sqa_streams = sa_streams.clone();
                    sa_fused.bind_window_ice(&problems, &ice, &mut sa_streams);
                    sqa_fused.bind_window_ice(&problems, &ice, &mut sqa_streams);
                    for r in 0..width {
                        let (mut a, b) = (stream(r), &mut sa_streams[r]);
                        ice.refreeze(problems[r], &mut scratch, &mut a);
                        sa_ref.bind_replica(r, &scratch);
                        sa_ref.init_replica_random(&base, r, &mut a);
                        sa_fused.init_replica_random(&base, r, b);
                        prop_assert_eq!(a.next_u64(), b.next_u64());

                        let (mut a, b) = (stream(r), &mut sqa_streams[r]);
                        ice.refreeze(problems[r], &mut scratch, &mut a);
                        sqa_ref.bind_replica(r, &scratch);
                        sqa_ref.init_replica_random(&base, r, &mut a);
                        sqa_fused.init_replica_random(&base, r, b);
                        prop_assert_eq!(a.next_u64(), b.next_u64());
                    }
                    // Checked after every replica is bound, so a write
                    // into a neighbouring replica's strip shows too.
                    for r in 0..width {
                        for i in 0..N {
                            prop_assert_eq!(sa_fused.field(i, r).to_bits(), sa_ref.field(i, r).to_bits());
                        }
                        prop_assert_eq!(sa_fused.energy(r, 0).to_bits(), sa_ref.energy(r, 0).to_bits());
                        for k in 0..slices {
                            for i in 0..N {
                                prop_assert_eq!(
                                    sqa_fused.field(k * N + i, r).to_bits(),
                                    sqa_ref.field(k * N + i, r).to_bits()
                                );
                            }
                            prop_assert_eq!(
                                sqa_fused.energy(r, k).to_bits(),
                                sqa_ref.energy(r, k).to_bits()
                            );
                        }
                    }
                }
            }
        }
    }

    /// ICE perturbation preserves problem structure and moves every
    /// coefficient (when the model is non-zero).
    #[test]
    fn ice_preserves_structure(p in problem(), seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let q = IceModel::dw2q().perturb(&p, &mut rng);
        prop_assert_eq!(q.num_spins(), p.num_spins());
        prop_assert_eq!(q.num_couplings(), p.num_couplings());
        for (i, j, g) in p.couplings() {
            prop_assert!((q.coupling(i, j) - g).abs() < 0.015 + 6.0 * 0.025);
        }
    }

    /// Schedules: fractions stay in [0,1]; forward plans are monotone;
    /// reverse plans start and end annealed.
    #[test]
    fn schedule_fraction_invariants(
        ta in 1.0f64..100.0,
        sp in 0.05f64..0.95,
        tp in 0.5f64..50.0,
        sweeps in 2.0f64..40.0,
    ) {
        for sched in [
            Schedule::standard(ta),
            Schedule::with_pause(ta, sp, tp),
            Schedule::reverse(ta, sp, tp),
        ] {
            let plan = sched.sweep_fractions(sweeps);
            prop_assert!(plan.iter().all(|&f| (0.0..=1.0).contains(&f)));
            if !sched.is_reverse() {
                for w in plan.windows(2) {
                    prop_assert!(w[1] >= w[0] - 1e-12);
                }
            } else {
                prop_assert!(plan[0] >= sp);
                prop_assert!(*plan.last().unwrap() >= sp);
                let min = plan.iter().copied().fold(f64::INFINITY, f64::min);
                prop_assert!((min - sp).abs() < 0.15, "reversal point missed: {min} vs {sp}");
            }
        }
    }
}
