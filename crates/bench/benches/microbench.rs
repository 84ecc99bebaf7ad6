//! Criterion microbenchmarks for the hot paths of the pipeline.
//!
//! These measure *this repository's Rust implementations* (the
//! experiment harness separately uses paper-era cost models for the
//! classical baselines — see `baselines::timing`):
//!
//! * the ML→Ising reduction (the per-subcarrier front-end work);
//! * clique embedding + compile (per channel-coherence interval);
//! * one SA sweep over an embedded problem (the simulator's inner loop),
//!   naive adjacency-list kernel vs the compiled CSR/local-field kernel
//!   (a width-1 replica batch), at the paper's headline 960-qubit and
//!   full-chip 2031-working-qubit scales (see
//!   `quamax_bench::kernelbench`; `bench_kernel` records the same
//!   comparison to `BENCH_kernel.json`);
//! * an SQA 8-slice sweep, naive vs compiled (a width-1 batch);
//! * chain-collective proposals, naive `chain.contains` scan vs the
//!   batch kernel's precompiled internal-edge lists (every proposal
//!   rejected, so only the ΔE evaluation is timed);
//! * a sphere-decoder decode (the classical ML baseline);
//! * ZF detection (the linear baseline).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use quamax_anneal::kernel::{CompiledChains, ReplicaBatch, SqaReplicaBatch};
use quamax_anneal::sa;
use quamax_baselines::{SphereDecoder, ZeroForcingDetector};
use quamax_bench::kernelbench;
use quamax_chimera::{ChimeraGraph, CliqueEmbedding, EmbedParams, EmbeddedProblem};
use quamax_core::reduce::ising_from_ml;
use quamax_core::Scenario;
use quamax_ising::CompiledProblem;
use quamax_wireless::{Modulation, Snr};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduce");
    for (nt, m) in [
        (48usize, Modulation::Bpsk),
        (18, Modulation::Qpsk),
        (9, Modulation::Qam16),
    ] {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = Scenario::new(nt, nt, m).sample(&mut rng);
        group.bench_function(format!("{}x{} {}", nt, nt, m.name()), |b| {
            b.iter(|| black_box(ising_from_ml(inst.h(), inst.y(), m)))
        });
        // The per-channel-use cost once the Gram matrix is amortized
        // over the coherence interval (the §3.2.2 deployment shape).
        let gram = inst.h().gram();
        group.bench_function(format!("{}x{} {} amortized", nt, nt, m.name()), |b| {
            b.iter(|| {
                let h_y = inst.h().hermitian().mul_vec(inst.y());
                black_box(quamax_core::reduce::ising_from_ml_amortized(
                    inst.h(),
                    &gram,
                    &h_y,
                    inst.y(),
                    m,
                ))
            })
        });
    }
    group.finish();
}

fn bench_embedding(c: &mut Criterion) {
    let graph = ChimeraGraph::dw2q_ideal();
    let mut rng = StdRng::seed_from_u64(2);
    let inst = Scenario::new(18, 18, Modulation::Qpsk).sample(&mut rng);
    let (logical, _) = ising_from_ml(inst.h(), inst.y(), Modulation::Qpsk);
    c.bench_function("embed+compile 36 logical", |b| {
        b.iter(|| {
            let e = CliqueEmbedding::new(&graph, 36).unwrap();
            black_box(EmbeddedProblem::compile(
                &graph,
                &e,
                &logical,
                EmbedParams::default(),
            ))
        })
    });
}

fn bench_sa_sweep(c: &mut Criterion) {
    let graph = ChimeraGraph::dw2q_ideal();
    let mut rng = StdRng::seed_from_u64(3);
    let inst = Scenario::new(18, 18, Modulation::Qpsk).sample(&mut rng);
    let (logical, _) = ising_from_ml(inst.h(), inst.y(), Modulation::Qpsk);
    let e = CliqueEmbedding::new(&graph, 36).unwrap();
    let embedded = EmbeddedProblem::compile(&graph, &e, &logical, EmbedParams::default());
    let n = embedded.num_physical();
    c.bench_function("sa sweep 360 phys spins", |b| {
        b.iter_batched(
            || {
                let mut srng = StdRng::seed_from_u64(4);
                (0..n)
                    .map(|_| {
                        if rand::Rng::random_bool(&mut srng, 0.5) {
                            1i8
                        } else {
                            -1
                        }
                    })
                    .collect::<Vec<i8>>()
            },
            |mut spins| {
                let mut srng = StdRng::seed_from_u64(5);
                sa::sweep(embedded.problem(), &mut spins, 5.0, &mut srng);
                black_box(spins)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_kernel_sa(c: &mut Criterion) {
    let mut group = c.benchmark_group("sa_ladder");
    let betas = kernelbench::schedule_betas();
    let (embedded, _) = kernelbench::embedded_bpsk(60, 1);
    let glass = kernelbench::chimera_glass(2);
    for (label, problem) in [("embedded_960q", &embedded), ("chimera_2031q", &glass)] {
        let compiled = CompiledProblem::new(problem);
        let n = problem.num_spins();
        group.bench_function(format!("{label} naive"), |b| {
            let mut spins = kernelbench::random_spins(n, &mut StdRng::seed_from_u64(3));
            let mut rng = StdRng::seed_from_u64(4);
            b.iter(|| {
                kernelbench::naive_sa_ladder(problem, &mut spins, &betas, &mut rng);
                black_box(spins[0])
            })
        });
        group.bench_function(format!("{label} compiled"), |b| {
            let spins = kernelbench::random_spins(n, &mut StdRng::seed_from_u64(3));
            let mut batch = ReplicaBatch::new();
            batch.reset_shared(&compiled, 1);
            batch.init_replica(&compiled, 0, &spins);
            let mut rngs = [StdRng::seed_from_u64(4)];
            b.iter(|| {
                kernelbench::batched_sa_ladder(&compiled, &mut batch, &betas, &mut rngs);
                black_box(batch.spin(0, 0))
            })
        });
    }
    group.finish();
}

fn bench_kernel_sqa(c: &mut Criterion) {
    let mut group = c.benchmark_group("sqa_ladder_8slice");
    let (embedded, _) = kernelbench::embedded_bpsk(60, 1);
    let compiled = CompiledProblem::new(&embedded);
    let n = embedded.num_spins();
    let slices = 8;
    group.bench_function("embedded_960q naive", |b| {
        let mut replicas: Vec<Vec<i8>> = (0..slices)
            .map(|k| kernelbench::random_spins(n, &mut StdRng::seed_from_u64(5 + k as u64)))
            .collect();
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| {
            kernelbench::naive_sqa_ladder(&embedded, &mut replicas, slices, &mut rng);
            black_box(replicas[0][0])
        })
    });
    group.bench_function("embedded_960q compiled", |b| {
        let starts: Vec<Vec<i8>> = (0..slices)
            .map(|k| kernelbench::random_spins(n, &mut StdRng::seed_from_u64(5 + k as u64)))
            .collect();
        let mut batch = SqaReplicaBatch::new();
        batch.reset_shared(&compiled, slices, 1);
        batch.init_replica(&compiled, 0, |k, i| starts[k][i]);
        let mut rngs = [StdRng::seed_from_u64(6)];
        b.iter(|| {
            kernelbench::compiled_sqa_ladder(&compiled, &mut batch, &mut rngs);
            black_box(batch.spin(0, 0, 0))
        })
    });
    group.finish();
}

fn bench_chain_moves(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_delta_60x16");
    let (embedded, chains) = kernelbench::embedded_bpsk(60, 1);
    let compiled = CompiledProblem::new(&embedded);
    let cc = CompiledChains::compile(&compiled, &chains);
    let spins = kernelbench::random_spins(embedded.num_spins(), &mut StdRng::seed_from_u64(7));
    group.bench_function("naive contains-scan", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for chain in &chains {
                acc += sa::chain_flip_delta(&embedded, &spins, chain);
            }
            black_box(acc)
        })
    });
    group.bench_function("precompiled internal edges", |b| {
        let mut batch = ReplicaBatch::new();
        batch.reset_shared(&compiled, 1);
        batch.init_replica(&compiled, 0, &spins);
        b.iter(|| {
            let mut acc = 0.0;
            for ci in 0..cc.len() {
                batch.sweep_chain(&compiled, &cc, ci, |_, delta| {
                    acc += delta;
                    false
                });
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_sphere(c: &mut Criterion) {
    let mut group = c.benchmark_group("sphere");
    for (nt, m) in [(12usize, Modulation::Bpsk), (7, Modulation::Qpsk)] {
        let mut rng = StdRng::seed_from_u64(6);
        let sc = Scenario::new(nt, nt, m)
            .with_rayleigh()
            .with_snr(Snr::from_db(13.0));
        let inst = sc.sample(&mut rng);
        let decoder = SphereDecoder::new(m);
        group.bench_function(format!("{}x{} {}", nt, nt, m.name()), |b| {
            b.iter(|| black_box(decoder.decode(inst.h(), inst.y()).unwrap()))
        });
    }
    group.finish();
}

fn bench_zf(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let sc = Scenario::new(48, 48, Modulation::Bpsk)
        .with_rayleigh()
        .with_snr(Snr::from_db(12.0));
    let inst = sc.sample(&mut rng);
    let zf = ZeroForcingDetector::new(Modulation::Bpsk);
    c.bench_function("zf 48x48 BPSK", |b| {
        b.iter(|| black_box(zf.decode(inst.h(), inst.y()).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_reduction, bench_embedding, bench_sa_sweep, bench_kernel_sa,
        bench_kernel_sqa, bench_chain_moves, bench_sphere, bench_zf
}
criterion_main!(benches);
