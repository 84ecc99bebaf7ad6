//! Fixtures and drivers for the sweep-kernel before/after comparison
//! the `bench_kernel` binary records to `BENCH_kernel.json`.
//!
//! Two problem regimes bracket the simulator's workload:
//!
//! * [`embedded_bpsk`] — the paper's headline decodes: an `N`-user
//!   BPSK ML reduction clique-embedded on the C16 chip (60 users: 60
//!   chains × 16 qubits = 960 physical spins; 48 users: 624);
//! * [`chimera_glass`] — a full-chip spin glass on the paper's actual
//!   hardware scale: the 2,048-site Chimera graph with 17 random
//!   defects (2,031 working qubits, as on "Whistler"), every working
//!   coupler carrying a random coefficient.
//!
//! The "naive" drivers reproduce the pre-kernel hot loop (adjacency-
//! list `flip_delta` recomputed per proposal); the batched drivers run
//! the same proposal sequence through the CSR/local-field replica
//! kernel (the "compiled" rows are its width-1 batches).

use quamax_anneal::kernel::{CompiledChains, ReplicaBatch};
use quamax_anneal::{sa, sqa};
use quamax_chimera::{ChimeraGraph, CliqueEmbedding, EmbedParams, EmbeddedProblem};
use quamax_core::reduce::ising_from_ml;
use quamax_core::Scenario;
use quamax_ising::{CompiledProblem, IsingProblem, Spin};
use quamax_linalg::rng::ExpZiggurat;
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A β ladder spanning the schedule (hot → cold), so per-sweep numbers
/// average over the whole acceptance regime like a real anneal does.
pub fn schedule_betas() -> Vec<f64> {
    [0.1, 0.3, 0.5, 0.7, 0.9]
        .iter()
        .map(|&s| quamax_anneal::schedule::curves::beta(s).max(1e-3))
        .collect()
}

/// A clique-embedded `users`-user BPSK problem (60 users: 960
/// physical qubits; 48 users: 624) and its chains.
pub fn embedded_bpsk(users: usize, seed: u64) -> (IsingProblem, Vec<Vec<usize>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = Scenario::new(users, users, Modulation::Bpsk).sample(&mut rng);
    let (logical, _) = ising_from_ml(inst.h(), inst.y(), Modulation::Bpsk);
    let graph = ChimeraGraph::dw2q_ideal();
    let embedding = CliqueEmbedding::new(&graph, logical.num_spins()).expect("fits C16");
    let embedded = EmbeddedProblem::compile(&graph, &embedding, &logical, EmbedParams::default());
    (embedded.problem().clone(), embedded.chains().to_vec())
}

/// A full-chip Chimera spin glass at the paper's working-qubit count:
/// 2,048 sites, 17 defects (2,031 live), random couplings on every
/// working coupler and random weak fields.
pub fn chimera_glass(seed: u64) -> IsingProblem {
    let graph = ChimeraGraph::dw2q_with_defects(17, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00C0_FFEE);
    let n = graph.num_sites();
    let mut p = IsingProblem::new(n);
    for q in 0..n {
        if graph.is_working(q) {
            p.set_linear(q, rng.random_range(-0.2..0.2));
            for j in graph.neighbors(q) {
                if j > q && graph.is_working(j) {
                    p.set_coupling(q, j, rng.random_range(-1.0..1.0));
                }
            }
        }
    }
    p
}

/// Random ±1 configuration.
pub fn random_spins(n: usize, rng: &mut StdRng) -> Vec<Spin> {
    (0..n)
        .map(|_| if rng.random_bool(0.5) { 1 } else { -1 })
        .collect()
}

/// One pass of the β ladder through the naive kernel, proposing spins
/// in `order` (the compiled problem's color-class order) under a fresh
/// key from `rng`, as an anneal does.
pub fn naive_sa_ladder(
    problem: &IsingProblem,
    order: &[u32],
    spins: &mut [Spin],
    betas: &[f64],
    rng: &mut StdRng,
) {
    let key = rng.next_u64();
    for (t, &beta) in betas.iter().enumerate() {
        sa::sweep(problem, order, spins, beta, key, t as u32);
    }
}

/// One pass of the β ladder through the batched replica kernel: all
/// `batch.width()` replicas advance together, sharing one CSR row walk
/// per proposed spin, each under a fresh key from its own stream (each
/// replica bit-identical to a width-1 batch over that stream).
pub fn batched_sa_ladder(
    problem: &CompiledProblem,
    batch: &mut ReplicaBatch,
    betas: &[f64],
    rngs: &mut [StdRng],
) {
    sa::anneal_batch_compiled(problem, &CompiledChains::default(), betas, batch, rngs);
}

/// One naive SQA sweep (local + global moves) — a faithful replica of
/// the pre-kernel hot loop over `Vec<Vec<Spin>>` replicas with
/// per-proposal adjacency-list `flip_delta`, accepting by the kernel's
/// own rule ([`sa::metropolis`] at `β = 1` on `−ΔF`).
fn naive_sqa_sweep(
    problem: &IsingProblem,
    replicas: &mut [Vec<Spin>],
    w_problem: f64,
    gamma: f64,
    rng: &mut StdRng,
) {
    let p = replicas.len();
    let n = problem.num_spins();
    let zig = ExpZiggurat::get();
    let mut accept = |d_f: f64| sa::metropolis(1.0, -d_f, rng, zig);
    for k in 0..p {
        let (up, down) = (
            if k + 1 == p { 0 } else { k + 1 },
            if k == 0 { p - 1 } else { k - 1 },
        );
        for i in 0..n {
            let d_problem = problem.flip_delta(&replicas[k], i);
            let si = replicas[k][i] as f64;
            let neighbors = (replicas[up][i] + replicas[down][i]) as f64;
            let d_f = -w_problem * d_problem - 2.0 * gamma * si * neighbors;
            if accept(d_f) {
                replicas[k][i] = -replicas[k][i];
            }
        }
    }
    for i in 0..n {
        let mut d_total = 0.0;
        for replica in replicas.iter() {
            d_total += problem.flip_delta(replica, i);
        }
        if accept(-w_problem * d_total) {
            for replica in replicas.iter_mut() {
                replica[i] = -replica[i];
            }
        }
    }
}

/// One compiled SQA sweep: the production kernel (`sqa::sweep_batch`)
/// restricted to the same move set as `naive_sqa_sweep` (no chains).
fn compiled_sqa_sweep(
    problem: &CompiledProblem,
    batch: &mut ReplicaBatch,
    w_problem: f64,
    gamma: f64,
    rngs: &mut [StdRng],
) {
    let no_chains = CompiledChains::default();
    sqa::sweep_batch(problem, &no_chains, batch, w_problem, gamma, rngs);
}

/// The schedule fractions the SQA ladder benches cycle through: the
/// annealing regime (`s ≥ 0.3`), where the problem term carries real
/// weight and acceptance spans moderate-to-collapsed — the span where
/// sweep cost controls solution quality. (Below `s ≈ 0.2` the
/// transverse term dominates and every kernel just churns near-free
/// replicas; including that melt phase in a *cyclic* bench would
/// re-disorder the state each pass and measure a regime no real
/// monotone schedule revisits.)
pub const SQA_LADDER_FRACTIONS: [f64; 4] = [0.3, 0.5, 0.7, 0.9];

/// One pass of the fraction ladder through the naive SQA hot loop.
pub fn naive_sqa_ladder(
    problem: &IsingProblem,
    replicas: &mut [Vec<Spin>],
    slices: usize,
    rng: &mut StdRng,
) {
    for &s in &SQA_LADDER_FRACTIONS {
        let (w_problem, gamma) = sqa::couplings_at(s, slices);
        naive_sqa_sweep(problem, replicas, w_problem, gamma, rng);
    }
}

/// One pass of the fraction ladder through the production compiled SQA
/// kernel.
pub fn compiled_sqa_ladder(
    problem: &CompiledProblem,
    batch: &mut ReplicaBatch,
    rngs: &mut [StdRng],
) {
    for &s in &SQA_LADDER_FRACTIONS {
        let (w_problem, gamma) = sqa::couplings_at(s, batch.num_slices());
        compiled_sqa_sweep(problem, batch, w_problem, gamma, rngs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_the_advertised_scale() {
        let (p, chains) = embedded_bpsk(60, 1);
        assert_eq!(p.num_spins(), 960);
        assert_eq!(chains.len(), 60);
        let (p, chains) = embedded_bpsk(48, 1);
        assert_eq!(p.num_spins(), 624);
        assert_eq!(chains.len(), 48);
        let glass = chimera_glass(2);
        assert_eq!(glass.num_spins(), 2048);
        // 2031 working qubits: every coupling touches working sites only.
        let graph = ChimeraGraph::dw2q_with_defects(17, 2);
        assert_eq!(graph.num_working(), 2031);
        for (i, j, _) in glass.couplings() {
            assert!(graph.is_working(i) && graph.is_working(j));
        }
    }

    #[test]
    fn naive_and_compiled_sqa_sweeps_agree_statistically() {
        // Same stream, same proposal order → identical trajectories up
        // to FP rounding of ΔE; on a small problem they match exactly.
        let (p, _) = {
            let mut p = IsingProblem::new(6);
            p.set_coupling(0, 1, -1.0);
            p.set_coupling(2, 3, 0.5);
            p.set_linear(4, 0.3);
            (p, ())
        };
        let c = CompiledProblem::new(&p);
        let (w, gamma) = sqa::couplings_at(0.5, 4);
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = [StdRng::seed_from_u64(3)];
        let init: Vec<Vec<Spin>> = (0..4)
            .map(|_| random_spins(6, &mut StdRng::seed_from_u64(9)))
            .collect();
        let mut replicas = init.clone();
        let mut batch = ReplicaBatch::new();
        batch.reset_shared(&c, 4, 1);
        for (k, start) in init.iter().enumerate() {
            batch.init_replica(&c, 0, k, start);
        }
        for _ in 0..20 {
            naive_sqa_sweep(&p, &mut replicas, w, gamma, &mut rng_a);
            compiled_sqa_sweep(&c, &mut batch, w, gamma, &mut rng_b);
        }
        for (k, replica) in replicas.iter().enumerate() {
            assert_eq!(batch.replica_spins(0, k), replica[..]);
        }
    }
}
