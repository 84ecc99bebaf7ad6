//! Path-integral (simulated quantum annealing) backend.
//!
//! The Suzuki–Trotter decomposition maps a transverse-field Ising model
//! at inverse temperature `β` onto a classical system of `P` coupled
//! replicas ("slices"): each slice carries the problem couplings at
//! weight `β·B(s)/(2P)` and every spin is bound to its images in the
//! neighbouring slices (periodically) with a ferromagnetic coupling of
//! weight `γ(s) = −½·ln tanh(β·Γ(s)/P)`, where `Γ(s) = A(s)/2` is the
//! transverse field. Early in the schedule `γ` is weak — replicas
//! explore independently, the image of quantum fluctuations — and as
//! `A(s) → 0`, `γ → ∞` locks them into a single classical state.
//!
//! This is the standard classical emulation of quantum-annealing
//! dynamics (Martoňák–Santoro–Tosatti); the ablation benches use it to
//! check which reproduced effects depend on the choice of dynamics.
//! Each sweep ([`sweep_batch`]) proposes local (spin, slice) flips,
//! one *global* move per spin (flipping all its slices at once, which
//! is essential for efficient sampling near the end of the schedule),
//! then per-slice and global chain-collective moves. Every anneal runs
//! as one replica of a [`SqaReplicaBatch`] ([`anneal_batch_compiled`]);
//! [`best_slice_batch`] reads out its answer.

use crate::kernel::{CompiledChains, SqaReplicaBatch};
use crate::schedule::curves;
use quamax_ising::{CompiledProblem, Spin};
use rand::Rng;

/// The per-slice problem weight and inter-slice binding `(w, γ)` at
/// schedule fraction `s` with `slices` Trotter slices.
pub fn couplings_at(s: f64, slices: usize) -> (f64, f64) {
    let beta = 1.0 / curves::KT_GHZ; // physical β in h·GHz⁻¹ units
    let w_problem = beta * curves::b(s) / (2.0 * slices as f64);
    let gamma_field = (curves::a(s) / 2.0).max(1e-12);
    let x = (beta * gamma_field / slices as f64).tanh();
    // γ → ∞ as A → 0; cap to keep arithmetic finite (beyond ~30 the
    // acceptance of a slice-breaking move is 0 anyway).
    let gamma = (-0.5 * x.ln()).min(30.0);
    (w_problem, gamma)
}

/// Metropolis acceptance on `exp(ΔF)`, skipping the `exp`/RNG cost for
/// certainly-rejected moves (see `sa::CERTAIN_REJECT_EXPONENT`).
#[inline]
fn accept<R: Rng + ?Sized>(d_f: f64, rng: &mut R) -> bool {
    d_f >= 0.0 || (d_f > -crate::sa::CERTAIN_REJECT_EXPONENT && rng.random::<f64>() < d_f.exp())
}

/// The batched SQA trajectory: every replica of `batch` runs the same
/// fraction plan, each consuming its own RNG stream, so replica `r` is
/// bit-identical to the same replica run alone at width 1 from
/// `rngs[r]` (see `sa::anneal_batch_compiled` for the stream-splitting
/// contract). The caller initializes the batch first;
/// [`best_slice_batch`] reads out one replica's answer.
///
/// # Panics
/// Panics when `fractions` is empty or `rngs.len() != batch.width()`.
pub fn anneal_batch_compiled<R: Rng>(
    problem: &CompiledProblem,
    chains: &CompiledChains,
    fractions: &[f64],
    batch: &mut SqaReplicaBatch,
    rngs: &mut [R],
) {
    assert!(!fractions.is_empty(), "empty sweep plan");
    assert_eq!(rngs.len(), batch.width(), "one RNG stream per replica");
    let p = batch.num_slices();
    for &s in fractions {
        let (w_problem, gamma) = couplings_at(s, p);
        sweep_batch(problem, chains, batch, w_problem, gamma, rngs);
    }
}

/// One SQA sweep at fixed couplings `(w_problem, γ)` over every replica
/// of `batch`, in four phases: local moves over every (slice, spin),
/// global per-spin moves, then per-slice and global chain-collective
/// moves. Each proposal decides all replicas off one contiguous strip,
/// and accepted replicas share one CSR row walk per flipped spin.
pub fn sweep_batch<R: Rng>(
    problem: &CompiledProblem,
    chains: &CompiledChains,
    batch: &mut SqaReplicaBatch,
    w_problem: f64,
    gamma: f64,
    rngs: &mut [R],
) {
    let p = batch.num_slices();
    let n = problem.num_spins();
    // Local moves: every (slice, spin).
    for k in 0..p {
        let (up, down) = (
            if k + 1 == p { 0 } else { k + 1 },
            if k == 0 { p - 1 } else { k - 1 },
        );
        for i in 0..n {
            batch.sweep_spin_slice(problem, k, up, down, i, |r, d_problem, pair| {
                // ΔF = −w·ΔE_problem − 2γ·s_i·(s_up + s_down); accept on
                // exp(ΔF).
                let d_f = -w_problem * d_problem - 2.0 * gamma * pair;
                accept(d_f, &mut rngs[r])
            });
        }
    }
    // Global moves: flip spin i in all slices (slice couplings
    // unchanged, so only the problem term matters).
    for i in 0..n {
        batch.sweep_spin_global(problem, i, |r, d_total| {
            accept(-w_problem * d_total, &mut rngs[r])
        });
    }
    // Chain-collective moves, per slice: flip a whole embedding chain
    // within slice k (slice couplings of every member change).
    for c in 0..chains.len() {
        for k in 0..p {
            let (up, down) = (
                if k + 1 == p { 0 } else { k + 1 },
                if k == 0 { p - 1 } else { k - 1 },
            );
            batch.sweep_chain_slice(problem, chains, k, up, down, c, |r, d_problem, pair| {
                let d_f = -w_problem * d_problem - 2.0 * gamma * pair;
                accept(d_f, &mut rngs[r])
            });
        }
    }
    // Global chain moves: flip a chain in *all* slices at once.
    // Inter-slice couplings cancel, so this stays available even after
    // γ locks the replicas — it is the collective transition that
    // orders embedded problems late in the schedule (the SQA analogue
    // of the SA chain move in `sa::anneal_batch_compiled`).
    for c in 0..chains.len() {
        batch.sweep_chain_global(problem, chains, c, |r, d_total| {
            accept(-w_problem * d_total, &mut rngs[r])
        });
    }
}

/// Reads out replica `r`'s lowest-programmed-energy Trotter slice (each
/// slice's energy comes from its cached local fields in O(n)). Ties
/// resolve to the first minimal slice.
pub fn best_slice_batch(batch: &SqaReplicaBatch, r: usize) -> Vec<Spin> {
    let mut best = 0usize;
    let mut best_energy = batch.slice_energy(r, 0);
    for k in 1..batch.num_slices() {
        let e = batch.slice_energy(r, k);
        if e < best_energy {
            best = k;
            best_energy = e;
        }
    }
    batch.replica_slice(r, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamax_ising::{exact_ground_state, IsingProblem};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One anneal from a uniform-random start: a width-1 batch.
    fn anneal(p: &IsingProblem, fractions: &[f64], slices: usize, rng: &mut StdRng) -> Vec<Spin> {
        let c = CompiledProblem::new(p);
        let mut batch = SqaReplicaBatch::new();
        batch.reset_shared(&c, slices, 1);
        batch.init_replica_random(&c, 0, rng);
        let rngs = std::slice::from_mut(rng);
        anneal_batch_compiled(&c, &CompiledChains::default(), fractions, &mut batch, rngs);
        best_slice_batch(&batch, 0)
    }

    fn frustrated_problem() -> IsingProblem {
        // A small frustrated system with a unique ground state.
        let mut p = IsingProblem::new(6);
        p.set_linear(0, 0.4);
        p.set_linear(3, -0.3);
        p.set_coupling(0, 1, 1.0);
        p.set_coupling(1, 2, 1.0);
        p.set_coupling(0, 2, 1.0);
        p.set_coupling(2, 3, -0.8);
        p.set_coupling(3, 4, 0.6);
        p.set_coupling(4, 5, -1.0);
        p.set_coupling(0, 5, 0.5);
        p
    }

    fn ramp(n_sweeps: usize) -> Vec<f64> {
        (0..n_sweeps)
            .map(|k| (k as f64 + 0.5) / n_sweeps as f64)
            .collect()
    }

    #[test]
    fn finds_ground_state_of_frustrated_problem() {
        let p = frustrated_problem();
        let gs = exact_ground_state(&p);
        let mut rng = StdRng::seed_from_u64(1);
        let mut hits = 0;
        for _ in 0..50 {
            let s = anneal(&p, &ramp(300), 8, &mut rng);
            if (p.energy(&s) - gs.energy).abs() < 1e-9 {
                hits += 1;
            }
        }
        // Random guessing over 2^6 configurations would land ~1/64 ≈ 1.6%
        // of the time (≈ 1 hit in 50); require a ≥ 12× improvement.
        assert!(
            hits >= 10,
            "only {hits}/50 SQA anneals found the ground state"
        );
    }

    #[test]
    fn more_sweeps_help() {
        // Mean final energy, not ground-state hit rate: on a 6-spin
        // problem the best-of-P readout makes the hit rate nearly flat
        // in schedule length (short schedules read out P almost-
        // independent guesses), while the sampled energy distribution
        // robustly sharpens toward the ground state as the schedule
        // lengthens.
        let p = frustrated_problem();
        let mut rng = StdRng::seed_from_u64(2);
        let mut mean_energy = [0.0f64; 2];
        let trials = 200;
        for (idx, sweeps) in [3usize, 300].iter().enumerate() {
            for _ in 0..trials {
                let s = anneal(&p, &ramp(*sweeps), 6, &mut rng);
                mean_energy[idx] += p.energy(&s) / trials as f64;
            }
        }
        assert!(
            mean_energy[1] < mean_energy[0] - 0.02,
            "longer schedule should anneal deeper: {mean_energy:?}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let p = frustrated_problem();
        let a = anneal(&p, &ramp(30), 4, &mut StdRng::seed_from_u64(3));
        let b = anneal(&p, &ramp(30), 4, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn output_is_a_valid_configuration() {
        let p = frustrated_problem();
        let mut rng = StdRng::seed_from_u64(4);
        let s = anneal(&p, &ramp(10), 4, &mut rng);
        assert_eq!(s.len(), 6);
        assert!(s.iter().all(|&x| x == 1 || x == -1));
    }

    #[test]
    #[should_panic(expected = "Trotter")]
    fn one_slice_panics() {
        let p = frustrated_problem();
        let mut rng = StdRng::seed_from_u64(5);
        let _ = anneal(&p, &ramp(10), 1, &mut rng);
    }
}
