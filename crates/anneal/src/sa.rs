//! Metropolis simulated-annealing backend.
//!
//! One anneal = one trajectory: spins start uniformly random (the
//! classical image of the initial superposition), then sweep through
//! the schedule's temperature ladder; each sweep proposes one flip per
//! spin and accepts with the Metropolis rule `min(1, e^{−β·ΔE})`. The
//! paper's §2.2 frames SA as the canonical classical reference dynamics
//! for quantum annealers, and it is this simulator's default backend.

use crate::kernel::{CompiledChains, ReplicaBatch};
use quamax_ising::{CompiledProblem, IsingProblem, Spin};
use rand::Rng;

/// Runs the sweep plan over every replica of `batch`: per entry of
/// `betas`, one Metropolis sweep, then one *chain-collective* proposal
/// per chain. Each replica consumes its own RNG stream (`rngs[r]`), so
/// replica `r` is bit-identical to the same replica run alone at width
/// 1 from `rngs[r]`. The caller initializes the batch first — per
/// stream the draw order is refreeze → init → sweeps.
///
/// Chain moves exist for embedded problems: single-spin Metropolis
/// cannot cross the barrier of a ferromagnetically-locked chain within
/// a realistic sweep budget — on hardware that transition happens
/// collectively through quantum dynamics. Cluster proposals over the
/// known chains are the standard classical counterpart (and remain a
/// valid Metropolis kernel: the proposal set is fixed and symmetric).
/// Chain *breaking* still happens through the single-spin pass, so weak
/// `|J_F|` misbehaves exactly as on the device.
///
/// # Panics
/// Panics when `betas` is empty, when `rngs.len() != batch.width()`,
/// or when the width is not one of [`crate::kernel::SA_WIDTHS`].
pub fn anneal_batch_compiled<R: Rng>(
    problem: &CompiledProblem,
    chains: &CompiledChains,
    betas: &[f64],
    batch: &mut ReplicaBatch,
    rngs: &mut [R],
) {
    assert!(!betas.is_empty(), "empty sweep plan");
    assert_eq!(rngs.len(), batch.width(), "one RNG stream per replica");
    for &beta in betas {
        sweep_batch(problem, batch, beta, rngs);
        for c in 0..chains.len() {
            batch.sweep_chain(problem, chains, c, |r, delta| {
                metropolis(beta, delta, &mut rngs[r])
            });
        }
    }
}

/// One batched Metropolis sweep at inverse temperature `beta`: per
/// spin, in index order, one strip of per-replica accept decisions and
/// one shared CSR row walk (see [`ReplicaBatch::sweep_spins`]). Same
/// proposal order as the naive [`sweep`].
pub fn sweep_batch<R: Rng>(
    problem: &CompiledProblem,
    batch: &mut ReplicaBatch,
    beta: f64,
    rngs: &mut [R],
) {
    let rngs = &mut rngs[..batch.width()];
    batch.sweep_spins(problem, |_, r, delta| metropolis(beta, delta, &mut rngs[r]));
}

/// The Metropolis decision of the SA sweep: downhill moves accept
/// without drawing, deep-cold uphill moves reject without drawing (see
/// [`CERTAIN_REJECT_EXPONENT`]), everything in between draws one
/// uniform — so whether a stream advances depends only on
/// `(beta, delta)`.
#[inline]
pub(crate) fn metropolis<R: Rng + ?Sized>(beta: f64, delta: f64, rng: &mut R) -> bool {
    if delta <= 0.0 {
        return true;
    }
    let exponent = beta * delta;
    exponent < CERTAIN_REJECT_EXPONENT && rng.random::<f64>() < (-exponent).exp()
}

/// Energy change from flipping every spin of `chain` simultaneously:
/// `Δ = Σ_i flip_delta(i) + 4·Σ_{internal edges (a,b)} g_ab·s_a·s_b`
/// — the correction restores the internal-edge terms the per-spin
/// deltas double-count with the wrong sign. Valid for an arbitrary
/// spin set (internal edges are found from the problem graph, not
/// assumed to be the consecutive pairs of an embedding path).
pub fn chain_flip_delta(problem: &IsingProblem, spins: &[Spin], chain: &[usize]) -> f64 {
    let mut delta: f64 = chain.iter().map(|&i| problem.flip_delta(spins, i)).sum();
    // Embedding chains are short (≤ ~17); a linear membership scan
    // beats hashing at this size.
    for &i in chain {
        for &(j, g) in problem.neighbors(i) {
            if j > i && chain.contains(&j) {
                delta += 4.0 * g * (spins[i] as f64) * (spins[j] as f64);
            }
        }
    }
    delta
}

/// One Metropolis sweep at inverse temperature `beta`: proposes a flip
/// of every spin once, in index order.
///
/// Index order (not random order) keeps the inner loop branch-friendly
/// and is statistically equivalent for these dense/short-ranged
/// problems; the proposal distribution stays symmetric.
///
/// This is the *naive* reference kernel: each proposal recomputes the
/// local field from the adjacency list. The batch path uses
/// [`sweep_batch`]; the microbenches keep both to measure the gap.
pub fn sweep<R: Rng + ?Sized>(problem: &IsingProblem, spins: &mut [Spin], beta: f64, rng: &mut R) {
    for i in 0..spins.len() {
        let delta = problem.flip_delta(spins, i);
        if delta <= 0.0 || rng.random::<f64>() < (-beta * delta).exp() {
            spins[i] = -spins[i];
        }
    }
}

/// Exponent beyond which a Metropolis acceptance is *certainly*
/// rejected at f64-uniform resolution: `exp(−40) ≈ 4·10⁻¹⁸` is below
/// the `2⁻⁵³` granularity of the uniform draw, so skipping the draw
/// changes each proposal's acceptance probability by less than
/// `2⁻⁵³` while sparing the hot loop an `exp` and an RNG advance —
/// most cold-sweep proposals take this path. (Determinism is
/// unaffected: whether a draw is skipped depends only on ΔE.)
pub(crate) const CERTAIN_REJECT_EXPONENT: f64 = 40.0;

#[cfg(test)]
mod tests {
    use super::*;
    use quamax_ising::exact_ground_state;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ferro_chain(n: usize) -> IsingProblem {
        let mut p = IsingProblem::new(n);
        for i in 0..n - 1 {
            p.set_coupling(i, i + 1, -1.0);
        }
        p
    }

    /// One anneal from a uniform-random start: a width-1 batch.
    fn anneal(
        p: &IsingProblem,
        betas: &[f64],
        chains: &[Vec<usize>],
        rng: &mut StdRng,
    ) -> Vec<Spin> {
        let c = CompiledProblem::new(p);
        let mut batch = ReplicaBatch::new();
        batch.reset_shared(&c, 1);
        batch.init_replica_random(&c, 0, rng);
        let cc = CompiledChains::compile(&c, chains);
        anneal_batch_compiled(&c, &cc, betas, &mut batch, std::slice::from_mut(rng));
        batch.replica_spins(0)
    }

    #[test]
    fn cold_sweeps_reach_local_minimum() {
        // At β → ∞ Metropolis is greedy descent; a ferromagnetic chain
        // must end with no frustrated bond after enough sweeps.
        let p = ferro_chain(16);
        let mut rng = StdRng::seed_from_u64(1);
        let betas = vec![1e9; 64];
        let s = anneal(&p, &betas, &[], &mut rng);
        // Greedy descent on a chain can leave a domain wall, but the
        // energy must be at most one bond above the ground state.
        let gs = exact_ground_state(&ferro_chain(16));
        assert!(p.energy(&s) <= gs.energy + 2.0 + 1e-9);
    }

    #[test]
    fn annealed_chain_finds_ground_state_often() {
        let p = ferro_chain(12);
        let gs = exact_ground_state(&p);
        let mut rng = StdRng::seed_from_u64(2);
        // Geometric ladder from hot to cold.
        let betas: Vec<f64> = (0..60).map(|k| 0.05 * 1.15f64.powi(k)).collect();
        let mut hits = 0;
        for _ in 0..100 {
            let s = anneal(&p, &betas, &[], &mut rng);
            if (p.energy(&s) - gs.energy).abs() < 1e-9 {
                hits += 1;
            }
        }
        assert!(
            hits > 60,
            "only {hits}/100 anneals reached the ground state"
        );
    }

    #[test]
    fn hot_sweeps_decorrelate() {
        // At β = 0 every proposal is accepted: two consecutive sweeps
        // flip every spin twice... actually acceptance is certain, so
        // one sweep flips all spins deterministically. Check instead
        // that at tiny β the final state is near-uniform: average
        // magnetization over many anneals ≈ 0.
        let p = ferro_chain(10);
        let mut rng = StdRng::seed_from_u64(3);
        let betas = vec![1e-6; 3];
        let mut mag = 0i64;
        for _ in 0..2000 {
            let s = anneal(&p, &betas, &[], &mut rng);
            mag += s.iter().map(|&x| x as i64).sum::<i64>();
        }
        let avg = mag as f64 / (2000.0 * 10.0);
        assert!(avg.abs() < 0.05, "avg magnetization {avg}");
    }

    #[test]
    fn sweep_respects_detailed_balance_on_two_spins() {
        // Empirical check: long single-temperature simulation of a
        // 2-spin ferromagnet samples the Boltzmann distribution, under
        // the naive kernel and the batch kernel alike.
        let mut p = IsingProblem::new(2);
        p.set_coupling(0, 1, -1.0);
        let c = CompiledProblem::new(&p);
        let beta: f64 = 0.8;
        // P(aligned) = 2e^{β}/ (2e^{β} + 2e^{−β}) = 1/(1+e^{−2β}).
        let expect = 1.0 / (1.0 + (-2.0 * beta).exp());
        let iters = 200_000;
        for batched in [false, true] {
            let mut rngs = [StdRng::seed_from_u64(4)];
            let mut spins = vec![1i8, 1];
            let mut batch = ReplicaBatch::new();
            batch.reset_shared(&c, 1);
            batch.init_replica(&c, 0, &spins);
            let mut aligned = 0usize;
            for _ in 0..iters {
                let same = if batched {
                    sweep_batch(&c, &mut batch, beta, &mut rngs);
                    batch.spin(0, 0) == batch.spin(1, 0)
                } else {
                    sweep(&p, &mut spins, beta, &mut rngs[0]);
                    spins[0] == spins[1]
                };
                aligned += same as usize;
            }
            let got = aligned as f64 / iters as f64;
            assert!((got - expect).abs() < 0.01, "{batched}: {got} vs {expect}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let p = ferro_chain(8);
        let betas: Vec<f64> = (0..20).map(|k| 0.1 * k as f64).collect();
        let a = anneal(&p, &betas, &[], &mut StdRng::seed_from_u64(9));
        let b = anneal(&p, &betas, &[], &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn chain_flip_delta_matches_direct_difference() {
        let mut p = IsingProblem::new(6);
        p.set_linear(0, 0.7);
        p.set_linear(4, -0.9);
        // A path 0-1-2 plus outside couplings.
        p.set_coupling(0, 1, -2.0);
        p.set_coupling(1, 2, -2.0);
        p.set_coupling(2, 3, 0.8);
        p.set_coupling(0, 5, -0.4);
        p.set_coupling(3, 4, 1.1);
        let chain = vec![0usize, 1, 2];
        for k in 0..64u32 {
            let spins: Vec<Spin> = (0..6)
                .map(|i| if (k >> i) & 1 == 1 { 1 } else { -1 })
                .collect();
            let before = p.energy(&spins);
            let mut flipped = spins.clone();
            for &i in &chain {
                flipped[i] = -flipped[i];
            }
            let direct = p.energy(&flipped) - before;
            let fast = chain_flip_delta(&p, &spins, &chain);
            assert!((direct - fast).abs() < 1e-12, "k={k}: {direct} vs {fast}");
        }
    }

    #[test]
    fn chain_moves_cross_locked_barriers() {
        // Two strongly-bound 3-spin chains with a weak antiferromagnetic
        // inter-chain coupling and a small field: single-spin SA at cold
        // temperature gets stuck; chain moves fix it.
        let mut p = IsingProblem::new(6);
        for c in [0usize, 3] {
            p.set_coupling(c, c + 1, -5.0);
            p.set_coupling(c + 1, c + 2, -5.0);
        }
        p.set_coupling(2, 3, 0.5);
        p.set_linear(0, 0.3);
        let chains = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let gs = quamax_ising::exact_ground_state(&p);
        let betas: Vec<f64> = (0..30).map(|k| 0.5 * 1.2f64.powi(k)).collect();
        let mut rng = StdRng::seed_from_u64(11);
        let mut plain_hits = 0;
        let mut chained_hits = 0;
        // 150 trials: the true rates are ~24% plain vs ~86% chained, so
        // the 75% threshold below sits > 3σ from the chained mean.
        let trials = 150;
        for _ in 0..trials {
            let a = anneal(&p, &betas, &[], &mut rng);
            if (p.energy(&a) - gs.energy).abs() < 1e-9 {
                plain_hits += 1;
            }
            let b = anneal(&p, &betas, &chains, &mut rng);
            if (p.energy(&b) - gs.energy).abs() < 1e-9 {
                chained_hits += 1;
            }
        }
        assert!(
            chained_hits > plain_hits,
            "chain moves should help: plain {plain_hits} vs chained {chained_hits}"
        );
        assert!(
            chained_hits * 4 >= trials * 3,
            "chained SA should nearly always solve this: {chained_hits}/{trials}"
        );
    }

    #[test]
    #[should_panic(expected = "empty sweep plan")]
    fn empty_plan_panics() {
        let p = ferro_chain(2);
        let mut rng = StdRng::seed_from_u64(5);
        let _ = anneal(&p, &[], &[], &mut rng);
    }
}
