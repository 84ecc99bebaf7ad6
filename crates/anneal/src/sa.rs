//! Metropolis simulated-annealing backend.
//!
//! One anneal = one trajectory: spins start uniformly random (the
//! classical image of the initial superposition), then sweep through
//! the schedule's temperature ladder; each sweep proposes one flip per
//! spin and accepts with the Metropolis rule `min(1, e^{−β·ΔE})`. The
//! paper's §2.2 frames SA as the canonical classical reference dynamics
//! for quantum annealers, and it is this simulator's default backend.
//!
//! SA draws are counter-based ([`crate::draws`]): after its ICE
//! refreeze and initial spins, an anneal draws one key from its stream,
//! and the uniform of sweep `t` at site `i` is a pure hash of
//! `(key, t, i)`. A move is accepted iff `ΔE ≤ 0` or `u < e^{−β·ΔE}`.
//! Since no draw depends on the order of the others, the kernel decides
//! eight proposals of a color class at once, on the widest instruction
//! set the host has ([`crate::kernel::Isa`]), with the same result as
//! the one-at-a-time reference [`anneal_batch_reference`]. SQA keeps
//! the sequential [`metropolis`] draws.

use crate::draws;
use crate::kernel::{self, CompiledChains, Isa, ReplicaBatch};
use quamax_ising::{CompiledProblem, IsingProblem, Spin};
use quamax_linalg::rng::ExpZiggurat;
use rand::Rng;

/// Runs the sweep plan over every replica of `batch`: per entry `t` of
/// `betas`, one Metropolis sweep, then one *chain-collective* proposal
/// per chain. Replica `r` first draws its key from `rngs[r]` — the
/// caller has already bound and initialized the batch, so per stream
/// the draws are refreeze → init → key — and every decision after that
/// is counter-based, so replica `r` is bit-identical to the same
/// replica run alone at width 1 from `rngs[r]`. Runs on the host's
/// widest [`Isa`]; see [`ReplicaBatch::anneal`].
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
    let keys = kernel::draw_keys(rngs);
    batch.anneal(Isa::detect(), problem, chains, betas, &keys[..rngs.len()]);
}

/// The scalar reference of [`ReplicaBatch::anneal`]: the same sweep
/// plan under the same keys, deciding one proposal at a time with
/// [`draws::accept`] through [`ReplicaBatch::sweep_spins`] and
/// [`ReplicaBatch::sweep_chain`] (spin `i` at site `i`, chain `c` at
/// site `n + c`). Every instruction set of the vector kernel must
/// leave the same spins and field bits.
///
/// # Panics
/// Panics when `keys.len() != batch.width()` or the width is not one
/// of [`crate::kernel::SA_WIDTHS`].
pub fn anneal_batch_reference(
    problem: &CompiledProblem,
    chains: &CompiledChains,
    betas: &[f64],
    batch: &mut ReplicaBatch,
    keys: &[u64],
) {
    assert_eq!(keys.len(), batch.width(), "one key per replica");
    let n = problem.num_spins();
    for (t, &beta) in betas.iter().enumerate() {
        let t = t as u32;
        batch.sweep_spins(problem, |i, r, delta| {
            draws::accept(beta, delta, keys[r], t, i as u32)
        });
        for c in 0..chains.len() {
            batch.sweep_chain(problem, chains, c, |r, delta| {
                draws::accept(beta, delta, keys[r], t, (n + c) as u32)
            });
        }
    }
}

/// The sequential Metropolis decision of the SQA kernel (SQA's moves
/// use `beta = 1` on `−ΔF`): accept a move of energy change `delta`
/// with probability `min(1, e^{−β·Δ})`. Callers fetch `zig` once
/// ([`ExpZiggurat::get`]) and pass it to every decision.
///
/// Downhill moves accept without drawing and deep-cold uphill moves
/// reject without drawing (see [`CERTAIN_REJECT_EXPONENT`]); everything
/// in between draws one `E ~ Exp(1)` from the ziggurat `zig` and
/// accepts iff `β·Δ < E`. Since `P(E > x) = e^{−x}` this is exactly the
/// Metropolis kernel, with no `exp` on the path. Whether a stream
/// advances depends only on `(beta, delta)`. SA decides by the
/// counter-based [`draws::accept`] instead.
#[inline]
pub fn metropolis<R: Rng + ?Sized>(beta: f64, delta: f64, rng: &mut R, zig: &ExpZiggurat) -> bool {
    if delta <= 0.0 {
        return true;
    }
    let exponent = beta * delta;
    exponent < CERTAIN_REJECT_EXPONENT && exponent < zig.sample(rng)
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
/// of every spin once, in `order` — the problem's color-class order
/// ([`CompiledProblem::sweep_order`]), the order the batch kernel walks
/// — deciding each by [`draws::accept`] as sweep `t` of the anneal
/// keyed `key`.
///
/// The order is not a free choice on embedded problems: at the uplink
/// operating point (48-user BPSK, 4 sweeps/µs) class order leaves about
/// a third of the broken chains that index order did. Inside a class no
/// two spins are coupled and each spin's draw is its own, so the order
/// within a class changes nothing, not even which uniforms are used.
///
/// This is the *naive* reference kernel: each proposal recomputes the
/// local field from the adjacency list; `bench_kernel` keeps it to
/// measure the gap to [`anneal_batch_compiled`].
///
/// # Panics
/// Panics when `order` names a spin out of range.
pub fn sweep(
    problem: &IsingProblem,
    order: &[u32],
    spins: &mut [Spin],
    beta: f64,
    key: u64,
    t: u32,
) {
    for &i in order {
        let delta = problem.flip_delta(spins, i as usize);
        if draws::accept(beta, delta, key, t, i) {
            spins[i as usize] = -spins[i as usize];
        }
    }
}

/// Exponent beyond which a Metropolis acceptance is *certainly*
/// rejected: `e^{−40} ≈ 4·10⁻¹⁸`. [`metropolis`] skips its draw there
/// (the move would need `E > 40`), which changes each such proposal's
/// acceptance probability by less than that while sparing the hot loop
/// an RNG advance; for [`draws::accept`] it is exact, since `e^{−40}`
/// is below the smallest counter-based uniform, `2⁻⁵³`.
pub const CERTAIN_REJECT_EXPONENT: f64 = 40.0;

#[cfg(test)]
mod tests {
    use super::*;
    use quamax_ising::exact_ground_state;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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
        batch.reset_shared(&c, 1, 1);
        batch.init_replica_random(&c, 0, rng);
        let cc = CompiledChains::compile(&c, chains);
        anneal_batch_compiled(&c, &cc, betas, &mut batch, std::slice::from_mut(rng));
        batch.replica_spins(0, 0)
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
            batch.reset_shared(&c, 1, 1);
            batch.init_replica(&c, 0, 0, &spins);
            let mut aligned = 0usize;
            for _ in 0..iters {
                let same = if batched {
                    let no_chains = CompiledChains::default();
                    anneal_batch_compiled(&c, &no_chains, &[beta], &mut batch, &mut rngs);
                    batch.spin(0, 0) == batch.spin(1, 0)
                } else {
                    let key = rngs[0].next_u64();
                    sweep(&p, c.sweep_order(), &mut spins, beta, key, 0);
                    spins[0] == spins[1]
                };
                aligned += same as usize;
            }
            let got = aligned as f64 / iters as f64;
            assert!((got - expect).abs() < 0.01, "{batched}: {got} vs {expect}");
        }
    }

    /// Runs the naive sweep, the batch's spin sweeps, and the batch's
    /// spin sweeps plus chain moves over `chain` on `p` at a fixed β:
    /// eight independent streams per kernel, a state recorded every 8th
    /// sweep after a burn-in. The χ² of each kernel's histogram over
    /// all `2^n` states against `e^{−βE}/Z` must stay under `critical`,
    /// the p = 0.001 critical value for `2^n − 1` degrees of freedom.
    fn assert_samples_boltzmann(p: &IsingProblem, beta: f64, chain: &[usize], critical: f64) {
        let n = p.num_spins();
        let c = CompiledProblem::new(p);
        let state = |s: &[Spin]| -> usize {
            s.iter()
                .enumerate()
                .map(|(i, &x)| ((x > 0) as usize) << i)
                .sum()
        };
        let weights: Vec<f64> = (0..1usize << n)
            .map(|k| {
                let s: Vec<Spin> = (0..n)
                    .map(|i| if (k >> i) & 1 == 1 { 1 } else { -1 })
                    .collect();
                (-beta * p.energy(&s)).exp()
            })
            .collect();
        let z: f64 = weights.iter().sum();
        let (width, burn_in, thin, records) = (8usize, 64, 8, 4_000);
        for kernel in ["naive", "spins", "spins + chain"] {
            let chains = if kernel == "spins + chain" {
                vec![chain.to_vec()]
            } else {
                Vec::new()
            };
            let cc = CompiledChains::compile(&c, &chains);
            let mut rngs: Vec<StdRng> = (0..width)
                .map(|r| StdRng::seed_from_u64(500 + r as u64))
                .collect();
            let mut batch = ReplicaBatch::new();
            batch.reset_shared(&c, 1, width);
            let mut naive: Vec<Vec<Spin>> = vec![vec![1; n]; width];
            for (r, rng) in rngs.iter_mut().enumerate() {
                batch.init_replica_random(&c, r, rng);
            }
            let mut counts = vec![0usize; 1 << n];
            for step in 0..burn_in + thin * records {
                if kernel == "naive" {
                    for (spins, rng) in naive.iter_mut().zip(rngs.iter_mut()) {
                        sweep(p, c.sweep_order(), spins, beta, rng.next_u64(), 0);
                    }
                } else {
                    anneal_batch_compiled(&c, &cc, &[beta], &mut batch, &mut rngs);
                }
                if step >= burn_in && (step - burn_in) % thin == 0 {
                    for (r, spins) in naive.iter().enumerate() {
                        let s = if kernel == "naive" {
                            spins.clone()
                        } else {
                            batch.replica_spins(r, 0)
                        };
                        counts[state(&s)] += 1;
                    }
                }
            }
            let total = (width * records) as f64;
            let chi2: f64 = counts
                .iter()
                .zip(&weights)
                .map(|(&got, &w)| {
                    let expect = total * w / z;
                    (got as f64 - expect).powi(2) / expect
                })
                .sum();
            assert!(chi2 < critical, "{kernel}: χ² = {chi2}, counts {counts:?}");
        }
    }

    /// The one accept rule samples the exact Boltzmann distribution at
    /// a fixed β: a 3-spin frustrated triangle whose spins 0 and 1 form
    /// a chain. Every color class of a triangle holds one spin.
    #[test]
    fn metropolis_samples_the_exact_boltzmann_distribution() {
        let mut p = IsingProblem::new(3);
        p.set_coupling(0, 1, -1.0);
        p.set_coupling(1, 2, 0.6);
        p.set_coupling(0, 2, -0.4);
        p.set_linear(0, 0.3);
        p.set_linear(2, -0.5);
        // 7 degrees of freedom.
        assert_samples_boltzmann(&p, 0.9, &[0, 1], 24.32);
    }

    /// The same on a bipartite problem, where the spin pass proposes two
    /// classes of two spins: a 4-cycle with fields whose spins 0 and 1
    /// form a chain.
    #[test]
    fn class_order_samples_the_exact_boltzmann_distribution_on_a_bipartite_problem() {
        let mut p = IsingProblem::new(4);
        p.set_coupling(0, 1, -1.0);
        p.set_coupling(1, 2, 0.7);
        p.set_coupling(2, 3, -0.5);
        p.set_coupling(0, 3, 0.4);
        p.set_linear(0, 0.3);
        p.set_linear(1, -0.2);
        p.set_linear(3, 0.6);
        let c = CompiledProblem::new(&p);
        let classes: Vec<&[u32]> = c.color_classes().collect();
        assert_eq!(classes, [&[0, 2][..], &[1, 3][..]]);
        // 15 degrees of freedom.
        assert_samples_boltzmann(&p, 0.8, &[0, 1], 37.70);
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
