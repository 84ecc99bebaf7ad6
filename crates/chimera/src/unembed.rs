//! Majority-vote unembedding (§3.3, "Unembedding with majority voting").
//!
//! After an anneal, each logical variable's value is read from its chain
//! of physical qubits. When a chain is *broken* (not all spins agree),
//! the logical value is taken by majority vote; exact ties are
//! randomized, as on the real machine. Chain-break statistics are
//! surfaced because they are the observable that makes small `|J_F|`
//! fail in Fig. 5.

use crate::embedded::EmbeddedProblem;
use quamax_ising::Spin;
use rand::Rng;

/// The result of unembedding one anneal readout.
#[derive(Clone, Debug, PartialEq)]
pub struct UnembedOutcome {
    /// Logical spin configuration.
    pub logical: Vec<Spin>,
    /// Number of chains whose qubits disagreed.
    pub broken_chains: usize,
    /// Number of chains decided by a coin flip (exact vote ties).
    pub tie_breaks: usize,
}

/// Reads a physical configuration back into logical variables by
/// majority vote over each chain.
///
/// Exact vote ties (possible only on even-length chains) are broken
/// randomly, as on the real machine — but *order-independently*: one
/// base draw is taken from `rng` on the first tie of a readout, and
/// chain `k`'s coin is then `splitmix(base, k)`. A given chain's
/// tie-break therefore depends only on the RNG state at entry and its
/// own chain index, never on how many *other* chains happened to tie
/// in the same readout (the old one-draw-per-tie scheme shifted every
/// later tie's coin when an earlier chain's break pattern changed).
///
/// # Panics
/// Panics when `physical.len()` differs from the embedded problem's
/// physical size.
pub fn unembed_majority_vote<R: Rng + ?Sized>(
    embedded: &EmbeddedProblem,
    physical: &[Spin],
    rng: &mut R,
) -> UnembedOutcome {
    assert_eq!(
        physical.len(),
        embedded.num_physical(),
        "physical configuration length mismatch"
    );
    let mut logical = Vec::with_capacity(embedded.chains().len());
    let mut broken = 0;
    let mut ties = 0;
    let mut tie_base: Option<u64> = None;
    for (k, chain) in embedded.chains().iter().enumerate() {
        let sum: i32 = chain.iter().map(|&d| physical[d] as i32).sum();
        let first = physical[chain[0]];
        let intact = chain.iter().all(|&d| physical[d] == first);
        if !intact {
            broken += 1;
        }
        let value = match sum.cmp(&0) {
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => {
                ties += 1;
                let base = *tie_base.get_or_insert_with(|| rng.next_u64());
                if splitmix(base, k as u64) & 1 == 0 {
                    1
                } else {
                    -1
                }
            }
        };
        logical.push(value);
    }
    UnembedOutcome {
        logical,
        broken_chains: broken,
        tie_breaks: ties,
    }
}

/// SplitMix64 of `(base, k)` — the per-chain tie-break stream.
fn splitmix(base: u64, k: u64) -> u64 {
    let mut z = base ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::CliqueEmbedding;
    use crate::embedded::EmbedParams;
    use crate::graph::ChimeraGraph;
    use quamax_ising::IsingProblem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> EmbeddedProblem {
        let g = ChimeraGraph::dw2q_ideal();
        let e = CliqueEmbedding::new(&g, n).unwrap();
        let mut logical = IsingProblem::new(n);
        for i in 0..n {
            logical.set_linear(i, 0.1 * i as f64 - 0.2);
            for j in (i + 1)..n {
                logical.set_coupling(i, j, 0.05 * (i + j) as f64);
            }
        }
        EmbeddedProblem::compile(&g, &e, &logical, EmbedParams::default())
    }

    #[test]
    fn intact_chains_read_out_exactly() {
        let emb = setup(8);
        let mut rng = StdRng::seed_from_u64(1);
        let target: Vec<Spin> = (0..8).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        let mut phys = vec![0i8; emb.num_physical()];
        for (i, chain) in emb.chains().iter().enumerate() {
            for &d in chain {
                phys[d] = target[i];
            }
        }
        let out = unembed_majority_vote(&emb, &phys, &mut rng);
        assert_eq!(out.logical, target);
        assert_eq!(out.broken_chains, 0);
        assert_eq!(out.tie_breaks, 0);
    }

    #[test]
    fn majority_wins_on_broken_chain() {
        let emb = setup(8); // chain length 3: breaks cannot tie
        let mut rng = StdRng::seed_from_u64(2);
        let mut phys = vec![1i8; emb.num_physical()];
        // Flip one qubit of chain 0 (length 3): majority stays +1.
        phys[emb.chains()[0][1]] = -1;
        let out = unembed_majority_vote(&emb, &phys, &mut rng);
        assert_eq!(out.logical[0], 1);
        assert_eq!(out.broken_chains, 1);
        assert_eq!(out.tie_breaks, 0);
        // Flip two of three: majority flips.
        phys[emb.chains()[0][2]] = -1;
        let out = unembed_majority_vote(&emb, &phys, &mut rng);
        assert_eq!(out.logical[0], -1);
        assert_eq!(out.broken_chains, 1);
    }

    #[test]
    fn exact_ties_are_randomized_but_deterministic_per_seed() {
        // n=12 → chain length 4: a 2–2 split ties.
        let emb = setup(12);
        let mut phys = vec![1i8; emb.num_physical()];
        let chain0 = emb.chains()[0].clone();
        phys[chain0[0]] = -1;
        phys[chain0[1]] = -1;
        let a = unembed_majority_vote(&emb, &phys, &mut StdRng::seed_from_u64(3));
        let b = unembed_majority_vote(&emb, &phys, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b, "same seed, same tie-break");
        assert_eq!(a.tie_breaks, 1);
        assert_eq!(a.broken_chains, 1);
        // Across seeds, both outcomes occur.
        let mut saw = std::collections::HashSet::new();
        for seed in 0..32 {
            let out = unembed_majority_vote(&emb, &phys, &mut StdRng::seed_from_u64(seed));
            saw.insert(out.logical[0]);
        }
        assert_eq!(saw.len(), 2, "tie-break never explored both values");
    }

    #[test]
    fn tie_break_is_independent_of_other_chains() {
        // Regression: under the old one-draw-per-tie scheme, chain 5's
        // coin came from a different stream position depending on
        // whether chain 0 also tied — the same chain, same physical
        // spins, read out differently because of an unrelated chain.
        // n=12 → chain length 4: a 2–2 split ties.
        let emb = setup(12);
        let chain0 = emb.chains()[0].clone();
        let chain5 = emb.chains()[5].clone();

        // Readout A: only chain 5 ties.
        let mut only5 = vec![1i8; emb.num_physical()];
        only5[chain5[0]] = -1;
        only5[chain5[1]] = -1;
        // Readout B: chains 0 and 5 both tie.
        let mut both = only5.clone();
        both[chain0[0]] = -1;
        both[chain0[1]] = -1;

        for seed in 0..64 {
            let a = unembed_majority_vote(&emb, &only5, &mut StdRng::seed_from_u64(seed));
            let b = unembed_majority_vote(&emb, &both, &mut StdRng::seed_from_u64(seed));
            assert_eq!(a.tie_breaks, 1);
            assert_eq!(b.tie_breaks, 2);
            assert_eq!(
                a.logical[5], b.logical[5],
                "seed {seed}: chain 5's tie-break flipped because chain 0 tied"
            );
        }
    }

    #[test]
    fn break_fraction() {
        let emb = setup(8);
        let mut rng = StdRng::seed_from_u64(4);
        let mut phys = vec![1i8; emb.num_physical()];
        phys[emb.chains()[3][0]] = -1;
        phys[emb.chains()[5][0]] = -1;
        let out = unembed_majority_vote(&emb, &phys, &mut rng);
        assert_eq!(out.broken_chains, 2);
        assert!((out.broken_chains as f64 / out.logical.len() as f64 - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_physical_length_panics() {
        let emb = setup(8);
        let mut rng = StdRng::seed_from_u64(5);
        let _ = unembed_majority_vote(&emb, &[1, -1], &mut rng);
    }
}
