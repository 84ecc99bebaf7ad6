//! Exhaustive exact solvers — the ground truth behind every correctness
//! claim in this reproduction.
//!
//! Enumeration is Gray-coded: consecutive configurations differ in one
//! spin, so each step costs one `flip_delta` (`O(degree)`) instead of a
//! full `O(n + edges)` energy evaluation. That puts 2²⁰-configuration
//! searches (20-spin problems, e.g. 10-user QPSK) within easy reach of a
//! test suite.

use crate::spins::GrayCodeSpins;
use crate::{IsingProblem, Spin};

/// The result of an exhaustive ground-state search.
#[derive(Clone, Debug, PartialEq)]
pub struct ExactSolution {
    /// The minimum energy found.
    pub energy: f64,
    /// All configurations achieving it (ties are rare but physical —
    /// e.g. the global spin-flip symmetry of field-free problems).
    pub ground_states: Vec<Vec<Spin>>,
}

/// One entry of a full solution ranking (paper Fig. 4's x-axis).
#[derive(Clone, Debug, PartialEq)]
pub struct RankedSolution {
    /// A representative configuration at this energy.
    pub spins: Vec<Spin>,
    /// Its Ising energy.
    pub energy: f64,
    /// Number of distinct configurations sharing this energy (within
    /// the tie tolerance).
    pub degeneracy: usize,
}

/// Exhaustively finds the ground state(s) of `problem`.
///
/// Energies within `1e-9·max(1, |E_min|)` of the minimum count as tied.
///
/// # Panics
/// Panics for problems larger than 30 spins — beyond that exhaustive
/// search stops being a test-suite tool. (The paper's Table 1 makes the
/// same point about classical ML detection generally.)
pub fn exact_ground_state(problem: &IsingProblem) -> ExactSolution {
    let n = problem.num_spins();
    assert!(
        n <= 30,
        "exhaustive search capped at 30 spins (asked for {n})"
    );
    if n == 0 {
        return ExactSolution {
            energy: 0.0,
            ground_states: vec![Vec::new()],
        };
    }

    let mut enumerator = GrayCodeSpins::new(n);
    enumerator.advance(); // all −1
    let mut energy = problem.energy(enumerator.config());
    let mut best = energy;
    let mut ground_states = vec![enumerator.config().to_vec()];

    while let Some(flip) = enumerator.advance() {
        energy += problem.flip_delta_pre(enumerator.config(), flip);
        let tol = 1e-9 * best.abs().max(1.0);
        if energy < best - tol {
            best = energy;
            ground_states.clear();
            ground_states.push(enumerator.config().to_vec());
        } else if energy <= best + tol {
            ground_states.push(enumerator.config().to_vec());
        }
    }
    ExactSolution {
        energy: best,
        ground_states,
    }
}

impl IsingProblem {
    /// `flip_delta` evaluated *after* the flip has been applied to
    /// `spins`: the energy change of having flipped spin `i` into its
    /// current state. Used by Gray-code enumeration, which mutates the
    /// configuration before the energy update.
    #[inline]
    fn flip_delta_pre(&self, spins_after: &[Spin], i: usize) -> f64 {
        // ΔE for arriving at the current state = −ΔE for leaving it.
        -self.flip_delta(spins_after, i)
    }
}

/// Exhaustively ranks **all** `2^n` configurations by energy, merging
/// ties, in ascending energy order — the ground-truth counterpart of
/// the annealer's empirical solution ranking (Fig. 4).
///
/// `tie_tol` merges energies within that absolute tolerance.
///
/// # Panics
/// Panics for problems larger than 24 spins (the full ranking keeps all
/// configurations in memory).
pub fn rank_all_solutions(problem: &IsingProblem, tie_tol: f64) -> Vec<RankedSolution> {
    let n = problem.num_spins();
    assert!(n <= 24, "full ranking capped at 24 spins (asked for {n})");
    let mut entries: Vec<(f64, Vec<Spin>)> = Vec::with_capacity(1 << n);

    let mut enumerator = GrayCodeSpins::new(n);
    enumerator.advance();
    let mut energy = problem.energy(enumerator.config());
    entries.push((energy, enumerator.config().to_vec()));
    while let Some(flip) = enumerator.advance() {
        energy += problem.flip_delta_pre(enumerator.config(), flip);
        entries.push((energy, enumerator.config().to_vec()));
    }

    entries.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("energies are finite"));
    let mut ranked: Vec<RankedSolution> = Vec::new();
    for (e, spins) in entries {
        match ranked.last_mut() {
            Some(last) if (e - last.energy).abs() <= tie_tol => last.degeneracy += 1,
            _ => ranked.push(RankedSolution {
                spins,
                energy: e,
                degeneracy: 1,
            }),
        }
    }
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_spin_ground_state_follows_field() {
        let mut p = IsingProblem::new(1);
        p.set_linear(0, 2.0); // positive field prefers s = −1
        let sol = exact_ground_state(&p);
        assert_eq!(sol.ground_states, vec![vec![-1]]);
        assert_eq!(sol.energy, -2.0);
    }

    #[test]
    fn ferromagnetic_pair_has_two_ground_states() {
        let mut p = IsingProblem::new(2);
        p.set_coupling(0, 1, -1.0); // negative coupling prefers alignment
        let sol = exact_ground_state(&p);
        assert_eq!(sol.energy, -1.0);
        assert_eq!(sol.ground_states.len(), 2);
        for gs in &sol.ground_states {
            assert_eq!(gs[0], gs[1]);
        }
    }

    #[test]
    fn antiferromagnetic_triangle_is_frustrated() {
        // Three +1 couplings on a triangle cannot all be satisfied: the
        // ground energy is −1 (two satisfied, one violated), with 6
        // degenerate ground states.
        let mut p = IsingProblem::new(3);
        p.set_coupling(0, 1, 1.0);
        p.set_coupling(1, 2, 1.0);
        p.set_coupling(0, 2, 1.0);
        let sol = exact_ground_state(&p);
        assert_eq!(sol.energy, -1.0);
        assert_eq!(sol.ground_states.len(), 6);
    }

    #[test]
    fn incremental_energies_match_direct_evaluation() {
        // Random-ish problem; compare the Gray-code incremental energy
        // path against direct evaluation for every configuration.
        let mut p = IsingProblem::new(6);
        let mut seed = 7u64;
        let mut next = move || {
            // xorshift: deterministic coefficients without a rand dep.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 1000) as f64 / 250.0 - 2.0
        };
        for i in 0..6 {
            p.set_linear(i, next());
            for j in (i + 1)..6 {
                p.set_coupling(i, j, next());
            }
        }
        let mut e = GrayCodeSpins::new(6);
        e.advance();
        let mut energy = p.energy(e.config());
        while let Some(flip) = e.advance() {
            energy += p.flip_delta_pre(e.config(), flip);
            let direct = p.energy(e.config());
            assert!((energy - direct).abs() < 1e-9, "{energy} vs {direct}");
        }
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let mut p = IsingProblem::new(4);
        p.set_linear(0, 0.3);
        p.set_linear(2, -0.7);
        p.set_coupling(0, 1, 1.1);
        p.set_coupling(2, 3, -0.4);
        let ranked = rank_all_solutions(&p, 1e-9);
        let total: usize = ranked.iter().map(|r| r.degeneracy).sum();
        assert_eq!(total, 16);
        for w in ranked.windows(2) {
            assert!(w[0].energy < w[1].energy);
        }
        // First entry agrees with the exact ground state.
        let sol = exact_ground_state(&p);
        assert!((ranked[0].energy - sol.energy).abs() < 1e-12);
    }

    #[test]
    fn field_free_problem_ranking_has_even_degeneracies() {
        // Global spin-flip symmetry: every energy level of a field-free
        // problem has even degeneracy.
        let mut p = IsingProblem::new(4);
        p.set_coupling(0, 1, 0.5);
        p.set_coupling(1, 2, -1.0);
        p.set_coupling(2, 3, 0.8);
        for r in rank_all_solutions(&p, 1e-9) {
            assert_eq!(r.degeneracy % 2, 0, "level {} has odd degeneracy", r.energy);
        }
    }

    #[test]
    fn empty_problem() {
        let sol = exact_ground_state(&IsingProblem::new(0));
        assert_eq!(sol.energy, 0.0);
        assert_eq!(sol.ground_states.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capped at 30")]
    fn oversized_search_panics() {
        let p = IsingProblem::new(31);
        let _ = exact_ground_state(&p);
    }
}
