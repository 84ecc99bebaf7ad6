//! Solution-distribution statistics over a batch of anneals.
//!
//! A QA run returns `Na` configurations; the paper's analyses (Fig. 4,
//! Eq. 9) work with the induced *ranked solution distribution*:
//! distinct configurations sorted by Ising energy, each with its
//! frequency of occurrence. Tied distinct solutions are kept as
//! separate ranks, as the paper specifies (§5.1).

use quamax_ising::{Energy, Spin};
use std::collections::HashMap;

/// One distinct solution in a ranked distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct SolutionEntry {
    /// The spin configuration.
    pub spins: Vec<Spin>,
    /// Its energy under the problem used for ranking.
    pub energy: f64,
    /// How many of the `Na` anneals returned it.
    pub count: usize,
}

/// The ranked empirical solution distribution of one QA run.
#[derive(Clone, Debug, PartialEq)]
pub struct SolutionDistribution {
    entries: Vec<SolutionEntry>,
    total: usize,
}

impl SolutionDistribution {
    /// Ranks `samples` by energy under `problem` (ascending).
    ///
    /// The ranking problem is usually the *logical* problem, applied to
    /// unembedded samples — the paper computes solution energies "by
    /// substituting into the original Ising spin glass equation". Any
    /// [`Energy`] ranks: an `IsingProblem`, or an `IsingView` over a
    /// session's shared couplings.
    pub fn from_samples<P: Energy>(problem: &P, samples: &[Vec<Spin>]) -> Self {
        let mut counts: HashMap<&[Spin], usize> = HashMap::new();
        for s in samples {
            *counts.entry(s.as_slice()).or_insert(0) += 1;
        }
        let mut entries: Vec<SolutionEntry> = counts
            .into_iter()
            .map(|(spins, count)| SolutionEntry {
                spins: spins.to_vec(),
                energy: problem.energy(spins),
                count,
            })
            .collect();
        entries.sort_by(|a, b| {
            a.energy
                .partial_cmp(&b.energy)
                .expect("finite energies")
                .then_with(|| b.count.cmp(&a.count))
                .then_with(|| a.spins.cmp(&b.spins))
        });
        SolutionDistribution {
            entries,
            total: samples.len(),
        }
    }

    /// Ranked entries, ascending energy (rank 1 first).
    pub fn entries(&self) -> &[SolutionEntry] {
        &self.entries
    }

    /// Number of distinct solutions `L`.
    pub fn num_distinct(&self) -> usize {
        self.entries.len()
    }

    /// Total anneals `Na` behind this distribution.
    pub fn total_samples(&self) -> usize {
        self.total
    }

    /// Empirical probability `p(r)` of the rank-`r` solution
    /// (`r` is zero-based here; the paper's `r` is one-based).
    pub fn probability(&self, rank: usize) -> f64 {
        self.entries[rank].count as f64 / self.total as f64
    }

    /// The best (minimum) energy observed.
    pub fn best_energy(&self) -> Option<f64> {
        self.entries.first().map(|e| e.energy)
    }

    /// The best configuration observed — what a QuAMax run decodes to
    /// (§5.2.2: "we return the annealing solution with minimum energy
    /// among all anneals in that run" — this is the `Na → all` limit;
    /// per-run statistics use [`SolutionDistribution::probability`]).
    pub fn best_solution(&self) -> Option<&SolutionEntry> {
        self.entries.first()
    }

    /// Empirical probability that a single anneal lands within `tol`
    /// of `energy` — with `energy` = the exact ground energy this is
    /// the `P0` of the TTS metric (§5.2.1).
    pub fn probability_of_energy(&self, energy: f64, tol: f64) -> f64 {
        let hits: usize = self
            .entries
            .iter()
            .filter(|e| (e.energy - energy).abs() <= tol)
            .map(|e| e.count)
            .sum();
        hits as f64 / self.total as f64
    }

    /// Relative energy gap of each rank to the best observed energy,
    /// `ΔE(r) = (E_r − E_0)/|E_0|` — the blue annotations of Fig. 4.
    pub fn relative_gaps(&self) -> Vec<f64> {
        match self.best_energy() {
            None => Vec::new(),
            Some(e0) => {
                let denom = e0.abs().max(f64::MIN_POSITIVE);
                self.entries
                    .iter()
                    .map(|e| (e.energy - e0) / denom)
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamax_ising::IsingProblem;

    fn problem() -> IsingProblem {
        let mut p = IsingProblem::new(2);
        p.set_linear(0, 1.0);
        p.set_linear(1, -0.5);
        p.set_coupling(0, 1, 0.25);
        p
    }

    // Energies: [−1,−1]: −1+0.5+0.25 = −0.25; [−1,+1]: −1−0.5−0.25 = −1.75;
    // [+1,−1]: 1+0.5−0.25 = 1.25; [+1,+1]: 1−0.5+0.25 = 0.75.

    #[test]
    fn ranks_ascending_with_counts() {
        let p = problem();
        let samples = vec![
            vec![1, 1],
            vec![-1, 1],
            vec![-1, 1],
            vec![-1, -1],
            vec![1, -1],
            vec![-1, 1],
        ];
        let d = SolutionDistribution::from_samples(&p, &samples);
        assert_eq!(d.total_samples(), 6);
        assert_eq!(d.num_distinct(), 4);
        let energies: Vec<f64> = d.entries().iter().map(|e| e.energy).collect();
        assert_eq!(energies, vec![-1.75, -0.25, 0.75, 1.25]);
        assert_eq!(d.entries()[0].count, 3);
        assert!((d.probability(0) - 0.5).abs() < 1e-12);
        assert_eq!(d.best_energy(), Some(-1.75));
        assert_eq!(d.best_solution().unwrap().spins, vec![-1, 1]);
    }

    #[test]
    fn probability_of_energy_counts_hits() {
        let p = problem();
        let samples = vec![vec![-1, 1], vec![-1, 1], vec![1, 1], vec![1, -1]];
        let d = SolutionDistribution::from_samples(&p, &samples);
        assert!((d.probability_of_energy(-1.75, 1e-9) - 0.5).abs() < 1e-12);
        assert_eq!(d.probability_of_energy(-99.0, 1e-9), 0.0);
    }

    #[test]
    fn relative_gaps_are_nonnegative_and_start_at_zero() {
        let p = problem();
        let samples = vec![vec![-1, 1], vec![1, 1], vec![1, -1]];
        let d = SolutionDistribution::from_samples(&p, &samples);
        let gaps = d.relative_gaps();
        assert_eq!(gaps.len(), 3);
        assert_eq!(gaps[0], 0.0);
        assert!(gaps.iter().all(|&g| g >= 0.0));
        // (−0.25 … nothing here) second entry: (0.75 − (−1.75))/1.75.
        assert!((gaps[1] - 2.5 / 1.75).abs() < 1e-12);
    }

    #[test]
    fn distinct_solutions_with_equal_energy_stay_separate_ranks() {
        // Field-free two-spin ferromagnet: [−1,−1] and [1,1] tie.
        let mut p = IsingProblem::new(2);
        p.set_coupling(0, 1, -1.0);
        let samples = vec![vec![-1, -1], vec![1, 1], vec![1, 1]];
        let d = SolutionDistribution::from_samples(&p, &samples);
        assert_eq!(d.num_distinct(), 2);
        assert_eq!(d.entries()[0].energy, d.entries()[1].energy);
        // Higher count ranks first among ties.
        assert_eq!(d.entries()[0].count, 2);
    }

    #[test]
    fn empty_run() {
        let d = SolutionDistribution::from_samples(&problem(), &[]);
        assert_eq!(d.num_distinct(), 0);
        assert_eq!(d.best_energy(), None);
        assert!(d.relative_gaps().is_empty());
    }

    #[test]
    fn deterministic_ordering_for_ties() {
        let mut p = IsingProblem::new(2);
        p.set_coupling(0, 1, -1.0);
        let samples_a = vec![vec![-1, -1], vec![1, 1]];
        let samples_b = vec![vec![1, 1], vec![-1, -1]];
        let da = SolutionDistribution::from_samples(&p, &samples_a);
        let db = SolutionDistribution::from_samples(&p, &samples_b);
        assert_eq!(da, db, "sample order must not affect the ranking");
    }
}
