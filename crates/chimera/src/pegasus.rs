//! Analytic model of the Pegasus next-generation topology (paper §8).
//!
//! The paper's Future Work anticipates annealers "featuring qubits with
//! 2× the degree of Chimera, 2× the number of qubits and with longer
//! range couplings", where clique chains shrink to `N/12 + 1` qubits.
//! That hardware (D-Wave's Pegasus `P_m` family) arrived as forecast;
//! this module models its *embedding arithmetic* — footprints,
//! feasibility, parallelization — without simulating dynamics on the
//! full graph, which the experiments do not require. It powers the
//! forward-looking capacity analysis in the bench harness
//! (`future_topologies`).

/// Analytic description of a Pegasus-generation chip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PegasusModel {
    /// Grid parameter `m` (production chip: `P16`).
    pub m: usize,
}

impl PegasusModel {
    /// The production `P16` (D-Wave Advantage generation).
    pub fn p16() -> Self {
        PegasusModel { m: 16 }
    }

    /// Total qubit sites: `24·m·(m−1)` (5,760 for P16; production chips
    /// yield slightly fewer after defects, as with Chimera).
    pub fn total_qubits(&self) -> usize {
        24 * self.m * (self.m - 1)
    }

    /// Largest complete graph with a native clique embedding:
    /// `12·(m−1)` (180 logical variables on P16).
    pub fn max_clique(&self) -> usize {
        12 * (self.m - 1)
    }

    /// Chain length of the clique embedding: `⌈n/12⌉ + 1`
    /// (the paper's "each chain now only requires N/12 + 1 qubits").
    pub fn chain_len(&self, n: usize) -> usize {
        n.div_ceil(12) + 1
    }

    /// Physical qubits used by an `n`-variable clique embedding.
    pub fn clique_qubit_cost(&self, n: usize) -> usize {
        n * self.chain_len(n)
    }

    /// Whether an `n`-variable fully-connected problem embeds at all.
    pub fn fits(&self, n: usize) -> bool {
        n > 0 && n <= self.max_clique()
    }

    /// Asymptotic parallelization factor (copies by qubit budget).
    pub fn parallelization_asymptotic(&self, n: usize) -> f64 {
        if !self.fits(n) {
            return 0.0;
        }
        self.total_qubits() as f64 / self.clique_qubit_cost(n) as f64
    }

    /// Largest number of users supportable at `bits_per_symbol` (the
    /// `N = Nt·log₂|O|` inversion): e.g. BPSK users = max_clique,
    /// QPSK users = max_clique/2.
    pub fn max_users(&self, bits_per_symbol: usize) -> usize {
        assert!(bits_per_symbol > 0);
        self.max_clique() / bits_per_symbol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p16_capacity() {
        let p = PegasusModel::p16();
        assert_eq!(p.total_qubits(), 5760);
        assert_eq!(p.max_clique(), 180);
        // BPSK: 180 users; QPSK: 90; 16-QAM: 45 users.
        assert_eq!(p.max_users(1), 180);
        assert_eq!(p.max_users(2), 90);
        assert_eq!(p.max_users(4), 45);
    }

    #[test]
    fn chains_are_shorter_than_chimera() {
        let p = PegasusModel::p16();
        for n in [12usize, 48, 96, 180] {
            assert!(p.chain_len(n) < crate::clique_chain_len(n), "n={n}");
            assert_eq!(p.chain_len(n), n.div_ceil(12) + 1);
        }
    }

    #[test]
    fn footprint_and_feasibility() {
        let p = PegasusModel::p16();
        // 96 logical (48-user QPSK): chains of 9, 864 qubits.
        assert_eq!(p.clique_qubit_cost(96), 96 * 9);
        assert!(p.fits(180));
        assert!(!p.fits(181));
        assert!(!p.fits(0));
        // The paper's §8 "175×175 QPSK" forecast corresponds to N=350
        // logical variables — beyond P16's native clique, so the
        // forecast over-estimates the announced hardware.
        assert!(!p.fits(350));
    }

    #[test]
    fn parallelization_scales_with_size() {
        let p = PegasusModel::p16();
        // Small problems amortize heavily…
        assert!(p.parallelization_asymptotic(16) > 50.0);
        // …full-clique problems fit about once.
        let full = p.parallelization_asymptotic(180);
        assert!((1.0..3.0).contains(&full));
        assert_eq!(p.parallelization_asymptotic(200), 0.0);
    }
}
