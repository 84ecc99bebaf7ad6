//! Couplings held once and shared: the form a coherence interval's
//! logical problems take when only their fields change.
//!
//! [`UpperCouplings`] keeps the couplings `g_ij` of every pair `i < j`
//! as one row-major vector — the order the chip's coupler slots are
//! programmed in — and an [`IsingView`] is one input's problem: those
//! couplings, shared by `Arc`, plus its own fields. Its
//! [`IsingView::energy`] sums in [`IsingProblem::energy`]'s order, so
//! the two agree bit for bit, and [`IsingView::to_ising`] rebuilds the
//! adjacency-list problem for oracles and one-off embeddings.

use crate::{IsingProblem, Spin};
use std::sync::Arc;

/// A problem whose energy ranks configurations: what
/// `SolutionDistribution::from_samples` reads.
pub trait Energy {
    /// The total energy `E(s)` of a configuration (Eq. 2).
    fn energy(&self, spins: &[Spin]) -> f64;
}

impl Energy for IsingProblem {
    fn energy(&self, spins: &[Spin]) -> f64 {
        IsingProblem::energy(self, spins)
    }
}

/// Which pairs the [`IsingProblem`] form of an [`UpperCouplings`] lists
/// as couplings. An unlisted pair is held as `+0.0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Listed {
    /// Every pair whose spins lie in different blocks of this many
    /// consecutive spins, whatever its value (`1`: every pair).
    AcrossBlocks(usize),
    /// Every pair whose coupling is not exactly zero.
    Nonzero,
}

impl Listed {
    fn lists(self, i: usize, j: usize, g: f64) -> bool {
        match self {
            Listed::AcrossBlocks(block) => i / block != j / block,
            Listed::Nonzero => g != 0.0,
        }
    }
}

/// The couplings `g_ij` of every pair `i < j` of `n` spins, row-major:
/// `(0, 1), (0, 2), …, (0, n−1), (1, 2), …`.
#[derive(Clone, Debug, PartialEq)]
pub struct UpperCouplings {
    n: usize,
    values: Vec<f64>,
    listed: Listed,
}

impl UpperCouplings {
    /// The couplings `coupling(i, j)` returns, asked once per pair in
    /// row-major order; a pair `listed` leaves out is held as `+0.0`.
    pub fn from_fn(
        n: usize,
        listed: Listed,
        mut coupling: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut values = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                let g = coupling(i, j);
                values.push(if listed.lists(i, j, g) { g } else { 0.0 });
            }
        }
        UpperCouplings { n, values, listed }
    }

    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.n
    }

    /// Every pair's coupling, row-major.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The listed couplings, row-major, as `(i, j, g)`.
    pub fn listed(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let n = self.n;
        (0..n)
            .flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)))
            .zip(&self.values)
            .filter(|&((i, j), &g)| self.listed.lists(i, j, g))
            .map(|((i, j), &g)| (i, j, g))
    }

    /// `E(s)` with these couplings and `fields`, summed as
    /// [`IsingProblem::energy`] sums it: an unlisted pair adds a signed
    /// zero to a sum that is never `−0.0`, which leaves it unchanged.
    ///
    /// # Panics
    /// Panics when `fields` or `spins` is not `n` long.
    pub fn energy(&self, fields: &[f64], spins: &[Spin]) -> f64 {
        assert_eq!(fields.len(), self.n, "field count mismatch");
        assert_eq!(spins.len(), self.n, "configuration length mismatch");
        debug_assert!(spins.iter().all(|&s| s == 1 || s == -1));
        let mut e = 0.0;
        let mut row = self.values.as_slice();
        for (i, &s) in spins.iter().enumerate() {
            e += fields[i] * s as f64;
            let (ahead, rest) = row.split_at(self.n - 1 - i);
            for (&g, &sj) in ahead.iter().zip(&spins[i + 1..]) {
                e += g * (s as f64) * (sj as f64);
            }
            row = rest;
        }
        e
    }

    /// The adjacency-list problem with these couplings and `fields`,
    /// listing the pairs [`Listed`] names.
    ///
    /// # Panics
    /// Panics when `fields` is not `n` long.
    pub fn to_ising(&self, fields: &[f64]) -> IsingProblem {
        assert_eq!(fields.len(), self.n, "field count mismatch");
        let mut values = self.values.iter();
        let mut p = IsingProblem::from_upper_couplings(self.n, |i, j| {
            let g = *values.next().expect("one value per pair");
            self.listed.lists(i, j, g).then_some(g)
        });
        for (i, &f) in fields.iter().enumerate() {
            p.set_linear(i, f);
        }
        p
    }
}

/// One input's logical problem over a shared set of couplings: the
/// interval's [`UpperCouplings`] plus this input's fields.
#[derive(Clone, Debug, PartialEq)]
pub struct IsingView {
    couplings: Arc<UpperCouplings>,
    fields: Vec<f64>,
}

impl IsingView {
    /// `fields` over `couplings`.
    ///
    /// # Panics
    /// Panics when `fields` is not one per spin.
    pub fn new(couplings: Arc<UpperCouplings>, fields: Vec<f64>) -> Self {
        assert_eq!(fields.len(), couplings.num_spins(), "field count mismatch");
        IsingView { couplings, fields }
    }

    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.fields.len()
    }

    /// The total energy `E(s)` of a configuration, bit for bit what
    /// [`IsingView::to_ising`]'s problem computes.
    pub fn energy(&self, spins: &[Spin]) -> f64 {
        self.couplings.energy(&self.fields, spins)
    }

    /// The same problem as an adjacency-list [`IsingProblem`].
    pub fn to_ising(&self) -> IsingProblem {
        self.couplings.to_ising(&self.fields)
    }
}

impl Energy for IsingView {
    fn energy(&self, spins: &[Spin]) -> f64 {
        IsingView::energy(self, spins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_spins(n: usize) -> impl Iterator<Item = Vec<Spin>> {
        (0..(1u32 << n)).map(move |k| {
            (0..n)
                .map(|b| if (k >> b) & 1 == 1 { 1 } else { -1 })
                .collect()
        })
    }

    #[test]
    fn view_energy_and_conversion_match_the_adjacency_problem() {
        // Signed zeros and exact zeros on purpose: listed or not, they
        // must leave every energy's bits alone.
        let g = |i: usize, j: usize| match (i * 5 + j) % 4 {
            0 => 0.0,
            1 => -0.0,
            _ => 0.3 * i as f64 - 1.1 * j as f64,
        };
        let fields = vec![0.5, -0.0, 1.25, -2.0, 0.0, 0.75];
        for listed in [
            Listed::AcrossBlocks(1),
            Listed::AcrossBlocks(2),
            Listed::Nonzero,
        ] {
            let couplings = Arc::new(UpperCouplings::from_fn(6, listed, g));
            let view = IsingView::new(Arc::clone(&couplings), fields.clone());
            let mut expect = IsingProblem::from_upper_couplings(6, |i, j| {
                let keep = match listed {
                    Listed::AcrossBlocks(b) => i / b != j / b,
                    Listed::Nonzero => g(i, j) != 0.0,
                };
                keep.then_some(g(i, j))
            });
            for (i, &f) in fields.iter().enumerate() {
                expect.set_linear(i, f);
            }
            assert_eq!(view.to_ising(), expect, "{listed:?}");
            let listed_pairs: Vec<_> = couplings.listed().collect();
            let expect_pairs: Vec<_> = expect.couplings().collect();
            assert_eq!(listed_pairs, expect_pairs, "{listed:?}");
            for s in all_spins(6) {
                assert_eq!(
                    view.energy(&s).to_bits(),
                    expect.energy(&s).to_bits(),
                    "{listed:?} {s:?}"
                );
            }
        }
    }

    #[test]
    fn unlisted_pairs_hold_positive_zero() {
        let c = UpperCouplings::from_fn(4, Listed::AcrossBlocks(2), |_, _| -1.0);
        // Pairs (0, 1) and (2, 3) share a block.
        assert_eq!(
            c.values().iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
            [0.0, -1.0, -1.0, -1.0, -1.0, 0.0].map(f64::to_bits)
        );
        let z = UpperCouplings::from_fn(3, Listed::Nonzero, |_, _| -0.0);
        assert!(z.values().iter().all(|g| g.to_bits() == 0));
        assert_eq!(z.listed().count(), 0);
    }
}
