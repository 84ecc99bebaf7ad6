//! The Ising spin-glass problem form (Eq. 2).

use crate::Spin;

/// An Ising problem: linear terms `f_i` ("fields") and symmetric
/// couplings `g_ij` over spins `s ∈ {−1,+1}^n`, minimized as
/// `E(s) = Σ_{i<j} g_ij·s_i·s_j + Σ_i f_i·s_i`.
///
/// ```
/// use quamax_ising::{exact_ground_state, IsingProblem};
///
/// // Two spins that want to align, with a field pushing spin 0 down.
/// let mut p = IsingProblem::new(2);
/// p.set_coupling(0, 1, -1.0);
/// p.set_linear(0, 0.5);
/// assert_eq!(p.energy(&[-1, -1]), -1.5);
/// let gs = exact_ground_state(&p);
/// assert_eq!(gs.ground_states, vec![vec![-1, -1]]);
/// ```
///
/// Storage is an adjacency list (each coupling appears in both
/// endpoints' lists), sized for the two regimes this workspace uses:
/// near-fully-connected logical problems of up to a few hundred spins
/// (the ML reductions), and sparse Chimera-structured physical problems
/// of up to a few thousand spins (degree ≤ 6). Both need fast
/// `neighbors(i)` for Monte-Carlo Δ-energy updates.
#[derive(Clone, Debug, PartialEq)]
pub struct IsingProblem {
    linear: Vec<f64>,
    /// adjacency[i] = list of (j, g_ij), both directions stored.
    adjacency: Vec<Vec<(usize, f64)>>,
    coupling_count: usize,
}

impl IsingProblem {
    /// A problem over `n` spins with all coefficients zero.
    pub fn new(n: usize) -> Self {
        IsingProblem {
            linear: vec![0.0; n],
            adjacency: vec![Vec::new(); n],
            coupling_count: 0,
        }
    }

    /// A problem over `n` spins with zero fields and the coupling
    /// `coupling(i, j)` returns for each pair `i < j`, asked in `(i, j)`
    /// order (`None` leaves the pair uncoupled): the problem that
    /// [`IsingProblem::set_coupling`] calls in that order build, without
    /// their upsert scans.
    pub fn from_upper_couplings(
        n: usize,
        mut coupling: impl FnMut(usize, usize) -> Option<f64>,
    ) -> Self {
        let mut adjacency: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|_| Vec::with_capacity(n.saturating_sub(1)))
            .collect();
        let mut coupling_count = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if let Some(g) = coupling(i, j) {
                    adjacency[i].push((j, g));
                    adjacency[j].push((i, g));
                    coupling_count += 1;
                }
            }
        }
        IsingProblem {
            linear: vec![0.0; n],
            adjacency,
            coupling_count,
        }
    }

    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.linear.len()
    }

    /// Number of distinct non-zero-set couplings.
    pub fn num_couplings(&self) -> usize {
        self.coupling_count
    }

    /// The linear coefficient `f_i`.
    pub fn linear(&self, i: usize) -> f64 {
        self.linear[i]
    }

    /// All linear coefficients.
    pub fn linear_terms(&self) -> &[f64] {
        &self.linear
    }

    /// Sets `f_i`.
    pub fn set_linear(&mut self, i: usize, f: f64) {
        self.linear[i] = f;
    }

    /// Adds to `f_i`.
    pub fn add_linear(&mut self, i: usize, f: f64) {
        self.linear[i] += f;
    }

    /// The coupling `g_ij` (0 when unset).
    pub fn coupling(&self, i: usize, j: usize) -> f64 {
        self.adjacency[i]
            .iter()
            .find(|&&(k, _)| k == j)
            .map_or(0.0, |&(_, g)| g)
    }

    /// Sets the coupling `g_ij = g_ji = g`, overwriting any prior value.
    ///
    /// # Panics
    /// Panics on a self-coupling (`i == j`) or out-of-range index.
    pub fn set_coupling(&mut self, i: usize, j: usize, g: f64) {
        assert_ne!(i, j, "self-couplings are not part of the Ising form");
        assert!(
            i < self.num_spins() && j < self.num_spins(),
            "spin index out of range"
        );
        let existed = Self::upsert(&mut self.adjacency[i], j, g);
        let existed2 = Self::upsert(&mut self.adjacency[j], i, g);
        debug_assert_eq!(existed, existed2, "adjacency lists out of sync");
        if !existed {
            self.coupling_count += 1;
        }
    }

    fn upsert(list: &mut Vec<(usize, f64)>, j: usize, g: f64) -> bool {
        for entry in list.iter_mut() {
            if entry.0 == j {
                entry.1 = g;
                return true;
            }
        }
        list.push((j, g));
        false
    }

    /// Neighbours of spin `i`: each `(j, g_ij)` with a set coupling.
    pub fn neighbors(&self, i: usize) -> &[(usize, f64)] {
        &self.adjacency[i]
    }

    /// Iterates over each distinct coupling once, as `(i, j, g)` with
    /// `i < j`.
    pub fn couplings(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(i, list)| {
            list.iter()
                .filter(move |&&(j, _)| i < j)
                .map(move |&(j, g)| (i, j, g))
        })
    }

    /// The total energy `E(s)` of a configuration (Eq. 2).
    ///
    /// # Panics
    /// Panics when `spins.len()` differs from the spin count; debug-
    /// asserts ±1 values.
    pub fn energy(&self, spins: &[Spin]) -> f64 {
        assert_eq!(
            spins.len(),
            self.num_spins(),
            "configuration length mismatch"
        );
        debug_assert!(spins.iter().all(|&s| s == 1 || s == -1));
        let mut e = 0.0;
        for (i, &s) in spins.iter().enumerate() {
            e += self.linear[i] * s as f64;
            for &(j, g) in &self.adjacency[i] {
                if j > i {
                    e += g * (s as f64) * (spins[j] as f64);
                }
            }
        }
        e
    }

    /// The energy change from flipping spin `i` in configuration
    /// `spins`: `ΔE = −2·s_i·(f_i + Σ_j g_ij·s_j)`.
    ///
    /// This is the inner loop of every Monte-Carlo backend; it touches
    /// only spin `i`'s neighbourhood.
    #[inline]
    pub fn flip_delta(&self, spins: &[Spin], i: usize) -> f64 {
        let mut local = self.linear[i];
        for &(j, g) in &self.adjacency[i] {
            local += g * spins[j] as f64;
        }
        -2.0 * spins[i] as f64 * local
    }

    /// Largest absolute coefficient (over fields and couplings). The
    /// hardware renormalizes problems so this equals 1 before
    /// programming; see the chimera crate.
    pub fn max_abs_coefficient(&self) -> f64 {
        let lin = self.linear.iter().map(|f| f.abs()).fold(0.0f64, f64::max);
        let coup = self
            .couplings()
            .map(|(_, _, g)| g.abs())
            .fold(0.0f64, f64::max);
        lin.max(coup)
    }

    /// Returns a copy with every coefficient multiplied by `k`. Scaling
    /// preserves the argmin (for `k > 0`), so renormalization never
    /// changes the decoded solution — only its robustness to noise.
    pub fn scaled(&self, k: f64) -> IsingProblem {
        let mut out = self.clone();
        for f in out.linear.iter_mut() {
            *f *= k;
        }
        for list in out.adjacency.iter_mut() {
            for entry in list.iter_mut() {
                entry.1 *= k;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-spin triangle used across tests:
    /// f = [1, −2, 0.5], g_01 = 1, g_12 = −1, g_02 = 0.25.
    fn triangle() -> IsingProblem {
        let mut p = IsingProblem::new(3);
        p.set_linear(0, 1.0);
        p.set_linear(1, -2.0);
        p.set_linear(2, 0.5);
        p.set_coupling(0, 1, 1.0);
        p.set_coupling(1, 2, -1.0);
        p.set_coupling(0, 2, 0.25);
        p
    }

    #[test]
    fn energy_matches_hand_computation() {
        let p = triangle();
        // s = [+1, −1, +1]:
        // fields: 1·1 + (−2)(−1) + 0.5·1 = 3.5
        // couplings: 1·(1·−1) + (−1)(−1·1) + 0.25(1·1) = −1 + 1 + 0.25
        assert!((p.energy(&[1, -1, 1]) - 3.75).abs() < 1e-12);
        // all-down configuration:
        // fields: −1 + 2 − 0.5 = 0.5; couplings: 1 + (−1) + 0.25 = 0.25
        assert!((p.energy(&[-1, -1, -1]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn flip_delta_agrees_with_energy_difference() {
        let p = triangle();
        let configs: [[Spin; 3]; 4] = [[1, 1, 1], [1, -1, 1], [-1, -1, -1], [-1, 1, -1]];
        for c in configs {
            for i in 0..3 {
                let mut flipped = c;
                flipped[i] = -flipped[i];
                let direct = p.energy(&flipped) - p.energy(&c);
                let fast = p.flip_delta(&c, i);
                assert!((direct - fast).abs() < 1e-12, "config {c:?} flip {i}");
            }
        }
    }

    #[test]
    fn coupling_is_symmetric_and_overwritable() {
        let mut p = IsingProblem::new(4);
        p.set_coupling(2, 0, 3.0);
        assert_eq!(p.coupling(0, 2), 3.0);
        assert_eq!(p.coupling(2, 0), 3.0);
        p.set_coupling(0, 2, -1.5);
        assert_eq!(p.coupling(2, 0), -1.5);
        assert_eq!(p.num_couplings(), 1);
    }

    #[test]
    fn upper_couplings_build_what_set_coupling_builds() {
        let g = |i: usize, j: usize| {
            (!(i * 7 + j).is_multiple_of(3)).then_some(i as f64 - 0.5 * j as f64)
        };
        let mut expect = IsingProblem::new(6);
        for i in 0..6 {
            for j in (i + 1)..6 {
                if let Some(v) = g(i, j) {
                    expect.set_coupling(i, j, v);
                }
            }
        }
        assert_eq!(IsingProblem::from_upper_couplings(6, g), expect);
    }

    #[test]
    fn add_accumulates() {
        let mut p = IsingProblem::new(2);
        p.add_linear(0, 1.0);
        p.add_linear(0, 2.0);
        assert_eq!(p.linear(0), 3.0);
    }

    #[test]
    fn couplings_iterator_visits_each_edge_once() {
        let p = triangle();
        let edges: Vec<(usize, usize, f64)> = p.couplings().collect();
        assert_eq!(edges.len(), 3);
        for (i, j, _) in edges {
            assert!(i < j);
        }
    }

    #[test]
    fn max_abs_and_scaling() {
        let p = triangle();
        assert_eq!(p.max_abs_coefficient(), 2.0);
        let half = p.scaled(0.5);
        assert_eq!(half.max_abs_coefficient(), 1.0);
        // Scaling scales energies uniformly.
        let s = [1, -1, 1];
        assert!((half.energy(&s) - 0.5 * p.energy(&s)).abs() < 1e-12);
    }

    #[test]
    fn unset_coupling_is_zero() {
        let p = IsingProblem::new(3);
        assert_eq!(p.coupling(0, 1), 0.0);
        assert_eq!(p.num_couplings(), 0);
    }

    #[test]
    #[should_panic(expected = "self-couplings")]
    fn self_coupling_panics() {
        let mut p = IsingProblem::new(2);
        p.set_coupling(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_configuration_length_panics() {
        let p = triangle();
        let _ = p.energy(&[1, -1]);
    }
}
