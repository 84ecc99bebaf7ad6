//! The QUBO problem form (Eq. 3).

/// A Quadratic Unconstrained Binary Optimization problem:
/// `E(q) = Σ_{i≤j} Q_ij·q_i·q_j` over bits `q ∈ {0,1}^n`, with `Q`
/// upper-triangular (diagonal entries are the linear terms, since
/// `q_i² = q_i`).
///
/// The ML detection problem lands in this form first (paper §3.2.1,
/// Appendix A); [`crate::qubo_to_ising`] then produces what the annealer
/// runs.
#[derive(Clone, Debug, PartialEq)]
pub struct QuboProblem {
    n: usize,
    /// diagonal[i] = Q_ii.
    diagonal: Vec<f64>,
    /// Off-diagonal upper-triangular terms, adjacency in both directions
    /// for symmetric iteration; the canonical value lives at i < j.
    adjacency: Vec<Vec<(usize, f64)>>,
    coupling_count: usize,
}

impl QuboProblem {
    /// A QUBO over `n` bits with all coefficients zero.
    pub fn new(n: usize) -> Self {
        QuboProblem {
            n,
            diagonal: vec![0.0; n],
            adjacency: vec![Vec::new(); n],
            coupling_count: 0,
        }
    }

    /// Number of bits.
    pub fn num_bits(&self) -> usize {
        self.n
    }

    /// Number of distinct off-diagonal terms set.
    pub fn num_couplings(&self) -> usize {
        self.coupling_count
    }

    /// The diagonal (linear) coefficient `Q_ii`.
    pub fn diagonal(&self, i: usize) -> f64 {
        self.diagonal[i]
    }

    /// Sets `Q_ii`.
    pub fn set_diagonal(&mut self, i: usize, v: f64) {
        self.diagonal[i] = v;
    }

    /// Adds to `Q_ii`.
    pub fn add_diagonal(&mut self, i: usize, v: f64) {
        self.diagonal[i] += v;
    }

    /// Sets `Q_ij` (`i ≠ j`), overwriting any prior value.
    ///
    /// # Panics
    /// Panics on `i == j` (use [`QuboProblem::set_diagonal`]) or
    /// out-of-range indices.
    pub fn set_off_diagonal(&mut self, i: usize, j: usize, v: f64) {
        assert_ne!(i, j, "diagonal terms go through set_diagonal");
        assert!(i < self.n && j < self.n, "bit index out of range");
        let existed = Self::upsert(&mut self.adjacency[i], j, v);
        Self::upsert(&mut self.adjacency[j], i, v);
        if !existed {
            self.coupling_count += 1;
        }
    }

    fn upsert(list: &mut Vec<(usize, f64)>, j: usize, v: f64) -> bool {
        for entry in list.iter_mut() {
            if entry.0 == j {
                entry.1 = v;
                return true;
            }
        }
        list.push((j, v));
        false
    }

    /// Iterates over each distinct off-diagonal term once, as
    /// `(i, j, Q_ij)` with `i < j`.
    pub fn off_diagonals(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(i, list)| {
            list.iter()
                .filter(move |&&(j, _)| i < j)
                .map(move |&(j, v)| (i, j, v))
        })
    }

    /// The QUBO energy of a bit configuration (Eq. 3).
    ///
    /// # Panics
    /// Panics on length mismatch; debug-asserts binary values.
    pub fn energy(&self, bits: &[u8]) -> f64 {
        assert_eq!(bits.len(), self.n, "configuration length mismatch");
        debug_assert!(bits.iter().all(|&b| b <= 1));
        let mut e = 0.0;
        for (i, &q) in bits.iter().enumerate() {
            if q == 0 {
                continue;
            }
            e += self.diagonal[i];
            for &(j, v) in &self.adjacency[i] {
                if j > i && bits[j] == 1 {
                    e += v;
                }
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Appendix-A shape: two bits, two diagonals, one
    /// off-diagonal.
    fn two_bit(q11: f64, q22: f64, q12: f64) -> QuboProblem {
        let mut p = QuboProblem::new(2);
        p.set_diagonal(0, q11);
        p.set_diagonal(1, q22);
        p.set_off_diagonal(0, 1, q12);
        p
    }

    #[test]
    fn energy_enumerates_correctly() {
        let p = two_bit(1.0, -2.0, 4.0);
        assert_eq!(p.energy(&[0, 0]), 0.0);
        assert_eq!(p.energy(&[1, 0]), 1.0);
        assert_eq!(p.energy(&[0, 1]), -2.0);
        assert_eq!(p.energy(&[1, 1]), 3.0);
    }

    #[test]
    fn add_accumulates() {
        let mut p = QuboProblem::new(3);
        p.add_diagonal(1, 1.0);
        p.add_diagonal(1, 0.5);
        assert_eq!(p.diagonal(1), 1.5);
        p.set_off_diagonal(0, 2, 1.0);
        p.set_off_diagonal(2, 0, 0.75);
        assert_eq!(p.num_couplings(), 1);
        assert_eq!(p.off_diagonals().collect::<Vec<_>>(), vec![(0, 2, 0.75)]);
    }

    #[test]
    fn off_diagonals_iterates_canonical_orientation() {
        let mut p = QuboProblem::new(3);
        p.set_off_diagonal(2, 0, 1.0);
        p.set_off_diagonal(1, 2, -1.0);
        let mut edges: Vec<_> = p.off_diagonals().collect();
        edges.sort_by_key(|&(i, j, _)| (i, j));
        assert_eq!(edges, vec![(0, 2, 1.0), (1, 2, -1.0)]);
    }

    #[test]
    #[should_panic(expected = "set_diagonal")]
    fn diagonal_through_off_diagonal_panics() {
        let mut p = QuboProblem::new(2);
        p.set_off_diagonal(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let p = QuboProblem::new(3);
        let _ = p.energy(&[0, 1]);
    }
}
