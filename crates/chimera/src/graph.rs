//! The Chimera hardware graph.
//!
//! A Chimera graph `C_m` is an `m × m` grid of unit cells. Each cell is
//! a complete bipartite K₄,₄: four *left* qubits and four *right*
//! qubits, every left coupled to every right within the cell. Left
//! qubits additionally couple to the same-position left qubits of the
//! cells directly above and below (vertical inter-cell couplers); right
//! qubits to the same-position right qubits of the cells directly left
//! and right (horizontal inter-cell couplers). Degree ≤ 6.
//!
//! Qubits are addressed either structurally — `(row, col, side, k)` —
//! or by a linear [`QubitId`]; manufacturing defects are a set of dead
//! qubit ids whose incident couplers are unusable.

use crate::CELL_SIDE;
use std::collections::HashSet;

/// Linear physical qubit index.
pub type QubitId = usize;

/// Which half of the K₄,₄ a qubit sits in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// Column-facing qubits: couple vertically between cells.
    Left,
    /// Row-facing qubits: couple horizontally between cells.
    Right,
}

/// A Chimera topology `C_m`, optionally with dead qubits.
#[derive(Clone, Debug)]
pub struct ChimeraGraph {
    m: usize,
    defects: HashSet<QubitId>,
}

impl ChimeraGraph {
    /// An ideal (defect-free) `C_m`.
    pub fn ideal(m: usize) -> Self {
        assert!(m > 0, "grid dimension must be positive");
        ChimeraGraph {
            m,
            defects: HashSet::new(),
        }
    }

    /// The ideal C16 of the D-Wave 2000Q.
    pub fn dw2q_ideal() -> Self {
        ChimeraGraph::ideal(crate::DW2Q_GRID)
    }

    /// A C16 with `n_defects` dead qubits chosen deterministically from
    /// `seed` — a stand-in for a specific chip's defect map (the
    /// paper's chip had 17). Uses a splitmix-style hash so the map is
    /// stable across runs without a `rand` dependency here.
    pub fn dw2q_with_defects(n_defects: usize, seed: u64) -> Self {
        let mut g = ChimeraGraph::dw2q_ideal();
        let total = g.num_sites();
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        while g.defects.len() < n_defects.min(total) {
            // splitmix64 step
            let mut z = x;
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            g.defects.insert((z as usize) % total);
        }
        g
    }

    /// Marks a qubit dead.
    pub fn add_defect(&mut self, q: QubitId) {
        assert!(q < self.num_sites(), "qubit id out of range");
        self.defects.insert(q);
    }

    /// Grid dimension `m`.
    pub fn grid(&self) -> usize {
        self.m
    }

    /// Total qubit *sites* (including dead ones): `8m²`.
    pub fn num_sites(&self) -> usize {
        2 * CELL_SIDE * self.m * self.m
    }

    /// Number of working qubits.
    pub fn num_working(&self) -> usize {
        self.num_sites() - self.defects.len()
    }

    /// The dead qubit sites, ascending.
    pub fn defects(&self) -> Vec<QubitId> {
        let mut dead: Vec<QubitId> = self.defects.iter().copied().collect();
        dead.sort_unstable();
        dead
    }

    /// `true` when the qubit site is alive.
    pub fn is_working(&self, q: QubitId) -> bool {
        q < self.num_sites() && !self.defects.contains(&q)
    }

    /// Linear id of the qubit at `(row, col)` cell, `side`, position `k`.
    ///
    /// # Panics
    /// Panics on out-of-range coordinates.
    pub fn qubit(&self, row: usize, col: usize, side: Side, k: usize) -> QubitId {
        assert!(row < self.m && col < self.m, "cell out of range");
        assert!(k < CELL_SIDE, "cell position out of range");
        let side_bit = match side {
            Side::Left => 0,
            Side::Right => 1,
        };
        ((row * self.m + col) * 2 + side_bit) * CELL_SIDE + k
    }

    /// Structural coordinates of a linear id: `(row, col, side, k)`.
    fn coords(&self, q: QubitId) -> (usize, usize, Side, usize) {
        assert!(q < self.num_sites(), "qubit id out of range");
        let k = q % CELL_SIDE;
        let rest = q / CELL_SIDE;
        let side = if rest.is_multiple_of(2) {
            Side::Left
        } else {
            Side::Right
        };
        let cell = rest / 2;
        (cell / self.m, cell % self.m, side, k)
    }

    /// `true` when a physical coupler exists between two *working*
    /// qubits (structural adjacency minus defects).
    pub fn edge_exists(&self, a: QubitId, b: QubitId) -> bool {
        if a == b || !self.is_working(a) || !self.is_working(b) {
            return false;
        }
        let (ra, ca, sa, ka) = self.coords(a);
        let (rb, cb, sb, kb) = self.coords(b);
        match (sa, sb) {
            // Intra-cell K4,4: any left–right pair in the same cell.
            (Side::Left, Side::Right) | (Side::Right, Side::Left) => ra == rb && ca == cb,
            // Vertical couplers: left side, same column & position,
            // adjacent rows.
            (Side::Left, Side::Left) => ca == cb && ka == kb && ra.abs_diff(rb) == 1,
            // Horizontal couplers: right side, same row & position,
            // adjacent columns.
            (Side::Right, Side::Right) => ra == rb && ka == kb && ca.abs_diff(cb) == 1,
        }
    }

    /// All working neighbours of a qubit.
    pub fn neighbors(&self, q: QubitId) -> Vec<QubitId> {
        if !self.is_working(q) {
            return Vec::new();
        }
        let (r, c, side, k) = self.coords(q);
        let mut out = Vec::with_capacity(6);
        // Intra-cell: the four qubits of the opposite side.
        let opposite = match side {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        };
        for kk in 0..CELL_SIDE {
            let n = self.qubit(r, c, opposite, kk);
            if self.is_working(n) {
                out.push(n);
            }
        }
        // Inter-cell.
        match side {
            Side::Left => {
                if r > 0 {
                    let n = self.qubit(r - 1, c, Side::Left, k);
                    if self.is_working(n) {
                        out.push(n);
                    }
                }
                if r + 1 < self.m {
                    let n = self.qubit(r + 1, c, Side::Left, k);
                    if self.is_working(n) {
                        out.push(n);
                    }
                }
            }
            Side::Right => {
                if c > 0 {
                    let n = self.qubit(r, c - 1, Side::Right, k);
                    if self.is_working(n) {
                        out.push(n);
                    }
                }
                if c + 1 < self.m {
                    let n = self.qubit(r, c + 1, Side::Right, k);
                    if self.is_working(n) {
                        out.push(n);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ChimeraGraph {
        /// Total number of working couplers on the chip.
        fn num_couplers(&self) -> usize {
            // Count each edge once via the neighbour lists.
            (0..self.num_sites())
                .map(|q| self.neighbors(q).iter().filter(|&&n| n > q).count())
                .sum()
        }
    }

    #[test]
    fn dw2q_dimensions() {
        let g = ChimeraGraph::dw2q_ideal();
        assert_eq!(g.num_sites(), 2048);
        assert_eq!(g.num_working(), 2048);
        // Coupler count of ideal C16: per cell 16 internal; vertical
        // 15·16 cells × 4; horizontal likewise.
        // 256·16 + 2·(15·16·4) = 4096 + 1920 = 6016.
        assert_eq!(g.num_couplers(), 6016);
    }

    #[test]
    fn paper_chip_has_2031_working_qubits() {
        let g = ChimeraGraph::dw2q_with_defects(17, 7);
        assert_eq!(g.num_working(), crate::DW2Q_WORKING_QUBITS);
        // The paper quotes 5,019 working couplers on Whistler; with a
        // synthetic defect map we only require the same order: each dead
        // qubit kills ≤ 6 couplers.
        assert!(g.num_couplers() >= 6016 - 17 * 6);
    }

    #[test]
    fn coords_round_trip() {
        let g = ChimeraGraph::ideal(4);
        for q in 0..g.num_sites() {
            let (r, c, s, k) = g.coords(q);
            assert_eq!(g.qubit(r, c, s, k), q);
        }
    }

    #[test]
    fn intra_cell_is_complete_bipartite() {
        let g = ChimeraGraph::ideal(2);
        for kl in 0..4 {
            for kr in 0..4 {
                let a = g.qubit(1, 0, Side::Left, kl);
                let b = g.qubit(1, 0, Side::Right, kr);
                assert!(g.edge_exists(a, b));
                assert!(g.edge_exists(b, a), "edges are undirected");
            }
        }
        // No left–left or right–right edges within a cell.
        let a = g.qubit(0, 0, Side::Left, 0);
        let b = g.qubit(0, 0, Side::Left, 1);
        assert!(!g.edge_exists(a, b));
    }

    #[test]
    fn inter_cell_couplers_follow_sides() {
        let g = ChimeraGraph::ideal(3);
        // Vertical: left side, same column/position, adjacent rows.
        let a = g.qubit(0, 1, Side::Left, 2);
        let b = g.qubit(1, 1, Side::Left, 2);
        assert!(g.edge_exists(a, b));
        // Not across different positions.
        let c = g.qubit(1, 1, Side::Left, 3);
        assert!(!g.edge_exists(a, c));
        // Horizontal: right side, same row/position, adjacent columns.
        let d = g.qubit(2, 0, Side::Right, 1);
        let e = g.qubit(2, 1, Side::Right, 1);
        assert!(g.edge_exists(d, e));
        // Right qubits do not couple vertically.
        let f = g.qubit(1, 0, Side::Right, 1);
        assert!(!g.edge_exists(d, f));
        // No wrap-around.
        let g0 = g.qubit(0, 0, Side::Left, 0);
        let g2 = g.qubit(2, 0, Side::Left, 0);
        assert!(!g.edge_exists(g0, g2));
    }

    #[test]
    fn degree_is_at_most_six() {
        let g = ChimeraGraph::ideal(3);
        for q in 0..g.num_sites() {
            let d = g.neighbors(q).len();
            assert!(d <= 6, "qubit {q} has degree {d}");
            // Interior left qubits in a 3-grid middle row hit exactly 6.
        }
        let mid = g.qubit(1, 1, Side::Left, 0);
        assert_eq!(g.neighbors(mid).len(), 6);
    }

    #[test]
    fn defects_remove_incident_edges() {
        let mut g = ChimeraGraph::ideal(2);
        let a = g.qubit(0, 0, Side::Left, 0);
        let b = g.qubit(0, 0, Side::Right, 0);
        assert!(g.edge_exists(a, b));
        g.add_defect(a);
        assert!(!g.is_working(a));
        assert!(!g.edge_exists(a, b));
        assert!(!g.neighbors(b).contains(&a));
    }

    #[test]
    fn defect_map_is_deterministic() {
        let a = ChimeraGraph::dw2q_with_defects(17, 42);
        let b = ChimeraGraph::dw2q_with_defects(17, 42);
        for q in 0..a.num_sites() {
            assert_eq!(a.is_working(q), b.is_working(q));
        }
    }

    #[test]
    #[should_panic(expected = "cell out of range")]
    fn out_of_range_cell_panics() {
        let g = ChimeraGraph::ideal(2);
        let _ = g.qubit(2, 0, Side::Left, 0);
    }
}
