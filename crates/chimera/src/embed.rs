//! Triangle clique embedding of fully-connected problems (Fig. 3(b)).
//!
//! The ML Ising problems are (nearly) fully connected, but Chimera has
//! degree ≤ 6, so each logical variable is represented by a *chain* of
//! physical qubits bound ferromagnetically. For K_N the standard
//! construction (Venturelli et al., reference 69 of the paper; Fig. 3(b)) places
//! logical variables in groups of four along the grid diagonal and runs
//! each chain as an L-shape:
//!
//! * group `g = i / 4`, in-group position `p = i mod 4`;
//! * **vertical segment**: left-side qubits at position `p` of cells
//!   `(r, g)` for `r = g .. t−1` (column `g`, from the diagonal down);
//! * **horizontal segment**: right-side qubits at position `p` of cells
//!   `(g, c)` for `c = 0 .. g` (row `g`, from the left edge to the
//!   diagonal);
//! * the two segments join at diagonal cell `(g, g)` through an
//!   intra-cell K₄,₄ coupler.
//!
//! Chains of logicals `i` (group `g_i`) and `j` (group `g_j ≥ g_i`)
//! meet in exactly one cell, `(g_j, g_i)`: `i`'s vertical segment and
//! `j`'s horizontal segment (or both segments at the diagonal cell when
//! `g_i = g_j`), where one K₄,₄ coupler realizes `g_ij`. Chain length
//! is `⌈N/4⌉ + 1` and the embedding occupies the triangular cell region
//! `{(r, c) : c ≤ r < t}`, `t = ⌈N/4⌉`.

use crate::graph::{ChimeraGraph, QubitId, Side};
use crate::CELL_SIDE;

/// Why an embedding could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmbeddingError {
    /// The triangle for `n` logical variables needs a `t×t` corner with
    /// `t = ⌈n/4⌉` exceeding the chip's grid.
    DoesNotFit {
        /// Logical variables requested.
        n: usize,
        /// Required grid dimension.
        needed: usize,
        /// Available grid dimension.
        available: usize,
    },
    /// A qubit required by the construction is a manufacturing defect.
    /// (Real toolchains re-route around defects; this reproduction
    /// surfaces the conflict instead, since defect-avoiding minor
    /// embedding is NP-hard and out of scope.)
    DefectInTheWay {
        /// The dead qubit.
        qubit: QubitId,
        /// The logical variable whose chain needed it.
        logical: usize,
    },
}

impl std::fmt::Display for EmbeddingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmbeddingError::DoesNotFit {
                n,
                needed,
                available,
            } => write!(
                f,
                "K_{n} triangle embedding needs a C{needed} corner; chip is C{available}"
            ),
            EmbeddingError::DefectInTheWay { qubit, logical } => {
                write!(f, "chain of logical {logical} requires dead qubit {qubit}")
            }
        }
    }
}

impl std::error::Error for EmbeddingError {}

/// A clique embedding: one physical chain per logical variable, plus
/// the coupler assignment for every logical pair.
///
/// ```
/// use quamax_chimera::{clique_qubit_cost, ChimeraGraph, CliqueEmbedding};
///
/// let graph = ChimeraGraph::dw2q_ideal();
/// let e = CliqueEmbedding::new(&graph, 12).unwrap();   // the paper's Fig. 3(b)
/// assert_eq!(e.chain(0).len(), 4);                     // ⌈12/4⌉ + 1
/// assert_eq!(e.qubits_used(), clique_qubit_cost(12));  // 48 physical qubits
/// // Every logical pair has a dedicated physical coupler.
/// let (qa, qb) = e.coupler_for(&graph, 3, 9);
/// assert!(graph.edge_exists(qa, qb));
/// ```
#[derive(Clone, Debug)]
pub struct CliqueEmbedding {
    /// `chains[i]` = physical qubits of logical `i`, in chain order
    /// (consecutive entries are physically coupled).
    chains: Vec<Vec<QubitId>>,
    /// Reverse map: physical qubit → logical index (usize::MAX = unused).
    owner: Vec<usize>,
    /// Grid offset at which the triangle was anchored (row, col).
    anchor: (usize, usize),
    /// Whether the triangle is transposed (upper orientation), used by
    /// the tiling logic to pack two orientations.
    transposed: bool,
}

impl CliqueEmbedding {
    /// Builds the triangle embedding of `n` logical variables anchored
    /// at the chip's `(0, 0)` corner.
    pub fn new(graph: &ChimeraGraph, n: usize) -> Result<Self, EmbeddingError> {
        Self::anchored(graph, n, 0, 0, false)
    }

    /// Builds the embedding anchored at cell `(row0, col0)`, optionally
    /// transposed (the mirrored orientation fills the upper-right
    /// region when tiling multiple copies).
    pub fn anchored(
        graph: &ChimeraGraph,
        n: usize,
        row0: usize,
        col0: usize,
        transposed: bool,
    ) -> Result<Self, EmbeddingError> {
        assert!(n > 0, "cannot embed an empty problem");
        let t = n.div_ceil(CELL_SIDE);
        let m = graph.grid();
        if row0 + t > m || col0 + t > m {
            return Err(EmbeddingError::DoesNotFit {
                n,
                needed: t,
                available: m,
            });
        }

        // In the normal orientation the vertical segment runs on Left
        // qubits down column g and the horizontal on Right qubits along
        // row g. Transposing the construction swaps rows/columns and
        // sides; Chimera is symmetric under that exchange.
        let cell = |a: usize, b: usize| -> (usize, usize) {
            if transposed {
                (row0 + b, col0 + a)
            } else {
                (row0 + a, col0 + b)
            }
        };
        let (vert_side, horiz_side) = if transposed {
            (Side::Right, Side::Left)
        } else {
            (Side::Left, Side::Right)
        };

        let mut chains = Vec::with_capacity(n);
        let mut owner = vec![usize::MAX; graph.num_sites()];
        for i in 0..n {
            let g = i / CELL_SIDE;
            let p = i % CELL_SIDE;
            let mut chain = Vec::with_capacity(t + 1);
            // Horizontal segment: row g, columns 0..=g (ends at diagonal).
            for c in 0..=g {
                let (r_, c_) = cell(g, c);
                chain.push(graph.qubit(r_, c_, horiz_side, p));
            }
            // Vertical segment: column g, rows g..t−1 (starts at diagonal).
            for r in g..t {
                let (r_, c_) = cell(r, g);
                chain.push(graph.qubit(r_, c_, vert_side, p));
            }
            for &q in &chain {
                if !graph.is_working(q) {
                    return Err(EmbeddingError::DefectInTheWay {
                        qubit: q,
                        logical: i,
                    });
                }
                debug_assert_eq!(owner[q], usize::MAX, "qubit claimed twice");
                owner[q] = i;
            }
            chains.push(chain);
        }
        Ok(CliqueEmbedding {
            chains,
            owner,
            anchor: (row0, col0),
            transposed,
        })
    }

    /// Number of logical variables.
    pub fn num_logical(&self) -> usize {
        self.chains.len()
    }

    /// The physical chain of logical `i`, in coupled order.
    pub fn chain(&self, i: usize) -> &[QubitId] {
        &self.chains[i]
    }

    /// All chains.
    pub fn chains(&self) -> &[Vec<QubitId>] {
        &self.chains
    }

    /// Logical owner of physical qubit `q`, or `None` if unused.
    pub fn owner(&self, q: QubitId) -> Option<usize> {
        match self.owner.get(q) {
            Some(&o) if o != usize::MAX => Some(o),
            _ => None,
        }
    }

    /// Total physical qubits used.
    pub fn qubits_used(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }

    /// The single physical coupler `(qubit_of_i, qubit_of_j)` that
    /// realizes the logical coupling `g_ij`. For `g_i < g_j` the chains
    /// meet in cell `(g_j, g_i)`; for the same group, at the diagonal
    /// cell.
    ///
    /// Returned as `(physical in chain i, physical in chain j)`.
    pub fn coupler_for(&self, graph: &ChimeraGraph, i: usize, j: usize) -> (QubitId, QubitId) {
        assert_ne!(i, j, "no coupler for a logical with itself");
        let (gi, pi) = (i / CELL_SIDE, i % CELL_SIDE);
        let (gj, pj) = (j / CELL_SIDE, j % CELL_SIDE);
        let cell = |a: usize, b: usize| -> (usize, usize) {
            if self.transposed {
                (self.anchor.0 + b, self.anchor.1 + a)
            } else {
                (self.anchor.0 + a, self.anchor.1 + b)
            }
        };
        let (vert_side, horiz_side) = if self.transposed {
            (Side::Right, Side::Left)
        } else {
            (Side::Left, Side::Right)
        };
        if gi == gj {
            // Diagonal cell. Canonicalize on the smaller logical index so
            // coupler_for(i, j) and coupler_for(j, i) name the same edge:
            // the lower index contributes its vertical-side qubit, the
            // higher its horizontal-side one.
            let (r, c) = cell(gi, gi);
            let (p_lo, p_hi) = if i < j { (pi, pj) } else { (pj, pi) };
            let q_lo = graph.qubit(r, c, vert_side, p_lo);
            let q_hi = graph.qubit(r, c, horiz_side, p_hi);
            if i < j {
                (q_lo, q_hi)
            } else {
                (q_hi, q_lo)
            }
        } else {
            // Meeting cell (g_max, g_min): the lower-group chain passes
            // vertically, the higher-group chain horizontally.
            let (lo, hi, p_lo, p_hi) = if gi < gj {
                (gi, gj, pi, pj)
            } else {
                (gj, gi, pj, pi)
            };
            let (r, c) = cell(hi, lo);
            let q_lo = graph.qubit(r, c, vert_side, p_lo);
            let q_hi = graph.qubit(r, c, horiz_side, p_hi);
            if gi < gj {
                (q_lo, q_hi)
            } else {
                (q_hi, q_lo)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{clique_chain_len, clique_qubit_cost};

    /// Structural validation used by several tests: chains connected,
    /// disjoint, and every logical pair's assigned coupler is a real
    /// physical edge joining the right chains.
    fn validate(graph: &ChimeraGraph, e: &CliqueEmbedding) {
        let n = e.num_logical();
        // Chains: consecutive qubits physically coupled; no overlaps.
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            let chain = e.chain(i);
            assert_eq!(chain.len(), clique_chain_len(n), "chain length");
            for w in chain.windows(2) {
                assert!(
                    graph.edge_exists(w[0], w[1]),
                    "chain {i}: {} -- {} not an edge",
                    w[0],
                    w[1]
                );
            }
            for &q in chain {
                assert!(seen.insert(q), "qubit {q} in two chains");
                assert_eq!(e.owner(q), Some(i));
            }
        }
        // Couplers: a genuine edge between the two chains, for every pair.
        for i in 0..n {
            for j in (i + 1)..n {
                let (qi, qj) = e.coupler_for(graph, i, j);
                assert!(
                    graph.edge_exists(qi, qj),
                    "pair ({i},{j}): no edge {qi}--{qj}"
                );
                assert_eq!(e.owner(qi), Some(i), "pair ({i},{j}): wrong owner of {qi}");
                assert_eq!(e.owner(qj), Some(j), "pair ({i},{j}): wrong owner of {qj}");
            }
        }
    }

    #[test]
    fn paper_figure_case_n12_is_valid() {
        let g = ChimeraGraph::dw2q_ideal();
        let e = CliqueEmbedding::new(&g, 12).unwrap();
        validate(&g, &e);
        // Fig. 3(b): 12 logical qubits, chains of ⌈12/4⌉+1 = 4.
        assert_eq!(e.chain(0).len(), 4);
        assert_eq!(e.qubits_used(), clique_qubit_cost(12));
    }

    #[test]
    fn assorted_sizes_are_valid() {
        let g = ChimeraGraph::dw2q_ideal();
        for n in [1usize, 2, 3, 4, 5, 8, 16, 36, 48, 60, 64] {
            let e = CliqueEmbedding::new(&g, n).unwrap();
            validate(&g, &e);
            assert_eq!(e.qubits_used(), clique_qubit_cost(n), "n={n}");
        }
    }

    #[test]
    fn transposed_orientation_is_valid() {
        let g = ChimeraGraph::dw2q_ideal();
        for n in [8usize, 12, 20] {
            let e = CliqueEmbedding::anchored(&g, n, 0, 0, true).unwrap();
            validate(&g, &e);
        }
    }

    #[test]
    fn anchored_copies_are_disjoint() {
        let g = ChimeraGraph::dw2q_ideal();
        let a = CliqueEmbedding::anchored(&g, 16, 0, 0, false).unwrap();
        let b = CliqueEmbedding::anchored(&g, 16, 4, 4, false).unwrap();
        validate(&g, &a);
        validate(&g, &b);
        let qa: std::collections::HashSet<_> = a.chains().concat().into_iter().collect();
        for q in b.chains().concat() {
            assert!(!qa.contains(&q), "copies share qubit {q}");
        }
    }

    #[test]
    fn table2_qubit_costs() {
        // Logical (physical) counts from Table 2.
        let cases = [
            (10usize, 40usize),
            (20, 120),
            (40, 440),
            (60, 960),    // printed as "1K"
            (80, 1680),   // printed as "2K"
            (120, 3720),  // printed as "4K"
            (160, 6560),  // printed as "7K"
            (240, 14640), // printed as "15K"
            (360, 32760), // printed as "33K"
        ];
        for (n, phys) in cases {
            assert_eq!(clique_qubit_cost(n), phys, "n={n}");
        }
    }

    #[test]
    fn max_clique_on_c16_is_64() {
        let g = ChimeraGraph::dw2q_ideal();
        assert!(CliqueEmbedding::new(&g, 64).is_ok());
        let err = CliqueEmbedding::new(&g, 65).unwrap_err();
        assert_eq!(
            err,
            EmbeddingError::DoesNotFit {
                n: 65,
                needed: 17,
                available: 16
            }
        );
    }

    #[test]
    fn defect_is_reported_with_context() {
        let mut g = ChimeraGraph::dw2q_ideal();
        // Kill a qubit the n=8 embedding needs: chain of logical 0
        // starts at cell (0,0) Right side position 0.
        let dead = g.qubit(0, 0, crate::graph::Side::Right, 0);
        g.add_defect(dead);
        match CliqueEmbedding::new(&g, 8) {
            Err(EmbeddingError::DefectInTheWay { qubit, logical }) => {
                assert_eq!(qubit, dead);
                assert_eq!(logical, 0);
            }
            other => panic!("expected defect error, got {other:?}"),
        }
    }

    #[test]
    fn coupler_is_symmetric_in_arguments() {
        let g = ChimeraGraph::dw2q_ideal();
        let e = CliqueEmbedding::new(&g, 12).unwrap();
        for i in 0..12 {
            for j in 0..12 {
                if i == j {
                    continue;
                }
                let (qi, qj) = e.coupler_for(&g, i, j);
                let (qj2, qi2) = e.coupler_for(&g, j, i);
                assert_eq!((qi, qj), (qi2, qj2));
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty problem")]
    fn zero_logical_panics() {
        let g = ChimeraGraph::dw2q_ideal();
        let _ = CliqueEmbedding::new(&g, 0);
    }
}
