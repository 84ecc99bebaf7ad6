//! Geometric parallelization: packing multiple problem copies on one
//! chip (§4, "Parallelization").
//!
//! The paper amortizes anneal time over `P_f ≃ N_tot / (N(⌈N/4⌉+1))`
//! identical problem instances run side by side, noting that "in
//! finite-size chips, chip geometry comes into play" (footnote 4). This
//! module computes the *geometric* factor: the number of disjoint
//! triangle embeddings that actually fit on the cell grid, found by
//! greedy placement of both triangle orientations (the lower-left
//! triangle of [`CliqueEmbedding::new`] and its transpose). A
//! lower+upper pair tiles a `t×(t+1)` rectangle exactly, so the greedy
//! packing approaches the area bound.

use crate::embed::CliqueEmbedding;
use crate::graph::ChimeraGraph;
use crate::CELL_SIDE;
use std::sync::OnceLock;

/// Greedily places as many disjoint `n`-variable triangle embeddings as
/// fit on `graph`, returning them all.
///
/// Each returned embedding is structurally valid on the given graph
/// (panics in debug if a defect interferes; callers wanting
/// defect-aware packing should filter failures themselves).
pub fn tile_embeddings(graph: &ChimeraGraph, n: usize) -> Vec<CliqueEmbedding> {
    assert!(n > 0, "cannot tile an empty problem");
    let m = graph.grid();
    let t = n.div_ceil(CELL_SIDE);
    if t > m {
        return Vec::new();
    }
    let mut used = vec![vec![false; m]; m];
    let mut out = Vec::new();

    // Relative cell sets of the two orientations.
    let lower: Vec<(usize, usize)> = (0..t).flat_map(|r| (0..=r).map(move |c| (r, c))).collect();
    let upper: Vec<(usize, usize)> = (0..t).flat_map(|r| (r..t).map(move |c| (r, c))).collect();

    for r0 in 0..=(m - t) {
        for c0 in 0..=(m - t) {
            for (cells, transposed) in [(&lower, false), (&upper, true)] {
                let free = cells.iter().all(|&(r, c)| !used[r0 + r][c0 + c]);
                if !free {
                    continue;
                }
                match CliqueEmbedding::anchored(graph, n, r0, c0, transposed) {
                    Ok(e) => {
                        for &(r, c) in cells.iter() {
                            used[r0 + r][c0 + c] = true;
                        }
                        out.push(e);
                    }
                    Err(_) => continue, // defect in the way: skip placement
                }
            }
        }
    }
    out
}

/// Problem sizes the [`parallelization`] table covers: every `n` whose
/// triangle fits the DW2Q grid.
const FACTOR_TABLE_LEN: usize = crate::DW2Q_GRID * CELL_SIDE + 1;

/// One lazily filled slot per problem size `n`, index `n`.
static FACTORS: [OnceLock<usize>; FACTOR_TABLE_LEN] = [const { OnceLock::new() }; FACTOR_TABLE_LEN];

/// The geometric parallelization factor on an ideal DW2Q chip: how many
/// disjoint copies of an `n`-variable problem fit.
///
/// Cost: the first call for a given `n` builds the ideal chip and tiles
/// it with [`tile_embeddings`] (tens to hundreds of µs); every later
/// call for that `n`, from any thread, reads a process-wide table. Sizes
/// past the table (`n > 64`) are tiled on every call.
///
/// # Panics
/// Panics when `n == 0`, like [`tile_embeddings`].
pub fn parallelization(n: usize) -> usize {
    memoized(&FACTORS, n)
}

/// [`parallelization`] over an explicit table, so tests can race on a
/// fresh one.
fn memoized(table: &[OnceLock<usize>], n: usize) -> usize {
    let tile = || tile_embeddings(&ChimeraGraph::dw2q_ideal(), n).len();
    match table.get(n) {
        Some(slot) => *slot.get_or_init(tile),
        None => tile(),
    }
}

/// The paper's asymptotic estimate `P_f ≃ N_tot/(N(⌈N/4⌉+1))`
/// (footnote 4), for comparison with the geometric count.
pub fn parallelization_asymptotic(n: usize) -> f64 {
    crate::DW2Q_TOTAL_QUBITS as f64 / crate::clique_qubit_cost(n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn copies_are_disjoint() {
        let g = ChimeraGraph::dw2q_ideal();
        for n in [8usize, 16, 24] {
            let tiles = tile_embeddings(&g, n);
            let mut seen = HashSet::new();
            for e in &tiles {
                for q in e.chains().concat() {
                    assert!(seen.insert(q), "n={n}: qubit {q} reused");
                }
            }
        }
    }

    #[test]
    fn paper_example_16_qubit_problem_runs_20x_parallel() {
        // §4: "a small 16-qubit problem employing just 80 physical
        // qubits … could in fact be run more than 20 times in parallel".
        let pf = parallelization(16);
        assert!(pf > 20, "got {pf}");
        // And bounded by the asymptotic ratio 2048/80 = 25.6.
        assert!((pf as f64) <= parallelization_asymptotic(16));
    }

    #[test]
    fn full_chip_problem_fits_once() {
        assert_eq!(parallelization(64), 1);
        // n=60 (t=15) genuinely fits twice: a lower triangle plus an
        // upper triangle shifted one column right tile a 15×16 band —
        // 2·960 = 1,920 of the 2,048 qubits.
        assert_eq!(parallelization(60), 2);
    }

    #[test]
    fn oversized_problem_fits_zero_times() {
        assert_eq!(parallelization(65), 0);
    }

    #[test]
    fn memoized_factor_matches_tiling() {
        let g = ChimeraGraph::dw2q_ideal();
        for n in 1..=65 {
            assert_eq!(parallelization(n), tile_embeddings(&g, n).len(), "n={n}");
        }
    }

    #[test]
    fn racing_first_calls_agree() {
        let g = ChimeraGraph::dw2q_ideal();
        let expected: Vec<usize> = (1..=65).map(|n| tile_embeddings(&g, n).len()).collect();
        let table: [OnceLock<usize>; FACTOR_TABLE_LEN] =
            [const { OnceLock::new() }; FACTOR_TABLE_LEN];
        let start = std::sync::Barrier::new(4);
        let answers: Vec<Vec<usize>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let (table, start) = (&table, &start);
                    s.spawn(move || {
                        start.wait();
                        // Threads walk the sizes from different offsets so
                        // first calls for one `n` overlap across threads.
                        let mut got = vec![0; 65];
                        for k in 0..65 {
                            let n = 1 + (k + 16 * t) % 65;
                            got[n - 1] = memoized(table, n);
                        }
                        got
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for got in answers {
            assert_eq!(got, expected);
        }
    }

    #[test]
    #[should_panic(expected = "cannot tile an empty problem")]
    fn zero_sized_problem_panics() {
        parallelization(0);
    }

    #[test]
    fn lower_upper_pairs_tile_rectangles() {
        // For t=4 (n≤16) the greedy packing should reach at least
        // 2 copies per 4×5 rectangle → ≥ 24 on the 16×16 grid.
        assert!(parallelization(16) >= 24);
    }

    #[test]
    fn geometric_never_exceeds_asymptotic() {
        for n in [4usize, 8, 12, 16, 20, 32, 48, 64] {
            let geo = parallelization(n) as f64;
            let asym = parallelization_asymptotic(n);
            assert!(geo <= asym + 1e-9, "n={n}: {geo} > {asym}");
        }
    }

    #[test]
    fn tiles_avoid_defects() {
        let mut g = ChimeraGraph::dw2q_ideal();
        // Kill a whole cell at (0,0): the corner placement must be
        // skipped but others still found.
        for k in 0..4 {
            g.add_defect(g.qubit(0, 0, crate::graph::Side::Left, k));
            g.add_defect(g.qubit(0, 0, crate::graph::Side::Right, k));
        }
        let tiles = tile_embeddings(&g, 8);
        assert!(!tiles.is_empty());
        for e in &tiles {
            for q in e.chains().concat() {
                assert!(g.is_working(q));
            }
        }
    }

    #[test]
    fn monotone_in_problem_size() {
        // Smaller problems can never fit fewer copies than larger ones.
        let mut prev = usize::MAX;
        for n in [4usize, 8, 16, 32, 64] {
            let pf = parallelization(n);
            assert!(pf <= prev, "n={n}: {pf} > previous {prev}");
            prev = pf;
        }
    }
}
