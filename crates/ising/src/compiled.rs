//! A frozen, cache-friendly view of an [`IsingProblem`] for Monte-Carlo
//! inner loops.
//!
//! [`IsingProblem`]'s adjacency-list storage (`Vec<Vec<(usize, f64)>>`)
//! is the right shape for *building* problems — couplings upsert in
//! place — but the wrong shape for *sweeping* them: every `flip_delta`
//! pointer-chases a per-spin heap allocation, and neighbor/weight pairs
//! interleave an 8-byte index with an 8-byte coefficient so half of
//! every cache line is the part the current loop doesn't want.
//!
//! [`CompiledProblem`] freezes a problem into CSR (compressed sparse
//! row) form: one contiguous `offsets` array delimiting each spin's
//! neighborhood inside flat `neighbors` and `weights` arrays, plus the
//! cached linear terms. Rows are sorted by neighbor index, so the
//! layout — and everything downstream of it, including RNG draw order
//! during intrinsic-control-error refreezes — is a pure function of the
//! problem, never of coupling insertion order.
//!
//! The annealer's sweep engine (`quamax_anneal::kernel`) builds one
//! `CompiledProblem` per programmed problem and shares it read-only
//! across worker threads; per-anneal ICE noise *refreezes* coefficients
//! into a per-thread scratch copy via [`CompiledProblem::refreeze_from`]
//! plus the `perturb_*` visitors, which touch only the two flat
//! coefficient arrays (no re-sorting, no reallocation).

use crate::ising::IsingProblem;
use crate::Spin;

/// A CSR-layout snapshot of an Ising problem.
///
/// ```
/// use quamax_ising::{CompiledProblem, IsingProblem};
///
/// let mut p = IsingProblem::new(3);
/// p.set_coupling(0, 1, -1.0);
/// p.set_linear(0, 0.5);
/// let c = CompiledProblem::new(&p);
/// let s = [-1, -1, 1];
/// assert_eq!(c.energy(&s), p.energy(&s));
/// assert_eq!(c.flip_delta(&s, 0), p.flip_delta(&s, 0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledProblem {
    linear: Vec<f64>,
    /// `offsets[i]..offsets[i+1]` delimits spin `i`'s row.
    offsets: Vec<u32>,
    /// Flat neighbor indices, row-sorted ascending.
    neighbors: Vec<u32>,
    /// Coefficients parallel to `neighbors` (each undirected coupling
    /// appears in both endpoint rows).
    weights: Vec<f64>,
    /// For each directed entry, the index of its reverse entry — lets a
    /// symmetric perturbation touch both directions in one pass.
    twin: Vec<u32>,
}

impl CompiledProblem {
    /// Freezes `problem` into CSR form.
    ///
    /// # Panics
    /// Panics if the problem has more than `u32::MAX` spins or directed
    /// couplings (far beyond any chip this workspace models).
    pub fn new(problem: &IsingProblem) -> Self {
        let n = problem.num_spins();
        assert!(
            n <= u32::MAX as usize,
            "problem too large for u32 CSR indices"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let total: usize = 2 * problem.num_couplings();
        assert!(
            total <= u32::MAX as usize,
            "problem too large for u32 CSR indices"
        );
        let mut neighbors = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);

        offsets.push(0u32);
        let mut row: Vec<(usize, f64)> = Vec::new();
        for i in 0..n {
            row.clear();
            row.extend_from_slice(problem.neighbors(i));
            row.sort_unstable_by_key(|&(j, _)| j);
            for &(j, g) in &row {
                neighbors.push(j as u32);
                weights.push(g);
            }
            offsets.push(neighbors.len() as u32);
        }

        // Twin table: for entry (i → j) find (j → i) by binary search in
        // row j (rows are sorted).
        let mut twin = vec![0u32; neighbors.len()];
        for i in 0..n {
            for k in offsets[i] as usize..offsets[i + 1] as usize {
                let j = neighbors[k] as usize;
                let row_j = &neighbors[offsets[j] as usize..offsets[j + 1] as usize];
                let pos = row_j
                    .binary_search(&(i as u32))
                    .expect("adjacency must be symmetric");
                twin[k] = offsets[j] + pos as u32;
            }
        }

        CompiledProblem {
            linear: problem.linear_terms().to_vec(),
            offsets,
            neighbors,
            weights,
            twin,
        }
    }

    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.linear.len()
    }

    /// Number of distinct (undirected) couplings.
    pub fn num_couplings(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// The linear coefficient `f_i`.
    #[inline]
    pub fn linear(&self, i: usize) -> f64 {
        self.linear[i]
    }

    /// All linear coefficients.
    pub fn linear_terms(&self) -> &[f64] {
        &self.linear
    }

    /// Spin `i`'s neighborhood as parallel `(indices, coefficients)`
    /// slices.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        (&self.neighbors[lo..hi], &self.weights[lo..hi])
    }

    /// Number of neighbors of spin `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Spin `i`'s row as a half-open range of flat CSR entry indices —
    /// the strided-accessor form of [`CompiledProblem::row`] used by
    /// kernels that keep per-entry side arrays (e.g. a replica batch's
    /// `weights[e·R + r]` strips) parallel to the CSR layout.
    #[inline]
    pub fn row_bounds(&self, i: usize) -> (usize, usize) {
        (self.offsets[i] as usize, self.offsets[i + 1] as usize)
    }

    /// Total directed CSR entries (`2 × num_couplings`): the length of
    /// the flat [`CompiledProblem::neighbors_flat`] /
    /// [`CompiledProblem::weights_flat`] arrays.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.neighbors.len()
    }

    /// The flat neighbor-index array (all rows concatenated, delimited
    /// by [`CompiledProblem::row_bounds`]).
    #[inline]
    pub fn neighbors_flat(&self) -> &[u32] {
        &self.neighbors
    }

    /// The flat coefficient array parallel to
    /// [`CompiledProblem::neighbors_flat`].
    #[inline]
    pub fn weights_flat(&self) -> &[f64] {
        &self.weights
    }

    /// For each directed entry, the flat index of its reverse entry
    /// (parallel to [`CompiledProblem::neighbors_flat`]).
    #[inline]
    pub fn twins_flat(&self) -> &[u32] {
        &self.twin
    }

    /// The local field `h_i = f_i + Σ_j g_ij·s_j` around spin `i`.
    #[inline]
    pub fn local_field(&self, spins: &[Spin], i: usize) -> f64 {
        let (idx, w) = self.row(i);
        let mut h = self.linear[i];
        for (&j, &g) in idx.iter().zip(w) {
            h += g * spins[j as usize] as f64;
        }
        h
    }

    /// The energy change from flipping spin `i`:
    /// `ΔE = −2·s_i·h_i` (cross-checked against
    /// [`IsingProblem::flip_delta`] by the ising property tests).
    #[inline]
    pub fn flip_delta(&self, spins: &[Spin], i: usize) -> f64 {
        -2.0 * spins[i] as f64 * self.local_field(spins, i)
    }

    /// The total energy `E(s)` (Eq. 2), identical to
    /// [`IsingProblem::energy`] up to floating-point addition order.
    ///
    /// # Panics
    /// Panics when `spins.len()` differs from the spin count.
    pub fn energy(&self, spins: &[Spin]) -> f64 {
        assert_eq!(
            spins.len(),
            self.num_spins(),
            "configuration length mismatch"
        );
        let mut e = 0.0;
        for i in 0..self.num_spins() {
            let s = spins[i] as f64;
            e += self.linear[i] * s;
            let (idx, w) = self.row(i);
            for (&j, &g) in idx.iter().zip(w) {
                if j as usize > i {
                    e += g * s * spins[j as usize] as f64;
                }
            }
        }
        e
    }

    /// Fills `out` with every spin's local field (the initialization of
    /// an incremental sweep state).
    pub fn local_fields_into(&self, spins: &[Spin], out: &mut Vec<f64>) {
        assert_eq!(
            spins.len(),
            self.num_spins(),
            "configuration length mismatch"
        );
        out.clear();
        out.extend((0..self.num_spins()).map(|i| self.local_field(spins, i)));
    }

    /// Copies `base`'s coefficients into `self`, reusing allocations —
    /// two `memcpy`-like passes over `linear`/`weights`. The intended
    /// use is a per-thread scratch refreezing the *same* problem once
    /// per anneal, so the CSR structure is only (re)copied when its
    /// shape differs (fresh or repurposed scratch); same-shape callers
    /// skip straight past it, with full structural equality checked in
    /// debug builds only.
    pub fn refreeze_from(&mut self, base: &CompiledProblem) {
        self.linear.clear();
        self.linear.extend_from_slice(&base.linear);
        self.weights.clear();
        self.weights.extend_from_slice(&base.weights);
        if self.offsets.len() != base.offsets.len() || self.neighbors.len() != base.neighbors.len()
        {
            self.offsets.clone_from(&base.offsets);
            self.neighbors.clone_from(&base.neighbors);
            self.twin.clone_from(&base.twin);
        }
        debug_assert_eq!(
            self.offsets, base.offsets,
            "scratch compiled from a different problem"
        );
        debug_assert_eq!(
            self.neighbors, base.neighbors,
            "scratch compiled from a different problem"
        );
    }

    /// Overwrites the linear coefficient `f_i` in place.
    ///
    /// Together with [`CompiledProblem::set_entry_weight`] this is the
    /// *coefficient refresh* surface: a caller that holds a problem
    /// whose CSR **structure** is fixed (same spins, same coupling
    /// sparsity pattern) can re-target the frozen view to new
    /// coefficient values without re-sorting or reallocating — the
    /// per-decode path of a compile-once decode session, where only
    /// the receive-vector-dependent fields (and a global scale) move
    /// between Monte-Carlo batches.
    #[inline]
    pub fn set_linear_term(&mut self, i: usize, f: f64) {
        self.linear[i] = f;
    }

    /// The CSR entry index of the directed coupling `i → j`, found by
    /// binary search in spin `i`'s sorted row — `None` when the pair is
    /// not coupled. The returned index is stable for the lifetime of
    /// the compiled structure, so callers refreshing the same problem
    /// shape many times resolve each coupler once and then write
    /// through [`CompiledProblem::set_entry_weight`].
    pub fn coupler_entry(&self, i: usize, j: usize) -> Option<usize> {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        self.neighbors[lo..hi]
            .binary_search(&(j as u32))
            .ok()
            .map(|pos| lo + pos)
    }

    /// Writes the undirected coupling held at CSR entry `k` — both the
    /// entry itself and its twin (the reverse direction) — keeping the
    /// stored problem symmetric.
    #[inline]
    pub fn set_entry_weight(&mut self, k: usize, g: f64) {
        self.weights[k] = g;
        self.weights[self.twin[k] as usize] = g;
    }

    /// The coefficient currently held at CSR entry `k`.
    #[inline]
    pub fn entry_weight(&self, k: usize) -> f64 {
        self.weights[k]
    }

    /// Applies `f` to every linear coefficient, in spin order.
    pub fn perturb_linear(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in self.linear.iter_mut() {
            *v = f(*v);
        }
    }

    /// Applies `f` to every undirected coupling once — visited in CSR
    /// order (`i` ascending, then `j` ascending, `i < j`) — writing the
    /// result to both directed entries. The visit order is layout-
    /// determined, so callers drawing noise per coupling get a stable
    /// stream for a given problem.
    pub fn perturb_couplings(&mut self, mut f: impl FnMut(f64) -> f64) {
        for i in 0..self.num_spins() {
            for k in self.offsets[i] as usize..self.offsets[i + 1] as usize {
                if (self.neighbors[k] as usize) > i {
                    let g = f(self.weights[k]);
                    self.weights[k] = g;
                    self.weights[self.twin[k] as usize] = g;
                }
            }
        }
    }
}

impl From<&IsingProblem> for CompiledProblem {
    fn from(problem: &IsingProblem) -> Self {
        CompiledProblem::new(problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn all_configs(n: usize) -> impl Iterator<Item = Vec<Spin>> {
        (0..1u32 << n).map(move |k| {
            (0..n)
                .map(|i| if (k >> i) & 1 == 1 { 1 } else { -1 })
                .collect()
        })
    }

    #[test]
    fn energy_and_delta_match_naive_exhaustively() {
        let p = triangle();
        let c = CompiledProblem::new(&p);
        for s in all_configs(3) {
            assert!((c.energy(&s) - p.energy(&s)).abs() < 1e-12);
            for i in 0..3 {
                assert!((c.flip_delta(&s, i) - p.flip_delta(&s, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn layout_is_insertion_order_independent() {
        let mut a = IsingProblem::new(4);
        a.set_coupling(0, 3, 1.0);
        a.set_coupling(0, 1, -1.0);
        a.set_coupling(2, 3, 0.5);
        let mut b = IsingProblem::new(4);
        b.set_coupling(2, 3, 0.5);
        b.set_coupling(0, 1, -1.0);
        b.set_coupling(3, 0, 1.0);
        assert_eq!(CompiledProblem::new(&a), CompiledProblem::new(&b));
    }

    #[test]
    fn rows_expose_sorted_neighborhoods() {
        let p = triangle();
        let c = CompiledProblem::new(&p);
        assert_eq!(c.num_spins(), 3);
        assert_eq!(c.num_couplings(), 3);
        let (idx, w) = c.row(0);
        assert_eq!(idx, &[1, 2]);
        assert_eq!(w, &[1.0, 0.25]);
        assert_eq!(c.degree(1), 2);
    }

    #[test]
    fn local_fields_match_definition() {
        let p = triangle();
        let c = CompiledProblem::new(&p);
        let s = [1, -1, 1];
        let mut fields = Vec::new();
        c.local_fields_into(&s, &mut fields);
        // h_0 = f_0 + g_01·s_1 + g_02·s_2 = 1 − 1 + 0.25
        assert!((fields[0] - 0.25).abs() < 1e-12);
        // h_1 = −2 + 1·1 + (−1)·1 = −2
        assert!((fields[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn refreeze_and_perturb_touch_both_directions() {
        let p = triangle();
        let base = CompiledProblem::new(&p);
        let mut scratch = base.clone();
        let mut step = 0.0;
        scratch.perturb_couplings(|g| {
            step += 1.0;
            g + step
        });
        // Every directed entry moved, symmetrically.
        for i in 0..3 {
            let (idx, w) = scratch.row(i);
            for (&j, &g) in idx.iter().zip(w) {
                let (jidx, jw) = scratch.row(j as usize);
                let back = jidx.iter().position(|&k| k as usize == i).unwrap();
                assert_eq!(g, jw[back], "asymmetric perturbation at ({i},{j})");
                assert_ne!(g, p.coupling(i, j as usize), "coupling ({i},{j}) untouched");
            }
        }
        // Refreeze restores the base exactly.
        scratch.refreeze_from(&base);
        assert_eq!(scratch, base);
    }

    #[test]
    fn coefficient_refresh_matches_a_fresh_compile() {
        // Re-targeting a compiled structure to new coefficient values
        // must be indistinguishable from compiling the new problem.
        let p = triangle();
        let mut c = CompiledProblem::new(&p);
        let mut p2 = triangle();
        p2.set_linear(0, -3.5);
        p2.set_linear(2, 7.0);
        p2.set_coupling(0, 1, 2.25);
        p2.set_coupling(1, 2, 0.125);
        for i in 0..3 {
            c.set_linear_term(i, p2.linear(i));
        }
        for (i, j, g) in p2.couplings() {
            let k = c.coupler_entry(i, j).expect("same sparsity");
            c.set_entry_weight(k, g);
            assert_eq!(c.entry_weight(k), g);
        }
        assert_eq!(c, CompiledProblem::new(&p2));
        assert_eq!(c.coupler_entry(0, 0), None);
    }

    #[test]
    fn flat_accessors_mirror_rows() {
        let p = triangle();
        let c = CompiledProblem::new(&p);
        assert_eq!(c.num_entries(), 2 * c.num_couplings());
        for i in 0..3 {
            let (lo, hi) = c.row_bounds(i);
            let (idx, w) = c.row(i);
            assert_eq!(&c.neighbors_flat()[lo..hi], idx);
            assert_eq!(&c.weights_flat()[lo..hi], w);
        }
    }

    #[test]
    fn empty_problem_compiles() {
        let p = IsingProblem::new(5);
        let c = CompiledProblem::new(&p);
        assert_eq!(c.num_couplings(), 0);
        assert_eq!(c.energy(&[1, 1, -1, 1, -1]), 0.0);
    }
}
