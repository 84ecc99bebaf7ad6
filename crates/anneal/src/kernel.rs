//! The incremental-local-field sweep engine (see the DESIGN section of
//! the crate docs).
//!
//! Every Monte-Carlo backend in this crate reduces to the same three
//! primitives over a [`CompiledProblem`]:
//!
//! * **propose** a spin flip: `ΔE = −2·s_i·h_i`, O(1) from the cached
//!   local field `h_i = f_i + Σ_j g_ij·s_j`;
//! * **accept** a flip: negate `s_i` and push `±2·g_ij` into each
//!   neighbor's cached field, O(degree) — paid only for accepted moves,
//!   which is the winning trade late in a schedule where acceptance
//!   collapses;
//! * **propose/accept a chain flip**: the per-spin deltas summed from
//!   cached fields plus a `+4·g_ab·s_a·s_b` correction per *internal*
//!   edge, with the internal edge list precompiled per chain by
//!   [`CompiledChains`] instead of rediscovered by `chain.contains(j)`
//!   scans on every sweep; `g_ab` is read from the replica's own
//!   coefficients, so ICE-perturbed replicas stay exact.
//!
//! The SA spin pass proposes spins class by class
//! ([`CompiledProblem::sweep_order`]): a greedy coloring of the CSR
//! graph, computed once when the problem is frozen. No two spins of a
//! class are coupled, so the pass is exact Metropolis in any order
//! inside a class. Every Chimera embedding is bipartite and gets two
//! classes; a fully coupled logical problem gets one class per spin,
//! which is index order. Chain moves run in chain index order and the
//! SQA moves in index order. Window placement still never changes a
//! sample: every width walks the same order.
//!
//! SA decisions are counter-based ([`crate::draws`]): a proposal's
//! uniform is a hash of the replica's key, the sweep and the site, so
//! [`ReplicaBatch::anneal`] decides a color class eight proposals at a
//! time — one 8-wide strip, or the next `8 / W` spins of the class at
//! width `W` — each block in one branch-free pass, and only then flips
//! and scatters the accepted spins in class order. A chain move at
//! `W ≥ 4` is decided by the same 8-lane pass, its unused lanes masked
//! out. The whole SA window (bind, init, spin pass, chain pass,
//! scatter) runs in one function compiled for the host's widest
//! [`Isa`]; every set yields the bits of deciding one proposal at a
//! time through the closure seams [`ReplicaBatch::sweep_spins`] and
//! [`ReplicaBatch::sweep_chain`].
//!
//! What vectorizes: the 8-lane decide, and every `W`-wide replica
//! strip — the flip energies, a chain's internal-edge terms, the field
//! rebuild, the flip (a select per lane: a rejected replica keeps its
//! spin and the step `+0.0`) and the scatter `fields += steps·g`. The
//! rule that keeps a strip update vectorized: it reads its operands
//! into local arrays before it writes. The weight and field strips are
//! two buffers of one batch, which the compiler cannot prove apart, and
//! a strip loop that writes one while it reads the other through a
//! reference stays scalar.
//!
//! [`ReplicaBatch`] holds `W` replicas of `P` Trotter slices each, spins
//! and fields in structure-of-arrays strips indexed `(k·n + i)·W + r`:
//! an SA configuration is one slice (`P = 1`), an SQA path-integral
//! state `P ≥ 2` slices with one field cache per slice. It is the only
//! sweep state — a single anneal is a width-1 batch — allocated once
//! per worker thread and reset per window, so the hot loop performs no
//! allocation at all. The SA sweep and the SQA moves (driven from
//! [`crate::sqa`]) run the widths of [`SA_WIDTHS`], and `windows` plans
//! a run of anneals into windows of those widths.

use crate::draws::{self, decide, LANES};
use crate::ice::IceModel;
use quamax_ising::{CompiledProblem, Spin};
use rand::Rng;
use std::ops::Range;

/// Precompiled chain-collective move tables for one problem: member
/// lists and internal-edge lists in flat CSR-style storage.
#[derive(Clone, Debug)]
pub struct CompiledChains {
    /// Flat member indices.
    members: Vec<u32>,
    /// `member_offsets[c]..member_offsets[c+1]` delimits chain `c`.
    member_offsets: Vec<u32>,
    /// Flat internal edges `(a, b, e)` with both endpoints in the
    /// owning chain, `e` the CSR entry of `a → b`.
    internal: Vec<(u32, u32, u32)>,
    /// `internal_offsets[c]..internal_offsets[c+1]` delimits chain `c`.
    internal_offsets: Vec<u32>,
}

impl Default for CompiledChains {
    /// No chains (plain single-spin dynamics).
    fn default() -> Self {
        CompiledChains {
            members: Vec::new(),
            member_offsets: vec![0],
            internal: Vec::new(),
            internal_offsets: vec![0],
        }
    }
}

impl CompiledChains {
    /// Compiles `chains` against `problem`. Internal edges are found
    /// through a membership mask in O(Σ degree), not by per-sweep
    /// membership scans.
    ///
    /// # Panics
    /// Panics when a chain member is out of range for the problem, or
    /// when a spin appears in more than one chain (the membership mask
    /// identifies internal edges by owner, so overlapping chains would
    /// silently drop edges; the naive `sa::chain_flip_delta` tolerates
    /// overlap, but no embedding produces it).
    pub fn compile(problem: &CompiledProblem, chains: &[Vec<usize>]) -> Self {
        let n = problem.num_spins();
        let mut compiled = CompiledChains {
            members: Vec::new(),
            member_offsets: vec![0],
            internal: Vec::new(),
            internal_offsets: vec![0],
        };
        // chain id + 1 per spin; 0 = unassigned.
        let mut owner = vec![0u32; n];
        for (c, chain) in chains.iter().enumerate() {
            for &i in chain {
                assert!(i < n, "chain member {i} out of range");
                assert_eq!(
                    owner[i], 0,
                    "spin {i} appears in more than one chain (chains must be disjoint)"
                );
                owner[i] = c as u32 + 1;
            }
        }
        for (c, chain) in chains.iter().enumerate() {
            for &i in chain {
                compiled.members.push(i as u32);
                let (lo, hi) = problem.row_bounds(i);
                for (e, &j) in (lo..hi).zip(&problem.neighbors_flat()[lo..hi]) {
                    // Each internal edge recorded once (a < b).
                    if (j as usize) > i && owner[j as usize] == c as u32 + 1 {
                        compiled.internal.push((i as u32, j, e as u32));
                    }
                }
            }
            compiled.member_offsets.push(compiled.members.len() as u32);
            compiled
                .internal_offsets
                .push(compiled.internal.len() as u32);
        }
        compiled
    }

    /// Number of chains.
    pub fn len(&self) -> usize {
        self.member_offsets.len() - 1
    }

    /// `true` when no chains were compiled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chain `c`'s member spins.
    #[inline]
    pub fn members(&self, c: usize) -> &[u32] {
        let lo = self.member_offsets[c] as usize;
        let hi = self.member_offsets[c + 1] as usize;
        &self.members[lo..hi]
    }

    /// Chain `c`'s internal edges as `(a, b, e)`, where `e` is the CSR
    /// entry of `a → b`: a sweep reads `g_ab` there, from the replica's
    /// own (possibly ICE-perturbed) coefficients.
    #[inline]
    fn internal_edges(&self, c: usize) -> &[(u32, u32, u32)] {
        let lo = self.internal_offsets[c] as usize;
        let hi = self.internal_offsets[c + 1] as usize;
        &self.internal[lo..hi]
    }
}

/// A per-replica batch's coefficient strips, `linear[i·width + r]` and
/// `weights[e·width + r]`: the target an ICE refreeze binds into.
pub(crate) struct WindowStrips<'a> {
    linear: &'a mut [f64],
    weights: &'a mut [f64],
    width: usize,
}

impl WindowStrips<'_> {
    /// Replicas per strip.
    #[inline]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Copies `problem`'s coefficients unchanged into replica `r`.
    pub(crate) fn copy_from(&mut self, r: usize, problem: &CompiledProblem) {
        let w = self.width;
        for (i, &f) in problem.linear_terms().iter().enumerate() {
            self.linear[i * w + r] = f;
        }
        for (e, &g) in problem.weights_flat().iter().enumerate() {
            self.weights[e * w + r] = g;
        }
    }

    /// Spin `i`'s linear terms, one per replica.
    #[inline]
    pub(crate) fn linear_strip(&mut self, i: usize) -> &mut [f64] {
        &mut self.linear[i * self.width..(i + 1) * self.width]
    }

    /// Directed CSR entry `e`'s couplings, one per replica.
    #[inline]
    pub(crate) fn weight_strip(&mut self, e: usize) -> &mut [f64] {
        &mut self.weights[e * self.width..(e + 1) * self.width]
    }

    /// Copies entry `from`'s strip onto entry `to` (a coupler's twin).
    #[inline]
    pub(crate) fn copy_weight_strip(&mut self, from: usize, to: usize) {
        let w = self.width;
        self.weights.copy_within(from * w..(from + 1) * w, to * w);
    }
}

/// Uniform `±1` spins from one `next_u64` per 64 spins: spin `k` is
/// `+1` iff bit `k % 64` of draw `k / 64` is set. `put(k, s)` stores
/// spin `k`.
#[inline]
fn random_spins<R: Rng + ?Sized>(count: usize, rng: &mut R, mut put: impl FnMut(usize, Spin)) {
    let mut bits = 0u64;
    for k in 0..count {
        if k % 64 == 0 {
            bits = rng.next_u64();
        }
        put(k, if (bits >> (k % 64)) & 1 == 1 { 1 } else { -1 });
    }
}

/// The replica widths the SA sweep and the SQA moves are compiled for:
/// every strip is a fixed-size array at one of these widths, so bounds
/// checks vanish and the strip arithmetic unrolls. `windows` plans
/// batches from this set alone, and sweeping a [`ReplicaBatch`] of any
/// other width panics.
pub const SA_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Cuts `len` consecutive anneal slots into replica windows, in order:
/// each window is the widest of [`SA_WIDTHS`] that fits the slots left,
/// so a run is full-width windows followed by a power-of-two tail
/// (13 slots → 8, 4, 1). Window placement never changes a sample (the
/// stream-splitting contract), only throughput.
pub(crate) fn windows(len: usize) -> impl Iterator<Item = Range<usize>> {
    let mut at = 0;
    std::iter::from_fn(move || {
        let width = *SA_WIDTHS.iter().rev().find(|&&w| w <= len - at)?;
        at += width;
        Some(at - width..at)
    })
}

#[cold]
pub(crate) fn unsupported_width(width: usize) -> ! {
    panic!("replica width {width} is unsupported: the sweeps run widths {SA_WIDTHS:?}")
}

/// `W` independent replicas of `P` Trotter slices each, in
/// structure-of-arrays layout: `spins[(k·n + i)·W + r]` /
/// `fields[(k·n + i)·W + r]` is spin `i` of slice `k` of replica `r`, so
/// the per-spin loop over replicas is a contiguous strip and one CSR row
/// walk pays for all `W` replicas' field updates. SA runs one slice
/// (`P = 1`, the index `i·W + r`); SQA runs `P ≥ 2` slices, each with
/// its own cache of problem-term fields, under the moves
/// [`crate::sqa`] drives. A single anneal is a width-1 batch. Sites
/// `k·n + i` name a (slice, spin) pair in [`ReplicaBatch::spin`] and
/// [`ReplicaBatch::field`].
///
/// Two coefficient modes, both shared by every slice:
///
/// * **shared** ([`ReplicaBatch::reset_shared`]) — every replica runs
///   the exact problem passed to each sweep call (same `y`, zero ICE);
///   the scatter broadcasts one `g` per row entry across the strip;
/// * **per-replica** ([`ReplicaBatch::reset_per_replica`] +
///   [`ReplicaBatch::bind_replica`], or
///   [`ReplicaBatch::bind_window_ice`] to refreeze ICE on the way in)
///   — each replica carries its own `linear[i*W + r]` /
///   `weights[e*W + r]` strips (different `y` vectors, or per-anneal
///   ICE-refrozen coefficients); only the CSR *structure* of the
///   problem argument is read.
///
/// Each replica is bit-identical to the same replica swept alone at
/// width 1 from the same RNG stream (the stream-splitting contract in
/// the crate's DESIGN docs), because per-replica draw order and
/// floating-point accumulation order do not depend on the width;
/// grouping replicas into a batch is unobservable per stream.
#[derive(Clone, Debug, Default)]
pub struct ReplicaBatch {
    width: usize,
    n: usize,
    /// Trotter slices per replica (1 for SA).
    slices: usize,
    /// Shared coefficient mode: couplings come from the problem
    /// argument and `weights` is not read.
    shared: bool,
    /// `spins[(k*n + i)*width + r]` = spin `i` of slice `k`, replica `r`.
    spins: Vec<Spin>,
    /// Cached per-slice problem-term local fields, parallel to `spins`.
    fields: Vec<f64>,
    /// Per-replica linear terms `linear[i*width + r]`, shared by every
    /// slice (broadcast from the shared problem in shared mode).
    linear: Vec<f64>,
    /// Per-replica coupling strips `weights[e*width + r]` (per-replica
    /// mode; the allocation outlives shared windows).
    weights: Vec<f64>,
    /// Scratch: the window's ICE deviates, `W × (n + m)`, entry-major.
    normals: Vec<f64>,
    /// Scratch: one color class's decisions, one byte mask per block.
    masks: Vec<u64>,
    /// Scratch: one sweep's chain-move uniforms at widths 1 and 2,
    /// `uniforms[c·W + r]`.
    uniforms: Vec<f64>,
}

impl ReplicaBatch {
    /// An empty batch; call a `reset_*` method before sweeping.
    pub fn new() -> Self {
        ReplicaBatch::default()
    }

    /// Replicas per batch.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Spins per slice.
    #[inline]
    pub fn num_spins(&self) -> usize {
        self.n
    }

    /// Trotter slices per replica (1 for SA).
    #[inline]
    pub fn num_slices(&self) -> usize {
        self.slices
    }

    /// Shapes the buffers for `width` replicas of `slices` slices. Any
    /// width binds and initializes; sweeping needs one of
    /// [`SA_WIDTHS`]. Buffers keep their allocations and stale contents:
    /// binding and initializing every replica overwrite all of them.
    fn reset_common(
        &mut self,
        problem: &CompiledProblem,
        slices: usize,
        width: usize,
        shared: bool,
    ) {
        assert!(width > 0, "batch width must be positive");
        assert!(slices > 0, "a replica needs at least one slice");
        let n = problem.num_spins();
        self.width = width;
        self.n = n;
        self.slices = slices;
        self.shared = shared;
        self.spins.resize(slices * n * width, 1);
        self.fields.resize(slices * n * width, 0.0);
        self.linear.resize(n * width, 0.0);
    }

    /// (Re)shapes the batch to `width` replicas of `slices` slices of
    /// `problem` in *shared* coefficient mode: every replica reads the
    /// problem's own coefficients. Replicas still need
    /// [`ReplicaBatch::init_replica`] (or the random variant) before
    /// sweeping.
    pub fn reset_shared(&mut self, problem: &CompiledProblem, slices: usize, width: usize) {
        self.reset_common(problem, slices, width, true);
        for i in 0..self.n {
            let f = problem.linear(i);
            self.linear[i * width..(i + 1) * width].fill(f);
        }
    }

    /// (Re)shapes the batch to `width` replicas of `slices` slices
    /// sharing `structure`'s CSR layout in *per-replica* coefficient
    /// mode; every replica must be given its coefficients via
    /// [`ReplicaBatch::bind_replica`] before it is initialized.
    pub fn reset_per_replica(&mut self, structure: &CompiledProblem, slices: usize, width: usize) {
        self.reset_common(structure, slices, width, false);
        self.weights.resize(structure.num_entries() * width, 0.0);
    }

    /// Copies `problem`'s coefficients into replica `r`'s strips
    /// (per-replica mode only). `problem` must share the batch
    /// structure's CSR layout.
    ///
    /// # Panics
    /// Panics in shared mode or when shapes disagree.
    pub fn bind_replica(&mut self, r: usize, problem: &CompiledProblem) {
        self.strips(problem).0.copy_from(r, problem);
    }

    /// The coefficient strips (and the deviate scratch), after the
    /// shape checks of a bind against `problem`.
    ///
    /// # Panics
    /// Panics in shared mode (no weight strips) or when `problem`'s
    /// shape disagrees with the batch.
    fn strips(&mut self, problem: &CompiledProblem) -> (WindowStrips<'_>, &mut Vec<f64>) {
        assert!(
            !self.shared,
            "binding needs a per-replica batch (reset_per_replica)"
        );
        let (w, n, m) = (self.width, problem.num_spins(), problem.num_entries());
        assert!(
            self.linear.len() == n * w && self.weights.len() == m * w,
            "structure mismatch"
        );
        let strips = WindowStrips {
            linear: &mut self.linear,
            weights: &mut self.weights,
            width: w,
        };
        (strips, &mut self.normals)
    }

    /// Binds every replica to one anneal's ICE-refrozen coefficients:
    /// replica `r` gets `problems[r]` (sharing the batch's CSR layout)
    /// under deviates drawn from `rngs[r]`, exactly as
    /// [`IceModel::refreeze`] from `rngs[r]` followed by
    /// [`ReplicaBatch::bind_replica`] would leave it, with every stream
    /// in the same state; the perturbed coefficients are written
    /// straight into the strips, one contiguous strip per entry. A zero
    /// model draws nothing and binds the problems as they are.
    ///
    /// # Panics
    /// Panics in shared mode, when shapes disagree, or unless
    /// `problems` and `rngs` both hold one entry per replica.
    #[inline]
    pub fn bind_window_ice<R: Rng>(
        &mut self,
        problems: &[&CompiledProblem],
        ice: &IceModel,
        rngs: &mut [R],
    ) {
        assert!(!problems.is_empty(), "one problem per replica");
        let (n, entries) = (problems[0].num_spins(), problems[0].num_entries());
        assert!(
            problems
                .iter()
                .all(|p| p.num_spins() == n && p.num_entries() == entries),
            "structure mismatch"
        );
        let (mut strips, normals) = self.strips(problems[0]);
        ice.refreeze_window(problems, &mut strips, normals, rngs);
    }

    /// Sets slice `k` of replica `r` to `spins` and rebuilds that
    /// slice's cached fields from the replica's bound coefficients.
    /// `problem` supplies the CSR structure (and, in shared mode, the
    /// coefficients).
    pub fn init_replica(&mut self, problem: &CompiledProblem, r: usize, k: usize, spins: &[Spin]) {
        self.set_replica(r, k, spins);
        self.rebuild_replica_fields(problem, r, k);
    }

    /// Initializes replica `r` uniformly at random: one `next_u64` per
    /// 64 sites, slice-major, site `k·n + i` up iff bit `(k·n + i) % 64`
    /// of draw `(k·n + i) / 64` is set.
    pub fn init_replica_random<R: Rng + ?Sized>(
        &mut self,
        problem: &CompiledProblem,
        r: usize,
        rng: &mut R,
    ) {
        self.draw_replica(r, rng);
        for k in 0..self.slices {
            self.rebuild_replica_fields(problem, r, k);
        }
    }

    /// Sets slice `k` of replica `r`; its cached fields stay stale until
    /// [`ReplicaBatch::rebuild_fields`].
    fn set_replica(&mut self, r: usize, k: usize, spins: &[Spin]) {
        assert_eq!(spins.len(), self.n, "initial state length mismatch");
        assert!(k < self.slices, "slice {k} out of range");
        let (w, base) = (self.width, k * self.n);
        for (i, &s) in spins.iter().enumerate() {
            self.spins[(base + i) * w + r] = s;
        }
    }

    /// Draws every slice of replica `r` as
    /// [`ReplicaBatch::init_replica_random`] does; its cached fields
    /// stay stale until [`ReplicaBatch::rebuild_fields`].
    pub fn draw_replica<R: Rng + ?Sized>(&mut self, r: usize, rng: &mut R) {
        let w = self.width;
        let spins = &mut self.spins;
        random_spins(self.slices * self.n, rng, |at, s| spins[at * w + r] = s);
    }

    /// Rebuilds every replica's cached fields from its spins and bound
    /// coefficients in one CSR pass per slice, strip by strip: each row
    /// entry is read once for all replicas. Per replica the sum runs in
    /// [`ReplicaBatch::init_replica`]'s order, so the fields are the
    /// same bits.
    #[inline(always)]
    pub fn rebuild_fields(&mut self, problem: &CompiledProblem) {
        match self.width {
            1 => self.rebuild_fields_w::<1>(problem),
            2 => self.rebuild_fields_w::<2>(problem),
            4 => self.rebuild_fields_w::<4>(problem),
            8 => self.rebuild_fields_w::<8>(problem),
            w => {
                for r in 0..w {
                    for k in 0..self.slices {
                        self.rebuild_replica_fields(problem, r, k);
                    }
                }
            }
        }
    }

    #[inline(always)]
    fn rebuild_fields_w<const W: usize>(&mut self, problem: &CompiledProblem) {
        let neighbors = problem.neighbors_flat();
        for base in (0..self.slices).map(|k| k * self.n) {
            for i in 0..self.n {
                let (lo, hi) = problem.row_bounds(i);
                let mut h: [f64; W] = self.linear[i * W..(i + 1) * W].try_into().expect("strip");
                for (e, &j) in (lo..hi).zip(&neighbors[lo..hi]) {
                    let at = (base + j as usize) * W;
                    let s: &[Spin; W] = self.spins[at..at + W].try_into().expect("strip");
                    if self.shared {
                        let g = problem.weights_flat()[e];
                        for r in 0..W {
                            h[r] += g * s[r] as f64;
                        }
                    } else {
                        let gs: &[f64; W] =
                            self.weights[e * W..(e + 1) * W].try_into().expect("strip");
                        for r in 0..W {
                            h[r] += gs[r] * s[r] as f64;
                        }
                    }
                }
                self.fields[(base + i) * W..(base + i + 1) * W].copy_from_slice(&h);
            }
        }
    }

    fn rebuild_replica_fields(&mut self, problem: &CompiledProblem, r: usize, k: usize) {
        let (w, base) = (self.width, k * self.n);
        for i in 0..self.n {
            let (lo, hi) = problem.row_bounds(i);
            let idx = &problem.neighbors_flat()[lo..hi];
            let mut h = self.linear[i * w + r];
            if self.shared {
                let gs = &problem.weights_flat()[lo..hi];
                for (&j, &g) in idx.iter().zip(gs) {
                    h += g * self.spins[(base + j as usize) * w + r] as f64;
                }
            } else {
                for (pos, &j) in idx.iter().enumerate() {
                    let g = self.weights[(lo + pos) * w + r];
                    h += g * self.spins[(base + j as usize) * w + r] as f64;
                }
            }
            self.fields[(base + i) * w + r] = h;
        }
    }

    /// The spin at (site `k·n + i`, replica `r`); for SA the site is
    /// the spin index.
    #[inline]
    pub fn spin(&self, site: usize, r: usize) -> Spin {
        self.spins[site * self.width + r]
    }

    /// The cached problem-term local field at (site `k·n + i`, replica
    /// `r`).
    #[inline]
    pub fn field(&self, site: usize, r: usize) -> f64 {
        self.fields[site * self.width + r]
    }

    /// Slice `k` of replica `r`, gathered out of the strided layout.
    pub fn replica_spins(&self, r: usize, k: usize) -> Vec<Spin> {
        let base = k * self.n;
        (0..self.n)
            .map(|i| self.spins[(base + i) * self.width + r])
            .collect()
    }

    /// The programmed energy of slice `k` of replica `r`, reconstructed
    /// in O(n) from its cached fields: `E = Σ_i s_i·(h_i + f_i)/2`, `i`
    /// ascending (each coupling appears in two fields, each linear term
    /// in one).
    pub fn energy(&self, r: usize, k: usize) -> f64 {
        let (w, base) = (self.width, k * self.n);
        (0..self.n)
            .map(|i| {
                let at = (base + i) * w + r;
                self.spins[at] as f64 * (self.fields[at] + self.linear[i * w + r]) / 2.0
            })
            .sum()
    }

    /// One full spin sweep under a caller's decision rule: proposes
    /// every spin in `problem`'s color-class order
    /// ([`CompiledProblem::sweep_order`]), `accept(i, r, ΔE_ir)` deciding
    /// one proposal at a time from the contiguous strip, then one CSR
    /// row walk scatters all accepted replicas' field updates at once.
    /// With [`crate::draws::accept`] as the rule this is the scalar reference
    /// of the spin pass of [`ReplicaBatch::anneal`].
    ///
    /// # Panics
    /// Panics unless the width is one of [`SA_WIDTHS`].
    pub fn sweep_spins(
        &mut self,
        problem: &CompiledProblem,
        mut accept: impl FnMut(usize, usize, f64) -> bool,
    ) {
        match self.width {
            1 => self.sweep_spins_w::<1>(problem, &mut accept),
            2 => self.sweep_spins_w::<2>(problem, &mut accept),
            4 => self.sweep_spins_w::<4>(problem, &mut accept),
            8 => self.sweep_spins_w::<8>(problem, &mut accept),
            w => unsupported_width(w),
        }
    }

    fn sweep_spins_w<const W: usize>(
        &mut self,
        problem: &CompiledProblem,
        accept: &mut impl FnMut(usize, usize, f64) -> bool,
    ) {
        debug_assert_eq!(self.width, W);
        debug_assert_eq!(problem.num_spins(), self.n);
        for &i in problem.sweep_order() {
            let i = i as usize;
            let deltas = self.spin_deltas::<W>(i);
            let mask = decided::<W>(|r| accept(i, r, deltas[r]));
            if mask != 0 {
                self.flip_spin::<W>(problem, 0, i, mask);
            }
        }
    }

    /// The flip energy `ΔE = −2·s·h` of site `at` (`k·n + i`) in every
    /// replica: the problem term only.
    #[inline(always)]
    fn spin_deltas<const W: usize>(&self, at: usize) -> [f64; W] {
        let at = at * W;
        let spins: &[Spin; W] = self.spins[at..at + W].try_into().expect("strip");
        let fields: &[f64; W] = self.fields[at..at + W].try_into().expect("strip");
        std::array::from_fn(|r| -2.0 * spins[r] as f64 * fields[r])
    }

    /// Flips spin `i` of the slice at site offset `base` (`k·n`) in the
    /// replicas of `mask` (byte `r`, 0 or 1, for replica `r`; not all
    /// zero) and scatters their field updates in one row walk.
    #[inline(always)]
    fn flip_spin<const W: usize>(
        &mut self,
        problem: &CompiledProblem,
        base: usize,
        i: usize,
        mask: u64,
    ) {
        let at = (base + i) * W;
        let flips = mask.to_le_bytes();
        let old: [Spin; W] = self.spins[at..at + W].try_into().expect("strip");
        // Selects, not branches: a rejected replica keeps its spin and
        // the step +0.0 (never −0.0, whose sign would reach the fields).
        let steps: [f64; W] = std::array::from_fn(|r| {
            if flips[r] != 0 {
                -2.0 * old[r] as f64
            } else {
                0.0
            }
        });
        let new: [Spin; W] = std::array::from_fn(|r| if flips[r] != 0 { -old[r] } else { old[r] });
        self.spins[at..at + W].copy_from_slice(&new);
        self.scatter::<W>(problem, base, i, &steps);
    }

    /// One CSR row walk updating all replicas' slice at site offset
    /// `base` after its spin `i` moved: for each row entry `(j, g)`,
    /// `fields[(base+j)*W..][..W] = old + steps * g` — a fixed-size
    /// strip the compiler vectorizes (rejected replicas carry step
    /// `+0.0`, which only ever normalizes a zero's sign).
    #[inline(always)]
    fn scatter<const W: usize>(
        &mut self,
        problem: &CompiledProblem,
        base: usize,
        i: usize,
        steps: &[f64; W],
    ) {
        let (lo, hi) = problem.row_bounds(i);
        let idx = &problem.neighbors_flat()[lo..hi];
        // Operands are read into local arrays before the write: the
        // compiler cannot prove a weight strip and a field strip apart,
        // and a strip it must assume aliased stays scalar.
        let update = |fields: &mut [f64], j: u32, gs: [f64; W]| {
            let at = (base + j as usize) * W;
            let old: [f64; W] = fields[at..at + W].try_into().expect("strip");
            let new: [f64; W] = std::array::from_fn(|r| old[r] + steps[r] * gs[r]);
            fields[at..at + W].copy_from_slice(&new);
        };
        if self.shared {
            let gs = &problem.weights_flat()[lo..hi];
            for (&j, &g) in idx.iter().zip(gs) {
                update(&mut self.fields, j, [g; W]);
            }
        } else {
            for (pos, &j) in idx.iter().enumerate() {
                let e = (lo + pos) * W;
                update(
                    &mut self.fields,
                    j,
                    self.weights[e..e + W].try_into().expect("strip"),
                );
            }
        }
    }

    /// Proposes flipping chain `c` collectively in every replica under
    /// a caller's decision rule: `accept(r, ΔE_r)` decides per replica.
    /// Internal-edge weights are each replica's own — its weight strip,
    /// or `problem`'s weights in shared mode — so the move is exact for
    /// the replica's ICE-perturbed Hamiltonian; accepted replicas flip
    /// member by member in member order, each member paying one shared
    /// row walk. With [`crate::draws::accept`] at site `n + c` this is the
    /// scalar reference of the chain moves of [`ReplicaBatch::anneal`].
    ///
    /// # Panics
    /// Panics unless the width is one of [`SA_WIDTHS`].
    pub fn sweep_chain(
        &mut self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        c: usize,
        mut accept: impl FnMut(usize, f64) -> bool,
    ) {
        match self.width {
            1 => self.sweep_chain_w::<1>(problem, chains, c, &mut accept),
            2 => self.sweep_chain_w::<2>(problem, chains, c, &mut accept),
            4 => self.sweep_chain_w::<4>(problem, chains, c, &mut accept),
            8 => self.sweep_chain_w::<8>(problem, chains, c, &mut accept),
            w => unsupported_width(w),
        }
    }

    fn sweep_chain_w<const W: usize>(
        &mut self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        c: usize,
        accept: &mut impl FnMut(usize, f64) -> bool,
    ) {
        debug_assert_eq!(self.width, W);
        let deltas = self.chain_deltas::<W>(problem, chains, c);
        let mask = decided::<W>(|r| accept(r, deltas[r]));
        if mask != 0 {
            self.flip_chain::<W>(problem, chains, 0, c, mask);
        }
    }

    /// Chain `c`'s collective flip energy in every replica: the member
    /// flip-deltas plus `+4·g_ab·s_a·s_b` per internal edge. The next
    /// chain's move waits on this sum, so it runs as four independent
    /// partial sums — even and odd members, even and odd edges — added
    /// at the end, not as one serial chain of additions.
    #[inline(always)]
    fn chain_deltas<const W: usize>(
        &self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        c: usize,
    ) -> [f64; W] {
        let mut members = [[0.0f64; W]; 2];
        for (k, &i) in chains.members(c).iter().enumerate() {
            let d = self.spin_deltas::<W>(i as usize);
            for r in 0..W {
                members[k % 2][r] += d[r];
            }
        }
        let mut edges = [[0.0f64; W]; 2];
        for (k, &edge) in chains.internal_edges(c).iter().enumerate() {
            let term = self.edge_term::<W>(problem, 0, edge);
            for r in 0..W {
                edges[k % 2][r] += term[r];
            }
        }
        std::array::from_fn(|r| (members[0][r] + members[1][r]) + (edges[0][r] + edges[1][r]))
    }

    /// An internal edge `(a, b, e)`'s share `4·g_ab·s_a·s_b` of a chain
    /// flip's ΔE in the slice at site offset `base`, in every replica:
    /// `g_ab` from the replica's own weight strip, or `problem`'s
    /// weights in shared mode, so the move is exact for the replica's
    /// ICE-perturbed Hamiltonian.
    #[inline(always)]
    fn edge_term<const W: usize>(
        &self,
        problem: &CompiledProblem,
        base: usize,
        (a, b, e): (u32, u32, u32),
    ) -> [f64; W] {
        let (ab, bb, e) = ((base + a as usize) * W, (base + b as usize) * W, e as usize);
        let sa: &[Spin; W] = (&self.spins[ab..ab + W]).try_into().expect("strip");
        let sb: &[Spin; W] = (&self.spins[bb..bb + W]).try_into().expect("strip");
        let gs: [f64; W] = if self.shared {
            [problem.weights_flat()[e]; W]
        } else {
            self.weights[e * W..(e + 1) * W].try_into().expect("strip")
        };
        std::array::from_fn(|r| 4.0 * gs[r] * sa[r] as f64 * sb[r] as f64)
    }

    /// Flips chain `c` of the slice at site offset `base` in the
    /// replicas of `mask`, member by member.
    #[inline(always)]
    fn flip_chain<const W: usize>(
        &mut self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        base: usize,
        c: usize,
        mask: u64,
    ) {
        for &i in chains.members(c) {
            self.flip_spin::<W>(problem, base, i as usize, mask);
        }
    }

    /// Runs the SA sweep plan on every replica, compiled for `isa`: per
    /// entry `t` of `betas`, one spin pass in color-class order, then one
    /// move per chain, every proposal decided by the counter-based rule
    /// of [`crate::draws`] under replica `r`'s `keys[r]` (spin `i` at site `i`,
    /// chain `c` at site `n + c`).
    ///
    /// The spin pass decides a whole color class before it flips any of
    /// it, in blocks of [`crate::draws::LANES`] proposals: at width 8 one
    /// spin's strip, at width `W < 8` the next `8 / W` spins of the
    /// class. A class is an independent set, so no flip changes another
    /// member's ΔE; the accepted spins then flip and scatter in class
    /// order. Chain moves stay sequential: at `W ≥ 4` each chain's
    /// replicas are decided by the 8-lane pass, at `W ≤ 2` from uniforms
    /// drawn ahead. The result is the spins and field bits of deciding one
    /// proposal at a time with [`crate::draws::accept`] through
    /// [`ReplicaBatch::sweep_spins`] and [`ReplicaBatch::sweep_chain`],
    /// at every width and on every `isa`.
    ///
    /// # Panics
    /// Panics unless the width is one of [`SA_WIDTHS`] with one key per
    /// replica, or when the host lacks `isa`.
    pub fn anneal(
        &mut self,
        isa: Isa,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        betas: &[f64],
        keys: &[u64],
    ) {
        assert_eq!(keys.len(), self.width, "one key per replica");
        isa.run(AnnealBody {
            batch: self,
            problem,
            chains,
            betas,
            keys,
        });
    }

    /// Anneals one window start to finish on the host's widest [`Isa`]:
    /// reshapes the batch to `rngs.len()` replicas and binds
    /// `coefficients` (refreezing ICE from each replica's stream), sets
    /// replica `r` to `inits(r)` or draws its spins from `rngs[r]`,
    /// draws one key per replica, rebuilds every field in one strip-wise
    /// pass and runs [`ReplicaBatch::anneal`]. Per stream the draws are
    /// refreeze → init → key, so a sample does not depend on the window
    /// it runs in.
    ///
    /// # Panics
    /// Panics unless `rngs.len()` is one of [`SA_WIDTHS`] (and, per
    /// replica, `problems` holds one problem per stream).
    pub fn anneal_window<'s, R: Rng>(
        &mut self,
        coefficients: WindowCoefficients<'_>,
        inits: impl Fn(usize) -> Option<&'s [Spin]>,
        chains: &CompiledChains,
        betas: &[f64],
        rngs: &mut [R],
    ) {
        Isa::detect().run(WindowBody {
            batch: self,
            coefficients,
            inits,
            chains,
            betas,
            rngs,
        });
    }

    /// Sets up one window of `rngs.len()` replicas of `slices` slices:
    /// reshapes the batch and binds `coefficients` (refreezing ICE from
    /// each replica's stream), sets every slice of replica `r` to
    /// `inits(r)` or draws its spins from `rngs[r]`, and rebuilds every
    /// field in one strip-wise pass. Returns the problem whose CSR
    /// structure (and, when shared, coefficients) the window sweeps.
    #[inline(always)]
    pub(crate) fn set_up_window<'a, 's, R: Rng>(
        &mut self,
        slices: usize,
        coefficients: WindowCoefficients<'a>,
        inits: impl Fn(usize) -> Option<&'s [Spin]>,
        rngs: &mut [R],
    ) -> &'a CompiledProblem {
        let width = rngs.len();
        let problem = match coefficients {
            WindowCoefficients::Shared(problem) => {
                self.reset_shared(problem, slices, width);
                problem
            }
            WindowCoefficients::PerReplica {
                structure,
                problems,
                ice,
            } => {
                self.reset_per_replica(structure, slices, width);
                self.bind_window_ice(problems, ice, rngs);
                structure
            }
        };
        for (r, rng) in rngs.iter_mut().enumerate() {
            match inits(r) {
                Some(spins) => (0..slices).for_each(|k| self.set_replica(r, k, spins)),
                None => self.draw_replica(r, rng),
            }
        }
        self.rebuild_fields(problem);
        problem
    }

    #[inline(always)]
    fn anneal_any_width(
        &mut self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        betas: &[f64],
        keys: &[u64],
    ) {
        match self.width {
            1 => self.anneal_w::<1>(problem, chains, betas, keys),
            2 => self.anneal_w::<2>(problem, chains, betas, keys),
            4 => self.anneal_w::<4>(problem, chains, betas, keys),
            8 => self.anneal_w::<8>(problem, chains, betas, keys),
            w => unsupported_width(w),
        }
    }

    #[inline(always)]
    fn anneal_w<const W: usize>(
        &mut self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        betas: &[f64],
        keys: &[u64],
    ) {
        debug_assert_eq!(self.width, W);
        debug_assert_eq!(problem.num_spins(), self.n);
        debug_assert_eq!(self.slices, 1, "SA sweeps one slice");
        let keys: &[u64; W] = keys.try_into().expect("one key per replica");
        for (t, &beta) in betas.iter().enumerate() {
            let t = t as u32;
            self.spin_pass::<W>(problem, beta, t, keys);
            self.chain_pass::<W>(problem, chains, beta, t, keys);
        }
    }

    /// One move per chain, in chain order; each decision feeds the next
    /// chain's ΔE. At `W ≥ 4` the 8-lane branch-free
    /// [`crate::draws::decide`] decides a chain's `W` replicas, its
    /// unused lanes proposing ΔE = 0 and masked out. At `W ≤ 2` the pass
    /// first draws every chain's uniforms for sweep `t` (no draw depends
    /// on the state) and then decides lane by lane, with the exponential
    /// only where it decides.
    #[inline(always)]
    fn chain_pass<const W: usize>(
        &mut self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        beta: f64,
        t: u32,
        keys: &[u64; W],
    ) {
        let n = self.n;
        // Measured by interleaved per-call minima of whole windows on an
        // AVX-512 host (8-lane decide against the drawn path): the
        // 16-variable embedding (80 qubits, 40 sweeps) read 76 against
        // 64 µs at width 1, 100 against 97 µs at width 2 and 96 against
        // 113 µs at width 4; the 64-variable clique (1 088 qubits) 680
        // against 640 µs at width 1. A narrow strip pays the hash and
        // exponential of lanes that decide nothing.
        if W >= 4 {
            let mut lane_keys = [0u64; LANES];
            lane_keys[..W].copy_from_slice(keys);
            for c in 0..chains.len() {
                let mut delta = [0.0f64; LANES];
                delta[..W].copy_from_slice(&self.chain_deltas::<W>(problem, chains, c));
                let weyls = [draws::weyl(t, (n + c) as u32); LANES];
                let mask = decide(beta, &delta, &lane_keys, &weyls) & lanes::<W>();
                if mask != 0 {
                    self.flip_chain::<W>(problem, chains, 0, c, mask);
                }
            }
            return;
        }
        let mut uniforms = std::mem::take(&mut self.uniforms);
        uniforms.resize(chains.len() * W, 0.0);
        for (c, strip) in uniforms.chunks_exact_mut(W).enumerate() {
            let weyl = draws::weyl(t, (n + c) as u32);
            for r in 0..W {
                strip[r] = draws::uniform_at(keys[r], weyl);
            }
        }
        for (c, u) in uniforms.chunks_exact(W).enumerate() {
            let deltas = self.chain_deltas::<W>(problem, chains, c);
            let mask = draws::decide_drawn::<W>(beta, &deltas, u.try_into().expect("strip"));
            if mask != 0 {
                self.flip_chain::<W>(problem, chains, 0, c, mask);
            }
        }
        self.uniforms = uniforms;
    }

    /// One spin pass of [`ReplicaBatch::anneal`]: the color classes in
    /// order, each in blocks of `LANES / W` spins decided together.
    #[inline(always)]
    fn spin_pass<const W: usize>(
        &mut self,
        problem: &CompiledProblem,
        beta: f64,
        t: u32,
        keys: &[u64; W],
    ) {
        let per_block = LANES / W;
        let mut lane_keys = [0u64; LANES];
        for block in lane_keys.chunks_exact_mut(W) {
            block.copy_from_slice(keys);
        }
        // Each class is decided whole, then flipped: no flip inside a
        // class changes another member's ΔE, and with no branch on a
        // decision between blocks their exponentials overlap.
        let mut masks = std::mem::take(&mut self.masks);
        for class in problem.color_classes() {
            masks.resize(masks.len().max(class.len().div_ceil(per_block)), 0);
            let (full, tail) = class.split_at(class.len() - class.len() % per_block);
            for (block, mask) in full.chunks_exact(per_block).zip(masks.iter_mut()) {
                *mask = self.decide_block::<W>(block, beta, t, &lane_keys);
            }
            if !tail.is_empty() {
                // A short last block, padded with a repeat of its first
                // spin whose lanes propose nothing.
                let mut padded = [tail[0]; LANES];
                padded[..tail.len()].copy_from_slice(tail);
                let live = u64::MAX >> (64 - 8 * tail.len() * W);
                masks[full.len() / per_block] =
                    self.decide_block::<W>(&padded[..per_block], beta, t, &lane_keys) & live;
            }
            for (block, &accepted) in class.chunks(per_block).zip(masks.iter()) {
                if accepted == 0 {
                    continue;
                }
                for (b, &i) in block.iter().enumerate() {
                    let mask = (accepted >> (8 * b * W)) & lanes::<W>();
                    if mask != 0 {
                        self.flip_spin::<W>(problem, 0, i as usize, mask);
                    }
                }
            }
        }
        self.masks = masks;
    }

    /// Decides the `LANES / W` spins of `block` in every replica at
    /// once: byte `b·W + r` of the result is spin `block[b]` in
    /// replica `r`.
    #[inline(always)]
    fn decide_block<const W: usize>(
        &self,
        block: &[u32],
        beta: f64,
        t: u32,
        lane_keys: &[u64; LANES],
    ) -> u64 {
        let mut delta = [0.0f64; LANES];
        let mut weyls = [0u64; LANES];
        for b in 0..LANES / W {
            let i = block[b];
            let deltas = self.spin_deltas::<W>(i as usize);
            let weyl = draws::weyl(t, i);
            for r in 0..W {
                delta[b * W + r] = deltas[r];
                weyls[b * W + r] = weyl;
            }
        }
        decide(beta, &delta, lane_keys, &weyls)
    }

    /// SQA's local move at (slice `k`, spin `i`) in every replica:
    /// `accept(r, ΔE_problem, s·(s_up + s_down))` decides per replica,
    /// `s_up`/`s_down` the spin's images in the neighbouring slices of
    /// the periodic Trotter ring (the caller weighs the problem term and
    /// the ring coupling); accepted replicas flip and share one row
    /// walk.
    #[inline(always)]
    pub(crate) fn slice_spin_move<const W: usize>(
        &mut self,
        problem: &CompiledProblem,
        k: usize,
        i: usize,
        mut accept: impl FnMut(usize, f64, f64) -> bool,
    ) {
        let base = k * self.n;
        let deltas = self.spin_deltas::<W>(base + i);
        let pairs = self.ring_term::<W>(k, i);
        let mask = decided::<W>(|r| accept(r, deltas[r], pairs[r]));
        if mask != 0 {
            self.flip_spin::<W>(problem, base, i, mask);
        }
    }

    /// SQA's global move of spin `i` (in every slice at once):
    /// `accept(r, Σ_k ΔE_problem)` decides per replica, the sum in `k`
    /// order; accepted replicas flip slice by slice in `k` order, each
    /// slice sharing one row walk.
    #[inline(always)]
    pub(crate) fn global_spin_move<const W: usize>(
        &mut self,
        problem: &CompiledProblem,
        i: usize,
        mut accept: impl FnMut(usize, f64) -> bool,
    ) {
        let mut total = [0.0f64; W];
        for k in 0..self.slices {
            let d = self.spin_deltas::<W>(k * self.n + i);
            for r in 0..W {
                total[r] += d[r];
            }
        }
        let mask = decided::<W>(|r| accept(r, total[r]));
        if mask != 0 {
            for k in 0..self.slices {
                self.flip_spin::<W>(problem, k * self.n, i, mask);
            }
        }
    }

    /// SQA's move of chain `c` within slice `k`: `accept(r,
    /// ΔE_problem, Σ_members s·(s_up + s_down))` decides per replica;
    /// accepted replicas flip member by member in member order.
    #[inline(always)]
    pub(crate) fn slice_chain_move<const W: usize>(
        &mut self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        k: usize,
        c: usize,
        mut accept: impl FnMut(usize, f64, f64) -> bool,
    ) {
        let base = k * self.n;
        let mut delta = [0.0f64; W];
        self.add_chain_delta::<W>(problem, chains, base, c, &mut delta);
        // Small-integer sums, so their grouping is exact.
        let mut pairs = [0.0f64; W];
        for &i in chains.members(c) {
            let term = self.ring_term::<W>(k, i as usize);
            for r in 0..W {
                pairs[r] += term[r];
            }
        }
        let mask = decided::<W>(|r| accept(r, delta[r], pairs[r]));
        if mask != 0 {
            self.flip_chain::<W>(problem, chains, base, c, mask);
        }
    }

    /// SQA's global move of chain `c` (in every slice at once):
    /// `accept(r, Σ_k ΔE_problem)` decides per replica; accepted
    /// replicas flip slice by slice in `k` order, members in member
    /// order.
    #[inline(always)]
    pub(crate) fn global_chain_move<const W: usize>(
        &mut self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        c: usize,
        mut accept: impl FnMut(usize, f64) -> bool,
    ) {
        let mut total = [0.0f64; W];
        for k in 0..self.slices {
            self.add_chain_delta::<W>(problem, chains, k * self.n, c, &mut total);
        }
        let mask = decided::<W>(|r| accept(r, total[r]));
        if mask != 0 {
            for k in 0..self.slices {
                self.flip_chain::<W>(problem, chains, k * self.n, c, mask);
            }
        }
    }

    /// Adds chain `c`'s problem-term ΔE in the slice at site offset
    /// `base` to `acc` in SQA's serial order: the member flip-deltas,
    /// then the internal edges.
    #[inline(always)]
    fn add_chain_delta<const W: usize>(
        &self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        base: usize,
        c: usize,
        acc: &mut [f64; W],
    ) {
        for &i in chains.members(c) {
            let d = self.spin_deltas::<W>(base + i as usize);
            for r in 0..W {
                acc[r] += d[r];
            }
        }
        for &edge in chains.internal_edges(c) {
            let term = self.edge_term::<W>(problem, base, edge);
            for r in 0..W {
                acc[r] += term[r];
            }
        }
    }

    /// `s·(s_up + s_down)` for spin `i` of slice `k` in every replica:
    /// its alignment with its images in slices `k ± 1` (mod `P`).
    #[inline(always)]
    fn ring_term<const W: usize>(&self, k: usize, i: usize) -> [f64; W] {
        let p = self.slices;
        let strip = |k: usize| -> &[Spin; W] {
            let at = (k * self.n + i) * W;
            self.spins[at..at + W].try_into().expect("strip")
        };
        let (s, up, down) = (
            strip(k),
            strip(if k + 1 == p { 0 } else { k + 1 }),
            strip(if k == 0 { p - 1 } else { k - 1 }),
        );
        std::array::from_fn(|r| s[r] as f64 * (up[r] + down[r]) as f64)
    }
}

/// The byte mask of `accept(r)` over a width-`W` strip's replicas:
/// byte `r` is 1 iff replica `r` accepts, decided in replica order.
#[inline(always)]
fn decided<const W: usize>(mut accept: impl FnMut(usize) -> bool) -> u64 {
    (0..W).fold(0, |mask, r| mask | (accept(r) as u64) << (8 * r))
}

/// The byte mask of a width-`W` strip's lanes.
#[inline(always)]
const fn lanes<const W: usize>() -> u64 {
    u64::MAX >> (64 - 8 * W)
}

/// One key per stream, drawn in replica order.
///
/// # Panics
/// Panics for more streams than [`crate::draws::LANES`].
pub(crate) fn draw_keys<R: Rng>(rngs: &mut [R]) -> [u64; LANES] {
    if rngs.len() > LANES {
        unsupported_width(rngs.len());
    }
    let mut keys = [0u64; LANES];
    for (key, rng) in keys.iter_mut().zip(rngs) {
        *key = rng.next_u64();
    }
    keys
}

/// The coefficients a window anneals under.
#[derive(Clone, Copy, Debug)]
pub enum WindowCoefficients<'a> {
    /// Every replica runs this zero-ICE problem's own coefficients.
    Shared(&'a CompiledProblem),
    /// Replica `r` runs `problems[r]`, which shares `structure`'s CSR
    /// layout, under ICE refrozen from its own stream.
    PerReplica {
        /// The window's CSR layout.
        structure: &'a CompiledProblem,
        /// One programmed problem per replica.
        problems: &'a [&'a CompiledProblem],
        /// The per-anneal coefficient noise.
        ice: &'a IceModel,
    },
}

/// The instruction sets the SA window kernel is compiled for. One
/// source serves all three: [`ReplicaBatch::anneal`] and
/// [`ReplicaBatch::anneal_window`] run their whole body inside a
/// function compiled with the set's target features, so the 8-lane
/// decide and the `W`-wide strip arithmetic (see the module docs for
/// what vectorizes) take the set's widest vectors: at `W = 8` one
/// AVX-512 register or two AVX2 registers per strip. The kernel only
/// ever adds, multiplies and moves bits (no FMA), so every set produces
/// the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// The target's baseline (SSE2 on x86-64).
    Baseline,
    /// AVX2.
    Avx2,
    /// AVX-512F with AVX-512DQ (64-bit lane multiplies and
    /// conversions).
    Avx512,
}

impl Isa {
    /// Every set, narrowest first.
    pub const ALL: [Isa; 3] = [Isa::Baseline, Isa::Avx2, Isa::Avx512];

    /// The widest set this host supports.
    pub fn detect() -> Isa {
        *Isa::ALL
            .iter()
            .rev()
            .find(|isa| isa.is_supported())
            .expect("the baseline is always supported")
    }

    /// Whether this host can run the set.
    pub fn is_supported(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Runs `body` compiled for this set: `body.run` and everything it
    /// calls with `#[inline(always)]` are inlined into the set's
    /// wrapper.
    ///
    /// # Panics
    /// Panics when the host lacks the set.
    #[inline(always)]
    fn run(self, body: impl Body) {
        assert!(self.is_supported(), "this host cannot run {self:?}");
        match self {
            // SAFETY: the host supports the set's features (checked
            // above), which is all these wrappers require.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { with_avx512(body) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { with_avx2(body) },
            _ => body.run(),
        }
    }
}

/// A kernel body [`Isa::run`] compiles once per instruction set.
trait Body {
    fn run(self);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn with_avx512(body: impl Body) {
    body.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn with_avx2(body: impl Body) {
    body.run()
}

/// [`ReplicaBatch::anneal`]'s body.
struct AnnealBody<'a> {
    batch: &'a mut ReplicaBatch,
    problem: &'a CompiledProblem,
    chains: &'a CompiledChains,
    betas: &'a [f64],
    keys: &'a [u64],
}

impl Body for AnnealBody<'_> {
    #[inline(always)]
    fn run(self) {
        self.batch
            .anneal_any_width(self.problem, self.chains, self.betas, self.keys);
    }
}

/// [`ReplicaBatch::anneal_window`]'s body.
struct WindowBody<'a, R, F> {
    batch: &'a mut ReplicaBatch,
    coefficients: WindowCoefficients<'a>,
    inits: F,
    chains: &'a CompiledChains,
    betas: &'a [f64],
    rngs: &'a mut [R],
}

impl<'s, R: Rng, F: Fn(usize) -> Option<&'s [Spin]>> Body for WindowBody<'_, R, F> {
    #[inline(always)]
    fn run(self) {
        let (batch, rngs) = (self.batch, self.rngs);
        let problem = batch.set_up_window(1, self.coefficients, self.inits, rngs);
        let keys = draw_keys(rngs);
        batch.anneal_any_width(problem, self.chains, self.betas, &keys[..rngs.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamax_ising::IsingProblem;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_problem(n: usize, seed: u64) -> IsingProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = IsingProblem::new(n);
        for i in 0..n {
            p.set_linear(i, rng.random_range(-1.0..1.0));
            for j in (i + 1)..n {
                if rng.random_bool(0.6) {
                    p.set_coupling(i, j, rng.random_range(-1.0..1.0));
                }
            }
        }
        p
    }

    fn random_spins(n: usize, rng: &mut StdRng) -> Vec<Spin> {
        (0..n)
            .map(|_| if rng.random_bool(0.5) { 1 } else { -1 })
            .collect()
    }

    /// A width-1 shared batch started at `spins`.
    fn single(c: &CompiledProblem, spins: &[Spin]) -> ReplicaBatch {
        let mut batch = ReplicaBatch::new();
        batch.reset_shared(c, 1, 1);
        batch.init_replica(c, 0, 0, spins);
        batch
    }

    #[test]
    fn incremental_fields_track_flips_exactly() {
        let p = random_problem(12, 1);
        let c = CompiledProblem::new(&p);
        let mut rng = StdRng::seed_from_u64(2);
        let mut shadow = random_spins(12, &mut rng);
        let mut batch = single(&c, &shadow);
        for _ in 0..42 {
            batch.sweep_spins(&c, |i, _, delta| {
                let expect = p.flip_delta(&shadow, i);
                assert!((delta - expect).abs() < 1e-9);
                let flip = rng.random_bool(0.5);
                if flip {
                    shadow[i] = -shadow[i];
                }
                flip
            });
        }
        // Fields still exact after ~250 accepted flips.
        assert_eq!(batch.replica_spins(0, 0), shadow);
        for i in 0..12 {
            assert!((batch.field(i, 0) - c.local_field(&shadow, i)).abs() < 1e-9);
        }
        assert!((batch.energy(0, 0) - p.energy(&shadow)).abs() < 1e-9);
    }

    #[test]
    fn chain_moves_match_naive_chain_delta() {
        let p = random_problem(10, 3);
        let c = CompiledProblem::new(&p);
        let chains = vec![vec![0usize, 1, 2], vec![5, 6], vec![9]];
        let cc = CompiledChains::compile(&c, &chains);
        assert_eq!(cc.len(), 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut shadow = random_spins(10, &mut rng);
        let mut batch = single(&c, &shadow);
        for step in 0..200 {
            let ci = step % chains.len();
            batch.sweep_chain(&c, &cc, ci, |_, delta| {
                let expect = crate::sa::chain_flip_delta(&p, &shadow, &chains[ci]);
                assert!((delta - expect).abs() < 1e-9);
                true
            });
            for &i in &chains[ci] {
                shadow[i] = -shadow[i];
            }
        }
        assert_eq!(batch.replica_spins(0, 0), shadow);
    }

    #[test]
    fn sqa_batch_mirrors_per_slice_fields() {
        let p = random_problem(8, 5);
        let c = CompiledProblem::new(&p);
        let mut rng = StdRng::seed_from_u64(6);
        let starts: Vec<Vec<Spin>> = (0..4).map(|_| random_spins(8, &mut rng)).collect();
        let mut sqa = ReplicaBatch::new();
        sqa.reset_shared(&c, 4, 1);
        for (k, start) in starts.iter().enumerate() {
            sqa.init_replica(&c, 0, k, start);
        }
        let flip_delta = |sqa: &ReplicaBatch, k: usize, i: usize| {
            -2.0 * sqa.spin(k * 8 + i, 0) as f64 * sqa.field(k * 8 + i, 0)
        };
        for (k, start) in starts.iter().enumerate() {
            assert_eq!(sqa.replica_spins(0, k), &start[..]);
            for i in 0..8 {
                assert!((flip_delta(&sqa, k, i) - c.flip_delta(start, i)).abs() < 1e-12);
            }
        }
        // Flips in one slice leave the others' deltas untouched, and
        // the ring term reads the slices on either side.
        let ring = (starts[2][3] * (starts[3][3] + starts[1][3])) as f64;
        sqa.slice_spin_move::<1>(&c, 2, 3, |_, _, pair| {
            assert_eq!(pair, ring);
            true
        });
        assert_eq!(sqa.spin(2 * 8 + 3, 0), -starts[2][3]);
        for i in 0..8 {
            assert!((flip_delta(&sqa, 0, i) - c.flip_delta(&starts[0], i)).abs() < 1e-12);
        }
        assert!((sqa.energy(0, 2) - p.energy(&sqa.replica_spins(0, 2))).abs() < 1e-9);
    }

    #[test]
    fn windows_cover_slots_once_in_order_at_supported_widths() {
        for n in 0..=40 {
            let mut next = 0;
            for window in windows(n) {
                assert_eq!(window.start, next, "n = {n}");
                assert!(SA_WIDTHS.contains(&window.len()), "n = {n}: {window:?}");
                next = window.end;
            }
            assert_eq!(next, n);
        }
        let widths: Vec<usize> = windows(13).map(|w| w.len()).collect();
        assert_eq!(widths, [8, 4, 1]);
    }

    #[test]
    #[should_panic(expected = "[1, 2, 4, 8]")]
    fn sa_sweep_at_unsupported_width_panics() {
        let c = CompiledProblem::new(&random_problem(4, 7));
        let mut batch = ReplicaBatch::new();
        batch.reset_shared(&c, 1, 3);
        for r in 0..3 {
            batch.init_replica(&c, r, 0, &[1, -1, 1, -1]);
        }
        batch.sweep_spins(&c, |_, _, _| false);
    }

    #[test]
    fn compiled_chains_find_internal_edges_only() {
        let mut p = IsingProblem::new(6);
        p.set_coupling(0, 1, -5.0);
        p.set_coupling(1, 2, -5.0);
        p.set_coupling(2, 3, 0.5); // crosses the chain boundary
        p.set_coupling(3, 4, -5.0);
        let c = CompiledProblem::new(&p);
        let cc = CompiledChains::compile(&c, &[vec![0, 1, 2], vec![3, 4, 5]]);
        assert_eq!(cc.internal_edges(0).len(), 2);
        assert_eq!(cc.internal_edges(1).len(), 1);
        assert_eq!(cc.members(1), &[3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_chain_member_panics() {
        let p = IsingProblem::new(3);
        let c = CompiledProblem::new(&p);
        let _ = CompiledChains::compile(&c, &[vec![0, 7]]);
    }
}
