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
//! SQA kernel in index order. Window placement still never changes a
//! sample: every width walks the same order.
//!
//! SA decisions are counter-based ([`crate::draws`]): a proposal's
//! uniform is a hash of the replica's key, the sweep and the site, so
//! [`ReplicaBatch::anneal`] decides a color class eight proposals at a
//! time — one 8-wide strip, or the next `8 / W` spins of the class at
//! width `W` — each block in one branch-free pass, and only then flips
//! and scatters the accepted spins in class order. The whole SA window
//! (bind, init, spin pass, chain pass, scatter) runs in one function
//! compiled for the host's widest [`Isa`]; every set yields the bits of
//! deciding one proposal at a time through the closure seams
//! [`ReplicaBatch::sweep_spins`] and [`ReplicaBatch::sweep_chain`].
//!
//! [`ReplicaBatch`] holds `W` classical (SA) configurations and their
//! fields in structure-of-arrays strips; [`SqaReplicaBatch`] holds `W`
//! flat `n×P` Trotter-replica states with one field cache per slice.
//! They are the only sweep state — a single anneal is a width-1 batch —
//! and both are allocated once per worker thread and reset per window,
//! so the hot loop performs no allocation at all. The SA sweep runs the
//! widths of [`SA_WIDTHS`], and `windows` plans a run of anneals into
//! windows of those widths.

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
    pub fn internal_edges(&self, c: usize) -> &[(u32, u32, u32)] {
        let lo = self.internal_offsets[c] as usize;
        let hi = self.internal_offsets[c + 1] as usize;
        &self.internal[lo..hi]
    }
}

/// A per-replica batch's coefficient strips, `linear[i·width + r]` and
/// `weights[e·width + r]`: the bind target shared by both batch kinds.
pub(crate) struct WindowStrips<'a> {
    linear: &'a mut [f64],
    weights: &'a mut [f64],
    width: usize,
}

impl<'a> WindowStrips<'a> {
    /// The strips, after the shape checks of a bind against `problem`.
    ///
    /// # Panics
    /// Panics in shared mode (no weight strips) or when `problem`'s
    /// shape disagrees with the batch.
    fn checked(
        linear: &'a mut [f64],
        weights: &'a mut [f64],
        width: usize,
        shared: bool,
        problem: &CompiledProblem,
    ) -> Self {
        assert!(
            !shared,
            "binding needs a per-replica batch (reset_per_replica)"
        );
        assert_eq!(
            problem.num_spins() * width,
            linear.len(),
            "structure mismatch"
        );
        assert_eq!(
            problem.num_entries() * width,
            weights.len(),
            "structure mismatch"
        );
        WindowStrips {
            linear,
            weights,
            width,
        }
    }

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

/// Binds a window of `problems` under ICE drawn from `rngs` into one
/// batch's strips (see [`IceModel::refreeze_window`]).
#[allow(clippy::too_many_arguments)]
#[inline]
fn bind_window_ice<R: Rng>(
    linear: &mut [f64],
    weights: &mut [f64],
    width: usize,
    shared: bool,
    normals: &mut Vec<f64>,
    problems: &[&CompiledProblem],
    ice: &IceModel,
    rngs: &mut [R],
) {
    assert!(!problems.is_empty(), "one problem per replica");
    let mut strips = WindowStrips::checked(linear, weights, width, shared, problems[0]);
    let (n, entries) = (problems[0].num_spins(), problems[0].num_entries());
    assert!(
        problems
            .iter()
            .all(|p| p.num_spins() == n && p.num_entries() == entries),
        "structure mismatch"
    );
    ice.refreeze_window(problems, &mut strips, normals, rngs);
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

/// The replica widths the SA sweep is compiled for: every strip is a
/// fixed-size array at one of these widths, so bounds checks vanish and
/// the strip arithmetic unrolls. `windows` plans batches from this set
/// alone, and sweeping a [`ReplicaBatch`] of any other width panics.
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
fn unsupported_width(width: usize) -> ! {
    panic!("SA replica width {width} is unsupported: the sweep kernel runs widths {SA_WIDTHS:?}")
}

/// `W` independent SA configurations in structure-of-arrays layout:
/// `spins[i*W + r]` / `fields[i*W + r]`, so the per-spin loop over
/// replicas is a contiguous strip and one CSR row walk pays for all
/// `W` replicas' field updates. A single anneal is a width-1 batch.
///
/// Two coefficient modes:
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
    /// Shared coefficient mode: couplings come from the problem
    /// argument and `weights` is not read.
    shared: bool,
    /// `spins[i*width + r]` = spin `i` of replica `r`.
    spins: Vec<Spin>,
    /// Cached local fields, parallel to `spins`.
    fields: Vec<f64>,
    /// Per-replica linear terms `linear[i*width + r]` (broadcast from
    /// the shared problem in shared mode).
    linear: Vec<f64>,
    /// Per-replica coupling strips `weights[e*width + r]` (per-replica
    /// mode; the allocation outlives shared windows).
    weights: Vec<f64>,
    /// Scratch: the window's ICE deviates, `W × (n + m)`, entry-major.
    normals: Vec<f64>,
    /// Scratch: one color class's decisions, one byte mask per block.
    masks: Vec<u64>,
    /// Scratch: one sweep's chain-move uniforms, `uniforms[c·W + r]`.
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

    /// Spins per replica.
    #[inline]
    pub fn num_spins(&self) -> usize {
        self.n
    }

    /// Shapes the buffers for `width` replicas. Any width binds and
    /// initializes; sweeping needs one of [`SA_WIDTHS`]. Buffers keep
    /// their allocations and stale contents: binding and initializing
    /// every replica overwrite all of them.
    fn reset_common(&mut self, problem: &CompiledProblem, width: usize, shared: bool) {
        assert!(width > 0, "batch width must be positive");
        let n = problem.num_spins();
        self.width = width;
        self.n = n;
        self.shared = shared;
        self.spins.resize(n * width, 1);
        self.fields.resize(n * width, 0.0);
        self.linear.resize(n * width, 0.0);
    }

    /// (Re)shapes the batch to `width` replicas of `problem` in
    /// *shared* coefficient mode: every replica reads the problem's own
    /// coefficients. Replicas still need [`ReplicaBatch::init_replica`]
    /// (or the random variant) before sweeping.
    pub fn reset_shared(&mut self, problem: &CompiledProblem, width: usize) {
        self.reset_common(problem, width, true);
        for i in 0..self.n {
            let f = problem.linear(i);
            self.linear[i * width..(i + 1) * width].fill(f);
        }
    }

    /// (Re)shapes the batch to `width` replicas sharing `structure`'s
    /// CSR layout in *per-replica* coefficient mode; every replica must
    /// be given its coefficients via [`ReplicaBatch::bind_replica`]
    /// before it is initialized.
    pub fn reset_per_replica(&mut self, structure: &CompiledProblem, width: usize) {
        self.reset_common(structure, width, false);
        self.weights.resize(structure.num_entries() * width, 0.0);
    }

    /// Copies `problem`'s coefficients into replica `r`'s strips
    /// (per-replica mode only). `problem` must share the batch
    /// structure's CSR layout.
    ///
    /// # Panics
    /// Panics in shared mode or when shapes disagree.
    pub fn bind_replica(&mut self, r: usize, problem: &CompiledProblem) {
        WindowStrips::checked(
            &mut self.linear,
            &mut self.weights,
            self.width,
            self.shared,
            problem,
        )
        .copy_from(r, problem);
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
        bind_window_ice(
            &mut self.linear,
            &mut self.weights,
            self.width,
            self.shared,
            &mut self.normals,
            problems,
            ice,
            rngs,
        );
    }

    /// Initializes replica `r` to `spins` and rebuilds its cached
    /// fields from its bound coefficients. `problem` supplies the CSR
    /// structure (and, in shared mode, the coefficients).
    pub fn init_replica(&mut self, problem: &CompiledProblem, r: usize, spins: &[Spin]) {
        self.set_replica(r, spins);
        self.rebuild_replica_fields(problem, r);
    }

    /// Initializes replica `r` uniformly at random: one `next_u64` per
    /// 64 spins, spin `i` up iff bit `i % 64` of draw `i / 64` is set.
    pub fn init_replica_random<R: Rng + ?Sized>(
        &mut self,
        problem: &CompiledProblem,
        r: usize,
        rng: &mut R,
    ) {
        self.draw_replica(r, rng);
        self.rebuild_replica_fields(problem, r);
    }

    /// Sets replica `r`'s spins; its cached fields stay stale until
    /// [`ReplicaBatch::rebuild_fields`].
    pub fn set_replica(&mut self, r: usize, spins: &[Spin]) {
        assert_eq!(spins.len(), self.n, "initial state length mismatch");
        let w = self.width;
        for (i, &s) in spins.iter().enumerate() {
            self.spins[i * w + r] = s;
        }
    }

    /// Draws replica `r`'s spins as
    /// [`ReplicaBatch::init_replica_random`] does; its cached fields
    /// stay stale until [`ReplicaBatch::rebuild_fields`].
    pub fn draw_replica<R: Rng + ?Sized>(&mut self, r: usize, rng: &mut R) {
        let w = self.width;
        let spins = &mut self.spins;
        random_spins(self.n, rng, |i, s| spins[i * w + r] = s);
    }

    /// Rebuilds every replica's cached fields from its spins and bound
    /// coefficients in one CSR pass, strip by strip: each row entry is
    /// read once for all replicas. Per replica the sum runs in
    /// [`ReplicaBatch::init_replica`]'s order, so the fields are the
    /// same bits.
    #[inline(always)]
    pub fn rebuild_fields(&mut self, problem: &CompiledProblem) {
        match self.width {
            1 => self.rebuild_fields_w::<1>(problem),
            2 => self.rebuild_fields_w::<2>(problem),
            4 => self.rebuild_fields_w::<4>(problem),
            8 => self.rebuild_fields_w::<8>(problem),
            w => (0..w).for_each(|r| self.rebuild_replica_fields(problem, r)),
        }
    }

    #[inline(always)]
    fn rebuild_fields_w<const W: usize>(&mut self, problem: &CompiledProblem) {
        let neighbors = problem.neighbors_flat();
        for i in 0..self.n {
            let (lo, hi) = problem.row_bounds(i);
            let mut h: [f64; W] = self.linear[i * W..(i + 1) * W].try_into().expect("strip");
            for (e, &j) in (lo..hi).zip(&neighbors[lo..hi]) {
                let at = j as usize * W;
                let s: &[Spin; W] = self.spins[at..at + W].try_into().expect("strip");
                if self.shared {
                    let g = problem.weights_flat()[e];
                    for r in 0..W {
                        h[r] += g * s[r] as f64;
                    }
                } else {
                    let gs: &[f64; W] = self.weights[e * W..(e + 1) * W].try_into().expect("strip");
                    for r in 0..W {
                        h[r] += gs[r] * s[r] as f64;
                    }
                }
            }
            self.fields[i * W..(i + 1) * W].copy_from_slice(&h);
        }
    }

    fn rebuild_replica_fields(&mut self, problem: &CompiledProblem, r: usize) {
        let w = self.width;
        for i in 0..self.n {
            let (lo, hi) = problem.row_bounds(i);
            let idx = &problem.neighbors_flat()[lo..hi];
            let mut h = self.linear[i * w + r];
            if self.shared {
                let gs = &problem.weights_flat()[lo..hi];
                for (&j, &g) in idx.iter().zip(gs) {
                    h += g * self.spins[j as usize * w + r] as f64;
                }
            } else {
                for (pos, &j) in idx.iter().enumerate() {
                    let g = self.weights[(lo + pos) * w + r];
                    h += g * self.spins[j as usize * w + r] as f64;
                }
            }
            self.fields[i * w + r] = h;
        }
    }

    /// The spin at `(i, replica r)`.
    #[inline]
    pub fn spin(&self, i: usize, r: usize) -> Spin {
        self.spins[i * self.width + r]
    }

    /// The cached local field at `(i, replica r)`.
    #[inline]
    pub fn field(&self, i: usize, r: usize) -> f64 {
        self.fields[i * self.width + r]
    }

    /// Replica `r`'s configuration, gathered out of the strided layout.
    pub fn replica_spins(&self, r: usize) -> Vec<Spin> {
        (0..self.n)
            .map(|i| self.spins[i * self.width + r])
            .collect()
    }

    /// Replica `r`'s energy, reconstructed in O(n) from its cached
    /// fields: `E = Σ_i s_i·(h_i + f_i)/2`, `i` ascending (each coupling
    /// appears in two fields, each linear term in one).
    pub fn energy(&self, r: usize) -> f64 {
        let w = self.width;
        (0..self.n)
            .map(|i| {
                self.spins[i * w + r] as f64 * (self.fields[i * w + r] + self.linear[i * w + r])
                    / 2.0
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
            let mut mask = 0u64;
            for (r, &delta) in deltas.iter().enumerate() {
                mask |= (accept(i, r, delta) as u64) << (8 * r);
            }
            if mask != 0 {
                self.flip_spin::<W>(problem, i, mask);
            }
        }
    }

    /// Spin `i`'s flip energy `ΔE = −2·s·h` in every replica.
    #[inline(always)]
    fn spin_deltas<const W: usize>(&self, i: usize) -> [f64; W] {
        let base = i * W;
        let spins: &[Spin; W] = self.spins[base..base + W].try_into().expect("strip");
        let fields: &[f64; W] = self.fields[base..base + W].try_into().expect("strip");
        std::array::from_fn(|r| -2.0 * spins[r] as f64 * fields[r])
    }

    /// Flips spin `i` in the replicas of `mask` (byte `r`, 0 or 1, for
    /// replica `r`; not all zero) and scatters their field updates in
    /// one row walk.
    #[inline(always)]
    fn flip_spin<const W: usize>(&mut self, problem: &CompiledProblem, i: usize, mask: u64) {
        let base = i * W;
        let mut steps = [0.0f64; W];
        let spins: &mut [Spin; W] = (&mut self.spins[base..base + W]).try_into().expect("strip");
        for r in 0..W {
            if mask >> (8 * r) & 1 == 1 {
                let s = spins[r];
                spins[r] = -s;
                steps[r] = -2.0 * s as f64;
            }
        }
        self.scatter::<W>(problem, i, &steps);
    }

    /// One CSR row walk updating all replicas after spin `i` moved: for
    /// each row entry `(j, g)`, `fields[j*W..][..W] += steps * g` — a
    /// fixed-size strip the compiler fully unrolls (rejected replicas
    /// carry step 0, which only ever normalizes a zero's sign).
    #[inline(always)]
    fn scatter<const W: usize>(&mut self, problem: &CompiledProblem, i: usize, steps: &[f64; W]) {
        let (lo, hi) = problem.row_bounds(i);
        let idx = &problem.neighbors_flat()[lo..hi];
        if self.shared {
            let gs = &problem.weights_flat()[lo..hi];
            for (&j, &g) in idx.iter().zip(gs) {
                let at = j as usize * W;
                let strip: &mut [f64; W] =
                    (&mut self.fields[at..at + W]).try_into().expect("strip");
                for r in 0..W {
                    strip[r] += steps[r] * g;
                }
            }
        } else {
            for (pos, &j) in idx.iter().enumerate() {
                let e = (lo + pos) * W;
                let gs: &[f64; W] = (&self.weights[e..e + W]).try_into().expect("strip");
                let at = j as usize * W;
                let strip: &mut [f64; W] =
                    (&mut self.fields[at..at + W]).try_into().expect("strip");
                for r in 0..W {
                    strip[r] += steps[r] * gs[r];
                }
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
        let mut mask = 0u64;
        for (r, &delta) in deltas.iter().enumerate() {
            mask |= (accept(r, delta) as u64) << (8 * r);
        }
        if mask != 0 {
            self.flip_chain::<W>(problem, chains, c, mask);
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
        for (k, &(a, b, e)) in chains.internal_edges(c).iter().enumerate() {
            let (ab, bb, e) = (a as usize * W, b as usize * W, e as usize);
            let sa: &[Spin; W] = (&self.spins[ab..ab + W]).try_into().expect("strip");
            let sb: &[Spin; W] = (&self.spins[bb..bb + W]).try_into().expect("strip");
            let gs: [f64; W] = if self.shared {
                [problem.weights_flat()[e]; W]
            } else {
                self.weights[e * W..(e + 1) * W].try_into().expect("strip")
            };
            for r in 0..W {
                edges[k % 2][r] += 4.0 * gs[r] * sa[r] as f64 * sb[r] as f64;
            }
        }
        std::array::from_fn(|r| (members[0][r] + members[1][r]) + (edges[0][r] + edges[1][r]))
    }

    /// Flips chain `c` in the replicas of `mask`, member by member.
    #[inline(always)]
    fn flip_chain<const W: usize>(
        &mut self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        c: usize,
        mask: u64,
    ) {
        for &i in chains.members(c) {
            self.flip_spin::<W>(problem, i as usize, mask);
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
    /// order. Chain moves stay sequential, with their uniforms drawn
    /// ahead. The result is the spins and field bits of deciding one
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
        let keys: &[u64; W] = keys.try_into().expect("one key per replica");
        for (t, &beta) in betas.iter().enumerate() {
            let t = t as u32;
            self.spin_pass::<W>(problem, beta, t, keys);
            self.chain_pass::<W>(problem, chains, beta, t, keys);
        }
    }

    /// One move per chain, in chain order. Each decision feeds the next
    /// chain's ΔE, so the pass first draws every chain's uniforms for
    /// sweep `t` (no draw depends on the state), leaving only the
    /// exponential between one chain's ΔE and its flips.
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
                self.flip_chain::<W>(problem, chains, c, mask);
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
                        self.flip_spin::<W>(problem, i as usize, mask);
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

/// The coefficients an SA window anneals under.
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
/// decide and the replica strips vectorize as wide as the host allows.
/// The kernel only ever adds, multiplies and moves bits (no FMA), so
/// every set produces the same bits.
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
        let AnnealBody {
            batch,
            problem,
            chains,
            betas,
            keys,
        } = self;
        batch.anneal_any_width(problem, chains, betas, keys);
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
        let WindowBody {
            batch,
            coefficients,
            inits,
            chains,
            betas,
            rngs,
        } = self;
        let width = rngs.len();
        let problem = match coefficients {
            WindowCoefficients::Shared(problem) => {
                batch.reset_shared(problem, width);
                problem
            }
            WindowCoefficients::PerReplica {
                structure,
                problems,
                ice,
            } => {
                batch.reset_per_replica(structure, width);
                batch.bind_window_ice(problems, ice, rngs);
                structure
            }
        };
        for (r, rng) in rngs.iter_mut().enumerate() {
            match inits(r) {
                Some(spins) => batch.set_replica(r, spins),
                None => batch.draw_replica(r, rng),
            }
        }
        let keys = draw_keys(rngs);
        batch.rebuild_fields(problem);
        batch.anneal_any_width(problem, chains, betas, &keys[..width]);
    }
}

/// The SQA analogue of [`ReplicaBatch`]: `R` independent `n×P`
/// Trotter-replica states in one strided buffer, `spins[(k*n+i)*R + r]`
/// (slice-major per replica, replica-minor strips), with the same
/// shared/per-replica coefficient modes and the same width-invariance
/// contract. Unlike the SA sweep it runs at any width.
#[derive(Clone, Debug, Default)]
pub struct SqaReplicaBatch {
    width: usize,
    n: usize,
    slices: usize,
    /// Shared coefficient mode (see [`ReplicaBatch`]).
    shared: bool,
    /// `spins[(k*n + i)*width + r]`.
    spins: Vec<Spin>,
    /// Cached per-slice problem-term fields, parallel to `spins`.
    fields: Vec<f64>,
    /// Per-replica linear terms `linear[i*width + r]` (slices share).
    linear: Vec<f64>,
    /// Per-replica coupling strips `weights[e*width + r]`
    /// (per-replica mode).
    weights: Vec<f64>,
    steps: Vec<f64>,
    deltas: Vec<f64>,
    mask: Vec<bool>,
    normals: Vec<f64>,
}

impl SqaReplicaBatch {
    /// An empty batch; call a `reset_*` method before sweeping.
    pub fn new() -> Self {
        SqaReplicaBatch::default()
    }

    /// Replicas per batch.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Trotter slices per replica.
    #[inline]
    pub fn num_slices(&self) -> usize {
        self.slices
    }

    /// Shapes the buffers (see [`ReplicaBatch`]'s `reset_common`: no
    /// fills of what binding and initializing overwrite).
    fn reset_common(
        &mut self,
        problem: &CompiledProblem,
        slices: usize,
        width: usize,
        shared: bool,
    ) {
        assert!(width > 0, "batch width must be positive");
        assert!(slices >= 2, "need at least 2 Trotter slices");
        let n = problem.num_spins();
        self.width = width;
        self.n = n;
        self.slices = slices;
        self.shared = shared;
        self.spins.resize(slices * n * width, 1);
        self.fields.resize(slices * n * width, 0.0);
        self.linear.resize(n * width, 0.0);
        self.steps.resize(width, 0.0);
        self.deltas.resize(width, 0.0);
        self.mask.resize(width, false);
    }

    /// Shared-coefficient reset (see [`ReplicaBatch::reset_shared`]).
    pub fn reset_shared(&mut self, problem: &CompiledProblem, slices: usize, width: usize) {
        self.reset_common(problem, slices, width, true);
        for i in 0..self.n {
            let f = problem.linear(i);
            self.linear[i * width..(i + 1) * width].fill(f);
        }
    }

    /// Per-replica-coefficient reset (see
    /// [`ReplicaBatch::reset_per_replica`]).
    pub fn reset_per_replica(&mut self, structure: &CompiledProblem, slices: usize, width: usize) {
        self.reset_common(structure, slices, width, false);
        self.weights.resize(structure.num_entries() * width, 0.0);
    }

    /// Binds replica `r`'s coefficients (see
    /// [`ReplicaBatch::bind_replica`]).
    pub fn bind_replica(&mut self, r: usize, problem: &CompiledProblem) {
        WindowStrips::checked(
            &mut self.linear,
            &mut self.weights,
            self.width,
            self.shared,
            problem,
        )
        .copy_from(r, problem);
    }

    /// Binds every replica under fresh ICE (see
    /// [`ReplicaBatch::bind_window_ice`]).
    pub fn bind_window_ice<R: Rng>(
        &mut self,
        problems: &[&CompiledProblem],
        ice: &IceModel,
        rngs: &mut [R],
    ) {
        bind_window_ice(
            &mut self.linear,
            &mut self.weights,
            self.width,
            self.shared,
            &mut self.normals,
            problems,
            ice,
            rngs,
        );
    }

    /// Initializes replica `r`'s slices from `init(k, i)` and rebuilds
    /// its field cache.
    pub fn init_replica(
        &mut self,
        problem: &CompiledProblem,
        r: usize,
        init: impl FnMut(usize, usize) -> Spin,
    ) {
        self.set_replica(r, init);
        self.rebuild_replica_fields(problem, r);
    }

    /// Initializes replica `r` uniformly at random: one `next_u64` per
    /// 64 (slice, spin) sites, slice-major, site `k·n + i` up iff its
    /// bit (see [`ReplicaBatch::init_replica_random`]) is set.
    pub fn init_replica_random<R: Rng + ?Sized>(
        &mut self,
        problem: &CompiledProblem,
        r: usize,
        rng: &mut R,
    ) {
        self.draw_replica(r, rng);
        self.rebuild_replica_fields(problem, r);
    }

    /// Sets replica `r`'s slices from `init(k, i)`; its field cache
    /// stays stale until [`SqaReplicaBatch::rebuild_fields`].
    pub fn set_replica(&mut self, r: usize, mut init: impl FnMut(usize, usize) -> Spin) {
        let w = self.width;
        for k in 0..self.slices {
            for i in 0..self.n {
                self.spins[(k * self.n + i) * w + r] = init(k, i);
            }
        }
    }

    /// Draws replica `r`'s slices as
    /// [`SqaReplicaBatch::init_replica_random`] does; its field cache
    /// stays stale until [`SqaReplicaBatch::rebuild_fields`].
    pub fn draw_replica<R: Rng + ?Sized>(&mut self, r: usize, rng: &mut R) {
        let w = self.width;
        let spins = &mut self.spins;
        random_spins(self.slices * self.n, rng, |at, s| spins[at * w + r] = s);
    }

    /// Rebuilds every replica's field cache in one CSR pass per slice,
    /// strip by strip (see [`ReplicaBatch::rebuild_fields`]): the same
    /// bits as [`SqaReplicaBatch::init_replica`] per replica.
    pub fn rebuild_fields(&mut self, problem: &CompiledProblem) {
        let w = self.width;
        let neighbors = problem.neighbors_flat();
        for k in 0..self.slices {
            let base = k * self.n;
            for i in 0..self.n {
                let (lo, hi) = problem.row_bounds(i);
                let at = (base + i) * w;
                let h = &mut self.fields[at..at + w];
                h.copy_from_slice(&self.linear[i * w..(i + 1) * w]);
                for (e, &j) in (lo..hi).zip(&neighbors[lo..hi]) {
                    let from = (base + j as usize) * w;
                    let s = &self.spins[from..from + w];
                    if self.shared {
                        let g = problem.weights_flat()[e];
                        for (h, &s) in h.iter_mut().zip(s) {
                            *h += g * s as f64;
                        }
                    } else {
                        let gs = &self.weights[e * w..(e + 1) * w];
                        for ((h, &g), &s) in h.iter_mut().zip(gs).zip(s) {
                            *h += g * s as f64;
                        }
                    }
                }
            }
        }
    }

    fn rebuild_replica_fields(&mut self, problem: &CompiledProblem, r: usize) {
        let w = self.width;
        for k in 0..self.slices {
            let base = k * self.n;
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
    }

    /// The spin at `(slice k, spin i, replica r)`.
    #[inline]
    pub fn spin(&self, k: usize, i: usize, r: usize) -> Spin {
        self.spins[(k * self.n + i) * self.width + r]
    }

    /// The cached problem-term field at `(slice k, spin i, replica r)`.
    #[inline]
    pub fn field(&self, k: usize, i: usize, r: usize) -> f64 {
        self.fields[(k * self.n + i) * self.width + r]
    }

    /// Replica `r`'s slice `k`, gathered out of the strided layout.
    pub fn replica_slice(&self, r: usize, k: usize) -> Vec<Spin> {
        let base = k * self.n;
        (0..self.n)
            .map(|i| self.spins[(base + i) * self.width + r])
            .collect()
    }

    /// Replica `r`'s programmed energy of slice `k`, in O(n) from its
    /// cached fields (see [`ReplicaBatch::energy`]).
    pub fn slice_energy(&self, r: usize, k: usize) -> f64 {
        let w = self.width;
        let base = k * self.n;
        (0..self.n)
            .map(|i| {
                let at = (base + i) * w + r;
                self.spins[at] as f64 * (self.fields[at] + self.linear[i * w + r]) / 2.0
            })
            .sum()
    }

    /// A local `(slice k, spin i)` proposal over all replicas:
    /// `accept(r, ΔE_problem, s_i·(s_up + s_down))` decides per replica
    /// (the caller folds in `w_problem`/γ), accepted replicas flip and
    /// share one CSR row walk.
    #[inline]
    pub fn sweep_spin_slice(
        &mut self,
        problem: &CompiledProblem,
        k: usize,
        up: usize,
        down: usize,
        i: usize,
        mut accept: impl FnMut(usize, f64, f64) -> bool,
    ) {
        let w = self.width;
        let at = (k * self.n + i) * w;
        let up_at = (up * self.n + i) * w;
        let down_at = (down * self.n + i) * w;
        let mut any = false;
        for r in 0..w {
            let s = self.spins[at + r];
            let d_problem = -2.0 * s as f64 * self.fields[at + r];
            let pair = s as f64 * (self.spins[up_at + r] + self.spins[down_at + r]) as f64;
            if accept(r, d_problem, pair) {
                self.spins[at + r] = -s;
                self.steps[r] = -2.0 * s as f64;
                any = true;
            } else {
                self.steps[r] = 0.0;
            }
        }
        if any {
            self.scatter(problem, k, i);
        }
    }

    /// A global per-spin proposal (flip `i` in all slices): `accept(r,
    /// ΣΔE_problem)` decides per replica; accepted replicas flip slice
    /// by slice in `k` order, each slice sharing one row walk.
    pub fn sweep_spin_global(
        &mut self,
        problem: &CompiledProblem,
        i: usize,
        mut accept: impl FnMut(usize, f64) -> bool,
    ) {
        let w = self.width;
        self.deltas[..w].fill(0.0);
        for k in 0..self.slices {
            let at = (k * self.n + i) * w;
            for r in 0..w {
                self.deltas[r] += -2.0 * self.spins[at + r] as f64 * self.fields[at + r];
            }
        }
        let mut any = false;
        for r in 0..w {
            self.mask[r] = accept(r, self.deltas[r]);
            any |= self.mask[r];
        }
        if !any {
            return;
        }
        for k in 0..self.slices {
            let at = (k * self.n + i) * w;
            for r in 0..w {
                if self.mask[r] {
                    let s = self.spins[at + r];
                    self.spins[at + r] = -s;
                    self.steps[r] = -2.0 * s as f64;
                } else {
                    self.steps[r] = 0.0;
                }
            }
            self.scatter(problem, k, i);
        }
    }

    /// A per-slice chain proposal: `accept(r, ΔE_problem, Σ_members
    /// s·(s_up + s_down))` decides per replica; accepted replicas flip
    /// member by member in member order within slice `k`.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_chain_slice(
        &mut self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        k: usize,
        up: usize,
        down: usize,
        c: usize,
        mut accept: impl FnMut(usize, f64, f64) -> bool,
    ) {
        let w = self.width;
        self.deltas[..w].fill(0.0);
        self.chain_delta_into(problem, chains, k, c);
        // Slice-coupling pair terms, accumulated per replica in member
        // order (exact small-integer sums, so grouping is exact).
        let mut any = false;
        {
            let mut pairs = std::mem::take(&mut self.steps);
            pairs[..w].fill(0.0);
            for &i in chains.members(c) {
                let at = (k * self.n + i as usize) * w;
                let up_at = (up * self.n + i as usize) * w;
                let down_at = (down * self.n + i as usize) * w;
                let here = &self.spins[at..at + w];
                let above = &self.spins[up_at..up_at + w];
                let below = &self.spins[down_at..down_at + w];
                for (((pair, &s), &su), &sd) in
                    pairs[..w].iter_mut().zip(here).zip(above).zip(below)
                {
                    *pair += s as f64 * (su + sd) as f64;
                }
            }
            let proposals = self.deltas[..w].iter().zip(&pairs[..w]);
            for (r, (mask, (&delta, &pair))) in self.mask[..w].iter_mut().zip(proposals).enumerate()
            {
                *mask = accept(r, delta, pair);
                any |= *mask;
            }
            self.steps = pairs;
        }
        if !any {
            return;
        }
        self.flip_chain_masked(problem, chains, k, c);
    }

    /// A global chain proposal (flip chain `c` in all slices):
    /// `accept(r, ΣΔE_problem)`; accepted replicas flip slice by slice
    /// in `k` order, members in member order.
    pub fn sweep_chain_global(
        &mut self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        c: usize,
        mut accept: impl FnMut(usize, f64) -> bool,
    ) {
        let w = self.width;
        self.deltas[..w].fill(0.0);
        for k in 0..self.slices {
            self.chain_delta_into(problem, chains, k, c);
        }
        let mut any = false;
        for r in 0..w {
            self.mask[r] = accept(r, self.deltas[r]);
            any |= self.mask[r];
        }
        if !any {
            return;
        }
        for k in 0..self.slices {
            self.flip_chain_masked(problem, chains, k, c);
        }
    }

    /// Accumulates slice `k`'s chain-`c` problem-term delta into
    /// `deltas`, in the serial order: member flip-deltas, then internal
    /// edges (each replica's own weights, as in
    /// [`ReplicaBatch::sweep_chain`]).
    fn chain_delta_into(
        &mut self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        k: usize,
        c: usize,
    ) {
        let w = self.width;
        let base = k * self.n;
        for &i in chains.members(c) {
            let at = (base + i as usize) * w;
            for r in 0..w {
                self.deltas[r] += -2.0 * self.spins[at + r] as f64 * self.fields[at + r];
            }
        }
        for &(a, b, e) in chains.internal_edges(c) {
            let ab = (base + a as usize) * w;
            let bb = (base + b as usize) * w;
            let e = e as usize;
            for r in 0..w {
                let g = if self.shared {
                    problem.weights_flat()[e]
                } else {
                    self.weights[e * w + r]
                };
                self.deltas[r] += 4.0 * g * self.spins[ab + r] as f64 * self.spins[bb + r] as f64;
            }
        }
    }

    /// Flips chain `c` in slice `k` for every masked replica, member by
    /// member (serial accumulation order).
    fn flip_chain_masked(
        &mut self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        k: usize,
        c: usize,
    ) {
        let w = self.width;
        for &i in chains.members(c) {
            let at = (k * self.n + i as usize) * w;
            for r in 0..w {
                if self.mask[r] {
                    let s = self.spins[at + r];
                    self.spins[at + r] = -s;
                    self.steps[r] = -2.0 * s as f64;
                } else {
                    self.steps[r] = 0.0;
                }
            }
            self.scatter(problem, k, i as usize);
        }
    }

    /// One CSR row walk scattering all replicas' slice-`k` field
    /// updates for a flip of spin `i`.
    fn scatter(&mut self, problem: &CompiledProblem, k: usize, i: usize) {
        let w = self.width;
        let base = k * self.n;
        let (lo, hi) = problem.row_bounds(i);
        let idx = &problem.neighbors_flat()[lo..hi];
        let steps = &self.steps[..w];
        if self.shared {
            let gs = &problem.weights_flat()[lo..hi];
            for (&j, &g) in idx.iter().zip(gs) {
                let at = (base + j as usize) * w;
                let strip = &mut self.fields[at..at + w];
                for (f, &s) in strip.iter_mut().zip(steps) {
                    *f += s * g;
                }
            }
        } else {
            for (pos, &j) in idx.iter().enumerate() {
                let e = (lo + pos) * w;
                let gs = &self.weights[e..e + w];
                let at = (base + j as usize) * w;
                let strip = &mut self.fields[at..at + w];
                for ((f, &s), &g) in strip.iter_mut().zip(steps).zip(gs) {
                    *f += s * g;
                }
            }
        }
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
        batch.reset_shared(c, 1);
        batch.init_replica(c, 0, spins);
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
        assert_eq!(batch.replica_spins(0), shadow);
        for i in 0..12 {
            assert!((batch.field(i, 0) - c.local_field(&shadow, i)).abs() < 1e-9);
        }
        assert!((batch.energy(0) - p.energy(&shadow)).abs() < 1e-9);
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
        assert_eq!(batch.replica_spins(0), shadow);
    }

    #[test]
    fn sqa_batch_mirrors_per_slice_fields() {
        let p = random_problem(8, 5);
        let c = CompiledProblem::new(&p);
        let mut rng = StdRng::seed_from_u64(6);
        let starts: Vec<Vec<Spin>> = (0..4).map(|_| random_spins(8, &mut rng)).collect();
        let mut sqa = SqaReplicaBatch::new();
        sqa.reset_shared(&c, 4, 1);
        sqa.init_replica(&c, 0, |k, i| starts[k][i]);
        let flip_delta = |sqa: &SqaReplicaBatch, k: usize, i: usize| {
            -2.0 * sqa.spin(k, i, 0) as f64 * sqa.field(k, i, 0)
        };
        for (k, start) in starts.iter().enumerate() {
            assert_eq!(sqa.replica_slice(0, k), &start[..]);
            for i in 0..8 {
                assert!((flip_delta(&sqa, k, i) - c.flip_delta(start, i)).abs() < 1e-12);
            }
        }
        // Flips in one slice leave the others' deltas untouched.
        sqa.sweep_spin_slice(&c, 2, 3, 1, 3, |_, _, _| true);
        assert_eq!(sqa.spin(2, 3, 0), -starts[2][3]);
        for i in 0..8 {
            assert!((flip_delta(&sqa, 0, i) - c.flip_delta(&starts[0], i)).abs() < 1e-12);
        }
        assert!((sqa.slice_energy(0, 2) - p.energy(&sqa.replica_slice(0, 2))).abs() < 1e-9);
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
        batch.reset_shared(&c, 3);
        for r in 0..3 {
            batch.init_replica(&c, r, &[1, -1, 1, -1]);
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
