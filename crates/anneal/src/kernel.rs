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
//! [`ReplicaBatch`] holds `W` classical (SA) configurations and their
//! fields in structure-of-arrays strips; [`SqaReplicaBatch`] holds `W`
//! flat `n×P` Trotter-replica states with one field cache per slice.
//! They are the only sweep state — a single anneal is a width-1 batch —
//! and both are allocated once per worker thread and reset per window,
//! so the hot loop performs no allocation at all. The SA sweep runs the
//! widths of [`SA_WIDTHS`], and `windows` plans a run of anneals into
//! windows of those widths.

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
    pub fn rebuild_fields(&mut self, problem: &CompiledProblem) {
        match self.width {
            1 => self.rebuild_fields_w::<1>(problem),
            2 => self.rebuild_fields_w::<2>(problem),
            4 => self.rebuild_fields_w::<4>(problem),
            8 => self.rebuild_fields_w::<8>(problem),
            w => (0..w).for_each(|r| self.rebuild_replica_fields(problem, r)),
        }
    }

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

    /// One full spin sweep: proposes every spin in `problem`'s
    /// color-class order ([`CompiledProblem::sweep_order`]),
    /// `accept(i, r, ΔE_ir)` deciding per replica from the contiguous
    /// strip, then one CSR row walk scatters all accepted replicas'
    /// field updates at once.
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
            let base = i * W;
            let mut steps = [0.0f64; W];
            let mut any = false;
            {
                let spins: &mut [Spin; W] =
                    (&mut self.spins[base..base + W]).try_into().expect("strip");
                let fields: &[f64; W] = (&self.fields[base..base + W]).try_into().expect("strip");
                for r in 0..W {
                    let s = spins[r];
                    let delta = -2.0 * s as f64 * fields[r];
                    if accept(i, r, delta) {
                        spins[r] = -s;
                        steps[r] = -2.0 * s as f64;
                        any = true;
                    }
                }
            }
            if any {
                self.scatter::<W>(problem, i, &steps);
            }
        }
    }

    /// One CSR row walk updating all replicas after spin `i` moved: for
    /// each row entry `(j, g)`, `fields[j*W..][..W] += steps * g` — a
    /// fixed-size strip the compiler fully unrolls (rejected replicas
    /// carry step 0, which only ever normalizes a zero's sign).
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

    /// Proposes flipping chain `c` collectively in every replica:
    /// `accept(r, ΔE_r)` decides per replica. Internal-edge weights are
    /// each replica's own — its weight strip, or `problem`'s weights in
    /// shared mode — so the move is exact for the replica's
    /// ICE-perturbed Hamiltonian; accepted replicas flip member by
    /// member in member order, each member paying one shared row walk.
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
        let mut deltas = [0.0f64; W];
        for &i in chains.members(c) {
            let base = i as usize * W;
            let spins: &[Spin; W] = (&self.spins[base..base + W]).try_into().expect("strip");
            let fields: &[f64; W] = (&self.fields[base..base + W]).try_into().expect("strip");
            for r in 0..W {
                deltas[r] += -2.0 * spins[r] as f64 * fields[r];
            }
        }
        for &(a, b, e) in chains.internal_edges(c) {
            let (ab, bb, e) = (a as usize * W, b as usize * W, e as usize);
            let sa: &[Spin; W] = (&self.spins[ab..ab + W]).try_into().expect("strip");
            let sb: &[Spin; W] = (&self.spins[bb..bb + W]).try_into().expect("strip");
            let gs: [f64; W] = if self.shared {
                [problem.weights_flat()[e]; W]
            } else {
                self.weights[e * W..(e + 1) * W].try_into().expect("strip")
            };
            for r in 0..W {
                deltas[r] += 4.0 * gs[r] * sa[r] as f64 * sb[r] as f64;
            }
        }
        let mut mask = [false; W];
        let mut any = false;
        for r in 0..W {
            mask[r] = accept(r, deltas[r]);
            any |= mask[r];
        }
        if !any {
            return;
        }
        for &i in chains.members(c) {
            let base = i as usize * W;
            let mut steps = [0.0f64; W];
            {
                let spins: &mut [Spin; W] =
                    (&mut self.spins[base..base + W]).try_into().expect("strip");
                for r in 0..W {
                    if mask[r] {
                        let s = spins[r];
                        spins[r] = -s;
                        steps[r] = -2.0 * s as f64;
                    }
                }
            }
            self.scatter::<W>(problem, i as usize, &steps);
        }
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
