//! A device-level simulator of the D-Wave 2000Q quantum annealer.
//!
//! No quantum hardware is available to this reproduction, so the
//! annealer itself is a substrate we build. The
//! simulator preserves every interface and noise process the paper's
//! evaluation manipulates:
//!
//! * the **annealing schedule** `s(t)`: a linear ramp over the anneal
//!   time `Ta ∈ [1, 300] µs`, with an optional mid-anneal *pause* of
//!   duration `Tp` at normalized position `s_p` (§4);
//! * **intrinsic control errors (ICE)**: per-anneal Gaussian
//!   perturbation of every programmed coefficient, with the moments the
//!   paper measured on hardware (⟨δf⟩ ≈ 0.008 ± 0.02,
//!   ⟨δg⟩ ≈ −0.015 ± 0.025);
//! * **batched anneals**: a run programs the problem once and collects
//!   `Na` independent samples, exactly like a DW2Q job submission;
//! * two interchangeable dynamics **backends**:
//!   [`Backend::Sa`] — Metropolis simulated annealing along the
//!   schedule's temperature profile (the canonical classical stand-in
//!   for QA, per §2.2), and [`Backend::Sqa`] — path-integral Monte
//!   Carlo (Trotterized transverse-field Ising) driven by the
//!   `A(s)/B(s)` curves, the standard classical emulation of quantum
//!   annealing dynamics.
//!
//! Wall-clock accounting translates `Ta` into Monte-Carlo sweeps via
//! [`AnnealerConfig::sweeps_per_us`] so every time axis in the
//! reproduced figures stays in the paper's microsecond units. Absolute
//! success probabilities are calibration artifacts of that constant;
//! the *shapes* (J_F optima, pause benefit, SNR/gap interactions) are
//! produced by the same mechanisms as on hardware.
//!
//! # DESIGN — the sweep kernel
//!
//! Every figure is built from millions of Metropolis proposals
//! (`Na` anneals × sweeps × spins), so the Monte-Carlo inner loop is
//! the throughput bottleneck of the whole reproduction. The kernel is
//! organized around a *compiled problem view* and *persistent replica
//! state*:
//!
//! * **[`quamax_ising::CompiledProblem`]** — a CSR (flat
//!   `offsets`/`neighbors`/`weights` arrays + cached linear terms)
//!   snapshot of the programmed problem, built once per
//!   [`Annealer::run_compiled`] batch and shared read-only across
//!   worker threads. Rows are sorted, so the layout is a pure function
//!   of the problem, not of construction order.
//! * **[`kernel::ReplicaBatch`]** — `W` configurations plus their
//!   cached local fields `h_i = f_i + Σ_j g_ij·s_j`. A Metropolis
//!   proposal is O(1) (`ΔE = −2·s_i·h_i`); only an *accepted* flip
//!   pays the O(degree) neighbor-field update. Late in the schedule,
//!   where acceptance collapses, a sweep costs ~one multiply per spin
//!   instead of one adjacency-list walk per spin. The running energy
//!   is recoverable from the fields in O(n)
//!   (`E = Σ_i s_i·(h_i + f_i)/2`), so nothing recomputes couplings at
//!   readout either.
//! * **[`kernel::SqaReplicaBatch`]** — the same for SQA: each
//!   replica's Trotter slices flattened into one `n×P` spin buffer
//!   with a per-slice local-field cache, giving the same O(1) proposal
//!   per (spin, slice).
//! * **[`kernel::CompiledChains`]** — per-chain member lists and
//!   internal-edge lists, precompiled once via a membership mask, so
//!   chain-collective proposals stop re-scanning `chain.contains(j)`
//!   inside the sweep loop.
//! * **One sweep per backend** — the two batches are the only sweep
//!   state: a single anneal is a width-1 batch, and every device entry
//!   point runs through [`Annealer::run_jobs`].
//! * **Per-thread reuse** — each worker owns one replica batch. A
//!   window's ICE refreeze draws every replica's deviates into one
//!   reused `W × (n + m)` buffer and writes the perturbed coefficients
//!   straight into the `linear`/`weights` strips, one contiguous strip
//!   per coefficient (the CSR structure is shared); the anneal hot
//!   loop performs no allocation.
//!
//! ## Determinism contract
//!
//! `Annealer::run*` output is bit-identical for a given `(problem,
//! schedule, num_anneals, seed)` **regardless of thread count**, kept
//! by three rules:
//!
//! 1. **SplitMix-per-anneal RNG streams** — anneal `k` always seeds its
//!    own `StdRng` with `splitmix(seed, k)`; which thread runs `k` is
//!    irrelevant.
//! 2. **Draw-order stability** — within an anneal, every random draw
//!    happens in a layout-determined order, and each phase draws from
//!    a fixed sampler (`quamax_linalg::rng`):
//!    * **refreeze** (ICE on): one ziggurat normal deviate
//!      (`NormalZiggurat`, one `next_u64` on its fast path) per
//!      coefficient — fields in spin order, then couplings in CSR
//!      `(i, j)`, `i < j` order; a zero ICE model draws nothing;
//!    * **init** (random starts only): one `next_u64` per 64 spins,
//!      spin `i` up iff bit `i % 64` is set — SQA packs its (slice,
//!      spin) sites slice-major the same way; a reverse-anneal start
//!      draws nothing;
//!    * **proposals**: spins (and slices) in index order, chains in
//!      chain index order; each accept is [`sa::metropolis`]: a
//!      downhill move or `β·ΔE ≥ 40` decides without drawing, anything
//!      else draws one `E ~ Exp(1)` (`ExpZiggurat`) and accepts iff
//!      `β·ΔE < E`. Whether a proposal draws depends only on ΔE, which
//!      is deterministic.
//! 3. **No cross-anneal state** — scratch buffers are reset per anneal
//!    (fields recomputed from the refrozen coefficients), so reuse
//!    never leaks one anneal's state into the next.
//!
//! * **Compile-once batch entry** — [`Annealer::run_compiled`] accepts
//!   a caller-held `CompiledProblem`/`CompiledChains` pair, and the
//!   CSR view supports in-place coefficient refresh
//!   (`CompiledProblem::set_linear_term` / `set_entry_weight`), so a
//!   front-end that holds the problem *structure* fixed — the decode
//!   session pattern, where only the received-vector-dependent fields
//!   move between batches — re-targets the frozen view per batch
//!   instead of re-freezing. With `threads: 1` the batch runs inline
//!   on the caller thread (no scoped spawn), which is what a sharded
//!   multi-session front-end wants: parallelism at the batch
//!   dimension, not nested inside each anneal batch.
//!
//! The naive adjacency-list kernels (`sa::sweep`,
//! `IsingProblem::flip_delta`, `sa::chain_flip_delta`) remain as the
//! reference implementations; property tests cross-check the batch
//! kernel against them, and `quamax-bench`'s microbenches measure the
//! gap (recorded in `BENCH_kernel.json` at the repo root).
//!
//! # DESIGN — batched replica sweeps
//!
//! One anneal's sweep is memory-bound: every proposal touches one CSR
//! row, and accepted flips stream the row again to scatter field
//! updates. The replica batches amortize that traversal over `W`
//! *independent* replicas by interleaving their state
//! structure-of-arrays:
//!
//! ```text
//!            spin 0                spin 1                spin i
//!   spins  [ r0 r1 r2 … r(W-1) | r0 r1 r2 … r(W-1) | … ]   i*W + r
//!   fields [ r0 r1 r2 … r(W-1) | r0 r1 r2 … r(W-1) | … ]   i*W + r
//! ```
//!
//! Proposing spin `i` reads the contiguous strips `spins[i*W..][..W]` /
//! `fields[i*W..][..W]` and the winners share **one** CSR row walk: for
//! each row entry `(j, g)`, the strip `fields[j*W..][..W] += steps·g`,
//! where `steps[r]` is `−2·s_i` for accepting replicas and `0.0` for
//! the rest (a branchless broadcast; adding `0.0·g` can at most
//! normalize a zero's sign, which no Metropolis comparison can
//! observe). The SA sweep is monomorphized over the width: it runs at
//! the fixed set [`kernel::SA_WIDTHS`] (1, 2, 4, 8), where every strip
//! is a fixed-size array, bounds checks vanish and the strip arithmetic
//! unrolls; any other width panics at the sweep. Two coefficient modes
//! cover the front-ends: *shared* (all replicas run one zero-ICE
//! problem — couplings broadcast from the problem's own CSR arrays)
//! and *per-replica* (strided `linear[i*W+r]` / `weights[e*W+r]`
//! strips — per-anneal ICE refreezes, or a decode batch packing
//! different received vectors over one structure).
//!
//! ## RNG stream-splitting contract
//!
//! Batching is *unobservable* in the outputs. Replica `r` of a batch
//! consumes its own `StdRng` stream — the `splitmix(seed, k)` stream of
//! its anneal — and only through the per-stream draw order of the
//! determinism contract above (refreeze → init → proposals in sweep
//! order). The kernel evaluates the same ΔE values in the same float
//! accumulation order at every width (chain flips go member-by-member;
//! SQA global moves slice-by-slice), so every replica is
//! **bit-identical** to the same anneal run alone in a width-1 batch —
//! property-tested in `tests/properties.rs` against width 1, which in
//! turn is checked against the naive kernels, and relied on by
//! [`Annealer::run_jobs`] to pack arbitrary job mixes into windows
//! without changing any sample.
//!
//! ## Batch width vs. thread parallelism
//!
//! The two axes compose: [`Annealer::run_jobs`] shards flattened
//! (job, anneal) slots across threads, then each worker sweeps its
//! shard in the windows `kernel::windows` plans: as many width-8
//! windows as fit, then a power-of-two tail (a shard of 13 runs as
//! windows of 8, 4 and 1). Width exploits *data-level* parallelism
//! (one core's vector lanes and cache lines carry `W` replicas through
//! one row walk); threads exploit *core-level* parallelism. Width 8 keeps a
//! batch's working set (~`W·n` spins + `W·n` fields, plus `W·nnz`
//! weights in per-replica mode) cache-resident on full-chip problems,
//! so there is no width knob: the remaining parallelism goes to
//! threads. A front-end that already shards sessions across cores
//! (the decode path) should keep `threads: 1` per device call and let
//! width do the intra-core work.

pub mod device;
pub mod ice;
pub mod kernel;
pub mod sa;
pub mod schedule;
pub mod sqa;
pub mod stats;

pub use device::{AnnealJob, Annealer, AnnealerConfig, Backend};
pub use ice::IceModel;
pub use kernel::{CompiledChains, ReplicaBatch, SqaReplicaBatch};
pub use schedule::Schedule;
pub use stats::{SolutionDistribution, SolutionEntry};
