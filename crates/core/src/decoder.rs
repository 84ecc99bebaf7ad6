//! The end-to-end QuAMax decode pipeline (§3.2.1's worked example,
//! §4's machine model).
//!
//! One decode = one QA run:
//!
//! 1. form the ML Ising problem from `(H, y)` (closed-form reduction);
//! 2. embed it on the Chimera chip (triangle clique embedding) and
//!    compile with the chain strength / dynamic-range parameters;
//! 3. submit a batch of `Na` anneals to the (simulated) annealer;
//! 4. majority-vote unembed each sample, rank distinct logical
//!    solutions by *logical* Ising energy;
//! 5. the minimum-energy solution is the decode; translate its
//!    QuAMax-transform bits to Gray bits (Fig. 2).
//!
//! The returned [`DecodeRun`] keeps the whole ranked distribution —
//! the paper's per-instance metrics (Eq. 9, TTB) are order statistics
//! over it, not just the best answer.

use crate::reduce::{ising_from_ml, ising_from_ml_amortized};
use crate::scenario::DetectionInput;
use quamax_anneal::{AnnealJob, Annealer, CompiledChains, Schedule, SolutionDistribution};
use quamax_chimera::{
    parallelization, unembed_majority_vote, ChimeraGraph, CliqueEmbedding, EmbedParams,
    EmbeddedProblem, EmbeddingError,
};
use quamax_ising::{spins_to_bits, CompiledProblem, IsingProblem};
use quamax_linalg::{CMatrix, CVector};
use quamax_telemetry::Telemetry;
use quamax_wireless::gray::quamax_bits_to_gray;
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Decoder-level configuration: embedding parameters and schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecoderConfig {
    /// Chain strength and dynamic range (§4).
    pub embed: EmbedParams,
    /// Anneal schedule (Ta, optional pause).
    pub schedule: Schedule,
}

impl Default for DecoderConfig {
    /// The paper's selected operating point (§5.3.2): improved dynamic
    /// range, `Ta = 1 µs` with a 1 µs pause.
    fn default() -> Self {
        DecoderConfig {
            embed: EmbedParams::default(),
            schedule: Schedule::with_pause(1.0, 0.35, 1.0),
        }
    }
}

/// Why a decode could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The problem does not fit the chip (Table 2's bold region).
    Embedding(EmbeddingError),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Embedding(e) => write!(f, "embedding failed: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<EmbeddingError> for DecodeError {
    fn from(e: EmbeddingError) -> Self {
        DecodeError::Embedding(e)
    }
}

/// The QuAMax decoder: an annealer plus chip model plus configuration.
pub struct QuamaxDecoder {
    annealer: Annealer,
    graph: ChimeraGraph,
    config: DecoderConfig,
    /// Pipeline-stage metrics sink, threaded into every compiled
    /// session. Recording counts stages and models anneal time from
    /// the schedule — it reads no wall clock and draws no randomness,
    /// so decodes are bit-identical with telemetry on or off.
    telemetry: Telemetry,
}

impl QuamaxDecoder {
    /// A decoder on an ideal DW2Q chip.
    pub fn new(annealer: Annealer, config: DecoderConfig) -> Self {
        QuamaxDecoder {
            annealer,
            graph: ChimeraGraph::dw2q_ideal(),
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// A decoder on a specific chip (e.g. with a defect map).
    pub fn with_graph(annealer: Annealer, graph: ChimeraGraph, config: DecoderConfig) -> Self {
        QuamaxDecoder {
            annealer,
            graph,
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; sessions compiled afterwards
    /// inherit it.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Current configuration.
    pub fn config(&self) -> &DecoderConfig {
        &self.config
    }

    /// Replaces the configuration (used by Fix/Opt parameter search).
    pub fn set_config(&mut self, config: DecoderConfig) {
        self.config = config;
    }

    /// Runs one QA decode of `input` with `num_anneals` anneal cycles.
    ///
    /// `rng` drives unembedding tie-breaks and the annealer seed, so a
    /// seeded caller gets reproducible runs.
    pub fn decode<R: Rng + ?Sized>(
        &self,
        input: &DetectionInput,
        num_anneals: usize,
        rng: &mut R,
    ) -> Result<DecodeRun, DecodeError> {
        self.decode_inner(input, num_anneals, None, rng)
    }

    /// Reverse-anneal decode (§8 future work): refine a classical
    /// `candidate` solution (Gray bits, e.g. a ZF or MMSE decode) by
    /// annealing backwards from it. The decoder's schedule must be a
    /// [`Schedule::reverse`].
    ///
    /// # Panics
    /// Panics when the candidate bit count differs from the payload, or
    /// the configured schedule is not reverse.
    pub fn decode_reverse<R: Rng + ?Sized>(
        &self,
        input: &DetectionInput,
        num_anneals: usize,
        candidate_gray_bits: &[u8],
        rng: &mut R,
    ) -> Result<DecodeRun, DecodeError> {
        assert!(
            self.config.schedule.is_reverse(),
            "decode_reverse needs a Schedule::reverse configuration"
        );
        assert_eq!(
            candidate_gray_bits.len(),
            input.num_bits(),
            "candidate bit count mismatch"
        );
        self.decode_inner(input, num_anneals, Some(candidate_gray_bits), rng)
    }

    fn decode_inner<R: Rng + ?Sized>(
        &self,
        input: &DetectionInput,
        num_anneals: usize,
        candidate_gray_bits: Option<&[u8]>,
        rng: &mut R,
    ) -> Result<DecodeRun, DecodeError> {
        // One-shot decode = a single-use session. The session produces
        // bit-identical results to the historical inline path (same
        // reductions, same programmed coefficients, same RNG draws).
        let mut session = self.compile(input)?;
        Ok(match candidate_gray_bits {
            None => session.decode_with_rng(&input.y, num_anneals, rng),
            Some(gray) => session.decode_reverse(&input.y, num_anneals, gray, rng),
        })
    }

    /// Compiles the channel-dependent (per-coherence-interval) part of
    /// the decode once, returning a [`DecodeSession`] that streams
    /// per-received-vector decodes through the frozen problem.
    ///
    /// In the ML reduction the couplings `g_ij` (and hence the
    /// embedding, the chain layout, and the annealer's CSR view of the
    /// problem) depend only on `H` and the modulation; only the linear
    /// fields `h_i` and the global renormalization scale depend on `y`.
    /// A C-RAN front-end therefore compiles one session per coherence
    /// interval and decodes every subcarrier / OFDM symbol of the
    /// interval against it, paying the reduce→embed→freeze cost once
    /// (`input.y` is used only to shape the compile; any `y` of the
    /// interval works).
    pub fn compile(&self, input: &DetectionInput) -> Result<DecodeSession, DecodeError> {
        let gram = input.h.gram();
        let h_herm = input.h.hermitian();
        let (logical, _) = if input.modulation == Modulation::Qam64 {
            ising_from_ml(&input.h, &input.y, input.modulation)
        } else {
            let h_y = h_herm.mul_vec(&input.y);
            ising_from_ml_amortized(&input.h, &gram, &h_y, &input.y, input.modulation)
        };
        self.telemetry.counter_inc(
            "quamax_core_reduce_total",
            &[("modulation", input.modulation.name())],
        );
        let embedding = CliqueEmbedding::new(&self.graph, logical.num_spins())?;
        self.telemetry.counter_inc("quamax_core_embed_total", &[]);
        let embedded =
            EmbeddedProblem::compile(&self.graph, &embedding, &logical, self.config.embed);
        // Freeze the programmed problem into the annealer's CSR kernel
        // view once per session; decodes refresh coefficients in place.
        let base = CompiledProblem::new(embedded.problem());
        let chains = CompiledChains::compile(&base, embedded.chains());
        // Resolve each programmed coupler's CSR entry once; per decode
        // the new value is written straight into the frozen layout.
        let slots: Vec<(u32, u32, u32)> = embedded
            .programmed_couplers()
            .iter()
            .map(|&(i, j, da, db)| {
                let k = base
                    .coupler_entry(da as usize, db as usize)
                    .expect("programmed coupler exists in CSR");
                (k as u32, i, j)
            })
            .collect();
        let mut chain_of = vec![0u32; embedded.num_physical()];
        for (i, chain) in embedded.chains().iter().enumerate() {
            for &d in chain {
                chain_of[d] = i as u32;
            }
        }
        let chain_len = embedded.chains().first().map_or(1, Vec::len) as f64;
        let scratch = base.clone();
        self.telemetry
            .counter_inc("quamax_core_csr_freeze_total", &[]);
        Ok(DecodeSession {
            inner: SessionInner {
                telemetry: self.telemetry.clone(),
                annealer: self.annealer.clone().with_telemetry(self.telemetry.clone()),
                config: self.config,
                modulation: input.modulation,
                h: input.h.clone(),
                gram,
                h_herm,
                parallel_factor: parallelization(embedding.num_logical()).max(1),
                embedded,
                base,
                chains,
                slots,
                chain_of,
                chain_len,
            },
            scratch,
        })
    }
}

/// A compiled decode session: the `H`-dependent work (ML reduction
/// structure, Chimera embedding, CSR freeze, chain tables) done once,
/// with per-`y` decodes reduced to an in-place linear-field/scale
/// refresh plus the anneal batch itself.
///
/// Produced by [`QuamaxDecoder::compile`]. Decodes through a session
/// are bit-identical to [`QuamaxDecoder::decode`] on the same
/// `(H, y, seed)` — the session is an amortization, not a different
/// algorithm.
pub struct DecodeSession {
    inner: SessionInner,
    /// The programmed-problem view refreshed per decode (`&mut self`
    /// decode path); batch workers clone their own from `inner.base`.
    scratch: CompiledProblem,
}

/// The shared, read-only part of a session (what batch workers borrow).
struct SessionInner {
    /// Inherited from the compiling decoder ([`Telemetry`] is a cheap
    /// shared handle, safe to record through from batch workers).
    telemetry: Telemetry,
    annealer: Annealer,
    config: DecoderConfig,
    modulation: Modulation,
    h: CMatrix,
    /// `H*H` — the channel Gram matrix every closed-form coupling and
    /// field reads (computed once per coherence interval).
    gram: CMatrix,
    /// `H*` — applied per decode for the matched filter `H*y`.
    h_herm: CMatrix,
    parallel_factor: usize,
    /// Chain layout + programming map (coefficients inside are stale
    /// after compile; only structure is read).
    embedded: EmbeddedProblem,
    /// The frozen CSR template: chain couplers valid for the whole
    /// session, fields/problem couplers refreshed per decode.
    base: CompiledProblem,
    chains: CompiledChains,
    /// `(CSR entry, logical i, logical j)` per programmed coupler.
    slots: Vec<(u32, u32, u32)>,
    /// Dense physical qubit → owning logical chain.
    chain_of: Vec<u32>,
    chain_len: f64,
}

/// How one decode run anneals: from scratch, or backwards from a
/// candidate state (optionally under a schedule other than the
/// session's compiled one — the IDD warm-start entry).
#[derive(Clone, Copy)]
enum RunMode<'a> {
    Forward,
    Reverse {
        candidate_gray_bits: &'a [u8],
        schedule: Option<&'a Schedule>,
    },
}

impl SessionInner {
    /// Rebuilds the (small) logical problem for `y` and writes the
    /// programmed coefficients into `scratch`, reproducing exactly what
    /// a fresh reduce→embed→freeze would put there.
    fn program(&self, y: &CVector, scratch: &mut CompiledProblem) -> (IsingProblem, f64) {
        assert_eq!(
            y.len(),
            self.h.rows(),
            "received vector length differs from receive antennas"
        );
        let (logical, offset) = if self.modulation == Modulation::Qam64 {
            // No closed form: the generic reduction recomputes the
            // QUBO; still amortizes embedding + freeze.
            ising_from_ml(&self.h, y, self.modulation)
        } else {
            let h_y = self.h_herm.mul_vec(y);
            ising_from_ml_amortized(&self.h, &self.gram, &h_y, y, self.modulation)
        };
        let scale = self.embedded.scale_for(&logical);
        for (d, &c) in self.chain_of.iter().enumerate() {
            scratch.set_linear_term(d, logical.linear(c as usize) * scale / self.chain_len);
        }
        for &(k, i, j) in &self.slots {
            scratch.set_entry_weight(k as usize, logical.coupling(i as usize, j as usize) * scale);
        }
        self.telemetry
            .counter_inc("quamax_core_field_refresh_total", &[]);
        (logical, offset)
    }

    fn run_with<R: Rng + ?Sized>(
        &self,
        scratch: &mut CompiledProblem,
        annealer: &Annealer,
        y: &CVector,
        num_anneals: usize,
        mode: RunMode<'_>,
        rng: &mut R,
    ) -> DecodeRun {
        let schedule = match mode {
            RunMode::Reverse {
                schedule: Some(s), ..
            } => *s,
            _ => self.config.schedule,
        };
        let (logical, offset) = self.program(y, scratch);
        let seed: u64 = rng.random();
        let samples = match mode {
            RunMode::Forward => {
                annealer.run_compiled(scratch, &self.chains, &schedule, num_anneals, seed)
            }
            RunMode::Reverse {
                candidate_gray_bits: gray,
                ..
            } => {
                // Gray bits → QuAMax-transform bits → logical spins →
                // expansion onto the physical chains.
                let q = self.modulation.bits_per_symbol();
                let logical_spins = quamax_ising::bits_to_spins(
                    &gray
                        .chunks(q)
                        .flat_map(quamax_wireless::gray::gray_bits_to_quamax)
                        .collect::<Vec<u8>>(),
                );
                let mut physical = vec![0i8; self.embedded.num_physical()];
                for (i, chain) in self.embedded.chains().iter().enumerate() {
                    for &d in chain {
                        physical[d] = logical_spins[i];
                    }
                }
                annealer.run_reverse_compiled(
                    scratch,
                    &self.chains,
                    &physical,
                    &schedule,
                    num_anneals,
                    seed,
                )
            }
        };

        self.finish(logical, offset, schedule, &samples, rng)
    }

    /// The post-anneal half of a decode: accounting, per-sample
    /// majority-vote unembedding (tie-breaks drawn from `rng`, which
    /// must be positioned right after the anneal-seed draw), and the
    /// ranked solution distribution.
    fn finish<R: Rng + ?Sized>(
        &self,
        logical: IsingProblem,
        ml_offset: f64,
        schedule: Schedule,
        samples: &[Vec<quamax_ising::Spin>],
        rng: &mut R,
    ) -> DecodeRun {
        self.telemetry
            .counter_add("quamax_core_anneals_total", &[], samples.len() as u64);
        self.telemetry.observe(
            "quamax_core_anneal_modeled_us",
            &[],
            samples.len() as f64 * schedule.total_time_us(),
        );

        // Unembed each physical sample; track chain-break statistics.
        let mut logical_samples = Vec::with_capacity(samples.len());
        let mut broken = 0usize;
        for s in samples {
            let out = unembed_majority_vote(&self.embedded, s, rng);
            broken += out.broken_chains;
            logical_samples.push(out.logical);
        }
        self.telemetry
            .counter_add("quamax_core_unembed_total", &[], samples.len() as u64);
        let distribution = SolutionDistribution::from_samples(&logical, &logical_samples);
        let total_chains = logical.num_spins().max(1) * samples.len().max(1);

        DecodeRun {
            distribution,
            logical,
            ml_offset,
            modulation: self.modulation,
            schedule,
            parallel_factor: self.parallel_factor,
            chain_break_fraction: broken as f64 / total_chains as f64,
        }
    }
}

impl DecodeSession {
    /// Modulation the session was compiled for.
    pub fn modulation(&self) -> Modulation {
        self.inner.modulation
    }

    /// Logical Ising variables (= payload bits per channel use).
    pub fn num_logical(&self) -> usize {
        self.inner.embedded.chains().len()
    }

    /// Payload bits per decode.
    pub fn num_bits(&self) -> usize {
        self.num_logical()
    }

    /// Physical qubits occupied by the compiled embedding.
    pub fn num_physical(&self) -> usize {
        self.inner.embedded.num_physical()
    }

    /// Geometric chip parallelization factor of this problem size.
    pub fn parallel_factor(&self) -> usize {
        self.inner.parallel_factor
    }

    /// Problems one anneal wave decodes side by side: the batch size at
    /// which [`DecodeSession::decode_batch`] fills the chip exactly
    /// once. The couplings of every tile are identical (same `H`);
    /// only the per-tile linear fields differ (each tile's `y`), which
    /// is why a batch scheduler coalesces *same-channel* jobs — they
    /// share this session and tile without reprogramming.
    pub fn batch_capacity(&self) -> usize {
        self.inner.parallel_factor
    }

    /// Projected on-chip anneal time, µs, of decoding `batch`
    /// same-channel problems through this session:
    /// `⌈batch / capacity⌉` waves of `num_anneals` cycles at the
    /// compiled schedule's cycle time. This is the service-time model a
    /// deadline-aware batch scheduler subtracts from the earliest
    /// member's slack to decide when a filling batch must close
    /// (`quamax_ran::sched`); host preprocessing, programming, and
    /// readout ride on top (`quamax_ran::QpuServer`'s overhead stack).
    pub fn projected_batch_us(&self, batch: usize, num_anneals: usize) -> f64 {
        let waves = batch.div_ceil(self.batch_capacity()) as f64;
        waves * num_anneals as f64 * self.inner.config.schedule.total_time_us()
    }

    /// Decodes one received vector with a fixed seed — the streaming
    /// entry point (`seed` covers both the anneal batch and the
    /// unembedding tie-breaks). Equivalent to
    /// [`QuamaxDecoder::decode`] driven by `StdRng::seed_from_u64(seed)`
    /// on the same `(H, y)`.
    pub fn decode(&mut self, y: &CVector, num_anneals: usize, seed: u64) -> DecodeRun {
        let mut rng = StdRng::seed_from_u64(seed);
        self.decode_with_rng(y, num_anneals, &mut rng)
    }

    /// Decodes one received vector drawing the anneal seed and the
    /// unembedding tie-breaks from `rng` (the historical
    /// [`QuamaxDecoder::decode`] contract).
    pub fn decode_with_rng<R: Rng + ?Sized>(
        &mut self,
        y: &CVector,
        num_anneals: usize,
        rng: &mut R,
    ) -> DecodeRun {
        self.inner.run_with(
            &mut self.scratch,
            &self.inner.annealer,
            y,
            num_anneals,
            RunMode::Forward,
            rng,
        )
    }

    /// Reverse-anneal decode through the session (see
    /// [`QuamaxDecoder::decode_reverse`]).
    ///
    /// # Panics
    /// Panics when the candidate bit count differs from the payload, or
    /// the configured schedule is not reverse.
    pub fn decode_reverse<R: Rng + ?Sized>(
        &mut self,
        y: &CVector,
        num_anneals: usize,
        candidate_gray_bits: &[u8],
        rng: &mut R,
    ) -> DecodeRun {
        assert!(
            self.inner.config.schedule.is_reverse(),
            "decode_reverse needs a Schedule::reverse configuration"
        );
        assert_eq!(
            candidate_gray_bits.len(),
            self.num_bits(),
            "candidate bit count mismatch"
        );
        self.inner.run_with(
            &mut self.scratch,
            &self.inner.annealer,
            y,
            num_anneals,
            RunMode::Reverse {
                candidate_gray_bits,
                schedule: None,
            },
            rng,
        )
    }

    /// Reverse-anneal decode from a *supplied* candidate state under a
    /// *supplied* reverse schedule — the warm-start entry an iterative
    /// detection–decoding loop uses: the session stays compiled for its
    /// forward operating point (iteration 1), and later iterations
    /// refine the channel decoder's current decision by annealing
    /// backwards from it without recompiling anything. Deterministic in
    /// `seed` exactly like [`DecodeSession::decode`].
    ///
    /// # Panics
    /// Panics when the candidate bit count differs from the payload, or
    /// `schedule` is not reverse.
    pub fn decode_reverse_from(
        &mut self,
        y: &CVector,
        num_anneals: usize,
        candidate_gray_bits: &[u8],
        schedule: &Schedule,
        seed: u64,
    ) -> DecodeRun {
        assert!(
            schedule.is_reverse(),
            "decode_reverse_from needs a Schedule::reverse schedule"
        );
        assert_eq!(
            candidate_gray_bits.len(),
            self.num_bits(),
            "candidate bit count mismatch"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        self.inner.run_with(
            &mut self.scratch,
            &self.inner.annealer,
            y,
            num_anneals,
            RunMode::Reverse {
                candidate_gray_bits,
                schedule: Some(schedule),
            },
            &mut rng,
        )
    }

    /// Decodes a batch of `(y, seed)` pairs — one coherence interval's
    /// worth of subcarrier/symbol problems — through one device-level
    /// [`Annealer::run_jobs`] call: every item's anneals flatten into
    /// replica windows, so one CSR row walk drives up to eight anneals
    /// (often of *different* items — each replica carries its own
    /// programmed fields over the shared session structure) while
    /// threads shard the flattened batch.
    ///
    /// Each item is decoded under its own `StdRng::seed_from_u64(seed)`
    /// stream, so results are bit-identical to calling
    /// [`DecodeSession::decode`] item by item (and to one-shot
    /// [`QuamaxDecoder::decode`] under the same seeds), regardless of
    /// batch width or worker count.
    pub fn decode_batch(&self, items: &[(CVector, u64)], num_anneals: usize) -> Vec<DecodeRun> {
        if items.is_empty() {
            return Vec::new();
        }
        let inner = &self.inner;
        // Program every item's coefficients into its own view of the
        // session's frozen structure, splitting each item's RNG stream
        // exactly like the serial path: anneal seed first, unembedding
        // tie-breaks after.
        let mut programmed = Vec::with_capacity(items.len());
        for (y, seed) in items {
            let mut scratch = inner.base.clone();
            let mut rng = StdRng::seed_from_u64(*seed);
            let (logical, offset) = inner.program(y, &mut scratch);
            let anneal_seed: u64 = rng.random();
            programmed.push((scratch, logical, offset, anneal_seed, rng));
        }
        let schedule = inner.config.schedule;
        let jobs: Vec<AnnealJob> = programmed
            .iter()
            .map(|(scratch, _, _, anneal_seed, _)| AnnealJob {
                problem: scratch,
                init: None,
                num_anneals,
                seed: *anneal_seed,
            })
            .collect();
        let sample_sets = inner
            .annealer
            .run_jobs(&inner.base, &inner.chains, &schedule, &jobs);
        drop(jobs);
        programmed
            .into_iter()
            .zip(sample_sets)
            .map(|((_, logical, offset, _, mut rng), samples)| {
                inner.finish(logical, offset, schedule, &samples, &mut rng)
            })
            .collect()
    }
}

/// The result of one QA decode run.
#[derive(Clone, Debug)]
pub struct DecodeRun {
    distribution: SolutionDistribution,
    logical: IsingProblem,
    ml_offset: f64,
    modulation: quamax_wireless::Modulation,
    schedule: Schedule,
    parallel_factor: usize,
    chain_break_fraction: f64,
}

impl DecodeRun {
    /// The ranked logical solution distribution (Fig. 4's x-axis).
    pub fn distribution(&self) -> &SolutionDistribution {
        &self.distribution
    }

    /// The logical Ising problem that was solved.
    pub fn logical_problem(&self) -> &IsingProblem {
        &self.logical
    }

    /// The additive constant linking Ising energies to ML metrics:
    /// `‖y − He‖² = E_ising + ml_offset`.
    pub fn ml_offset(&self) -> f64 {
        self.ml_offset
    }

    /// Gray-translated decoded bits of the rank-`r` solution, or
    /// `None` when the run observed fewer than `rank + 1` distinct
    /// solutions.
    pub fn bits_for_rank(&self, rank: usize) -> Option<Vec<u8>> {
        let entry = self.distribution.entries().get(rank)?;
        let qubo_bits = spins_to_bits(&entry.spins);
        let q = self.modulation.bits_per_symbol();
        Some(qubo_bits.chunks(q).flat_map(quamax_bits_to_gray).collect())
    }

    /// The decode: Gray bits of the minimum-energy solution found.
    ///
    /// # Panics
    /// Panics when the run had zero anneals.
    pub fn best_bits(&self) -> Vec<u8> {
        self.bits_for_rank(0).expect("empty run has no decode")
    }

    /// Wall-clock time of one anneal cycle, `Ta + Tp`, in µs.
    pub fn anneal_cycle_us(&self) -> f64 {
        self.schedule.total_time_us()
    }

    /// Geometric parallelization factor of this problem size on the
    /// chip (≥ 1).
    pub fn parallel_factor(&self) -> usize {
        self.parallel_factor
    }

    /// Fraction of broken chains across all anneals (embedding health).
    pub fn chain_break_fraction(&self) -> f64 {
        self.chain_break_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use quamax_anneal::{AnnealerConfig, IceModel};
    use quamax_wireless::Modulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quiet_annealer() -> Annealer {
        Annealer::new(AnnealerConfig {
            ice: IceModel::none(),
            sweeps_per_us: 50.0,
            ..Default::default()
        })
    }

    #[test]
    fn decodes_noiseless_bpsk_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        let sc = Scenario::new(4, 4, Modulation::Bpsk);
        let inst = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(10.0),
                ..Default::default()
            },
        );
        let run = decoder
            .decode(&inst.detection_input(), 100, &mut rng)
            .unwrap();
        assert_eq!(run.best_bits(), inst.tx_bits());
        // Ising best energy + offset = ‖y − Hv̂‖² = 0 for the noiseless
        // ground truth.
        let best_e = run.distribution().best_energy().unwrap();
        assert!((best_e + run.ml_offset()).abs() < 1e-6);
    }

    #[test]
    fn decodes_noiseless_qpsk_and_qam16() {
        let mut rng = StdRng::seed_from_u64(2);
        for (m, nt, na) in [
            (Modulation::Qpsk, 3usize, 200usize),
            (Modulation::Qam16, 2, 400),
        ] {
            let sc = Scenario::new(nt, nt, m);
            let inst = sc.sample(&mut rng);
            let decoder = QuamaxDecoder::new(
                quiet_annealer(),
                DecoderConfig {
                    schedule: Schedule::standard(20.0),
                    ..Default::default()
                },
            );
            let run = decoder
                .decode(&inst.detection_input(), na, &mut rng)
                .unwrap();
            assert_eq!(run.best_bits(), inst.tx_bits(), "{}", m.name());
        }
    }

    #[test]
    fn run_exposes_statistics() {
        let mut rng = StdRng::seed_from_u64(3);
        let sc = Scenario::new(4, 4, Modulation::Bpsk);
        let inst = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        let run = decoder
            .decode(&inst.detection_input(), 50, &mut rng)
            .unwrap();
        assert_eq!(run.distribution().total_samples(), 50);
        assert!(
            run.parallel_factor() >= 20,
            "4-user BPSK should tile heavily"
        );
        assert!(run.chain_break_fraction() >= 0.0 && run.chain_break_fraction() <= 1.0);
        // Default schedule: 1 µs anneal + 1 µs pause.
        assert!((run.anneal_cycle_us() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn oversized_problem_is_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        // 40 users × 16-QAM = 160 logical: beyond the C16 clique bound.
        let sc = Scenario::new(40, 40, Modulation::Qam16);
        let inst = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        match decoder.decode(&inst.detection_input(), 1, &mut rng) {
            Err(DecodeError::Embedding(EmbeddingError::DoesNotFit { n: 160, .. })) => {}
            other => panic!("expected DoesNotFit, got {other:?}"),
        }
    }

    #[test]
    fn seeded_decode_is_reproducible() {
        let sc = Scenario::new(3, 3, Modulation::Qpsk);
        let run_once = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = sc.sample(&mut rng);
            let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
            let run = decoder
                .decode(&inst.detection_input(), 30, &mut rng)
                .unwrap();
            run.best_bits()
        };
        assert_eq!(run_once(7), run_once(7));
    }

    #[test]
    fn reverse_decode_refines_a_candidate() {
        let mut rng = StdRng::seed_from_u64(6);
        let sc = Scenario::new(6, 6, Modulation::Qpsk);
        let inst = sc.sample(&mut rng);
        // A candidate with two wrong bits.
        let mut candidate = inst.tx_bits().to_vec();
        candidate[0] ^= 1;
        candidate[5] ^= 1;
        let decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::reverse(2.0, 0.6, 2.0),
                ..Default::default()
            },
        );
        let run = decoder
            .decode_reverse(&inst.detection_input(), 100, &candidate, &mut rng)
            .unwrap();
        assert_eq!(
            run.best_bits(),
            inst.tx_bits(),
            "refinement should fix 2 bits"
        );
    }

    #[test]
    #[should_panic(expected = "Schedule::reverse")]
    fn reverse_decode_requires_reverse_schedule() {
        let mut rng = StdRng::seed_from_u64(7);
        let inst = Scenario::new(4, 4, Modulation::Bpsk).sample(&mut rng);
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        let candidate = vec![0u8; 4];
        let _ = decoder.decode_reverse(&inst.detection_input(), 10, &candidate, &mut rng);
    }

    #[test]
    fn qam64_decodes_through_the_generic_reduction() {
        // 64-QAM has no closed-form Ising in the paper; the generic
        // norm-expansion path must carry it end-to-end (2 users = 12
        // logical variables).
        let mut rng = StdRng::seed_from_u64(8);
        let sc = Scenario::new(2, 2, Modulation::Qam64);
        let inst = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(30.0),
                ..Default::default()
            },
        );
        let run = decoder
            .decode(&inst.detection_input(), 600, &mut rng)
            .unwrap();
        assert_eq!(run.best_bits(), inst.tx_bits());
    }

    #[test]
    fn ranked_bits_differ_across_ranks() {
        let mut rng = StdRng::seed_from_u64(5);
        let sc = Scenario::new(4, 4, Modulation::Bpsk);
        let inst = sc.sample(&mut rng);
        // Noisy short anneals: guarantee several distinct solutions.
        let annealer = Annealer::new(AnnealerConfig {
            sweeps_per_us: 2.0,
            ..Default::default()
        });
        let decoder = QuamaxDecoder::new(
            annealer,
            DecoderConfig {
                schedule: Schedule::standard(1.0),
                ..Default::default()
            },
        );
        let run = decoder
            .decode(&inst.detection_input(), 200, &mut rng)
            .unwrap();
        assert!(run.distribution().num_distinct() > 1);
        let a = run.bits_for_rank(0).unwrap();
        let b = run.bits_for_rank(1).unwrap();
        assert_ne!(a, b);
        // Past the observed distinct solutions there is no decode.
        assert_eq!(run.bits_for_rank(run.distribution().num_distinct()), None);
    }

    #[test]
    fn session_decode_matches_one_shot_decode() {
        // Same (H, y, seed): a compiled session and the one-shot path
        // must agree on every observable of the run.
        let mut rng = StdRng::seed_from_u64(11);
        let sc = Scenario::new(4, 4, Modulation::Qpsk);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());

        let mut one_shot_rng = StdRng::seed_from_u64(99);
        let one_shot = decoder.decode(&input, 40, &mut one_shot_rng).unwrap();

        let mut session = decoder.compile(&input).unwrap();
        let via_session = session.decode(&input.y, 40, 99);

        assert_eq!(one_shot.best_bits(), via_session.best_bits());
        assert_eq!(one_shot.distribution(), via_session.distribution());
        assert_eq!(one_shot.ml_offset(), via_session.ml_offset());
        assert_eq!(
            one_shot.chain_break_fraction(),
            via_session.chain_break_fraction()
        );
        assert_eq!(one_shot.parallel_factor(), via_session.parallel_factor());
    }

    #[test]
    fn session_streams_fresh_received_vectors() {
        // The coherence-interval pattern: one channel H, many y. Each
        // session decode must equal a fresh one-shot decode of that y.
        let mut rng = StdRng::seed_from_u64(12);
        let sc = Scenario::new(4, 4, Modulation::Bpsk);
        let base = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(10.0),
                ..Default::default()
            },
        );
        let mut session = decoder.compile(&base.detection_input()).unwrap();
        for k in 0..4u64 {
            // New bits + noise over the same channel.
            let inst = base.renoise(quamax_wireless::Snr::from_db(18.0), &mut rng);
            let input = inst.detection_input();
            let run = session.decode(&input.y, 60, 1000 + k);
            let mut one_rng = StdRng::seed_from_u64(1000 + k);
            let one = decoder.decode(&input, 60, &mut one_rng).unwrap();
            assert_eq!(run.best_bits(), one.best_bits(), "y #{k}");
            assert_eq!(run.distribution(), one.distribution(), "y #{k}");
        }
    }

    #[test]
    fn batch_decode_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(13);
        let sc = Scenario::new(3, 3, Modulation::Qam16);
        let base = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(15.0),
                ..Default::default()
            },
        );
        let mut session = decoder.compile(&base.detection_input()).unwrap();
        let items: Vec<(quamax_linalg::CVector, u64)> = (0..6u64)
            .map(|k| {
                let inst = base.renoise(quamax_wireless::Snr::from_db(20.0), &mut rng);
                (inst.y().clone(), 7_000 + k)
            })
            .collect();
        let batch = session.decode_batch(&items, 30);
        assert_eq!(batch.len(), items.len());
        for (run, (y, seed)) in batch.iter().zip(&items) {
            let single = session.decode(y, 30, *seed);
            assert_eq!(run.best_bits(), single.best_bits());
            assert_eq!(run.distribution(), single.distribution());
        }
    }

    #[test]
    fn projected_batch_time_counts_chip_waves() {
        let mut rng = StdRng::seed_from_u64(15);
        let sc = Scenario::new(4, 4, Modulation::Bpsk);
        let inst = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(10.0),
                ..Default::default()
            },
        );
        let session = decoder.compile(&inst.detection_input()).unwrap();
        let cap = session.batch_capacity();
        assert_eq!(cap, session.parallel_factor());
        assert!(cap >= 1);
        let cycle = 10.0;
        // One wave up to capacity, two waves at capacity + 1; an empty
        // batch costs nothing.
        assert_eq!(session.projected_batch_us(0, 30), 0.0);
        let one = session.projected_batch_us(1, 30);
        assert!((one - 30.0 * cycle).abs() < 1e-9, "one wave: {one}");
        assert_eq!(
            session.projected_batch_us(cap, 30).to_bits(),
            one.to_bits(),
            "a full wave costs the same as one problem"
        );
        assert!((session.projected_batch_us(cap + 1, 30) - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn session_reverse_decode_matches_one_shot() {
        let mut rng = StdRng::seed_from_u64(14);
        let sc = Scenario::new(5, 5, Modulation::Qpsk);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let mut candidate = inst.tx_bits().to_vec();
        candidate[1] ^= 1;
        let decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::reverse(2.0, 0.6, 2.0),
                ..Default::default()
            },
        );
        let mut one_rng = StdRng::seed_from_u64(77);
        let one = decoder
            .decode_reverse(&input, 50, &candidate, &mut one_rng)
            .unwrap();
        let mut session = decoder.compile(&input).unwrap();
        let mut s_rng = StdRng::seed_from_u64(77);
        let via = session.decode_reverse(&input.y, 50, &candidate, &mut s_rng);
        assert_eq!(one.best_bits(), via.best_bits());
        assert_eq!(one.distribution(), via.distribution());
    }

    #[test]
    fn decode_reverse_from_matches_a_reverse_configured_session() {
        // The warm-start entry: a session compiled at a *forward*
        // operating point, handed a reverse schedule per call, must
        // reproduce bit for bit what a session compiled with that
        // reverse schedule produces under the same seed — the compile
        // depends only on (H, embed params), never on the schedule.
        let mut rng = StdRng::seed_from_u64(21);
        let sc = Scenario::new(5, 5, Modulation::Qpsk);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let mut candidate = inst.tx_bits().to_vec();
        candidate[3] ^= 1;
        let reverse = Schedule::reverse(2.0, 0.6, 2.0);

        let forward_decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(10.0),
                ..Default::default()
            },
        );
        let mut forward_session = forward_decoder.compile(&input).unwrap();
        let via = forward_session.decode_reverse_from(&input.y, 40, &candidate, &reverse, 55);

        let reverse_decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: reverse,
                ..Default::default()
            },
        );
        let mut reverse_session = reverse_decoder.compile(&input).unwrap();
        let mut r_rng = StdRng::seed_from_u64(55);
        let direct = reverse_session.decode_reverse(&input.y, 40, &candidate, &mut r_rng);

        assert_eq!(via.best_bits(), direct.best_bits());
        assert_eq!(via.distribution(), direct.distribution());
        // The run reports the schedule it actually annealed with.
        assert!((via.anneal_cycle_us() - reverse.total_time_us()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "Schedule::reverse")]
    fn decode_reverse_from_rejects_forward_schedules() {
        let mut rng = StdRng::seed_from_u64(22);
        let inst = Scenario::new(4, 4, Modulation::Bpsk).sample(&mut rng);
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        let mut session = decoder.compile(&inst.detection_input()).unwrap();
        let candidate = vec![0u8; 4];
        let _ = session.decode_reverse_from(
            &inst.detection_input().y,
            5,
            &candidate,
            &Schedule::standard(1.0),
            1,
        );
    }

    #[test]
    fn oversized_session_compile_is_rejected() {
        let mut rng = StdRng::seed_from_u64(15);
        let sc = Scenario::new(40, 40, Modulation::Qam16);
        let inst = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        match decoder.compile(&inst.detection_input()) {
            Err(DecodeError::Embedding(EmbeddingError::DoesNotFit { n: 160, .. })) => {}
            other => panic!("expected DoesNotFit, got {:?}", other.err()),
        }
    }
}
