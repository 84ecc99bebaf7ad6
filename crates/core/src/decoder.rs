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

use crate::detect::Error;
use crate::reduce::MlReduction;
use crate::scenario::DetectionInput;
use quamax_anneal::{AnnealJob, Annealer, CompiledChains, Schedule, SolutionDistribution};
use quamax_chimera::{
    parallelization, unembed_majority_vote, ChimeraGraph, CliqueEmbedding, EmbedParams,
    EmbeddedProblem, EmbeddingError,
};
use quamax_ising::{spins_to_bits, CompiledProblem, IsingView, Spin, UpperCouplings};
use quamax_linalg::CVector;
use quamax_telemetry::Telemetry;
use quamax_wireless::gray::quamax_bits_to_gray;
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

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
        Self::with_graph(annealer, ChimeraGraph::dw2q_ideal(), config)
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

    /// Runs one QA decode of `input` with `num_anneals` anneal cycles.
    ///
    /// `rng` drives unembedding tie-breaks and the annealer seed, so a
    /// seeded caller gets reproducible runs.
    pub fn decode<R: Rng + ?Sized>(
        &self,
        input: &DetectionInput,
        num_anneals: usize,
        rng: &mut R,
    ) -> Result<DecodeRun, Error> {
        // One-shot decode = a single-use session.
        Ok(self
            .compile(input)?
            .decode_with_rng(&input.y, num_anneals, rng))
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
    ) -> Result<DecodeRun, Error> {
        assert!(
            self.config.schedule.is_reverse(),
            "decode_reverse needs a Schedule::reverse configuration"
        );
        assert_eq!(
            candidate_gray_bits.len(),
            input.num_bits(),
            "candidate bit count mismatch"
        );
        Ok(self
            .compile(input)?
            .decode_reverse(&input.y, num_anneals, candidate_gray_bits, rng))
    }

    /// Compiles the channel-dependent (per-coherence-interval) part of
    /// the decode once, returning a [`DecodeSession`] that streams
    /// per-received-vector decodes through the frozen problem.
    ///
    /// In the ML reduction the couplings `g_ij` depend only on `H` and
    /// the modulation; only the linear fields `h_i` and the global
    /// renormalization scale depend on `y`. A C-RAN front-end therefore
    /// compiles one session per coherence interval and decodes every
    /// subcarrier / OFDM symbol of the interval against it. A compile
    /// is the Gram matrix, the couplings ([`MlReduction::new`]) and a
    /// lookup of the chip structure — embedding, CSR freeze, chain
    /// tables and coupler slots — which depends only on the chip, the
    /// problem size and the embedding parameters, and is built once per
    /// process for each.
    pub fn compile(&self, input: &DetectionInput) -> Result<DecodeSession, Error> {
        let reduction = MlReduction::new(&input.h, input.modulation);
        self.telemetry.counter_inc(
            "quamax_core_reduce_total",
            &[("modulation", input.modulation.name())],
        );
        let core = AnnealCore::compile(
            self.annealer.clone().with_telemetry(self.telemetry.clone()),
            self.telemetry.clone(),
            &self.graph,
            Arc::clone(reduction.couplings()),
            self.config.embed,
        )?;
        Ok(DecodeSession {
            core,
            schedule: self.config.schedule,
            reduction,
        })
    }
}

/// The annealed device pipeline every compiled session shares — the
/// uplink [`DecodeSession`] and the downlink
/// [`VppSession`](crate::precode::VppSession) differ only in how they
/// reduce an input to a logical Ising problem and read the ranked
/// solutions back.
///
/// [`AnnealCore::compile`] looks up the session's [`ChipStructure`]
/// (built on the first compile of its shape) and shares the interval's
/// logical couplings, whose row-major order is the structure's slot
/// order. Per input, [`AnnealCore::bind`] writes that input's fields,
/// and the couplings rescaled with them, into a copy of the frozen
/// structure;
/// [`AnnealCore::anneal`] runs the anneal batch (from random states, or
/// from a logical start expanded onto the chains), and
/// [`AnnealCore::unembed`] majority-votes every sample back and ranks
/// the distinct solutions. [`AnnealCore::run_batch`] drives many inputs
/// through one [`Annealer::run_jobs`] call, bit-identical to
/// [`AnnealCore::run`] input by input.
pub(crate) struct AnnealCore {
    /// Counts pipeline stages (a disabled handle records nothing).
    telemetry: Telemetry,
    annealer: Annealer,
    chip: Arc<ChipStructure>,
    /// The interval's logical couplings, row-major and so parallel to
    /// `chip.slots`; every input's [`IsingView`] shares them.
    couplings: Arc<UpperCouplings>,
    /// `max |g|` over `couplings`: their share of the renormalization
    /// scale, which the fields complete per input.
    coupling_max_abs: f64,
}

/// Everything a compile derives from the chip rather than the channel:
/// the clique embedding, the frozen CSR base, the chain tables and the
/// coupler slot map. The embedding programs a coupler for every logical
/// pair (a zero coupling is a zero-weight coupler, which ICE leaves
/// unprogrammed), so the structure is a function of the chip graph, the
/// logical size and the embedding parameters alone ([`StructureKey`]):
/// [`ChipStructure::lookup`] builds it once per process for each shape,
/// and every channel of that shape shares it. The coefficients inside
/// are those of the problem that first built it: only the structure and
/// the chain couplers (which depend on the embedding parameters alone)
/// are read, and every bind rewrites the rest, zero couplings included.
struct ChipStructure {
    parallel_factor: usize,
    /// Chain layout (read by unembedding).
    embedded: EmbeddedProblem,
    /// The frozen CSR template: chain couplers valid for every session,
    /// fields and problem couplers rebound per input.
    base: CompiledProblem,
    chains: CompiledChains,
    /// The CSR entry of each logical pair `i < j`, row-major.
    slots: Vec<u32>,
    /// Dense physical qubit → owning logical chain.
    chain_of: Vec<u32>,
    chain_len: f64,
}

/// What a [`ChipStructure`] reads: the chip (grid and dead qubits), the
/// logical size and the embedding parameters' bits — the problem's
/// shape, never its values. Metro's 16-user BPSK and 8-user QPSK, and a
/// 16-user BPSK channel that happens to be orthogonal, are all 16 spins
/// and share one structure; so does every lattice-reduced VPP channel
/// of one user count, whatever exact zeros its reduction leaves.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct StructureKey {
    grid: usize,
    defects: Vec<usize>,
    num_logical: usize,
    j_ferro: u64,
    improved_range: bool,
}

impl StructureKey {
    fn new(graph: &ChimeraGraph, num_logical: usize, embed: EmbedParams) -> Self {
        StructureKey {
            grid: graph.grid(),
            defects: graph.defects(),
            num_logical,
            j_ferro: embed.j_ferro.to_bits(),
            improved_range: embed.improved_range,
        }
    }
}

/// Structures kept at most; a miss past this many starts the cache
/// afresh, bounding its memory however many shapes a process meets.
const STRUCTURE_CACHE_CAP: usize = 64;

impl ChipStructure {
    /// The structure of `logical`'s shape on `graph`, built on the
    /// first lookup of its [`StructureKey`] and shared after. Threads
    /// that miss the same key at once each build it and all keep the
    /// first one stored; builds are deterministic, so which wins is
    /// unobservable. Failed embeddings are not kept.
    fn lookup(
        graph: &ChimeraGraph,
        logical: &UpperCouplings,
        embed: EmbedParams,
    ) -> Result<Arc<Self>, EmbeddingError> {
        static CACHE: OnceLock<Mutex<HashMap<StructureKey, Arc<ChipStructure>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(Default::default);
        let key = StructureKey::new(graph, logical.num_spins(), embed);
        // A poisoned lock still guards a valid map: every update under
        // it is one whole `clear` or insert of a finished structure.
        if let Some(hit) = cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Ok(Arc::clone(hit));
        }
        let built = Arc::new(ChipStructure::build(graph, logical, embed)?);
        let mut cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
        if cache.len() >= STRUCTURE_CACHE_CAP {
            cache.clear();
        }
        Ok(Arc::clone(cache.entry(key).or_insert(built)))
    }

    /// Embeds `logical` (with zero fields) on `graph`, freezes the
    /// programmed problem, and resolves each programmed coupler's CSR
    /// entry once so binds write straight into the frozen layout.
    fn build(
        graph: &ChimeraGraph,
        logical: &UpperCouplings,
        embed: EmbedParams,
    ) -> Result<Self, EmbeddingError> {
        let n = logical.num_spins();
        let embedding = CliqueEmbedding::new(graph, n)?;
        let logical = logical.to_ising(&vec![0.0; n]);
        let embedded = EmbeddedProblem::compile(graph, &embedding, &logical, embed);
        let base = CompiledProblem::new(embedded.problem());
        let chains = CompiledChains::compile(&base, embedded.chains());
        let slots = embedded
            .programmed_couplers()
            .iter()
            .map(|&(_, _, da, db)| {
                let k = base
                    .coupler_entry(da as usize, db as usize)
                    .expect("programmed coupler exists in CSR");
                k as u32
            })
            .collect();
        let mut chain_of = vec![0u32; embedded.num_physical()];
        for (i, chain) in embedded.chains().iter().enumerate() {
            for &d in chain {
                chain_of[d] = i as u32;
            }
        }
        let chain_len = embedded.chains().first().map_or(1, Vec::len) as f64;
        Ok(ChipStructure {
            parallel_factor: parallelization(embedding.num_logical()).max(1),
            embedded,
            base,
            chains,
            slots,
            chain_of,
            chain_len,
        })
    }
}

/// One input's annealed result: the logical problem its session
/// reduced it to, that reduction's energy offset, and the ranked
/// unembedded samples.
pub(crate) struct Annealed {
    pub(crate) logical: IsingView,
    pub(crate) offset: f64,
    pub(crate) distribution: SolutionDistribution,
    pub(crate) chain_break_fraction: f64,
}

impl AnnealCore {
    /// Looks up the chip structure of `couplings`' shape and shares the
    /// couplings, whose row-major order is its slot order, with every
    /// bind and ranking of the session. `quamax_core_embed_total` and
    /// `quamax_core_csr_freeze_total` count one structure bound per
    /// compile, built or found.
    pub(crate) fn compile(
        annealer: Annealer,
        telemetry: Telemetry,
        graph: &ChimeraGraph,
        couplings: Arc<UpperCouplings>,
        embed: EmbedParams,
    ) -> Result<Self, EmbeddingError> {
        let chip = ChipStructure::lookup(graph, &couplings, embed)?;
        telemetry.counter_inc("quamax_core_embed_total", &[]);
        telemetry.counter_inc("quamax_core_csr_freeze_total", &[]);
        let coupling_max_abs = couplings
            .values()
            .iter()
            .map(|g| g.abs())
            .fold(0.0f64, f64::max);
        Ok(AnnealCore {
            telemetry,
            annealer,
            chip,
            couplings,
            coupling_max_abs,
        })
    }

    /// The interval's logical couplings.
    pub(crate) fn couplings(&self) -> &Arc<UpperCouplings> {
        &self.couplings
    }

    /// Logical Ising variables.
    pub(crate) fn num_logical(&self) -> usize {
        self.chip.embedded.chains().len()
    }

    /// Physical qubits occupied by the embedding.
    pub(crate) fn num_physical(&self) -> usize {
        self.chip.embedded.num_physical()
    }

    /// Geometric chip parallelization factor of this problem size.
    pub(crate) fn parallel_factor(&self) -> usize {
        self.chip.parallel_factor
    }

    /// A copy of the frozen structure holding one input's logical
    /// `fields`, and the session's couplings, at the renormalization
    /// scale they set together — exactly what a fresh embed→freeze of
    /// the logical problem would put there. The copy shares the
    /// structure's CSR arrays and owns only its coefficients.
    fn bind(&self, fields: &[f64]) -> CompiledProblem {
        let chip = &*self.chip;
        let mut bound = chip.base.clone();
        let field_max_abs = fields.iter().map(|f| f.abs()).fold(0.0f64, f64::max);
        let scale = chip
            .embedded
            .scale_for_max_abs(field_max_abs.max(self.coupling_max_abs));
        for (d, &c) in chip.chain_of.iter().enumerate() {
            bound.set_linear_term(d, fields[c as usize] * scale / chip.chain_len);
        }
        for (&k, &g) in chip.slots.iter().zip(self.couplings.values()) {
            bound.set_entry_weight(k as usize, g * scale);
        }
        self.telemetry
            .counter_inc("quamax_core_field_refresh_total", &[]);
        bound
    }

    /// Runs `anneals` cycles of the `bound` problem under `schedule`:
    /// from random states, or — for a reverse schedule — from the
    /// logical `start` spins expanded onto every qubit of their chains
    /// (the device panics on a reverse schedule without one).
    fn anneal(
        &self,
        bound: &CompiledProblem,
        start: Option<&[Spin]>,
        schedule: &Schedule,
        anneals: usize,
        seed: u64,
    ) -> Vec<Vec<Spin>> {
        let physical: Option<Vec<Spin>> = start.map(|spins| {
            self.chip
                .chain_of
                .iter()
                .map(|&c| spins[c as usize])
                .collect()
        });
        let job = AnnealJob {
            problem: bound,
            init: physical.as_deref(),
            num_anneals: anneals,
            seed,
        };
        self.annealer
            .run_jobs(bound, &self.chip.chains, schedule, &[job])
            .pop()
            .expect("one job in, one sample batch out")
    }

    /// Accounts one anneal batch, majority-vote unembeds every sample
    /// (tie-breaks drawn from `rng`, which must be positioned right
    /// after the anneal-seed draw) and ranks the distinct logical
    /// solutions by the energy of the reduced problem: the input's
    /// `fields` over the session's couplings.
    pub(crate) fn unembed<R: Rng + ?Sized>(
        &self,
        (fields, offset): (Vec<f64>, f64),
        samples: &[Vec<Spin>],
        schedule: &Schedule,
        rng: &mut R,
    ) -> Annealed {
        self.telemetry
            .counter_add("quamax_core_anneals_total", &[], samples.len() as u64);
        self.telemetry.observe(
            "quamax_core_anneal_modeled_us",
            &[],
            samples.len() as f64 * schedule.total_time_us(),
        );
        let mut logical_samples = Vec::with_capacity(samples.len());
        let mut broken = 0usize;
        for s in samples {
            let out = unembed_majority_vote(&self.chip.embedded, s, rng);
            broken += out.broken_chains;
            logical_samples.push(out.logical);
        }
        self.telemetry
            .counter_add("quamax_core_unembed_total", &[], samples.len() as u64);
        let logical = IsingView::new(Arc::clone(&self.couplings), fields);
        let distribution = SolutionDistribution::from_samples(&logical, &logical_samples);
        let total_chains = logical.num_spins().max(1) * samples.len().max(1);
        Annealed {
            logical,
            offset,
            distribution,
            chain_break_fraction: broken as f64 / total_chains as f64,
        }
    }

    /// One input end to end: bind the session's reduction
    /// `(fields, offset)`, draw the anneal seed from `rng`, anneal, and
    /// unembed with the rest of `rng`'s stream.
    pub(crate) fn run<R: Rng + ?Sized>(
        &self,
        reduced: (Vec<f64>, f64),
        start: Option<&[Spin]>,
        schedule: &Schedule,
        anneals: usize,
        rng: &mut R,
    ) -> Annealed {
        let bound = self.bind(&reduced.0);
        let seed: u64 = rng.random();
        let samples = self.anneal(&bound, start, schedule, anneals, seed);
        self.unembed(reduced, &samples, schedule, rng)
    }

    /// A batch of `(input, seed)` pairs through one
    /// [`Annealer::run_jobs`] call: every input's anneals flatten into
    /// replica windows, so one CSR row walk drives up to eight anneals
    /// (often of *different* inputs — each replica carries its own
    /// bound coefficients over the shared structure) while threads
    /// shard the flattened batch. Each input runs under its own
    /// `StdRng::seed_from_u64(seed)` stream split exactly like
    /// [`AnnealCore::run`] — anneal seed first, tie-breaks after — so
    /// results are bit-identical to running the inputs one by one,
    /// regardless of batch width or worker count.
    pub(crate) fn run_batch<I>(
        &self,
        items: &[(I, u64)],
        schedule: &Schedule,
        anneals: usize,
        reduce: impl Fn(&I) -> (Vec<f64>, f64),
    ) -> Vec<Annealed> {
        let mut bound = Vec::with_capacity(items.len());
        for (item, seed) in items {
            let reduced = reduce(item);
            let problem = self.bind(&reduced.0);
            let mut rng = StdRng::seed_from_u64(*seed);
            let anneal_seed: u64 = rng.random();
            bound.push((problem, reduced, anneal_seed, rng));
        }
        let jobs: Vec<AnnealJob> = bound
            .iter()
            .map(|(problem, _, anneal_seed, _)| AnnealJob {
                problem,
                init: None,
                num_anneals: anneals,
                seed: *anneal_seed,
            })
            .collect();
        let sample_sets =
            self.annealer
                .run_jobs(&self.chip.base, &self.chip.chains, schedule, &jobs);
        drop(jobs);
        bound
            .into_iter()
            .zip(sample_sets)
            .map(|((_, reduced, _, mut rng), samples)| {
                self.unembed(reduced, &samples, schedule, &mut rng)
            })
            .collect()
    }
}

/// A compiled decode session: the `H`-dependent work (the couplings,
/// and the chip structure they select) done once, with per-`y` decodes
/// reduced to the matched filter, the fields and the scale written into
/// the frozen problem, plus the anneal batch itself. The session holds
/// the couplings once, as the row-major vector its core binds from;
/// the reduction and every [`DecodeRun`] share it.
///
/// Produced by [`QuamaxDecoder::compile`]. Decodes through a session
/// are bit-identical to [`QuamaxDecoder::decode`] on the same
/// `(H, y, seed)` — the session is an amortization, not a different
/// algorithm.
pub struct DecodeSession {
    core: AnnealCore,
    schedule: Schedule,
    /// `H` and the offset constants; per `y` it forms only the fields.
    reduction: MlReduction,
}

impl DecodeSession {
    /// Modulation the session was compiled for.
    pub fn modulation(&self) -> Modulation {
        self.reduction.modulation()
    }

    /// Logical Ising variables (= payload bits per channel use).
    pub fn num_logical(&self) -> usize {
        self.core.num_logical()
    }

    /// Payload bits per decode.
    pub fn num_bits(&self) -> usize {
        self.num_logical()
    }

    /// Physical qubits occupied by the compiled embedding.
    pub fn num_physical(&self) -> usize {
        self.core.num_physical()
    }

    /// Geometric chip parallelization factor of this problem size:
    /// problems one anneal wave decodes side by side. The couplings of
    /// every tile are identical (same `H`); only the per-tile linear
    /// fields differ (each tile's `y`), which is why a batch scheduler
    /// coalesces *same-channel* jobs — they share this session and tile
    /// without reprogramming.
    pub fn parallel_factor(&self) -> usize {
        self.core.parallel_factor()
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
    fn decode_with_rng<R: Rng + ?Sized>(
        &mut self,
        y: &CVector,
        num_anneals: usize,
        rng: &mut R,
    ) -> DecodeRun {
        self.run(y, num_anneals, None, rng)
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
            self.schedule.is_reverse(),
            "decode_reverse needs a Schedule::reverse configuration"
        );
        let schedule = self.schedule;
        self.run(y, num_anneals, Some((candidate_gray_bits, &schedule)), rng)
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
        let mut rng = StdRng::seed_from_u64(seed);
        self.run(
            y,
            num_anneals,
            Some((candidate_gray_bits, schedule)),
            &mut rng,
        )
    }

    /// Decodes a batch of `(y, seed)` pairs — one coherence interval's
    /// worth of subcarrier/symbol problems — through one device-level
    /// [`Annealer::run_jobs`] call (threads shard the flattened
    /// anneals; replica windows may mix items).
    ///
    /// Each item is decoded under its own `StdRng::seed_from_u64(seed)`
    /// stream, so results are bit-identical to calling
    /// [`DecodeSession::decode`] item by item (and to one-shot
    /// [`QuamaxDecoder::decode`] under the same seeds), regardless of
    /// batch width or worker count.
    pub fn decode_batch(&self, items: &[(CVector, u64)], num_anneals: usize) -> Vec<DecodeRun> {
        self.core
            .run_batch(items, &self.schedule, num_anneals, |y| self.reduce(y))
            .into_iter()
            .map(|annealed| self.finish(annealed, self.schedule))
            .collect()
    }

    /// The ML reduction of `y` against the session's channel: its
    /// fields and offset.
    fn reduce(&self, y: &CVector) -> (Vec<f64>, f64) {
        self.reduction.reduce(y)
    }

    /// One decode: forward under the session's schedule, or backwards
    /// from a Gray-bit candidate under the given reverse schedule.
    fn run<R: Rng + ?Sized>(
        &mut self,
        y: &CVector,
        num_anneals: usize,
        reverse: Option<(&[u8], &Schedule)>,
        rng: &mut R,
    ) -> DecodeRun {
        let schedule = reverse.map_or(self.schedule, |(_, s)| *s);
        // Gray bits → QuAMax-transform bits → logical spins.
        let q = self.modulation().bits_per_symbol();
        let start = reverse.map(|(gray, _)| {
            assert_eq!(gray.len(), self.num_bits(), "candidate bit count mismatch");
            quamax_ising::bits_to_spins(
                &gray
                    .chunks(q)
                    .flat_map(quamax_wireless::gray::gray_bits_to_quamax)
                    .collect::<Vec<u8>>(),
            )
        });
        let reduced = self.reduce(y);
        let annealed = self
            .core
            .run(reduced, start.as_deref(), &schedule, num_anneals, rng);
        self.finish(annealed, schedule)
    }

    fn finish(&self, annealed: Annealed, schedule: Schedule) -> DecodeRun {
        DecodeRun {
            distribution: annealed.distribution,
            logical: annealed.logical,
            ml_offset: annealed.offset,
            modulation: self.modulation(),
            schedule,
            parallel_factor: self.core.parallel_factor(),
            chain_break_fraction: annealed.chain_break_fraction,
        }
    }
}

/// The result of one QA decode run.
#[derive(Clone, Debug)]
pub struct DecodeRun {
    distribution: SolutionDistribution,
    logical: IsingView,
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

    /// The logical Ising problem that was solved: this `y`'s fields
    /// over the session's couplings, which every run of the session
    /// shares rather than copies. [`IsingView::energy`] prices a spin
    /// string bit for bit like the problem [`IsingView::to_ising`]
    /// rebuilds, which is [`crate::ising_from_ml`]'s.
    pub fn logical_problem(&self) -> &IsingView {
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
            Err(Error::Embedding(EmbeddingError::DoesNotFit { n: 160, .. })) => {}
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
            Err(Error::Embedding(EmbeddingError::DoesNotFit { n: 160, .. })) => {}
            other => panic!("expected DoesNotFit, got {:?}", other.err()),
        }
    }
}
