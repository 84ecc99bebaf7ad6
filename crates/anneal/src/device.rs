//! The annealer device front-end: programs a problem, runs a batch of
//! anneals, returns the sampled configurations.
//!
//! Mirrors the DW2Q job model (§4): the user submits one problem with
//! one parameter setting and gets back `Na` spin configurations, one
//! per anneal cycle. Each anneal draws fresh ICE noise, runs the chosen
//! dynamics backend along the schedule, and reads out. Anneals are
//! independent, so the batch is sharded across CPU threads; sample `k`
//! always uses the RNG stream `splitmix(seed, k)`, making results
//! bit-identical regardless of thread count.

use crate::ice::IceModel;
use crate::kernel::{self, CompiledChains, ReplicaBatch, SqaReplicaBatch};
use crate::schedule::{curves, Schedule};
use crate::{sa, sqa};
use quamax_ising::{CompiledProblem, IsingProblem, Spin};
use quamax_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Dynamics backend choice (the `ablation_backend` bench compares them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Metropolis simulated annealing along the schedule's temperature
    /// ladder (default).
    Sa,
    /// Path-integral Monte Carlo with the given number of Trotter
    /// slices (simulated quantum annealing).
    Sqa {
        /// Trotter slices (≥ 2; 8 is a common operating point).
        slices: usize,
    },
}

/// Device configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnnealerConfig {
    /// Dynamics backend.
    pub backend: Backend,
    /// Monte-Carlo sweeps simulated per microsecond of schedule time.
    /// This is the calibration constant tying simulated dynamics to the
    /// paper's µs axes (see crate docs).
    pub sweeps_per_us: f64,
    /// Intrinsic control error model (per-anneal coefficient noise).
    pub ice: IceModel,
    /// Worker threads for batching (0 = all available cores).
    pub threads: usize,
}

impl Default for AnnealerConfig {
    fn default() -> Self {
        AnnealerConfig {
            backend: Backend::Sa,
            sweeps_per_us: 20.0,
            ice: IceModel::calibrated(),
            threads: 0,
        }
    }
}

/// A transient device-health degradation applied to one batch of
/// anneals — the device-layer realization of the fault classes the
/// C-RAN serving layer injects (`quamax_ran::fault`).
///
/// Two physical mechanisms are modeled:
///
/// * **ICE drift excursion** — the analog control has wandered off its
///   calibration point, so every anneal in the batch sees the noise
///   floor inflated by `ice_scale` (applied via
///   [`IceModel::excursion`], riding `IceModel::scaled`);
/// * **chain-break storm** — embedding chains decohere en masse: after
///   readout, each chain-member qubit's spin is independently flipped
///   with probability `chain_flip_probability`, producing the broken-
///   chain readouts that majority-vote unembedding then has to repair.
///
/// Flips are drawn from a dedicated SplitMix stream keyed by
/// `(seed, anneal index, qubit)`, so a degraded run is bit-identical
/// across thread counts, like every other device path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnnealDegradation {
    /// ICE moment inflation factor (≥ 1; 1 = nominal floor).
    pub ice_scale: f64,
    /// Per-qubit post-readout flip probability on chain members
    /// (in `[0, 1]`; 0 = no storm).
    pub chain_flip_probability: f64,
}

impl AnnealDegradation {
    /// A healthy device: nominal ICE, no storm.
    pub fn none() -> Self {
        AnnealDegradation {
            ice_scale: 1.0,
            chain_flip_probability: 0.0,
        }
    }

    /// An ICE drift excursion inflating the noise floor by `factor`.
    pub fn ice_excursion(factor: f64) -> Self {
        AnnealDegradation {
            ice_scale: factor,
            ..AnnealDegradation::none()
        }
    }

    /// A chain-break storm flipping chain qubits with probability `p`.
    pub fn chain_break_storm(p: f64) -> Self {
        AnnealDegradation {
            chain_flip_probability: p,
            ..AnnealDegradation::none()
        }
    }

    /// `true` when this degradation changes nothing.
    pub fn is_none(&self) -> bool {
        self.ice_scale == 1.0 && self.chain_flip_probability == 0.0
    }
}

/// A simulated quantum annealer.
///
/// ```
/// use quamax_anneal::{Annealer, AnnealerConfig, IceModel, Schedule};
/// use quamax_ising::IsingProblem;
///
/// let mut p = IsingProblem::new(3);
/// p.set_coupling(0, 1, -1.0);
/// p.set_coupling(1, 2, -1.0);
/// let annealer = Annealer::new(AnnealerConfig {
///     ice: IceModel::none(),
///     ..Default::default()
/// });
/// let samples = annealer.run(&p, &Schedule::standard(5.0), 20, 7);
/// assert_eq!(samples.len(), 20);
/// // The ferromagnetic chain's ground states are all-up/all-down.
/// let hits = samples.iter().filter(|s| p.energy(s) == -2.0).count();
/// assert!(hits > 10);
/// ```
#[derive(Clone, Debug)]
pub struct Annealer {
    config: AnnealerConfig,
    telemetry: Telemetry,
}

impl Annealer {
    /// A device with the given configuration.
    pub fn new(config: AnnealerConfig) -> Self {
        assert!(config.sweeps_per_us > 0.0, "sweep density must be positive");
        if let Backend::Sqa { slices } = config.backend {
            assert!(slices >= 2, "SQA needs at least 2 Trotter slices");
        }
        Annealer {
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The same device reporting batching metrics
    /// (`quamax_anneal_replica_batch_width`,
    /// `quamax_anneal_batched_sweeps_total`) to `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Annealer {
        self.telemetry = telemetry;
        self
    }

    /// A DW2Q-like device: SA dynamics, paper ICE moments, default
    /// calibration.
    pub fn dw2q(config: AnnealerConfig) -> Self {
        Annealer::new(config)
    }

    /// This device's configuration.
    pub fn config(&self) -> &AnnealerConfig {
        &self.config
    }

    /// The same device with its ICE model replaced — the hook a fault
    /// injector uses to run one job under a drift excursion
    /// ([`IceModel::excursion`]) without touching the shared device.
    pub fn with_ice(&self, ice: IceModel) -> Annealer {
        Annealer::new(AnnealerConfig { ice, ..self.config }).with_telemetry(self.telemetry.clone())
    }

    /// Like [`Annealer::run_chained`], under a transient
    /// [`AnnealDegradation`]: the batch anneals with the ICE floor
    /// inflated by `degradation.ice_scale`, and afterwards each
    /// chain-member qubit is flipped with
    /// `degradation.chain_flip_probability` (a chain-break storm).
    /// With `AnnealDegradation::none()` this is bit-identical to
    /// [`Annealer::run_chained`]. Deterministic in
    /// `(problem, chains, schedule, num_anneals, seed, degradation)`.
    pub fn run_chained_degraded(
        &self,
        problem: &IsingProblem,
        chains: &[Vec<usize>],
        schedule: &Schedule,
        num_anneals: usize,
        seed: u64,
        degradation: &AnnealDegradation,
    ) -> Vec<Vec<Spin>> {
        assert!(
            degradation.ice_scale >= 1.0,
            "ice_scale < 1 is not a degradation"
        );
        assert!(
            (0.0..=1.0).contains(&degradation.chain_flip_probability),
            "flip probability must be in [0, 1]"
        );
        let device = if degradation.ice_scale > 1.0 {
            self.with_ice(self.config.ice.excursion(degradation.ice_scale))
        } else {
            self.clone()
        };
        let mut samples = device.run_chained(problem, chains, schedule, num_anneals, seed);
        let p = degradation.chain_flip_probability;
        if p > 0.0 {
            // Post-readout storm: a dedicated stream per (anneal, qubit)
            // — independent of the anneal dynamics' own streams, so the
            // storm neither perturbs nor is perturbed by them.
            const STORM_SALT: u64 = 0x0570_712C_4A15;
            for (k, sample) in samples.iter_mut().enumerate() {
                for chain in chains {
                    for &qubit in chain {
                        let draw = splitmix(seed ^ STORM_SALT, (k as u64) << 32 | qubit as u64);
                        // Top 53 bits → uniform in [0, 1).
                        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
                        if unit < p {
                            sample[qubit] = -sample[qubit];
                        }
                    }
                }
            }
        }
        samples
    }

    /// Runs `num_anneals` anneal cycles of `problem` under `schedule`,
    /// returning one spin configuration per anneal.
    ///
    /// `problem` is the *programmed* (already embedded and normalized)
    /// Ising problem; ICE is applied inside, freshly per anneal.
    /// Deterministic in `(problem, schedule, num_anneals, seed)`.
    pub fn run(
        &self,
        problem: &IsingProblem,
        schedule: &Schedule,
        num_anneals: usize,
        seed: u64,
    ) -> Vec<Vec<Spin>> {
        self.run_chained(problem, &[], schedule, num_anneals, seed)
    }

    /// Like [`Annealer::run`], additionally informing the dynamics of
    /// the embedding's qubit chains so sweeps include chain-collective
    /// proposals (see `sa::anneal_batch_compiled` — the classical
    /// counterpart of hardware's collective chain dynamics).
    pub fn run_chained(
        &self,
        problem: &IsingProblem,
        chains: &[Vec<usize>],
        schedule: &Schedule,
        num_anneals: usize,
        seed: u64,
    ) -> Vec<Vec<Spin>> {
        let compiled = CompiledProblem::new(problem);
        let compiled_chains = CompiledChains::compile(&compiled, chains);
        self.run_compiled(&compiled, &compiled_chains, schedule, num_anneals, seed)
    }

    /// Like [`Annealer::run_chained`], over a problem view the caller
    /// has already compiled — the zero-recompile path for callers that
    /// program one embedded problem and run it many times (the decoder,
    /// parameter searches, the bench harness).
    pub fn run_compiled(
        &self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        schedule: &Schedule,
        num_anneals: usize,
        seed: u64,
    ) -> Vec<Vec<Spin>> {
        assert!(
            !schedule.is_reverse(),
            "reverse schedules need a candidate state: use run_reverse"
        );
        self.run_inner(problem, chains, None, schedule, num_anneals, seed)
    }

    /// Reverse annealing (§8): every anneal starts from `candidate`
    /// (a physical configuration, e.g. a classically-decoded solution
    /// expanded onto the chains), ramps back to the schedule's reversal
    /// point, and re-anneals — a local quantum refinement.
    ///
    /// # Panics
    /// Panics unless `schedule.is_reverse()` and the candidate length
    /// matches the problem.
    pub fn run_reverse(
        &self,
        problem: &IsingProblem,
        chains: &[Vec<usize>],
        candidate: &[Spin],
        schedule: &Schedule,
        num_anneals: usize,
        seed: u64,
    ) -> Vec<Vec<Spin>> {
        let compiled = CompiledProblem::new(problem);
        let compiled_chains = CompiledChains::compile(&compiled, chains);
        self.run_reverse_compiled(
            &compiled,
            &compiled_chains,
            candidate,
            schedule,
            num_anneals,
            seed,
        )
    }

    /// Reverse annealing over a caller-compiled problem view (see
    /// [`Annealer::run_compiled`]).
    ///
    /// # Panics
    /// Panics unless `schedule.is_reverse()` and the candidate length
    /// matches the problem.
    pub fn run_reverse_compiled(
        &self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        candidate: &[Spin],
        schedule: &Schedule,
        num_anneals: usize,
        seed: u64,
    ) -> Vec<Vec<Spin>> {
        assert!(schedule.is_reverse(), "run_reverse needs Schedule::reverse");
        assert_eq!(
            candidate.len(),
            problem.num_spins(),
            "candidate length mismatch"
        );
        self.run_inner(
            problem,
            chains,
            Some(candidate),
            schedule,
            num_anneals,
            seed,
        )
    }

    fn run_inner(
        &self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        init: Option<&[Spin]>,
        schedule: &Schedule,
        num_anneals: usize,
        seed: u64,
    ) -> Vec<Vec<Spin>> {
        let job = AnnealJob {
            problem,
            init,
            num_anneals,
            seed,
        };
        self.run_jobs(problem, chains, schedule, &[job])
            .pop()
            .expect("one job in, one sample batch out")
    }

    /// Runs a set of independent anneal jobs through the batched
    /// replica kernel, returning one `Vec<Vec<Spin>>` per job (sample
    /// `k` of job `j` is bit-identical to the corresponding single-job
    /// `run_*` call — stream `splitmix(jobs[j].seed, k)` — regardless
    /// of window width, thread count, or how jobs are packed together).
    ///
    /// Every job's problem must share `structure`'s CSR layout (the
    /// decode/precode sessions pass per-item reprogrammed clones of one
    /// compiled base); `chains` likewise compile against that shared
    /// structure. Slots are sharded contiguously across worker threads
    /// and each worker sweeps its shard in the power-of-two replica
    /// windows of `kernel::windows` (up to eight replicas; a tail of
    /// five runs as 4 + 1): a window entirely inside one
    /// zero-ICE job shares that job's coefficients, any other window
    /// binds per-replica coefficient strips (per-item `y` vectors,
    /// per-anneal ICE refreezes).
    ///
    /// # Panics
    /// Panics when a job's problem or candidate shape disagrees with
    /// `structure`.
    pub fn run_jobs(
        &self,
        structure: &CompiledProblem,
        chains: &CompiledChains,
        schedule: &Schedule,
        jobs: &[AnnealJob],
    ) -> Vec<Vec<Vec<Spin>>> {
        for job in jobs {
            assert_eq!(
                job.problem.num_spins(),
                structure.num_spins(),
                "job problem does not share the batch structure"
            );
            assert_eq!(
                job.problem.num_entries(),
                structure.num_entries(),
                "job problem does not share the batch structure"
            );
            if let Some(init) = job.init {
                assert_eq!(
                    init.len(),
                    structure.num_spins(),
                    "candidate length mismatch"
                );
            }
        }
        let total: usize = jobs.iter().map(|j| j.num_anneals).sum();
        if total == 0 {
            return jobs.iter().map(|_| Vec::new()).collect();
        }

        let fractions = schedule.sweep_fractions(self.config.sweeps_per_us);
        // Pre-compute the SA temperature ladder once per run.
        let betas: Vec<f64> = fractions
            .iter()
            .map(|&s| curves::beta(s).max(1e-3))
            .collect();

        // Flatten to (job, anneal-index) slots; slot order defines the
        // output order and is what gets sharded and windowed.
        let mut slots: Vec<(u32, u32)> = Vec::with_capacity(total);
        for (j, job) in jobs.iter().enumerate() {
            for k in 0..job.num_anneals {
                slots.push((j as u32, k as u32));
            }
        }

        let threads = if self.config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.config.threads
        };
        let threads = threads.min(total);

        let mut samples: Vec<Vec<Spin>> = vec![Vec::new(); total];
        let config = self.config;
        let telemetry = &self.telemetry;
        if threads == 1 {
            // Batch front-ends running many single-threaded device
            // calls concurrently skip the scoped spawn entirely.
            // Identical output by the determinism contract.
            let mut worker = BatchWorker::new();
            worker.run_range(
                structure,
                chains,
                jobs,
                &slots,
                &mut samples,
                &betas,
                &fractions,
                &config,
                telemetry,
            );
        } else {
            let chunk = total.div_ceil(threads);
            std::thread::scope(|scope| {
                for (slot_chunk, out_chunk) in slots.chunks(chunk).zip(samples.chunks_mut(chunk)) {
                    let betas = &betas;
                    let fractions = &fractions;
                    let config = &config;
                    scope.spawn(move || {
                        // Per-thread scratch, allocated once: the
                        // replica batch buffers (ICE deviates included)
                        // and the per-replica RNG streams.
                        let mut worker = BatchWorker::new();
                        worker.run_range(
                            structure, chains, jobs, slot_chunk, out_chunk, betas, fractions,
                            config, telemetry,
                        );
                    });
                }
            });
        }

        // Unflatten back into per-job sample batches.
        let mut out = Vec::with_capacity(jobs.len());
        let mut rest = samples.into_iter();
        for job in jobs {
            out.push(rest.by_ref().take(job.num_anneals).collect());
        }
        out
    }
}

/// One independent anneal request inside an [`Annealer::run_jobs`]
/// batch: a programmed problem (sharing the batch's CSR structure), an
/// optional reverse-anneal candidate, a sample count, and the job's own
/// RNG seed (sample `k` uses stream `splitmix(seed, k)`, exactly as the
/// scalar entry points).
#[derive(Clone, Copy, Debug)]
pub struct AnnealJob<'a> {
    /// The programmed (embedded, normalized) problem.
    pub problem: &'a CompiledProblem,
    /// Reverse-anneal candidate; `None` starts uniformly random.
    pub init: Option<&'a [Spin]>,
    /// Anneal cycles to run.
    pub num_anneals: usize,
    /// The job's RNG seed.
    pub seed: u64,
}

/// One worker thread's reusable buffers: the SoA replica batches
/// (which refreeze ICE straight into their strips) and the
/// per-replica RNG streams of the current window.
struct BatchWorker {
    sa_batch: ReplicaBatch,
    sqa_batch: SqaReplicaBatch,
    rngs: Vec<StdRng>,
}

impl BatchWorker {
    fn new() -> Self {
        BatchWorker {
            sa_batch: ReplicaBatch::new(),
            sqa_batch: SqaReplicaBatch::new(),
            rngs: Vec::new(),
        }
    }

    /// Anneals `slots` (one output slot each) in the windows of
    /// [`kernel::windows`].
    #[allow(clippy::too_many_arguments)]
    fn run_range(
        &mut self,
        structure: &CompiledProblem,
        chains: &CompiledChains,
        jobs: &[AnnealJob],
        slots: &[(u32, u32)],
        out: &mut [Vec<Spin>],
        betas: &[f64],
        fractions: &[f64],
        config: &AnnealerConfig,
        telemetry: &Telemetry,
    ) {
        debug_assert_eq!(slots.len(), out.len());
        let sweeps = match config.backend {
            Backend::Sa => betas.len(),
            Backend::Sqa { .. } => fractions.len(),
        };
        for window in kernel::windows(slots.len()) {
            let w = window.len();
            self.run_window(
                structure,
                chains,
                jobs,
                &slots[window.clone()],
                &mut out[window],
                betas,
                fractions,
                config,
            );
            telemetry.observe("quamax_anneal_replica_batch_width", &[], w as f64);
            telemetry.counter_add(
                "quamax_anneal_batched_sweeps_total",
                &[],
                (w * sweeps) as u64,
            );
        }
    }

    /// Anneals one replica window: binds the whole window (ICE refrozen
    /// from each replica's own stream), then initializes each replica.
    /// Per replica, the RNG stream's draw order is refreeze → init →
    /// sweep proposals, the same at every width, so every sample is the
    /// same no matter how slots are windowed.
    #[allow(clippy::too_many_arguments)]
    fn run_window(
        &mut self,
        structure: &CompiledProblem,
        chains: &CompiledChains,
        jobs: &[AnnealJob],
        slots: &[(u32, u32)],
        out: &mut [Vec<Spin>],
        betas: &[f64],
        fractions: &[f64],
        config: &AnnealerConfig,
    ) {
        let w = slots.len();
        let BatchWorker {
            sa_batch,
            sqa_batch,
            rngs,
        } = self;
        rngs.clear();
        for &(j, k) in slots {
            rngs.push(StdRng::seed_from_u64(splitmix(
                jobs[j as usize].seed,
                k as u64,
            )));
        }
        // A window entirely inside one zero-ICE job can read that job's
        // coefficients directly; anything else (ICE refreezes, windows
        // packing several jobs) binds per-replica coefficient strips.
        let single_job = slots.iter().all(|&(j, _)| j == slots[0].0);
        let shared = single_job && config.ice.is_zero();
        let problems = || -> Vec<&CompiledProblem> {
            slots
                .iter()
                .map(|&(j, _)| jobs[j as usize].problem)
                .collect()
        };
        match config.backend {
            Backend::Sa => {
                let problem = if shared {
                    let problem = jobs[slots[0].0 as usize].problem;
                    sa_batch.reset_shared(problem, w);
                    for (r, &(j, _)) in slots.iter().enumerate() {
                        match jobs[j as usize].init {
                            Some(s) => sa_batch.init_replica(problem, r, s),
                            None => sa_batch.init_replica_random(problem, r, &mut rngs[r]),
                        }
                    }
                    problem
                } else {
                    sa_batch.reset_per_replica(structure, w);
                    sa_batch.bind_window_ice(&problems(), &config.ice, rngs);
                    for (r, &(j, _)) in slots.iter().enumerate() {
                        match jobs[j as usize].init {
                            Some(s) => sa_batch.init_replica(structure, r, s),
                            None => sa_batch.init_replica_random(structure, r, &mut rngs[r]),
                        }
                    }
                    structure
                };
                sa::anneal_batch_compiled(problem, chains, betas, sa_batch, rngs);
                for (r, slot) in out.iter_mut().enumerate() {
                    *slot = sa_batch.replica_spins(r);
                }
            }
            Backend::Sqa { slices } => {
                let problem = if shared {
                    let problem = jobs[slots[0].0 as usize].problem;
                    sqa_batch.reset_shared(problem, slices, w);
                    for (r, &(j, _)) in slots.iter().enumerate() {
                        match jobs[j as usize].init {
                            Some(s) => sqa_batch.init_replica(problem, r, |_, i| s[i]),
                            None => sqa_batch.init_replica_random(problem, r, &mut rngs[r]),
                        }
                    }
                    problem
                } else {
                    sqa_batch.reset_per_replica(structure, slices, w);
                    sqa_batch.bind_window_ice(&problems(), &config.ice, rngs);
                    for (r, &(j, _)) in slots.iter().enumerate() {
                        match jobs[j as usize].init {
                            Some(s) => sqa_batch.init_replica(structure, r, |_, i| s[i]),
                            None => sqa_batch.init_replica_random(structure, r, &mut rngs[r]),
                        }
                    }
                    structure
                };
                sqa::anneal_batch_compiled(problem, chains, fractions, sqa_batch, rngs);
                for (r, slot) in out.iter_mut().enumerate() {
                    *slot = sqa::best_slice_batch(sqa_batch, r);
                }
            }
        }
    }
}

/// SplitMix64 of `(seed, k)` — the per-anneal RNG stream seed.
fn splitmix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamax_ising::exact_ground_state;

    fn toy_problem() -> IsingProblem {
        let mut p = IsingProblem::new(8);
        for i in 0..8 {
            p.set_linear(i, 0.05 * (i as f64 - 4.0));
            for j in (i + 1)..8 {
                p.set_coupling(i, j, if (i + j) % 3 == 0 { 0.4 } else { -0.3 });
            }
        }
        p
    }

    #[test]
    fn returns_requested_sample_count() {
        let annealer = Annealer::dw2q(AnnealerConfig::default());
        let samples = annealer.run(&toy_problem(), &Schedule::standard(1.0), 37, 1);
        assert_eq!(samples.len(), 37);
        for s in &samples {
            assert_eq!(s.len(), 8);
            assert!(s.iter().all(|&x| x == 1 || x == -1));
        }
    }

    #[test]
    fn deterministic_regardless_of_thread_count() {
        let p = toy_problem();
        let sched = Schedule::standard(1.0);
        let one = Annealer::new(AnnealerConfig {
            threads: 1,
            ..Default::default()
        })
        .run(&p, &sched, 24, 7);
        let four = Annealer::new(AnnealerConfig {
            threads: 4,
            ..Default::default()
        })
        .run(&p, &sched, 24, 7);
        assert_eq!(one, four);
    }

    #[test]
    fn different_seeds_differ() {
        let p = toy_problem();
        let sched = Schedule::standard(1.0);
        let annealer = Annealer::dw2q(AnnealerConfig::default());
        let a = annealer.run(&p, &sched, 16, 1);
        let b = annealer.run(&p, &sched, 16, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn finds_ground_state_without_ice() {
        let p = toy_problem();
        let gs = exact_ground_state(&p);
        let annealer = Annealer::new(AnnealerConfig {
            ice: IceModel::none(),
            sweeps_per_us: 50.0,
            ..Default::default()
        });
        let samples = annealer.run(&p, &Schedule::standard(10.0), 200, 3);
        let hits = samples
            .iter()
            .filter(|s| (p.energy(s) - gs.energy).abs() < 1e-9)
            .count();
        assert!(hits > 100, "only {hits}/200 found the ground state");
    }

    #[test]
    fn longer_anneals_do_not_hurt() {
        let p = toy_problem();
        let gs = exact_ground_state(&p);
        let annealer = Annealer::dw2q(AnnealerConfig::default());
        let p0 = |ta: f64, na: usize| {
            let samples = annealer.run(&p, &Schedule::standard(ta), na, 11);
            samples
                .iter()
                .filter(|s| (p.energy(s) - gs.energy).abs() < 1e-9)
                .count() as f64
                / na as f64
        };
        let short = p0(1.0, 400);
        let long = p0(100.0, 400);
        assert!(
            long >= short - 0.05,
            "success should not collapse with time: {short} → {long}"
        );
    }

    #[test]
    fn sqa_backend_runs() {
        let p = toy_problem();
        let annealer = Annealer::new(AnnealerConfig {
            backend: Backend::Sqa { slices: 4 },
            sweeps_per_us: 10.0,
            ..Default::default()
        });
        let samples = annealer.run(&p, &Schedule::standard(1.0), 8, 5);
        assert_eq!(samples.len(), 8);
    }

    #[test]
    fn zero_anneals_is_empty() {
        let annealer = Annealer::dw2q(AnnealerConfig::default());
        let samples = annealer.run(&toy_problem(), &Schedule::standard(1.0), 0, 1);
        assert!(samples.is_empty());
    }

    #[test]
    fn no_degradation_is_bit_identical_to_run_chained() {
        let p = toy_problem();
        let chains: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]];
        let sched = Schedule::standard(1.0);
        let annealer = Annealer::dw2q(AnnealerConfig::default());
        let plain = annealer.run_chained(&p, &chains, &sched, 12, 9);
        let degraded =
            annealer.run_chained_degraded(&p, &chains, &sched, 12, 9, &AnnealDegradation::none());
        assert_eq!(plain, degraded);
    }

    #[test]
    fn chain_break_storm_breaks_chains() {
        // A strongly ferromagnetic 2-qubit-chain problem: without a
        // storm every chain reads out intact; with one, flips land on
        // chain members and chains disagree.
        let mut p = IsingProblem::new(8);
        for c in 0..4 {
            p.set_coupling(2 * c, 2 * c + 1, -4.0);
        }
        let chains: Vec<Vec<usize>> = (0..4).map(|c| vec![2 * c, 2 * c + 1]).collect();
        let sched = Schedule::standard(2.0);
        let annealer = Annealer::new(AnnealerConfig {
            ice: IceModel::none(),
            ..Default::default()
        });
        let broken = |samples: &[Vec<Spin>]| {
            samples
                .iter()
                .flat_map(|s| chains.iter().map(move |ch| s[ch[0]] != s[ch[1]]))
                .filter(|&b| b)
                .count()
        };
        let calm = annealer.run_chained(&p, &chains, &sched, 50, 21);
        assert_eq!(broken(&calm), 0, "J=-4 chains must hold without a storm");
        let storm = annealer.run_chained_degraded(
            &p,
            &chains,
            &sched,
            50,
            21,
            &AnnealDegradation::chain_break_storm(0.3),
        );
        assert!(broken(&storm) > 10, "storm broke {} chains", broken(&storm));
        // Deterministic: the same seed reproduces the same storm.
        let again = annealer.run_chained_degraded(
            &p,
            &chains,
            &sched,
            50,
            21,
            &AnnealDegradation::chain_break_storm(0.3),
        );
        assert_eq!(storm, again);
    }

    #[test]
    fn ice_excursion_degrades_solution_quality() {
        let p = toy_problem();
        let gs = exact_ground_state(&p);
        let annealer = Annealer::new(AnnealerConfig {
            ice: IceModel::dw2q().scaled(0.2),
            sweeps_per_us: 50.0,
            ..Default::default()
        });
        let hit_rate = |deg: &AnnealDegradation| {
            let samples =
                annealer.run_chained_degraded(&p, &[], &Schedule::standard(10.0), 300, 3, deg);
            samples
                .iter()
                .filter(|s| (p.energy(s) - gs.energy).abs() < 1e-9)
                .count() as f64
                / 300.0
        };
        let nominal = hit_rate(&AnnealDegradation::none());
        let excursion = hit_rate(&AnnealDegradation::ice_excursion(25.0));
        assert!(
            excursion < nominal - 0.1,
            "a 25× drift excursion should hurt: {nominal} → {excursion}"
        );
    }

    #[test]
    fn run_jobs_matches_per_job_runs() {
        // Packing heterogeneous jobs into one batched call must be
        // unobservable: every sample equals its standalone run_compiled
        // counterpart, with ICE active (per-replica windows) and with a
        // second problem whose coefficients differ over one structure.
        let p = toy_problem();
        let base = CompiledProblem::new(&p);
        let mut other = base.clone();
        other.perturb_linear(|f| f + 0.2);
        other.perturb_couplings(|g| g * 0.9);
        let chains = CompiledChains::compile(&base, &[vec![0, 1], vec![2, 3]]);
        let sched = Schedule::standard(1.0);
        for backend in [Backend::Sa, Backend::Sqa { slices: 4 }] {
            let annealer = Annealer::new(AnnealerConfig {
                backend,
                ..Default::default()
            });
            let jobs = [
                AnnealJob {
                    problem: &base,
                    init: None,
                    num_anneals: 5,
                    seed: 41,
                },
                AnnealJob {
                    problem: &other,
                    init: None,
                    num_anneals: 9,
                    seed: 42,
                },
            ];
            let packed = annealer.run_jobs(&base, &chains, &sched, &jobs);
            let alone: Vec<_> = jobs
                .iter()
                .map(|j| annealer.run_compiled(j.problem, &chains, &sched, j.num_anneals, j.seed))
                .collect();
            assert_eq!(packed, alone, "backend {backend:?}");
        }
    }

    #[test]
    fn batched_sweep_counter_is_thread_and_width_invariant() {
        let p = toy_problem();
        let sched = Schedule::standard(1.0);
        let num_anneals = 13;
        let sweeps = sched
            .sweep_fractions(AnnealerConfig::default().sweeps_per_us)
            .len();
        let mut totals = Vec::new();
        for threads in [1, 4, 3] {
            let telemetry = Telemetry::enabled();
            Annealer::new(AnnealerConfig {
                threads,
                ..Default::default()
            })
            .with_telemetry(telemetry.clone())
            .run(&p, &sched, num_anneals, 7);
            let snap = telemetry.snapshot();
            totals.push(snap.counter_total("quamax_anneal_batched_sweeps_total"));
            // Every window observation is accounted for: widths sum to
            // the anneal count.
            let widths = snap
                .histogram("quamax_anneal_replica_batch_width", &[])
                .expect("width histogram recorded");
            assert_eq!(widths.sum as usize, num_anneals);
        }
        // Σ width·sweeps = total replica sweeps, however sharded.
        assert!(totals.iter().all(|&t| t == (num_anneals * sweeps) as u64));
    }

    #[test]
    #[should_panic(expected = "Trotter")]
    fn bad_sqa_config_panics() {
        let _ = Annealer::new(AnnealerConfig {
            backend: Backend::Sqa { slices: 1 },
            ..Default::default()
        });
    }
}
