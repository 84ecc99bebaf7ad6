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
use crate::kernel::{self, CompiledChains, ReplicaBatch, WindowCoefficients};
use crate::schedule::{curves, Schedule};
use crate::sqa;
use quamax_ising::{CompiledProblem, IsingProblem, Spin};
use quamax_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;

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
    /// program one embedded problem and run it many times (parameter
    /// searches, the bench harness). Reverse anneals start from a
    /// candidate state, so they go through [`Annealer::run_jobs`] with
    /// an [`AnnealJob::init`].
    pub fn run_compiled(
        &self,
        problem: &CompiledProblem,
        chains: &CompiledChains,
        schedule: &Schedule,
        num_anneals: usize,
        seed: u64,
    ) -> Vec<Vec<Spin>> {
        let job = AnnealJob {
            problem,
            init: None,
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
    /// `structure`, or when `schedule` is reverse and a job has no
    /// candidate.
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
            match job.init {
                Some(init) => assert_eq!(
                    init.len(),
                    structure.num_spins(),
                    "candidate length mismatch"
                ),
                None => assert!(
                    !schedule.is_reverse(),
                    "reverse schedules need a candidate state (AnnealJob::init)"
                ),
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
            // calls concurrently skip the scoped spawn entirely, and
            // reuse the calling thread's window buffers from call to
            // call. Identical output by the determinism contract.
            INLINE_WORKER.with_borrow_mut(|worker| {
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
                )
            });
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

thread_local! {
    /// The window buffers of one-thread runs on this thread, kept
    /// across [`Annealer::run_jobs`] calls so a warm call allocates no
    /// strip, RNG vector or ICE deviate buffer.
    static INLINE_WORKER: RefCell<BatchWorker> = RefCell::new(BatchWorker::new());
}

/// One worker thread's reusable buffers: the SoA replica batch
/// (which refreezes ICE straight into its strips, and serves SA and
/// SQA windows alike) and the per-replica RNG streams of the current
/// window.
struct BatchWorker {
    batch: ReplicaBatch,
    rngs: Vec<StdRng>,
}

impl BatchWorker {
    fn new() -> Self {
        BatchWorker {
            batch: ReplicaBatch::new(),
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
    /// from each replica's own stream), sets or draws each replica's
    /// initial spins (every slice of an SQA replica), then rebuilds
    /// every replica's fields in one strip-wise CSR pass. Per replica,
    /// the RNG stream's draw order is refreeze → init → proposals (SA:
    /// one key for counter-based draws; SQA: sequential draws), the same
    /// at every width, so every sample is the same no matter how slots
    /// are windowed. An SA window runs whole inside
    /// [`ReplicaBatch::anneal_window`], on the host's widest instruction
    /// set; an SQA window shares its setup and then runs
    /// [`sqa::anneal_batch_compiled`].
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
        let BatchWorker { batch, rngs } = self;
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
        let problems: Vec<&CompiledProblem> = if shared {
            Vec::new()
        } else {
            slots
                .iter()
                .map(|&(j, _)| jobs[j as usize].problem)
                .collect()
        };
        let coefficients = if shared {
            WindowCoefficients::Shared(jobs[slots[0].0 as usize].problem)
        } else {
            WindowCoefficients::PerReplica {
                structure,
                problems: &problems,
                ice: &config.ice,
            }
        };
        let inits = |r: usize| jobs[slots[r].0 as usize].init;
        match config.backend {
            Backend::Sa => {
                batch.anneal_window(coefficients, inits, chains, betas, rngs);
                for (r, slot) in out.iter_mut().enumerate() {
                    *slot = batch.replica_spins(r, 0);
                }
            }
            Backend::Sqa { slices } => {
                let problem = batch.set_up_window(slices, coefficients, inits, rngs);
                sqa::anneal_batch_compiled(problem, chains, fractions, batch, rngs);
                for (r, slot) in out.iter_mut().enumerate() {
                    *slot = sqa::best_slice_batch(batch, r);
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
    #[should_panic(expected = "candidate state")]
    fn reverse_schedule_without_a_candidate_panics() {
        let problem = CompiledProblem::new(&toy_problem());
        let chains = CompiledChains::compile(&problem, &[]);
        let job = AnnealJob {
            problem: &problem,
            init: None,
            num_anneals: 4,
            seed: 1,
        };
        let _ = Annealer::dw2q(AnnealerConfig::default()).run_jobs(
            &problem,
            &chains,
            &Schedule::reverse(1.0, 0.5, 1.0),
            &[job],
        );
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
