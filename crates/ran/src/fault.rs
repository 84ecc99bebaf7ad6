//! Seeded, deterministic fault injection for the serving layer, and
//! the classified error taxonomy it surfaces.
//!
//! Real annealer-backed BBUs degrade: chains decohere in storms, the
//! analog control drifts off calibration, programming cycles fail,
//! workers stall on host-side hiccups, and whole workers crash. A
//! [`FaultPlan`] injects exactly those classes into the discrete-event
//! simulation — each with an independent rate, each counted — from a
//! single seed, so any degraded run is reproducible bit for bit.
//!
//! Serving prices every fault in time only: a fired class costs device
//! time — a lost programming cycle, a full but useless anneal bill, a
//! stall, or a repair interval — and decides whether the retry is warm
//! or cold, but no fault alters an anneal's samples. The sample-level
//! effect of a noisier analog control is studied on the annealer
//! itself (`IceModel::scaled`, the `ablation_ice` bench).

use quamax_core::DetectError;

/// The classes of degradation an annealer-backed serving pool sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Embedding chains decohere en masse during one job's anneals;
    /// the readouts majority-vote to garbage and the job's result is
    /// unusable. Transient — and the failed attempt's best candidate
    /// survives as a `decode_reverse_from` warm start.
    ChainBreakStorm,
    /// The analog control drifts off its calibration point for one
    /// job: every programmed coefficient lands outside the nominal ICE
    /// floor and the decode quality collapses. Transient; warm
    /// restartable like a storm.
    IceDrift,
    /// The chip refuses a programming cycle (flux trapping, DAC
    /// timeout). Fails fast — only the programming time is lost, and
    /// nothing was decoded, so a retry is cold.
    ProgrammingFailure,
    /// The worker's host stalls mid-job (GC pause, readout contention):
    /// the job *completes correctly* but late by the stall duration.
    WorkerStall,
    /// The worker dies and stays dead for a repair interval; the job
    /// never ran. Transient for the *job* (an alternate worker can
    /// serve it), fatal for the worker until repaired.
    WorkerCrash,
}

impl FaultClass {
    /// Every class, in the fixed order the single-draw classifier
    /// walks them (and the order counters are reported in).
    pub const ALL: [FaultClass; 5] = [
        FaultClass::WorkerCrash,
        FaultClass::WorkerStall,
        FaultClass::ProgrammingFailure,
        FaultClass::ChainBreakStorm,
        FaultClass::IceDrift,
    ];

    /// Stable lowercase name (bench JSON rows, log lines).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::ChainBreakStorm => "chain_break_storm",
            FaultClass::IceDrift => "ice_drift",
            FaultClass::ProgrammingFailure => "programming_failure",
            FaultClass::WorkerStall => "worker_stall",
            FaultClass::WorkerCrash => "worker_crash",
        }
    }

    /// `true` when a retry of the *job* may succeed (every class: the
    /// job itself is fine, the attempt was unlucky). Distinguished
    /// from permanent job defects ([`ServeError::InvalidJob`]).
    pub fn is_transient(self) -> bool {
        true
    }

    /// `true` when the failed attempt leaves a usable best-so-far
    /// candidate, making the retry a *warm* `decode_reverse_from`
    /// restart (cheaper than a cold job): the anneals ran, only their
    /// quality was degraded.
    pub fn warm_restartable(self) -> bool {
        matches!(self, FaultClass::ChainBreakStorm | FaultClass::IceDrift)
    }
}

/// Per-class independent fault rates (probability per job attempt,
/// except crashes which are per worker-job encounter).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRates {
    /// Chain-break storm probability per anneal batch.
    pub chain_break_storm: f64,
    /// ICE drift excursion probability per anneal batch.
    pub ice_drift: f64,
    /// Programming failure probability per programming cycle.
    pub programming_failure: f64,
    /// Worker stall probability per job.
    pub worker_stall: f64,
    /// Worker crash probability per job.
    pub worker_crash: f64,
}

impl FaultRates {
    /// No faults at all — the fair-weather closed loop.
    pub fn none() -> Self {
        FaultRates {
            chain_break_storm: 0.0,
            ice_drift: 0.0,
            programming_failure: 0.0,
            worker_stall: 0.0,
            worker_crash: 0.0,
        }
    }

    /// Every class at the same rate `r` — the bench sweep's knob.
    ///
    /// # Panics
    /// Panics unless `0 ≤ r` and the total stays ≤ 1.
    pub fn uniform(r: f64) -> Self {
        let rates = FaultRates {
            chain_break_storm: r,
            ice_drift: r,
            programming_failure: r,
            worker_stall: r,
            worker_crash: r,
        };
        rates.validate();
        rates
    }

    /// The rate for `class`.
    pub fn rate(&self, class: FaultClass) -> f64 {
        match class {
            FaultClass::ChainBreakStorm => self.chain_break_storm,
            FaultClass::IceDrift => self.ice_drift,
            FaultClass::ProgrammingFailure => self.programming_failure,
            FaultClass::WorkerStall => self.worker_stall,
            FaultClass::WorkerCrash => self.worker_crash,
        }
    }

    /// Sum of all class rates (the per-attempt any-fault probability).
    pub fn total(&self) -> f64 {
        FaultClass::ALL.iter().map(|&c| self.rate(c)).sum()
    }

    /// `true` when every rate is zero.
    pub fn is_quiet(&self) -> bool {
        self.total() == 0.0
    }

    fn validate(&self) {
        for class in FaultClass::ALL {
            let r = self.rate(class);
            assert!(
                (0.0..=1.0).contains(&r),
                "{} rate out of range: {r}",
                class.name()
            );
        }
        assert!(
            self.total() <= 1.0 + 1e-12,
            "class rates must sum to ≤ 1 (single-draw classifier): {}",
            self.total()
        );
    }
}

/// Per-class injection counters (what actually fired).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Chain-break storms injected.
    pub chain_break_storms: u64,
    /// ICE drift excursions injected.
    pub ice_drifts: u64,
    /// Programming failures injected.
    pub programming_failures: u64,
    /// Worker stalls injected.
    pub worker_stalls: u64,
    /// Worker crashes injected.
    pub worker_crashes: u64,
}

impl FaultCounters {
    /// The counter for `class`.
    pub fn count(&self, class: FaultClass) -> u64 {
        match class {
            FaultClass::ChainBreakStorm => self.chain_break_storms,
            FaultClass::IceDrift => self.ice_drifts,
            FaultClass::ProgrammingFailure => self.programming_failures,
            FaultClass::WorkerStall => self.worker_stalls,
            FaultClass::WorkerCrash => self.worker_crashes,
        }
    }

    /// Total faults injected across classes.
    pub fn total(&self) -> u64 {
        FaultClass::ALL.iter().map(|&c| self.count(c)).sum()
    }

    fn bump(&mut self, class: FaultClass) {
        match class {
            FaultClass::ChainBreakStorm => self.chain_break_storms += 1,
            FaultClass::IceDrift => self.ice_drifts += 1,
            FaultClass::ProgrammingFailure => self.programming_failures += 1,
            FaultClass::WorkerStall => self.worker_stalls += 1,
            FaultClass::WorkerCrash => self.worker_crashes += 1,
        }
    }
}

/// A seeded, deterministic fault schedule.
///
/// Each `(worker, job, attempt)` triple owns one uniform draw — a
/// SplitMix64 hash of the plan seed and the triple — classified
/// against the cumulative class rates in [`FaultClass::ALL`] order.
/// Two plans with the same seed and rates inject byte-identical fault
/// sequences into identical request streams, which is what makes a
/// degraded `SimReport` reproducible and the guarded-vs-unguarded
/// comparison fair: the *first* attempt of every job sees the same
/// fault either way, only the recovery differs.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
    /// Stall duration injected by [`FaultClass::WorkerStall`], µs.
    stall_us: f64,
    /// Worker downtime after a [`FaultClass::WorkerCrash`], µs.
    repair_us: f64,
    counters: FaultCounters,
}

impl FaultPlan {
    /// A plan drawing from `seed` at the given per-class rates, with
    /// default stall (2 ms) and repair (20 ms) durations.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        rates.validate();
        FaultPlan {
            seed,
            rates,
            stall_us: 2_000.0,
            repair_us: 20_000.0,
            counters: FaultCounters::default(),
        }
    }

    /// A plan that never fires (rates all zero).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan::new(seed, FaultRates::none())
    }

    /// Sets the stall duration, µs.
    ///
    /// # Panics
    /// Panics unless positive.
    pub fn with_stall_us(mut self, stall_us: f64) -> Self {
        assert!(stall_us > 0.0, "a stall lasts a positive duration");
        self.stall_us = stall_us;
        self
    }

    /// Sets the crash repair time, µs.
    ///
    /// # Panics
    /// Panics unless positive.
    pub fn with_repair_us(mut self, repair_us: f64) -> Self {
        assert!(repair_us > 0.0, "repair takes a positive duration");
        self.repair_us = repair_us;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured rates.
    pub fn rates(&self) -> &FaultRates {
        &self.rates
    }

    /// Stall duration injected with a [`FaultClass::WorkerStall`], µs.
    pub fn stall_us(&self) -> f64 {
        self.stall_us
    }

    /// Worker downtime after a [`FaultClass::WorkerCrash`], µs.
    pub fn repair_us(&self) -> f64 {
        self.repair_us
    }

    /// `true` when the plan can never fire.
    pub fn is_quiet(&self) -> bool {
        self.rates.is_quiet()
    }

    /// What has fired so far, per class.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Clears the counters (new simulation, same schedule).
    pub fn reset(&mut self) {
        self.counters = FaultCounters::default();
    }

    /// The fault (if any) that attempt `attempt` of job `job` on
    /// worker `worker` experiences. Pure in `(seed, rates, worker,
    /// job, attempt)` — calling it twice with the same triple returns
    /// the same class (but counts twice; the serving layer draws once
    /// per executed attempt).
    pub fn draw(&mut self, worker: usize, job: u64, attempt: u32) -> Option<FaultClass> {
        let class = self.peek(worker, job, attempt);
        if let Some(c) = class {
            self.counters.bump(c);
        }
        class
    }

    /// [`FaultPlan::draw`] without counting — for lookahead.
    pub fn peek(&self, worker: usize, job: u64, attempt: u32) -> Option<FaultClass> {
        if self.rates.is_quiet() {
            return None;
        }
        let key = (worker as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(job.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(attempt as u64);
        let unit = (splitmix(self.seed, key) >> 11) as f64 / (1u64 << 53) as f64;
        let mut cumulative = 0.0;
        for class in FaultClass::ALL {
            cumulative += self.rates.rate(class);
            if unit < cumulative {
                return Some(class);
            }
        }
        None
    }
}

/// Why the serving layer could not (or chose not to) serve a job —
/// the classified error taxonomy callers decide on instead of
/// panicking.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// An injected (or real) device fault killed the attempt.
    Fault {
        /// Which class fired.
        class: FaultClass,
    },
    /// No worker was available (all crashed or circuit-broken) and no
    /// escalation rung was configured.
    WorkerUnavailable,
    /// The job itself is malformed — zero problems or zero logical
    /// variables — and would fail identically on every worker.
    InvalidJob(&'static str),
    /// Admission control shed the job under backpressure. Recorded,
    /// never silent: the ledger counts every shed job.
    Shed {
        /// Projected queue wait that triggered the shed, µs.
        projected_wait_us: f64,
    },
    /// A decode-level failure bubbled up from `quamax_core`.
    Detect(DetectError),
}

impl ServeError {
    /// `true` when a retry (other worker, later, bigger budget) may
    /// succeed; `false` for errors deterministic in the job itself.
    pub fn is_transient(&self) -> bool {
        match self {
            ServeError::Fault { class } => class.is_transient(),
            // The pool's health recovers (breakers half-open, crashed
            // workers repair): transient.
            ServeError::WorkerUnavailable => true,
            ServeError::InvalidJob(_) => false,
            // A shed is a deliberate, final admission decision for
            // this job, not a failure a retry should paper over.
            ServeError::Shed { .. } => false,
            ServeError::Detect(e) => e.is_transient(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Fault { class } => write!(f, "device fault: {}", class.name()),
            ServeError::WorkerUnavailable => write!(f, "no worker available"),
            ServeError::InvalidJob(why) => write!(f, "invalid job: {why}"),
            ServeError::Shed { projected_wait_us } => {
                write!(
                    f,
                    "shed under backpressure ({projected_wait_us:.0} µs wait)"
                )
            }
            ServeError::Detect(e) => write!(f, "decode failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<DetectError> for ServeError {
    fn from(e: DetectError) -> Self {
        ServeError::Detect(e)
    }
}

/// SplitMix64 of `(seed, k)` — the fault classifier's hash.
fn splitmix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_fires() {
        let mut plan = FaultPlan::quiet(7);
        for job in 0..1000 {
            assert_eq!(plan.draw(0, job, 1), None);
        }
        assert_eq!(plan.counters().total(), 0);
        assert!(plan.is_quiet());
    }

    #[test]
    fn draws_are_deterministic_in_the_triple() {
        let rates = FaultRates::uniform(0.05);
        let mut a = FaultPlan::new(42, rates);
        let mut b = FaultPlan::new(42, rates);
        for job in 0..500 {
            for worker in 0..3 {
                for attempt in 1..3 {
                    assert_eq!(
                        a.draw(worker, job, attempt),
                        b.draw(worker, job, attempt),
                        "divergence at ({worker}, {job}, {attempt})"
                    );
                }
            }
        }
        assert_eq!(a.counters(), b.counters());
        assert!(a.counters().total() > 0, "5%×5 over 3000 draws must fire");
    }

    #[test]
    fn different_seeds_differ() {
        let rates = FaultRates::uniform(0.1);
        let a: Vec<_> = {
            let mut p = FaultPlan::new(1, rates);
            (0..200).map(|j| p.draw(0, j, 1)).collect()
        };
        let b: Vec<_> = {
            let mut p = FaultPlan::new(2, rates);
            (0..200).map(|j| p.draw(0, j, 1)).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn empirical_rates_track_configured_rates() {
        let mut plan = FaultPlan::new(11, FaultRates::uniform(0.04));
        let n = 20_000u64;
        for job in 0..n {
            plan.draw(job as usize % 4, job, 1);
        }
        for class in FaultClass::ALL {
            let empirical = plan.counters().count(class) as f64 / n as f64;
            assert!(
                (empirical - 0.04).abs() < 0.01,
                "{}: {empirical}",
                class.name()
            );
        }
        assert!((plan.counters().total() as f64 / n as f64 - 0.2).abs() < 0.02);
    }

    #[test]
    fn peek_does_not_count() {
        let plan = FaultPlan::new(3, FaultRates::uniform(0.2));
        let mut counted = plan.clone();
        for job in 0..100 {
            let peeked = plan.peek(0, job, 1);
            assert_eq!(peeked, counted.draw(0, job, 1));
        }
        assert_eq!(plan.counters().total(), 0);
        assert!(counted.counters().total() > 0);
    }

    #[test]
    fn warm_restart_classes() {
        assert!(FaultClass::ChainBreakStorm.warm_restartable());
        assert!(FaultClass::IceDrift.warm_restartable());
        assert!(!FaultClass::ProgrammingFailure.warm_restartable());
        assert!(!FaultClass::WorkerCrash.warm_restartable());
        for class in FaultClass::ALL {
            assert!(class.is_transient());
        }
    }

    #[test]
    fn serve_error_classification() {
        assert!(ServeError::Fault {
            class: FaultClass::IceDrift
        }
        .is_transient());
        assert!(ServeError::WorkerUnavailable.is_transient());
        assert!(!ServeError::InvalidJob("zero problems").is_transient());
        assert!(!ServeError::Shed {
            projected_wait_us: 1e4
        }
        .is_transient());
    }

    #[test]
    #[should_panic(expected = "sum to ≤ 1")]
    fn overfull_rates_panic() {
        let _ = FaultRates::uniform(0.3);
    }
}
