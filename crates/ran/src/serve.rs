//! The serving pool: QPU workers behind deadline-aware retry,
//! per-worker circuit breakers, an escalation ladder, and recorded load
//! shedding.
//!
//! [`ResilientServer`] is the one machine every data-center server of
//! the simulation is a configuration of: jobs are validated, admission-
//! controlled, routed to the least-loaded healthy worker, and — when a
//! [`FaultPlan`] injects a device fault — retried under the frame's
//! remaining deadline slack ([`RetryPolicy::fund_retry`]), escalated
//! down the ladder (QPU → hybrid → classical), or failed *with a
//! classified error*. Nothing is silently lost: the [`Ledger`]
//! conserves `submitted == completed + shed + failed`.
//!
//! The plain servers are pool configurations:
//! [`ResilientServer::plain_qpu`] is one worker under
//! [`Guardrails::off`], and [`ResilientServer::without_qpu`] has no
//! worker, so every job takes the ladder at once — to the classical
//! floor, or to the hybrid rung when one is attached. With a quiet plan
//! and one worker, [`Guardrails::on`] is bit-identical to
//! [`Guardrails::off`]: the resilience machinery prices exactly zero
//! when nothing goes wrong (tested in `tests/properties.rs`).

use crate::breaker::CircuitBreaker;
use crate::cpu::{CpuPolicy, CpuPool};
use crate::fault::{FaultClass, FaultPlan, ServeError};
use crate::hybrid::HybridServer;
use crate::qpu::{JobDirection, QpuServer};
use crate::retry::RetryPolicy;
use quamax_telemetry::Telemetry;

/// A job's admission-control class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Never shed under the standard policy (control traffic, HARQ
    /// retransmissions already on their last chance).
    High,
    /// Ordinary uplink frames.
    Normal,
    /// Background / delay-tolerant traffic: shed first.
    Low,
}

impl Priority {
    /// A short lowercase label for reports and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Per-priority backpressure limits: a job is shed when every healthy
/// worker's projected queue wait exceeds its priority's limit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShedPolicy {
    /// Max projected wait for [`Priority::High`], µs (`None` = never).
    pub high_max_wait_us: Option<f64>,
    /// Max projected wait for [`Priority::Normal`], µs.
    pub normal_max_wait_us: Option<f64>,
    /// Max projected wait for [`Priority::Low`], µs.
    pub low_max_wait_us: Option<f64>,
}

impl ShedPolicy {
    /// Never sheds (the unguarded configuration — and also what keeps
    /// the guarded fair-weather path bit-identical to plain dispatch).
    pub fn disabled() -> Self {
        ShedPolicy {
            high_max_wait_us: None,
            normal_max_wait_us: None,
            low_max_wait_us: None,
        }
    }

    /// The guarded default: high never sheds, normal sheds past 20 ms
    /// of projected wait, low past 5 ms.
    pub fn standard() -> Self {
        ShedPolicy {
            high_max_wait_us: None,
            normal_max_wait_us: Some(20_000.0),
            low_max_wait_us: Some(5_000.0),
        }
    }

    /// The wait limit for `priority`, µs (`None` = never shed).
    pub fn limit_us(&self, priority: Priority) -> Option<f64> {
        match priority {
            Priority::High => self.high_max_wait_us,
            Priority::Normal => self.normal_max_wait_us,
            Priority::Low => self.low_max_wait_us,
        }
    }
}

/// The full guardrail configuration: what the resilience subsystem is
/// allowed to do about a failure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Guardrails {
    /// Retry funding policy.
    pub retry: RetryPolicy,
    /// Consecutive failures that open a worker's breaker.
    pub breaker_threshold: u32,
    /// Breaker cooldown before a half-open probe, µs.
    pub breaker_cooldown_us: f64,
    /// Backpressure limits.
    pub shed: ShedPolicy,
    /// Whether exhausted jobs escalate down the ladder (hybrid, then
    /// classical) instead of failing.
    pub escalate: bool,
}

impl Guardrails {
    /// Everything on: standard retries, breakers tripping after 3
    /// consecutive failures with a 10 ms cooldown, standard shedding,
    /// escalation enabled.
    pub fn on() -> Self {
        Guardrails {
            retry: RetryPolicy::standard(),
            breaker_threshold: 3,
            breaker_cooldown_us: 10_000.0,
            shed: ShedPolicy::standard(),
            escalate: true,
        }
    }

    /// Everything off: one attempt, breakers that never trip, no
    /// shedding, no escalation — a fault kills its job. The control
    /// arm of the resilience bench.
    pub fn off() -> Self {
        Guardrails {
            retry: RetryPolicy::disabled(),
            breaker_threshold: u32::MAX,
            breaker_cooldown_us: 1.0,
            shed: ShedPolicy::disabled(),
            escalate: false,
        }
    }
}

/// One decode job as the serving layer sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Job {
    /// Source key (access-point id): scopes programming sessions.
    pub source: usize,
    /// Uplink detection or downlink precoding. The serving layer's
    /// queueing treats both identically (anneals are anneals); the
    /// direction matters because it is folded into `channel_hash`
    /// upstream ([`crate::channel_hash_directed`]), so a detection
    /// session and a precoding session from the same `H` never share
    /// a cache entry or a batch.
    pub direction: JobDirection,
    /// Channel-estimate hash for the session cache, direction already
    /// folded in (`None` = use the frame-counted coherence model).
    pub channel_hash: Option<u64>,
    /// Subcarrier problems in this frame.
    pub problems: usize,
    /// Logical Ising variables per problem.
    pub logical_vars: usize,
    /// Concurrent users (sizes the classical rungs' service time).
    pub users: usize,
    /// Decode budget relative to submission time, µs — what funds
    /// retries ([`RetryPolicy::fund_retry`]).
    pub deadline_us: f64,
    /// Admission-control class.
    pub priority: Priority,
}

/// Which rung of the escalation ladder served a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServeRung {
    /// A QPU worker (possibly after retries).
    Qpu,
    /// The classical-first hybrid server.
    Hybrid,
    /// The classical pool floor.
    Classical,
}

impl ServeRung {
    /// A short lowercase label for reports and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            ServeRung::Qpu => "qpu",
            ServeRung::Hybrid => "hybrid",
            ServeRung::Classical => "classical",
        }
    }
}

/// A successfully served job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Served {
    /// Completion time at the data center, µs.
    pub done_us: f64,
    /// QPU attempts consumed (1 = first try; escalated jobs report the
    /// attempts burned before escalating).
    pub attempts: u32,
    /// The rung that produced the answer.
    pub rung: ServeRung,
    /// The worker that served it (`None` for escalated jobs).
    pub worker: Option<usize>,
}

/// The conservation ledger: every submitted job is accounted for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs that produced an answer (any rung).
    pub completed: u64,
    /// Jobs shed by admission control (recorded, not lost).
    pub shed: u64,
    /// Jobs that failed with a classified error.
    pub failed: u64,
    /// In-flight gauge (not a terminal counter): jobs admitted into
    /// the brokered pipeline — sitting in a per-cell queue or an open
    /// batch — whose fate is not yet resolved.
    /// [`ResilientServer::submit`] resolves its job within the call, so
    /// it leaves this gauge where it found it.
    pub batched: u64,
}

impl Ledger {
    /// The invariant: no job is silently dropped. In-flight jobs are
    /// tolerated at snapshot time — `submitted == completed + shed +
    /// failed + in-flight` — and a drained pipeline has `batched == 0`,
    /// collapsing this to the classic terminal identity.
    pub fn conserved(&self) -> bool {
        self.submitted == self.completed + self.shed + self.failed + self.batched
    }

    /// Jobs admitted but not yet resolved (the `batched` gauge).
    pub fn in_flight(&self) -> u64 {
        self.batched
    }
}

/// One QPU worker plus its health state.
#[derive(Clone, Debug)]
struct QpuWorker {
    qpu: QpuServer,
    breaker: CircuitBreaker,
    /// Time until which this worker is down after a crash, µs.
    crashed_until_us: f64,
    /// Service time of work the batch scheduler has *assigned* to this
    /// worker but not yet dispatched (open batches filling toward
    /// their close time), µs. Counted into the projected queue wait so
    /// admission control and placement see the same load a dispatch
    /// is about to add — without it, every open batch looks free and
    /// shedding/placement systematically under-estimate.
    reserved_us: f64,
}

/// A pool of QPU workers behind the full guardrail stack.
pub struct ResilientServer {
    workers: Vec<QpuWorker>,
    /// The classical floor of the escalation ladder: always present,
    /// always assumed reliable (it is a plain multicore pool).
    classical: CpuPool,
    /// Optional middle rung: classical-first with quantum fallback.
    hybrid: Option<HybridServer>,
    plan: FaultPlan,
    guardrails: Guardrails,
    ledger: Ledger,
    /// Monotone job ids — the `job` axis of the fault plan's draws.
    job_seq: u64,
    /// Metrics handle (disabled by default). Recording never feeds
    /// back into routing, retry funding, or the fault schedule, so
    /// enabling it cannot perturb any completion time.
    telemetry: Telemetry,
}

impl ResilientServer {
    /// A server over `workers` identical QPUs with `classical` as the
    /// escalation floor, injecting faults from `plan` under
    /// `guardrails`. An empty `workers` list is a QPU-less pool (see
    /// [`ResilientServer::without_qpu`]).
    pub fn new(
        workers: Vec<QpuServer>,
        classical: CpuPool,
        plan: FaultPlan,
        guardrails: Guardrails,
    ) -> Self {
        let breaker =
            CircuitBreaker::new(guardrails.breaker_threshold, guardrails.breaker_cooldown_us);
        ResilientServer {
            workers: workers
                .into_iter()
                .map(|qpu| QpuWorker {
                    qpu,
                    breaker: breaker.clone(),
                    crashed_until_us: 0.0,
                    reserved_us: 0.0,
                })
                .collect(),
            classical,
            hybrid: None,
            plan,
            guardrails,
            ledger: Ledger::default(),
            job_seq: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The plain QPU as a pool: `qpu` as the only worker under a quiet
    /// plan and [`Guardrails::off`], so every job is one FIFO enqueue
    /// straight at `qpu`. Nothing escalates, so the classical floor is
    /// never reached.
    pub fn plain_qpu(qpu: QpuServer) -> Self {
        let unused_floor = CpuPool::new(
            1,
            CpuPolicy::ZeroForcing {
                vectors_per_channel: 1,
            },
        );
        Self::new(
            vec![qpu],
            unused_floor,
            FaultPlan::quiet(0),
            Guardrails::off(),
        )
    }

    /// A pool with no QPU worker under [`Guardrails::on`]: every job
    /// escalates at once, in one attempt, to the hybrid rung when one is
    /// attached ([`ResilientServer::with_hybrid`]), else to `classical`.
    pub fn without_qpu(classical: CpuPool) -> Self {
        Self::new(Vec::new(), classical, FaultPlan::quiet(0), Guardrails::on())
    }

    /// Inserts the hybrid middle rung of the escalation ladder.
    pub fn with_hybrid(mut self, hybrid: HybridServer) -> Self {
        self.hybrid = Some(hybrid);
        self
    }

    /// Attaches a metrics handle, propagating it to every worker QPU
    /// (their enqueues record the per-stage spans into the same
    /// registry).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.set_telemetry(telemetry);
        self
    }

    /// In-place [`ResilientServer::with_telemetry`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for w in &mut self.workers {
            w.qpu.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    /// The attached metrics handle (disabled unless configured).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Publishes the snapshot-time views — conservation ledger,
    /// per-worker breaker trips and session-cache counters, per-class
    /// fault census — into the registry. The programmatic accessors
    /// ([`ResilientServer::ledger`], [`ResilientServer::breaker_trips`],
    /// [`ResilientServer::fault_plan`]) are unchanged; this is the
    /// collect-callback view of the same numbers.
    pub fn publish_telemetry(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let t = &self.telemetry;
        let ledger = self.ledger;
        for (state, v) in [
            ("submitted", ledger.submitted),
            ("completed", ledger.completed),
            ("shed", ledger.shed),
            ("failed", ledger.failed),
        ] {
            t.counter_store("quamax_serve_ledger_total", &[("state", state)], v);
        }
        t.gauge_set("quamax_serve_in_flight", &[], ledger.batched as f64);
        let counters = self.plan.counters();
        for class in FaultClass::ALL {
            t.counter_store(
                "quamax_serve_faults_total",
                &[("class", class.name())],
                counters.count(class),
            );
        }
        for (i, w) in self.workers.iter().enumerate() {
            let worker = i.to_string();
            let labels = [("worker", worker.as_str())];
            t.counter_store("quamax_breaker_trips_total", &labels, w.breaker.trips());
            if let Some(cache) = w.qpu.session_cache() {
                cache.publish_telemetry(t, &labels);
            }
        }
    }

    /// The conservation ledger so far.
    pub fn ledger(&self) -> Ledger {
        self.ledger
    }

    /// The fault plan (for its counters).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Lifetime breaker trips summed over workers.
    pub fn breaker_trips(&self) -> u64 {
        self.workers.iter().map(|w| w.breaker.trips()).sum()
    }

    /// Worker count.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The session-cache coherence time of worker 0, if the pool has a
    /// worker and its QPU has a cache attached — the simulation uses it
    /// to synthesize per-interval channel hashes.
    pub fn coherence_us(&self) -> Option<f64> {
        let cache = self.workers.first()?.qpu.session_cache()?;
        Some(cache.coherence_us())
    }

    /// Resets every worker, the ladder rungs, the plan counters, and
    /// the ledger (new simulation; the fault *schedule* is unchanged).
    pub fn reset(&mut self) {
        for w in &mut self.workers {
            w.qpu.reset();
            w.breaker.reset();
            w.crashed_until_us = 0.0;
            w.reserved_us = 0.0;
        }
        self.classical.reset();
        if let Some(h) = self.hybrid.as_mut() {
            h.reset();
        }
        self.plan.reset();
        self.ledger = Ledger::default();
        self.job_seq = 0;
    }

    /// Workers currently allowed to take a job at `now_us` (repaired
    /// and breaker-permitted), with their projected queue waits —
    /// FIFO backlog *plus* reserved (batched-but-undispatched) work.
    fn eligible(&mut self, now_us: f64) -> Vec<(usize, f64)> {
        (0..self.workers.len())
            .filter_map(|i| Some((i, self.queue_depth_us(i, now_us)?)))
            .collect()
    }

    /// Projected wait of one worker at `now_us`: its FIFO backlog plus
    /// the service time of open batches the scheduler has assigned to
    /// it. `None` when the worker is crashed or breaker-blocked.
    ///
    /// This is *the* load estimate: admission control
    /// ([`ResilientServer::shed_wait_us`]), least-loaded placement, and
    /// the batch scheduler's close-time projection all read it, so a
    /// job a worker is batching is never invisible to any of them.
    pub fn queue_depth_us(&mut self, worker: usize, now_us: f64) -> Option<f64> {
        let w = &mut self.workers[worker];
        if w.crashed_until_us <= now_us && w.breaker.allows(now_us) {
            Some((w.qpu.busy_until_us() - now_us).max(0.0) + w.reserved_us)
        } else {
            None
        }
    }

    /// The pool's projected wait at `now_us`: the minimum
    /// [`ResilientServer::queue_depth_us`] over eligible workers, or
    /// `None` when no worker can take a job right now.
    pub fn projected_wait_us(&mut self, now_us: f64) -> Option<f64> {
        let waits = self.eligible(now_us).into_iter().map(|(_, w)| w);
        waits.reduce(f64::min)
    }

    /// The single shedding estimate admission control reads:
    /// `Some(projected wait)` when a job of
    /// `priority` must be shed at `now_us` (every healthy worker's
    /// projected wait — batching reservations included — exceeds the
    /// priority's limit), `None` when it may proceed. A pool with no
    /// eligible worker does not shed: the job proceeds into the retry/
    /// escalation machinery, which knows what to do about an empty
    /// pool.
    pub fn shed_wait_us(&mut self, now_us: f64, priority: Priority) -> Option<f64> {
        let limit = self.guardrails.shed.limit_us(priority)?;
        let wait = self.projected_wait_us(now_us)?;
        (wait > limit).then_some(wait)
    }

    /// Reserves `delta_us` of projected service on `worker` for an
    /// open (not yet dispatched) batch. The reservation is visible to
    /// every load estimate until released.
    pub fn reserve_batch_us(&mut self, worker: usize, delta_us: f64) {
        assert!(delta_us >= 0.0, "reservations only grow the backlog");
        self.workers[worker].reserved_us += delta_us;
    }

    /// Releases `delta_us` of reservation on `worker` (the batch was
    /// dispatched — its load now lives in the worker's real FIFO — or
    /// abandoned). Saturates at zero.
    pub fn release_batch_us(&mut self, worker: usize, delta_us: f64) {
        assert!(delta_us >= 0.0, "releases cannot be negative");
        let w = &mut self.workers[worker];
        w.reserved_us = (w.reserved_us - delta_us).max(0.0);
    }

    /// The lowest-index worker whose session cache holds a fresh
    /// `(key, hash)` entry at `now_us` — the cache-aware placement
    /// preference: dispatching there skips preprocessing + programming
    /// entirely. Placement preference only; dispatch still checks
    /// breaker/crash eligibility.
    pub fn cached_worker(&self, now_us: f64, key: usize, hash: u64) -> Option<usize> {
        self.workers
            .iter()
            .position(|w| w.qpu.has_cached_session(now_us, key, hash))
    }

    /// Service time of one combined batch on a pool worker (the
    /// workers are identical): `program` charges preprocessing +
    /// programming (a cache miss on the target). Zero for a pool with
    /// no worker, which never runs a QPU wave.
    pub fn batch_service_us(&self, problems: usize, logical_vars: usize, program: bool) -> f64 {
        self.workers.first().map_or(0.0, |w| {
            w.qpu
                .amortized_service_time_us(problems, logical_vars, program)
        })
    }

    /// Service time of one combined batch on the classical floor.
    pub fn classical_service_us(&self, problems: usize, users: usize) -> f64 {
        self.classical.service_time_us(problems, users)
    }

    /// When the classical floor's FIFO drains, µs — the cost-aware
    /// policy projects classical completion times from it.
    pub fn classical_busy_until_us(&self) -> f64 {
        self.classical.busy_until_us()
    }

    /// Picks the worker for an attempt at `now_us`: the least-loaded
    /// eligible worker (ties to the lowest index — deterministic).
    /// Warm retries prefer the previous worker (its chip still holds
    /// the programmed problem); cold retries prefer an *alternate*
    /// when one is eligible (the previous worker just failed).
    fn pick_worker(&mut self, now_us: f64, warm: bool, prev: Option<usize>) -> Option<usize> {
        let eligible = self.eligible(now_us);
        if eligible.is_empty() {
            return None;
        }
        if warm {
            if let Some(p) = prev {
                if eligible.iter().any(|&(i, _)| i == p) {
                    return Some(p);
                }
            }
        }
        let exclude_prev = match prev {
            Some(p) if !warm => eligible.iter().any(|&(i, _)| i != p),
            _ => false,
        };
        // `min_by` keeps ties on the lowest index: deterministic.
        eligible
            .into_iter()
            .filter(|&(i, _)| !(exclude_prev && Some(i) == prev))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite waits"))
            .map(|(i, _)| i)
    }

    /// Shape validation at admission: a frame with no problems or no
    /// logical variables is a classified error, not a degenerate
    /// service time.
    fn validate(job: &Job) -> Result<(), ServeError> {
        if job.problems == 0 {
            return Err(ServeError::InvalidJob("zero problems in frame"));
        }
        if job.logical_vars == 0 {
            return Err(ServeError::InvalidJob("zero logical variables"));
        }
        Ok(())
    }

    /// Submits one job at `now_us`; returns where and when it was
    /// served, or a classified [`ServeError`]. Updates the ledger
    /// either way. This is [`ResilientServer::admit`] followed by
    /// dispatching the job as a batch of one — the reference the
    /// scheduler's `Fifo` policy replays.
    pub fn submit(&mut self, now_us: f64, job: &Job) -> Result<Served, ServeError> {
        self.admit(now_us, job)?;
        self.dispatch_batch(now_us, job, job.problems, 1, None)
    }

    /// Admits one job into the brokered pipeline at `now_us` without
    /// serving it: validation and the shared shedding estimate run
    /// now (an invalid or shed job is a terminal, ledgered decision),
    /// an admitted job moves the ledger's `batched` in-flight gauge
    /// and *must* later be resolved by exactly one of
    /// [`ResilientServer::dispatch_batch`],
    /// [`ResilientServer::dispatch_batch_classical`], or
    /// [`ResilientServer::resolve_shed`].
    ///
    /// Admission and dispatch burn fault-plan job ids — one per terminal
    /// admission decision, one per dispatched batch — so a broker that
    /// dispatches every job as a batch of one replays
    /// [`ResilientServer::submit`]'s fault schedule bit for bit.
    pub fn admit(&mut self, now_us: f64, job: &Job) -> Result<(), ServeError> {
        self.ledger.submitted += 1;
        self.telemetry.counter_inc(
            "quamax_serve_submitted_total",
            &[
                ("direction", job.direction.name()),
                ("priority", job.priority.name()),
            ],
        );
        if let Err(e) = Self::validate(job) {
            self.job_seq += 1;
            self.ledger.failed += 1;
            return Err(e);
        }
        if let Some(wait) = self.shed_wait_us(now_us, job.priority) {
            self.job_seq += 1;
            self.ledger.shed += 1;
            self.telemetry.counter_inc(
                "quamax_serve_shed_total",
                &[("priority", job.priority.name())],
            );
            return Err(ServeError::Shed {
                projected_wait_us: wait,
            });
        }
        self.ledger.batched += 1;
        Ok(())
    }

    /// Resolves `count` previously admitted jobs as shed (a queue the
    /// scheduler decided to cut under backpressure after admission).
    pub fn resolve_shed(&mut self, count: u64) {
        assert!(
            self.ledger.batched >= count,
            "cannot shed more jobs than are in flight"
        );
        self.ledger.batched -= count;
        self.ledger.shed += count;
    }

    /// Dispatches a closed batch of `count` previously admitted jobs
    /// sharing one compiled problem (same cell, same channel hash) as
    /// a single combined frame of `problems` subcarrier problems:
    /// one fault-plan draw per attempt, one programming decision, the
    /// anneal waves tiled across the whole batch. `proto` carries the
    /// batch's shared coordinates; its `deadline_us` must be the
    /// *earliest member's* remaining slack, so deadline-funded retries
    /// never overdraw any member. `preferred` is the scheduler's
    /// cache-aware placement hint, honored on the first attempt when
    /// that worker is eligible.
    ///
    /// Every member completes when the batch completes. The ledger
    /// moves `count` jobs from the `batched` gauge to `completed` or
    /// `failed`.
    pub fn dispatch_batch(
        &mut self,
        now_us: f64,
        proto: &Job,
        problems: usize,
        count: u64,
        preferred: Option<usize>,
    ) -> Result<Served, ServeError> {
        assert!(count > 0, "a batch holds at least one job");
        assert!(
            self.ledger.batched >= count,
            "dispatching jobs that were never admitted"
        );
        self.ledger.batched -= count;
        match self.serve_attempts(now_us, proto, problems, preferred) {
            Ok(served) => {
                self.ledger.completed += count;
                Ok(served)
            }
            Err(e) => {
                self.ledger.failed += count;
                Err(e)
            }
        }
    }

    /// Dispatches a closed batch of `count` admitted jobs straight to
    /// the classical floor — the cost-aware policy's route for batches
    /// whose slack can afford CPU service at CPU prices, keeping the
    /// annealer pool for the tight tail.
    pub fn dispatch_batch_classical(
        &mut self,
        now_us: f64,
        proto: &Job,
        problems: usize,
        count: u64,
    ) -> Served {
        assert!(count > 0, "a batch holds at least one job");
        assert!(
            self.ledger.batched >= count,
            "dispatching jobs that were never admitted"
        );
        self.ledger.batched -= count;
        let done = self.classical.enqueue(now_us, problems, proto.users);
        self.ledger.completed += count;
        self.telemetry.counter_add(
            "quamax_serve_served_total",
            &[("rung", ServeRung::Classical.name())],
            count,
        );
        Served {
            done_us: done,
            attempts: 0,
            rung: ServeRung::Classical,
            worker: None,
        }
    }

    /// The retry/escalation loop behind
    /// [`ResilientServer::dispatch_batch`]: serves `problems` combined
    /// subcarrier problems of `job`'s shape. Burns one fault-plan job
    /// id. Ledger accounting is the caller's.
    fn serve_attempts(
        &mut self,
        now_us: f64,
        job: &Job,
        problems: usize,
        preferred: Option<usize>,
    ) -> Result<Served, ServeError> {
        let job_id = self.job_seq;
        self.job_seq += 1;

        let mut attempt: u32 = 1;
        let mut t = now_us;
        let mut warm = false;
        let mut prev: Option<usize> = None;
        let mut last_err = ServeError::WorkerUnavailable;
        loop {
            // Cache-aware placement: the scheduler's preferred worker
            // (its chip already programmed with this batch's problem)
            // wins the first attempt when eligible; retries fall back
            // to the standard warm/alternate routing.
            let picked = match preferred {
                Some(p) if attempt == 1 && self.eligible(t).iter().any(|&(i, _)| i == p) => Some(p),
                _ => self.pick_worker(t, warm, prev),
            };
            let Some(w) = picked else { break };
            let fault = self.plan.draw(w, job_id, attempt);
            let worker = &mut self.workers[w];
            let warm_fraction = self.guardrails.retry.warm_fraction;
            // This attempt's anneals on the worker's FIFO: a warm
            // reverse-anneal restart, or a cold (possibly cached) decode.
            let anneal = |qpu: &mut QpuServer| {
                if warm {
                    qpu.enqueue_warm_retry(t, problems, job.logical_vars, warm_fraction)
                } else {
                    qpu.enqueue(t, job.source, job.channel_hash, problems, job.logical_vars)
                }
            };
            match fault {
                None | Some(FaultClass::WorkerStall) => {
                    // The job runs to completion — a stall just lands
                    // it late (and holds the worker through the stall).
                    let mut done = anneal(&mut worker.qpu);
                    if fault.is_some() {
                        done = worker.qpu.occupy_us(done, self.plan.stall_us());
                    }
                    worker.breaker.on_success();
                    self.telemetry.counter_inc(
                        "quamax_serve_served_total",
                        &[("rung", ServeRung::Qpu.name())],
                    );
                    self.telemetry
                        .observe("quamax_serve_attempts", &[], f64::from(attempt));
                    return Ok(Served {
                        done_us: done,
                        attempts: attempt,
                        rung: ServeRung::Qpu,
                        worker: Some(w),
                    });
                }
                Some(class @ FaultClass::WorkerCrash) => {
                    // The dispatcher learns immediately; the worker is
                    // down for the repair interval. The job never ran,
                    // so a retry is cold and must use an alternate.
                    worker.crashed_until_us = t + self.plan.repair_us();
                    note_breaker_failure(&self.telemetry, &mut worker.breaker, t);
                    last_err = ServeError::Fault { class };
                    warm = false;
                }
                Some(class @ FaultClass::ProgrammingFailure) => {
                    // Fail fast: only the programming cycle is lost,
                    // nothing was annealed — the retry is cold.
                    let fail_at = worker
                        .qpu
                        .occupy_us(t, worker.qpu.overheads().programming_us);
                    note_breaker_failure(&self.telemetry, &mut worker.breaker, fail_at);
                    last_err = ServeError::Fault { class };
                    warm = false;
                    t = fail_at;
                }
                Some(class) => {
                    // Chain-break storm / ICE drift: the anneals ran
                    // (full service charged) but their quality is
                    // garbage. The best candidate survives, so the
                    // retry is a warm reverse-anneal restart.
                    debug_assert!(class.warm_restartable());
                    let fail_at = anneal(&mut worker.qpu);
                    note_breaker_failure(&self.telemetry, &mut worker.breaker, fail_at);
                    last_err = ServeError::Fault { class };
                    warm = true;
                    t = fail_at;
                }
            }
            // The attempt failed at time `t`. Fund a retry from the
            // remaining deadline slack, or leave the loop.
            prev = Some(w);
            let retry_cost = if warm {
                self.workers[w].qpu.warm_retry_time_us(
                    problems,
                    job.logical_vars,
                    self.guardrails.retry.warm_fraction,
                )
            } else {
                self.workers[w]
                    .qpu
                    .service_time_us(problems, job.logical_vars)
            };
            match self.guardrails.retry.fund_retry(
                attempt + 1,
                t - now_us,
                job.deadline_us,
                retry_cost,
                self.plan.seed() ^ job_id,
            ) {
                Some(backoff) => {
                    self.telemetry
                        .counter_inc("quamax_serve_retries_total", &[("outcome", "funded")]);
                    self.telemetry.counter_inc(
                        "quamax_serve_restarts_total",
                        &[("kind", if warm { "warm" } else { "cold" })],
                    );
                    t += backoff;
                    attempt += 1;
                }
                None => {
                    self.telemetry
                        .counter_inc("quamax_serve_retries_total", &[("outcome", "denied")]);
                    break;
                }
            }
        }

        // Retries exhausted (or no worker): walk down the ladder.
        if self.guardrails.escalate {
            let (done, rung) = match self.hybrid.as_mut() {
                Some(h) => (
                    h.enqueue(t, job.source, problems, job.users, job.logical_vars),
                    ServeRung::Hybrid,
                ),
                None => (
                    self.classical.enqueue(t, problems, job.users),
                    ServeRung::Classical,
                ),
            };
            self.telemetry
                .counter_inc("quamax_serve_served_total", &[("rung", rung.name())]);
            self.telemetry
                .observe("quamax_serve_attempts", &[], f64::from(attempt));
            return Ok(Served {
                done_us: done,
                attempts: attempt,
                rung,
                worker: None,
            });
        }
        Err(last_err)
    }
}

/// Records the breaker failure and, when it tripped the breaker from
/// closed to open, bumps the transition counter. Uses the pure-read
/// [`CircuitBreaker::trips`] delta — never an extra
/// [`CircuitBreaker::state`] call, which would advance open → half-open
/// and perturb routing when telemetry is on.
fn note_breaker_failure(telemetry: &Telemetry, breaker: &mut CircuitBreaker, at_us: f64) {
    let before = breaker.trips();
    breaker.on_failure(at_us);
    if breaker.trips() > before {
        telemetry.counter_inc("quamax_breaker_transitions_total", &[("to", "open")]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRates;
    use crate::qpu::QpuOverheads;

    fn qpu() -> QpuServer {
        QpuServer::new(QpuOverheads::integrated(), 1.0, 10)
    }

    fn classical() -> CpuPool {
        CpuPool::new(
            8,
            CpuPolicy::ZeroForcing {
                vectors_per_channel: 1,
            },
        )
    }

    fn job(deadline_us: f64) -> Job {
        Job {
            source: 0,
            direction: JobDirection::Uplink,
            channel_hash: None,
            problems: 1,
            logical_vars: 16,
            users: 16,
            deadline_us,
            priority: Priority::Normal,
        }
    }

    #[test]
    fn quiet_plan_serves_like_a_plain_qpu() {
        let mut srv = ResilientServer::new(
            vec![qpu()],
            classical(),
            FaultPlan::quiet(1),
            Guardrails::on(),
        );
        let mut plain = qpu();
        for k in 0..20 {
            let at = 100.0 * k as f64;
            let served = srv.submit(at, &job(1e6)).unwrap();
            let expect = plain.enqueue(at, 0, None, 1, 16);
            assert_eq!(served.done_us.to_bits(), expect.to_bits(), "job {k}");
            assert_eq!(served.attempts, 1);
            assert_eq!(served.rung, ServeRung::Qpu);
            assert_eq!(served.worker, Some(0));
        }
        let ledger = srv.ledger();
        assert_eq!(ledger.submitted, 20);
        assert_eq!(ledger.completed, 20);
        assert!(ledger.conserved());
        assert_eq!(srv.breaker_trips(), 0);
    }

    #[test]
    fn invalid_jobs_are_classified_and_ledgered() {
        let mut srv = ResilientServer::new(
            vec![qpu()],
            classical(),
            FaultPlan::quiet(1),
            Guardrails::on(),
        );
        let mut bad = job(1e6);
        bad.problems = 0;
        assert_eq!(
            srv.submit(0.0, &bad),
            Err(ServeError::InvalidJob("zero problems in frame"))
        );
        bad.problems = 1;
        bad.logical_vars = 0;
        assert_eq!(
            srv.submit(0.0, &bad),
            Err(ServeError::InvalidJob("zero logical variables"))
        );
        let ledger = srv.ledger();
        assert_eq!(ledger.failed, 2);
        assert!(ledger.conserved());
    }

    /// A plan whose rates make *every* draw fire as `class`.
    fn always(class: FaultClass) -> FaultPlan {
        let mut r = FaultRates::none();
        match class {
            FaultClass::ChainBreakStorm => r.chain_break_storm = 1.0,
            FaultClass::IceDrift => r.ice_drift = 1.0,
            FaultClass::ProgrammingFailure => r.programming_failure = 1.0,
            FaultClass::WorkerStall => r.worker_stall = 1.0,
            FaultClass::WorkerCrash => r.worker_crash = 1.0,
        }
        FaultPlan::new(5, r)
    }

    #[test]
    fn stalls_complete_late_but_complete() {
        let mut srv = ResilientServer::new(
            vec![qpu()],
            classical(),
            always(FaultClass::WorkerStall).with_stall_us(500.0),
            Guardrails::off(),
        );
        let served = srv.submit(0.0, &job(1e6)).unwrap();
        let plain = qpu().enqueue(0.0, 0, None, 1, 16);
        assert!((served.done_us - plain - 500.0).abs() < 1e-9);
        assert!(srv.ledger().conserved());
        assert_eq!(srv.fault_plan().counters().worker_stalls, 1);
    }

    #[test]
    fn unguarded_faults_kill_their_jobs() {
        let mut srv = ResilientServer::new(
            vec![qpu()],
            classical(),
            always(FaultClass::IceDrift),
            Guardrails::off(),
        );
        assert_eq!(
            srv.submit(0.0, &job(1e6)),
            Err(ServeError::Fault {
                class: FaultClass::IceDrift
            })
        );
        let ledger = srv.ledger();
        assert_eq!((ledger.failed, ledger.completed), (1, 0));
        assert!(ledger.conserved());
    }

    #[test]
    fn guarded_jobs_escalate_to_the_classical_floor() {
        // Every QPU attempt drifts; guardrails exhaust the retries and
        // the classical pool answers.
        let mut srv = ResilientServer::new(
            vec![qpu(), qpu()],
            classical(),
            always(FaultClass::IceDrift),
            Guardrails::on(),
        );
        let served = srv.submit(0.0, &job(1e9)).unwrap();
        assert_eq!(served.rung, ServeRung::Classical);
        assert_eq!(served.worker, None);
        assert_eq!(served.attempts, RetryPolicy::standard().max_attempts);
        assert!(srv.ledger().conserved());
        assert_eq!(srv.ledger().completed, 1);
    }

    #[test]
    fn hybrid_rung_precedes_classical() {
        let hybrid = HybridServer::new(classical(), qpu(), 0.1);
        let mut srv = ResilientServer::new(
            vec![qpu()],
            classical(),
            always(FaultClass::ProgrammingFailure),
            Guardrails::on(),
        )
        .with_hybrid(hybrid);
        let served = srv.submit(0.0, &job(1e9)).unwrap();
        assert_eq!(served.rung, ServeRung::Hybrid);
    }

    #[test]
    fn crash_downs_the_worker_and_retries_route_around_it() {
        // Worker picked first crashes on its first draw; the retry must
        // land on the other worker. Keyed draws: (w, job 0, attempt 1)
        // crashes for every worker under `always`, so attempt 2 also
        // crashes... instead use a plan where only attempt 1 fires.
        let mut plan = always(FaultClass::WorkerCrash);
        plan = plan.with_repair_us(1_000.0);
        let mut srv = ResilientServer::new(
            vec![qpu(), qpu()],
            classical(),
            plan,
            Guardrails {
                escalate: false,
                ..Guardrails::on()
            },
        );
        // Every attempt crashes its worker; after both workers are
        // down, no worker is available and (escalation off) the job
        // fails classified.
        let err = srv.submit(0.0, &job(1e9)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Fault {
                class: FaultClass::WorkerCrash
            } | ServeError::WorkerUnavailable
        ));
        // Both workers are down until repair.
        assert!(srv.eligible(10.0).is_empty());
        assert_eq!(srv.eligible(2_000.0).len(), 2, "repair restores both");
        assert!(srv.ledger().conserved());
    }

    #[test]
    fn breaker_opens_after_threshold_and_sheds_traffic_to_floor() {
        let mut srv = ResilientServer::new(
            vec![qpu()],
            classical(),
            always(FaultClass::ProgrammingFailure),
            Guardrails {
                retry: RetryPolicy::disabled(),
                ..Guardrails::on()
            },
        );
        // Threshold 3: three one-attempt failures trip the breaker.
        for k in 0..3 {
            let served = srv.submit(k as f64, &job(1e9)).unwrap();
            assert_eq!(served.rung, ServeRung::Classical, "job {k} escalates");
        }
        assert_eq!(srv.breaker_trips(), 1);
        // With the breaker open, the next job never touches the QPU:
        // no new fault draw fires.
        let before = srv.fault_plan().counters().total();
        let served = srv.submit(3.0, &job(1e9)).unwrap();
        assert_eq!(served.rung, ServeRung::Classical);
        assert_eq!(srv.fault_plan().counters().total(), before);
    }

    #[test]
    fn backpressure_sheds_low_priority_first_and_records_it() {
        // Saturate the single worker, then submit one job per class.
        let slow = QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 50);
        let mut srv = ResilientServer::new(
            vec![slow],
            classical(),
            FaultPlan::quiet(1),
            Guardrails::on(),
        );
        let mut high = job(1e9);
        high.priority = Priority::High;
        for k in 0..20 {
            let _ = srv.submit(k as f64, &high).unwrap();
        }
        let mut low = job(1e9);
        low.priority = Priority::Low;
        let shed = srv.submit(20.0, &low).unwrap_err();
        assert!(matches!(shed, ServeError::Shed { projected_wait_us } if projected_wait_us > 0.0));
        let kept = srv.submit(21.0, &high).unwrap();
        assert_eq!(kept.rung, ServeRung::Qpu, "high priority is never shed");
        let ledger = srv.ledger();
        assert_eq!(ledger.shed, 1);
        assert!(ledger.conserved());
    }

    #[test]
    fn warm_retry_is_cheaper_than_a_cold_second_attempt() {
        // One storm, then success: the retry reverse-anneals warm. With
        // jitter off the completion time is exactly first-failure +
        // backoff + warm service.
        let mut rates = FaultRates::none();
        rates.chain_break_storm = 0.6;
        let plan = FaultPlan::new(9, rates);
        // Find a job id whose attempt 1 faults and attempt 2 does not.
        let mut probe = None;
        for j in 0..100 {
            if plan.peek(0, j, 1).is_some() && plan.peek(0, j, 2).is_none() {
                probe = Some(j);
                break;
            }
        }
        let probe = probe.expect("a storm-then-clear job exists");
        let guard = Guardrails {
            retry: RetryPolicy {
                jitter_fraction: 0.0,
                ..RetryPolicy::standard()
            },
            ..Guardrails::on()
        };
        let mut srv = ResilientServer::new(vec![qpu()], classical(), plan, guard);
        // Burn job ids up to the probe (deadline 0 funds nothing, so
        // each is a single attempt; escalation completes them).
        for _ in 0..probe {
            let _ = srv.submit(0.0, &job(0.0));
        }
        let t0 = srv.workers[0].qpu.busy_until_us();
        let served = srv.submit(t0, &job(1e9)).unwrap();
        assert_eq!(served.attempts, 2);
        let cold = qpu().service_time_us(1, 16);
        let warm = qpu().warm_retry_time_us(1, 16, guard.retry.warm_fraction);
        let expect = t0 + cold + 20.0 + warm;
        assert!(
            (served.done_us - expect).abs() < 1e-9,
            "done {} expect {expect}",
            served.done_us
        );
    }

    #[test]
    fn reset_clears_state_but_not_the_schedule() {
        let mut srv = ResilientServer::new(
            vec![qpu()],
            classical(),
            FaultPlan::new(3, FaultRates::uniform(0.1)),
            Guardrails::on(),
        );
        let mut first = Vec::new();
        for k in 0..50 {
            first.push(srv.submit(100.0 * k as f64, &job(1e9)).map(|s| s.done_us));
        }
        let ledger = srv.ledger();
        srv.reset();
        assert_eq!(srv.ledger(), Ledger::default());
        let mut again = Vec::new();
        for k in 0..50 {
            again.push(srv.submit(100.0 * k as f64, &job(1e9)).map(|s| s.done_us));
        }
        assert_eq!(first, again, "same schedule after reset");
        assert_eq!(ledger, srv.ledger());
    }

    #[test]
    fn telemetry_never_perturbs_serving_and_counts_the_right_events() {
        // Same faulty workload with telemetry off and on: every outcome
        // (including completion-time bits and the fault schedule) must
        // match, because recording may observe the serve path but never
        // feed back into it.
        let plan = || FaultPlan::new(3, FaultRates::uniform(0.1));
        let run = |telemetry: Telemetry| {
            let mut srv =
                ResilientServer::new(vec![qpu(), qpu()], classical(), plan(), Guardrails::on())
                    .with_telemetry(telemetry);
            let mut outcomes = Vec::new();
            for k in 0..200 {
                outcomes.push(
                    srv.submit(40.0 * k as f64, &job(1e4))
                        .map(|s| (s.done_us.to_bits(), s.attempts, s.rung, s.worker)),
                );
            }
            srv.publish_telemetry();
            (outcomes, srv.ledger(), srv.breaker_trips())
        };

        let t = Telemetry::enabled();
        let (plain, plain_ledger, plain_trips) = run(Telemetry::disabled());
        let (observed, ledger, trips) = run(t.clone());
        assert_eq!(plain, observed, "telemetry changed a serve outcome");
        assert_eq!(plain_ledger, ledger);
        assert_eq!(plain_trips, trips);

        let snap = t.snapshot();
        assert_eq!(
            snap.counter_total("quamax_serve_submitted_total"),
            ledger.submitted
        );
        assert_eq!(
            snap.counter("quamax_serve_ledger_total", &[("state", "submitted")]),
            Some(ledger.submitted)
        );
        let served = snap.counter_total("quamax_serve_served_total");
        assert_eq!(served, ledger.completed);
        assert_eq!(snap.counter_total("quamax_serve_shed_total"), ledger.shed);
        assert_eq!(
            snap.counter_total("quamax_breaker_transitions_total"),
            trips
        );
        // Every completed job recorded its attempt count.
        let attempts = snap
            .histogram("quamax_serve_attempts", &[])
            .expect("attempts histogram");
        assert_eq!(attempts.count, ledger.completed);
        // Funded retries and the serve outcomes agree: each attempt
        // beyond the first on a completed job was funded.
        let funded = snap
            .counter("quamax_serve_retries_total", &[("outcome", "funded")])
            .unwrap_or(0);
        let extra_attempts: u64 = observed
            .iter()
            .filter_map(|o| o.as_ref().ok())
            .map(|&(_, attempts, _, _)| u64::from(attempts - 1))
            .sum();
        assert!(
            funded >= extra_attempts,
            "funded {funded} < extra attempts {extra_attempts}"
        );
    }
}
