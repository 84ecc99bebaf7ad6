//! The deadline-aware batch scheduler: the brain between the
//! [`Broker`]'s per-cell queues and the [`ResilientServer`] pool.
//!
//! The scheduler exploits the central timing fact of annealer serving:
//! a 16-variable detection problem tiles ~24× onto one chip
//! ([`parallelization`]), so a per-user job with one subcarrier
//! problem wastes ~96% of an anneal wave — and a full programming
//! cycle — that a coalesced batch would amortize. Jobs sharing
//! `(cell, channel_hash)` were detected against the same channel and
//! compile into one QPU problem, so the scheduler keeps one *open
//! batch* per coalescing key and dispatches it when either
//!
//! 1. the batch is **full** ([`SchedConfig::max_batch`] members), or
//! 2. the **batch-closing rule** fires: the earliest member's
//!    deadline slack, minus the batch's projected service time
//!    (queue wait on the reserved worker + tiled anneal waves), hits
//!    zero. Waiting any longer would convert batching gain into a
//!    deadline miss; the projection is conservative (today's measured
//!    wait, which only drains with time), so a rule-closed batch never
//!    *projects* past its earliest deadline while slack was available.
//!
//! Open batches *reserve* their projected service on a preferred
//! worker ([`ResilientServer::reserve_batch_us`]) so placement,
//! shedding, and other batches' close rules all see load that is
//! about to exist. Placement is cache-aware: a worker whose
//! [`SessionCache`] holds the batch's `(cell, hash)` session skips
//! preprocessing + programming entirely and is preferred both for
//! reservation and dispatch.
//!
//! Three policies share this machinery ([`Policy`]): `Fifo` dispatches
//! every job as a batch of one at arrival, replaying
//! [`ResilientServer::submit`] (admit, then dispatch a batch of one)
//! bit for bit — a tested contract, and how the simulation runs its
//! plain-server configurations; `DeadlineBatch` runs the closing rule;
//! `CostAware` additionally
//! consults the [`CostModel`] at close time and routes a batch to the
//! classical floor when CPU service is cheaper *and* still meets the
//! earliest member deadline — spending annealer time only on the
//! deadline-tight tail.
//!
//! [`Broker`]: crate::broker::Broker
//! [`parallelization`]: quamax_chimera::parallelization
//! [`SessionCache`]: crate::qpu::SessionCache
//! [`ResilientServer`]: crate::serve::ResilientServer
//! [`ResilientServer::submit`]: crate::serve::ResilientServer::submit
//! [`ResilientServer::reserve_batch_us`]: crate::serve::ResilientServer::reserve_batch_us
//! [`CostModel`]: crate::cost::CostModel

use crate::broker::{Broker, JobId, JobState, UserJob};
use crate::cost::{CostModel, DecodeCost};
use crate::fault::ServeError;
use crate::qpu::JobDirection;
use crate::serve::{Job, Priority, ResilientServer, ServeRung};
use quamax_telemetry::Telemetry;

/// Close-rule comparisons tolerate this much float noise, µs.
const EPS: f64 = 1e-9;

/// The scheduling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// No batching: every job dispatches alone at arrival, in arrival
    /// order — the baseline, bit-identical to
    /// [`ResilientServer::submit`] per job.
    Fifo,
    /// Deadline-aware batching: coalesce per `(cell, hash)`, dispatch
    /// at full or at the closing rule.
    DeadlineBatch,
    /// Deadline-aware batching plus cost routing: a closed batch goes
    /// to the classical floor when that is cheaper and still meets the
    /// earliest member deadline.
    CostAware,
}

/// Scheduler configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchedConfig {
    /// The policy.
    pub policy: Policy,
    /// Members per batch cap — the chip's parallel factor is the
    /// natural choice (filling one anneal wave exactly).
    pub max_batch: usize,
    /// The price book (bills every policy; routes only `CostAware`).
    pub cost: CostModel,
}

impl SchedConfig {
    /// A config over `policy` and `max_batch` with the NextG baseline
    /// price book.
    ///
    /// # Panics
    /// Panics when `max_batch` is zero.
    pub fn new(policy: Policy, max_batch: usize) -> Self {
        assert!(max_batch > 0, "a batch holds at least one job");
        SchedConfig {
            policy,
            max_batch,
            cost: CostModel::nextg_baseline(),
        }
    }
}

/// Why a batch left the open set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CloseTrigger {
    /// Reached [`SchedConfig::max_batch`] members.
    Full,
    /// The closing rule fired (slack minus projected service ≤ 0).
    Slack,
    /// End-of-run drain.
    Drain,
}

impl CloseTrigger {
    /// The metric-label spelling of this trigger.
    pub fn name(self) -> &'static str {
        match self {
            CloseTrigger::Full => "full",
            CloseTrigger::Slack => "slack",
            CloseTrigger::Drain => "drain",
        }
    }
}

/// One dispatched batch, as recorded for the dispatch log.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DispatchRecord {
    /// Dispatch time, µs.
    pub close_us: f64,
    /// Members in the batch.
    pub occupancy: usize,
    /// The earliest member's absolute deadline, µs.
    pub earliest_deadline_us: f64,
    /// Projected completion at close (wait + service), µs.
    pub projected_done_us: f64,
    /// `earliest_deadline_us − projected_done_us` at close.
    pub slack_at_close_us: f64,
    /// Slack the batch had when it was opened — negative means the
    /// deadline was unmeetable from the start (no rule saves it).
    pub open_slack_us: f64,
    /// What closed it.
    pub trigger: CloseTrigger,
    /// The rung that served it.
    pub rung: ServeRung,
}

/// One job's terminal record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobOutcome {
    /// The broker's handle.
    pub id: JobId,
    /// Originating cell.
    pub cell: usize,
    /// Arrival time, µs.
    pub arrival_us: f64,
    /// Completion time, µs (infinite for shed/failed jobs).
    pub done_us: f64,
    /// `done_us − arrival_us` (infinite for shed/failed jobs).
    pub latency_us: f64,
    /// Whether the job finished by its absolute deadline.
    pub met_deadline: bool,
    /// Terminal lifecycle state.
    pub state: JobState,
    /// The rung that served it (`None` for shed/failed jobs).
    pub rung: Option<ServeRung>,
    /// QPU attempts its batch consumed.
    pub attempts: u32,
    /// This job's share of its batch's bill.
    pub cost: DecodeCost,
}

/// Everything one scheduling run produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScheduleReport {
    /// Per-job terminal records, in submission ([`JobId`]) order.
    pub outcomes: Vec<JobOutcome>,
    /// The dispatch log, in dispatch order.
    pub dispatches: Vec<DispatchRecord>,
    /// The run's total bill.
    pub total_cost: DecodeCost,
}

impl ScheduleReport {
    /// Fraction of jobs meeting their deadline (shed/failed = missed).
    pub fn deadline_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.met_deadline).count() as f64 / self.outcomes.len() as f64
    }

    /// Mean members per dispatched batch.
    pub fn mean_occupancy(&self) -> f64 {
        if self.dispatches.is_empty() {
            return 0.0;
        }
        self.dispatches
            .iter()
            .map(|d| d.occupancy as f64)
            .sum::<f64>()
            / self.dispatches.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of *served* job latency, µs
    /// (nearest-rank); 0 when nothing was served.
    pub fn latency_quantile_us(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let mut served: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.state == JobState::Completed)
            .map(|o| o.latency_us)
            .collect();
        if served.is_empty() {
            return 0.0;
        }
        served.sort_by(f64::total_cmp);
        let idx = ((served.len() - 1) as f64 * q).round() as usize;
        served[idx]
    }

    /// Completed jobs.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.state == JobState::Completed)
            .count()
    }

    /// Shed jobs.
    pub fn shed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.state == JobState::Shed)
            .count()
    }

    /// Failed jobs.
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.state == JobState::Failed)
            .count()
    }

    /// Dollars per completed decode (0 when nothing completed).
    pub fn usd_per_decode(&self) -> f64 {
        let n = self.completed();
        if n == 0 {
            return 0.0;
        }
        self.total_cost.usd / n as f64
    }

    /// Joules per completed decode (0 when nothing completed).
    pub fn joules_per_decode(&self) -> f64 {
        let n = self.completed();
        if n == 0 {
            return 0.0;
        }
        self.total_cost.joules / n as f64
    }
}

/// An open batch: one coalescing key's accumulating members.
#[derive(Clone, Debug)]
struct OpenBatch {
    cell: usize,
    /// Uplink or downlink — batches never mix directions: a detection
    /// batch and a precoding batch program different problems even
    /// from the same channel.
    direction: JobDirection,
    hash: u64,
    members: Vec<JobId>,
    /// Combined subcarrier problems.
    problems: usize,
    logical_vars: usize,
    users: usize,
    /// The strictest member priority (a batch is as urgent as its most
    /// urgent member).
    priority: Priority,
    /// The earliest member's absolute deadline, µs.
    earliest_deadline_us: f64,
    /// `(worker, reserved µs)` — the projected service currently
    /// reserved on the preferred worker.
    reserve: Option<(usize, f64)>,
    /// Slack at open time (for the dispatch log).
    open_slack_us: f64,
}

/// `High > Normal > Low`.
fn stricter(a: Priority, b: Priority) -> Priority {
    let rank = |p: Priority| match p {
        Priority::High => 2,
        Priority::Normal => 1,
        Priority::Low => 0,
    };
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

/// The serving-layer view of a broker job (admission shape).
fn admission_job(j: &UserJob) -> Job {
    Job {
        source: j.cell,
        direction: j.direction,
        channel_hash: Some(j.channel_hash),
        problems: j.problems,
        logical_vars: j.logical_vars,
        users: j.users,
        deadline_us: j.deadline_us,
        priority: j.priority,
    }
}

/// The deadline-aware batch scheduler.
pub struct BatchScheduler {
    config: SchedConfig,
    open: Vec<OpenBatch>,
    /// Batch/queue metrics sink. Recording observes scheduling
    /// decisions but never feeds back into them — close times,
    /// placement, and routing are identical with telemetry on or off.
    telemetry: Telemetry,
}

impl BatchScheduler {
    /// A scheduler over `config`.
    pub fn new(config: SchedConfig) -> Self {
        assert!(config.max_batch > 0, "a batch holds at least one job");
        BatchScheduler {
            config,
            open: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle ([`SchedConfig`] is `Copy`, so the
    /// handle rides the scheduler itself, builder-style).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Runs `arrivals` (any order; sorted by arrival time internally)
    /// through `broker` admission and batched dispatch onto `server`,
    /// draining every open batch before returning. The returned
    /// report's outcomes are in submission order; the broker ends
    /// [`Broker::drained`] and the server ledger's in-flight gauge
    /// ends at zero.
    pub fn run(
        &mut self,
        server: &mut ResilientServer,
        broker: &mut Broker,
        mut arrivals: Vec<UserJob>,
    ) -> ScheduleReport {
        arrivals.sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us));
        let mut report = ScheduleReport::default();
        let mut now = 0.0_f64;
        let mut i = 0;
        while i < arrivals.len() || !self.open.is_empty() {
            let next_arrival = arrivals.get(i).map(|j| j.arrival_us);
            let next_close = self.next_close_us(server, now);
            match (next_arrival, next_close) {
                // Ties close before ingesting: a job must not join a
                // batch whose slack just hit zero (it would push the
                // projection past the earliest deadline).
                (Some(a), Some(c)) if c <= a => {
                    now = now.max(c);
                    self.dispatch_due(server, broker, now, &mut report);
                }
                (None, Some(c)) => {
                    now = now.max(c);
                    self.dispatch_due(server, broker, now, &mut report);
                }
                (Some(a), _) => {
                    now = now.max(a);
                    let job = arrivals[i];
                    i += 1;
                    self.ingest(server, broker, job, &mut report);
                    self.telemetry.observe(
                        "quamax_sched_open_batches",
                        &[],
                        self.open.len() as f64,
                    );
                }
                (None, None) => break,
            }
        }
        // Drain: dispatch leftovers at their close times (or now).
        while let Some(idx) = self.next_open_index(server, now) {
            let c = Self::close_us(server, now, &self.open[idx]);
            now = now.max(c);
            let batch = self.open.swap_remove(idx);
            self.dispatch(server, broker, now, batch, CloseTrigger::Drain, &mut report);
        }
        report.outcomes.sort_by_key(|o| o.id);
        report
    }

    /// Index of the open batch with the earliest close time.
    fn next_open_index(&self, server: &mut ResilientServer, now: f64) -> Option<usize> {
        (0..self.open.len()).min_by(|&a, &b| {
            Self::close_us(server, now, &self.open[a]).total_cmp(&Self::close_us(
                server,
                now,
                &self.open[b],
            ))
        })
    }

    /// The earliest close time over open batches at `now`.
    fn next_close_us(&self, server: &mut ResilientServer, now: f64) -> Option<f64> {
        self.open
            .iter()
            .map(|b| Self::close_us(server, now, b))
            .min_by(f64::total_cmp)
    }

    /// The batch-closing rule: the time at which `b`'s earliest
    /// deadline slack minus its projected service hits zero, evaluated
    /// with the wait measured *now*. Queue wait only drains as time
    /// advances, so this is conservative: re-evaluated at the returned
    /// time it can move later (the event loop just re-arms), but a
    /// batch is never closed *after* its projection misses.
    fn close_us(server: &mut ResilientServer, now: f64, b: &OpenBatch) -> f64 {
        b.earliest_deadline_us - Self::projected_service_us(server, now, b)
    }

    /// Projected wait + service for `b` dispatched at `now`: the
    /// reserved worker's queue depth (its own reservation excluded —
    /// a batch does not wait behind itself) plus tiled anneal waves,
    /// charging programming unless a worker holds the session.
    fn projected_service_us(server: &mut ResilientServer, now: f64, b: &OpenBatch) -> f64 {
        let program = server.cached_worker(now, b.cell, b.hash).is_none();
        let service = server.batch_service_us(b.problems, b.logical_vars, program);
        let wait = match b.reserve {
            Some((w, own)) => server.queue_depth_us(w, now).map(|d| (d - own).max(0.0)),
            None => server.projected_wait_us(now),
        }
        .unwrap_or(0.0);
        wait + service
    }

    /// Ingests one arrival: broker submission, shared admission
    /// control, then policy routing.
    fn ingest(
        &mut self,
        server: &mut ResilientServer,
        broker: &mut Broker,
        job: UserJob,
        report: &mut ScheduleReport,
    ) {
        let t = job.arrival_us;
        let id = broker.submit(job);
        let popped = broker.pop_queued(job.cell).expect("just queued");
        debug_assert_eq!(popped, id, "scheduler keeps cell queues drained");

        match server.admit(t, &admission_job(&job)) {
            Err(ServeError::Shed { .. }) => {
                broker.transition(id, JobState::Shed);
                report
                    .outcomes
                    .push(Self::lost_outcome(id, &job, JobState::Shed));
                return;
            }
            Err(_) => {
                broker.transition(id, JobState::Failed);
                report
                    .outcomes
                    .push(Self::lost_outcome(id, &job, JobState::Failed));
                return;
            }
            Ok(()) => {}
        }
        broker.transition(id, JobState::Batched);

        if self.config.policy == Policy::Fifo {
            let batch = self.open_batch(server, t, id, &job);
            self.dispatch(server, broker, t, batch, CloseTrigger::Full, report);
            return;
        }
        // Coalescing key: same cell, same direction, same channel
        // hash, and the same problem shape — jobs of a different
        // direction or user count/modulation compile to a different
        // Ising problem and never share a batch.
        match self.open.iter().position(|b| {
            b.cell == job.cell
                && b.direction == job.direction
                && b.hash == job.channel_hash
                && b.logical_vars == job.logical_vars
                && b.users == job.users
        }) {
            Some(idx) => self.join_batch(server, idx, id, &job),
            None => {
                let b = self.open_batch(server, t, id, &job);
                self.open.push(b);
            }
        }
        let idx = self
            .open
            .iter()
            .position(|b| b.members.contains(&id))
            .expect("the job just joined an open batch");
        if self.open[idx].members.len() >= self.config.max_batch {
            let batch = self.open.swap_remove(idx);
            self.dispatch(server, broker, t, batch, CloseTrigger::Full, report);
        }
    }

    /// A fresh open batch seeded with `job`, its projected service
    /// reserved on the preferred worker (cache-holder first, then the
    /// least-loaded eligible worker).
    fn open_batch(
        &self,
        server: &mut ResilientServer,
        now: f64,
        id: JobId,
        job: &UserJob,
    ) -> OpenBatch {
        let service = server.batch_service_us(job.problems, job.logical_vars, true);
        let worker = server
            .cached_worker(now, job.cell, job.channel_hash)
            .or_else(|| {
                (0..server.num_workers())
                    .filter_map(|w| server.queue_depth_us(w, now).map(|d| (w, d)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(w, _)| w)
            });
        if let Some(w) = worker {
            server.reserve_batch_us(w, service);
            self.telemetry
                .observe("quamax_sched_reservation_us", &[], service);
        }
        let mut b = OpenBatch {
            cell: job.cell,
            direction: job.direction,
            hash: job.channel_hash,
            members: vec![id],
            problems: job.problems,
            logical_vars: job.logical_vars,
            users: job.users,
            priority: job.priority,
            earliest_deadline_us: job.absolute_deadline_us(),
            reserve: worker.map(|w| (w, service)),
            open_slack_us: 0.0,
        };
        b.open_slack_us =
            b.earliest_deadline_us - now - Self::projected_service_us(server, now, &b);
        b
    }

    /// Adds `job` to open batch `idx`, growing its reservation by the
    /// service delta.
    fn join_batch(&mut self, server: &mut ResilientServer, idx: usize, id: JobId, job: &UserJob) {
        let b = &mut self.open[idx];
        b.members.push(id);
        b.problems += job.problems;
        b.users = b.users.max(job.users);
        b.priority = stricter(b.priority, job.priority);
        b.earliest_deadline_us = b.earliest_deadline_us.min(job.absolute_deadline_us());
        if let Some((w, own)) = b.reserve {
            let service = server.batch_service_us(b.problems, b.logical_vars, true);
            let delta = (service - own).max(0.0);
            server.reserve_batch_us(w, delta);
            b.reserve = Some((w, own + delta));
            self.telemetry
                .observe("quamax_sched_reservation_us", &[], delta);
        }
    }

    /// Dispatches every open batch whose close time has arrived.
    fn dispatch_due(
        &mut self,
        server: &mut ResilientServer,
        broker: &mut Broker,
        now: f64,
        report: &mut ScheduleReport,
    ) {
        while let Some(idx) =
            (0..self.open.len()).find(|&i| Self::close_us(server, now, &self.open[i]) <= now + EPS)
        {
            let batch = self.open.swap_remove(idx);
            self.dispatch(server, broker, now, batch, CloseTrigger::Slack, report);
        }
    }

    /// Dispatches `batch` at `now`: releases its reservation, routes
    /// (cost-aware policies may take the classical floor), serves, and
    /// records member outcomes plus the dispatch-log row.
    fn dispatch(
        &mut self,
        server: &mut ResilientServer,
        broker: &mut Broker,
        now: f64,
        batch: OpenBatch,
        trigger: CloseTrigger,
        report: &mut ScheduleReport,
    ) {
        // Project before releasing: `projected_service_us` nets the
        // batch's own reservation out of the worker's queue depth, so
        // it must still be reserved here or the wait is undercounted.
        let count = batch.members.len() as u64;
        let projected_done_us = now + Self::projected_service_us(server, now, &batch);
        self.telemetry
            .counter_inc("quamax_sched_batches_total", &[("trigger", trigger.name())]);
        self.telemetry
            .observe("quamax_sched_batch_occupancy", &[], count as f64);
        self.telemetry.observe(
            "quamax_sched_slack_at_close_us",
            &[],
            batch.earliest_deadline_us - projected_done_us,
        );
        if let Some((w, own)) = batch.reserve {
            server.release_batch_us(w, own);
        }
        for &id in &batch.members {
            broker.transition(id, JobState::Running);
        }

        // Cost routing: take the classical floor when it is cheaper
        // and its projected completion still meets the earliest member
        // deadline.
        //
        // Cache-aware placement is a batching-policy feature: Fifo must
        // replay `ResilientServer::submit` exactly, which dispatches
        // with no placement hint (least-loaded routing), so Fifo never
        // steers toward the cache holder.
        let cached = server.cached_worker(now, batch.cell, batch.hash);
        let preferred = match self.config.policy {
            Policy::Fifo => None,
            Policy::DeadlineBatch | Policy::CostAware => cached,
        };
        let program = cached.is_none();
        let qpu_service = server.batch_service_us(batch.problems, batch.logical_vars, program);
        let cpu_service = server.classical_service_us(batch.problems, batch.users);
        let take_floor = self.config.policy == Policy::CostAware && {
            let cpu_done = now.max(server.classical_busy_until_us()) + cpu_service;
            let cheaper = self
                .config
                .cost
                .rung_cost(ServeRung::Classical, cpu_service)
                .usd
                < self.config.cost.rung_cost(ServeRung::Qpu, qpu_service).usd;
            cheaper && cpu_done <= batch.earliest_deadline_us
        };

        let proto = Job {
            source: batch.cell,
            direction: batch.direction,
            channel_hash: Some(batch.hash),
            problems: batch.problems,
            logical_vars: batch.logical_vars,
            users: batch.users,
            deadline_us: batch.earliest_deadline_us - now,
            priority: batch.priority,
        };
        let result = if take_floor {
            Ok(server.dispatch_batch_classical(now, &proto, batch.problems, count))
        } else {
            server.dispatch_batch(now, &proto, batch.problems, count, preferred)
        };

        match result {
            Ok(served) => {
                let billed_service = match served.rung {
                    ServeRung::Qpu => qpu_service,
                    ServeRung::Hybrid | ServeRung::Classical => cpu_service,
                };
                let bill = self.config.cost.rung_cost(served.rung, billed_service);
                let share = DecodeCost {
                    usd: bill.usd / count as f64,
                    joules: bill.joules / count as f64,
                };
                report.total_cost = report.total_cost.plus(bill);
                report.dispatches.push(DispatchRecord {
                    close_us: now,
                    occupancy: batch.members.len(),
                    earliest_deadline_us: batch.earliest_deadline_us,
                    projected_done_us,
                    slack_at_close_us: batch.earliest_deadline_us - projected_done_us,
                    open_slack_us: batch.open_slack_us,
                    trigger,
                    rung: served.rung,
                });
                for &id in &batch.members {
                    broker.transition(id, JobState::Completed);
                    let job = *broker.job(id);
                    let latency = served.done_us - job.arrival_us;
                    report.outcomes.push(JobOutcome {
                        id,
                        cell: job.cell,
                        arrival_us: job.arrival_us,
                        done_us: served.done_us,
                        latency_us: latency,
                        met_deadline: served.done_us <= job.absolute_deadline_us(),
                        state: JobState::Completed,
                        rung: Some(served.rung),
                        attempts: served.attempts,
                        cost: share,
                    });
                }
            }
            Err(_) => {
                for &id in &batch.members {
                    broker.transition(id, JobState::Failed);
                    let job = *broker.job(id);
                    report
                        .outcomes
                        .push(Self::lost_outcome(id, &job, JobState::Failed));
                }
            }
        }
    }

    /// The terminal record of a job that never produced an answer.
    fn lost_outcome(id: JobId, job: &UserJob, state: JobState) -> JobOutcome {
        JobOutcome {
            id,
            cell: job.cell,
            arrival_us: job.arrival_us,
            done_us: f64::INFINITY,
            latency_us: f64::INFINITY,
            met_deadline: false,
            state,
            rung: None,
            attempts: 0,
            cost: DecodeCost::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CpuPolicy, CpuPool};
    use crate::fault::FaultPlan;
    use crate::hybrid::HybridServer;
    use crate::qpu::{QpuOverheads, QpuServer};
    use crate::serve::Guardrails;

    fn pool(workers: usize) -> ResilientServer {
        ResilientServer::new(
            (0..workers)
                .map(|_| {
                    QpuServer::new(QpuOverheads::integrated(), 2.0, 5).with_session_cache(30_000.0)
                })
                .collect(),
            CpuPool::new(
                8,
                CpuPolicy::ZeroForcing {
                    vectors_per_channel: 1,
                },
            ),
            FaultPlan::quiet(7),
            Guardrails::on(),
        )
    }

    fn user_job(arrival_us: f64, cell: usize, hash: u64, deadline_us: f64) -> UserJob {
        UserJob {
            arrival_us,
            cell,
            direction: JobDirection::Uplink,
            channel_hash: hash,
            problems: 1,
            logical_vars: 16,
            users: 16,
            deadline_us,
            priority: Priority::Normal,
        }
    }

    #[test]
    fn same_hash_jobs_coalesce_and_occupancy_grows() {
        let mut server = pool(2);
        let mut broker = Broker::new();
        let arrivals: Vec<UserJob> = (0..12)
            .map(|k| user_job(100.0 + k as f64, 0, 0xABCD, 3_000.0))
            .collect();
        let mut sched = BatchScheduler::new(SchedConfig::new(Policy::DeadlineBatch, 24));
        let report = sched.run(&mut server, &mut broker, arrivals);
        assert_eq!(report.completed(), 12);
        assert!(broker.drained());
        assert_eq!(server.ledger().in_flight(), 0);
        assert!(server.ledger().conserved());
        assert!(
            report.mean_occupancy() > 1.5,
            "12 same-hash jobs must coalesce: occupancy {}",
            report.mean_occupancy()
        );
        assert_eq!(report.deadline_rate(), 1.0);
    }

    #[test]
    fn non_finite_traffic_fails_at_admission() {
        // Jobs with a non-finite arrival or deadline are rejected as
        // invalid; a negative finite deadline (transport hops past the
        // budget) stays admissible. The finite jobs must be served
        // exactly as if the invalid ones had never arrived.
        let finite: Vec<UserJob> = (0..6)
            .map(|k| user_job(20.0 + k as f64, k % 2, 0xC0DE + (k % 2) as u64, 4_000.0))
            .chain([user_job(30.0, 0, 0xC0DE, -50.0)])
            .collect();
        let invalid = [
            user_job(f64::INFINITY, 0, 0xC0DE, 4_000.0),
            user_job(f64::NAN, 1, 0xC0DF, 4_000.0),
            user_job(25.5, 0, 0xC0DE, f64::NAN),
            user_job(26.5, 1, 0xC0DF, f64::INFINITY),
        ];
        for policy in [Policy::Fifo, Policy::DeadlineBatch] {
            let run = |arrivals: Vec<UserJob>| {
                let mut server = pool(2);
                let mut broker = Broker::new();
                let mut sched = BatchScheduler::new(SchedConfig::new(policy, 8));
                let report = sched.run(&mut server, &mut broker, arrivals);
                assert!(broker.drained(), "{policy:?}");
                assert!(broker.census().conserved(), "{policy:?}");
                assert_eq!(server.ledger().in_flight(), 0, "{policy:?}");
                assert!(server.ledger().conserved(), "{policy:?}");
                (report, server.ledger().failed)
            };
            let (clean, clean_failed) = run(finite.clone());
            let mut mixed_arrivals = finite.clone();
            mixed_arrivals.extend(invalid);
            let (mixed, mixed_failed) = run(mixed_arrivals);

            assert_eq!(mixed.failed(), clean.failed() + invalid.len(), "{policy:?}");
            assert_eq!(mixed_failed, clean_failed + invalid.len() as u64);
            let is_invalid = |o: &JobOutcome| {
                !o.arrival_us.is_finite() || invalid.iter().any(|j| j.arrival_us == o.arrival_us)
            };
            for o in mixed.outcomes.iter().filter(|o| is_invalid(o)) {
                assert_eq!(o.state, JobState::Failed, "{policy:?}");
                assert!(!o.met_deadline, "{policy:?}");
                assert_eq!(o.rung, None, "{policy:?}");
            }
            // Ids differ (the invalid jobs took some); everything else
            // about each finite job's outcome is unchanged.
            let strip = |o: &JobOutcome| (o.arrival_us, o.done_us, o.met_deadline, o.state, o.rung);
            let kept: Vec<_> = mixed
                .outcomes
                .iter()
                .filter(|o| !is_invalid(o))
                .map(strip)
                .collect();
            let want: Vec<_> = clean.outcomes.iter().map(strip).collect();
            assert_eq!(kept, want, "{policy:?}");
            assert_eq!(mixed.dispatches, clean.dispatches, "{policy:?}");
        }
    }

    #[test]
    fn full_batches_dispatch_immediately() {
        let mut server = pool(1);
        let mut broker = Broker::new();
        let arrivals: Vec<UserJob> = (0..6)
            .map(|k| user_job(10.0 + k as f64 * 0.01, 3, 0x5EED, 10_000.0))
            .collect();
        let mut sched = BatchScheduler::new(SchedConfig::new(Policy::DeadlineBatch, 3));
        let report = sched.run(&mut server, &mut broker, arrivals);
        assert_eq!(report.completed(), 6);
        assert_eq!(report.dispatches.len(), 2);
        assert!(report
            .dispatches
            .iter()
            .all(|d| d.trigger == CloseTrigger::Full && d.occupancy == 3));
    }

    #[test]
    fn different_hashes_never_share_a_batch() {
        let mut server = pool(2);
        let mut broker = Broker::new();
        let arrivals = vec![
            user_job(10.0, 0, 0xAAAA, 5_000.0),
            user_job(11.0, 0, 0xBBBB, 5_000.0),
            user_job(12.0, 1, 0xAAAA, 5_000.0),
        ];
        let mut sched = BatchScheduler::new(SchedConfig::new(Policy::DeadlineBatch, 8));
        let report = sched.run(&mut server, &mut broker, arrivals);
        assert_eq!(report.completed(), 3);
        assert_eq!(
            report.dispatches.len(),
            3,
            "three distinct (cell, hash) keys"
        );
        assert!(report.dispatches.iter().all(|d| d.occupancy == 1));
    }

    #[test]
    fn cost_aware_routes_slack_rich_batches_to_the_floor() {
        // WCDMA-scale slack: the ZF floor easily meets it, and CPU
        // microseconds are ~3 orders of magnitude cheaper.
        let arrivals: Vec<UserJob> = (0..8)
            .map(|k| user_job(50.0 + k as f64, 2, 0xF00D, 10_000.0))
            .collect();
        let run = |policy: Policy| {
            let mut server = pool(2);
            let mut broker = Broker::new();
            let mut sched = BatchScheduler::new(SchedConfig::new(policy, 24));
            sched.run(&mut server, &mut broker, arrivals.clone())
        };
        let batched = run(Policy::DeadlineBatch);
        let costed = run(Policy::CostAware);
        assert_eq!(costed.completed(), 8);
        assert_eq!(
            costed.deadline_rate(),
            1.0,
            "the floor still meets the deadline"
        );
        assert!(costed
            .dispatches
            .iter()
            .all(|d| d.rung == ServeRung::Classical));
        assert!(
            costed.usd_per_decode() < batched.usd_per_decode(),
            "cost routing must beat pure deadline batching on $/decode: {} vs {}",
            costed.usd_per_decode(),
            batched.usd_per_decode()
        );
    }

    #[test]
    fn batches_never_mix_directions() {
        // A full-duplex cell: uplink detections and downlink precodes
        // against the same channel. Even with direction-distinct
        // hashes equal (forced here), the direction field alone must
        // keep the batches apart.
        let mut server = pool(2);
        let mut broker = Broker::new();
        let arrivals: Vec<UserJob> = (0..8)
            .map(|k| {
                let mut j = user_job(10.0 + k as f64, 0, 0x1234, 5_000.0);
                if k % 2 == 1 {
                    j.direction = JobDirection::Downlink;
                }
                j
            })
            .collect();
        let mut sched = BatchScheduler::new(SchedConfig::new(Policy::DeadlineBatch, 24));
        let report = sched.run(&mut server, &mut broker, arrivals);
        assert_eq!(report.completed(), 8);
        assert!(broker.drained());
        assert_eq!(
            report.dispatches.len(),
            2,
            "one uplink batch + one downlink batch, never merged"
        );
        assert!(report.dispatches.iter().all(|d| d.occupancy == 4));
    }

    #[test]
    fn pools_without_a_qpu_worker_serve_every_job_down_the_ladder() {
        let zf = || {
            CpuPool::new(
                8,
                CpuPolicy::ZeroForcing {
                    vectors_per_channel: 1,
                },
            )
        };
        let arrivals: Vec<UserJob> = (0..12)
            .map(|k| user_job(10.0 + 50.0 * (k / 3) as f64, k % 2, 0xC0DE, 3_000.0))
            .collect();
        for policy in [Policy::Fifo, Policy::DeadlineBatch, Policy::CostAware] {
            for hybrid in [false, true] {
                let mut server = ResilientServer::without_qpu(zf());
                let mut rung = ServeRung::Classical;
                if hybrid {
                    let qpu = QpuServer::new(QpuOverheads::integrated(), 2.0, 5);
                    server = server.with_hybrid(HybridServer::new(zf(), qpu, 0.1));
                    rung = ServeRung::Hybrid;
                }
                let mut broker = Broker::new();
                let report = BatchScheduler::new(SchedConfig::new(policy, 24)).run(
                    &mut server,
                    &mut broker,
                    arrivals.clone(),
                );
                assert!(broker.drained(), "{policy:?}");
                assert!(server.ledger().conserved(), "{policy:?}");
                assert_eq!(server.ledger().in_flight(), 0, "{policy:?}");
                assert_eq!(report.outcomes.len(), arrivals.len());
                for o in &report.outcomes {
                    assert_eq!(o.state, JobState::Completed, "{policy:?}");
                    assert_eq!((o.rung, o.attempts), (Some(rung), 1), "{policy:?}");
                }
            }
        }
    }

    #[test]
    fn impossible_deadlines_are_recorded_not_hidden() {
        let mut server = pool(1);
        let mut broker = Broker::new();
        // 1 µs budget: nothing can serve it, open slack is negative.
        let arrivals = vec![user_job(10.0, 0, 0xDEAD, 1.0)];
        let mut sched = BatchScheduler::new(SchedConfig::new(Policy::DeadlineBatch, 4));
        let report = sched.run(&mut server, &mut broker, arrivals);
        assert_eq!(report.completed(), 1, "served late, not lost");
        assert_eq!(report.deadline_rate(), 0.0);
        assert!(report.dispatches[0].open_slack_us < 0.0);
    }
}
