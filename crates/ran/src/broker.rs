//! The async job broker: per-cell admission queues with a tracked job
//! lifecycle.
//!
//! The broker is the front door of the scheduling subsystem. Access
//! points (or the synthetic [`load`] generator) submit per-user
//! detection jobs — arrival time, cell, channel-estimate hash,
//! priority, frame deadline — and the broker queues them per cell and
//! tracks every job through the lifecycle
//!
//! ```text
//! Submitted → Queued → Batched → Running → {Completed, Shed, Failed}
//! ```
//!
//! The broker holds no policy: *when* a queued job is pulled into a
//! batch, where that batch runs, and whether it is shed under
//! backpressure are the [`sched::BatchScheduler`]'s decisions. The
//! broker's contract is bookkeeping: every submitted job is in exactly
//! one state, transitions are legal, and the [`Census`] of states is
//! always consistent with the serving [`Ledger`]
//! (`in_flight() == ledger.batched` once the scheduler has admitted
//! everything it pulled).
//!
//! [`load`]: crate::load
//! [`sched::BatchScheduler`]: crate::sched::BatchScheduler
//! [`Ledger`]: crate::serve::Ledger

use crate::qpu::JobDirection;
use crate::serve::Priority;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// A broker-issued job handle: dense, monotone, and stable for the
/// broker's lifetime (index into its status table).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl JobId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Accepted by the broker, sitting in its cell's queue.
    Queued,
    /// Pulled by the scheduler into an open (or dispatched) batch.
    Batched,
    /// Its batch is dispatched and being served.
    Running,
    /// Served to completion (any rung).
    Completed,
    /// Shed by admission control or a scheduler queue cut.
    Shed,
    /// Failed with a classified serving error.
    Failed,
}

impl JobState {
    /// Whether the lifecycle permits moving `self → to`.
    ///
    /// Queued jobs may be shed or failed directly (admission control
    /// rejects them before any batch exists); batched jobs may be shed
    /// (a queue the scheduler cuts under backpressure) or failed (their
    /// dispatch exhausted its guardrails); running jobs only finish.
    fn may_transition(self, to: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, to),
            (Queued, Batched)
                | (Queued, Shed)
                | (Queued, Failed)
                | (Batched, Running)
                | (Batched, Shed)
                | (Batched, Failed)
                | (Running, Completed)
                | (Running, Failed)
        )
    }
}

/// One per-user detection job as the broker sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UserJob {
    /// Arrival time at the data center, µs.
    pub arrival_us: f64,
    /// Originating cell / access point id.
    pub cell: usize,
    /// Uplink detection or downlink precoding — the two compile
    /// different programmed problems from the same channel, so the
    /// direction is part of every coalescing decision.
    pub direction: JobDirection,
    /// Channel-estimate hash **with the direction folded in**
    /// ([`crate::channel_hash_directed`]): jobs sharing
    /// `(cell, channel_hash)` were compiled against the same channel
    /// *in the same direction* and share one QPU problem — the
    /// coalescing key.
    pub channel_hash: u64,
    /// Subcarrier problems this job contributes to a batch.
    pub problems: usize,
    /// Logical Ising variables per problem (Nt × bits/symbol).
    pub logical_vars: usize,
    /// Concurrent users in the cell (sizes classical service).
    pub users: usize,
    /// Decode budget relative to `arrival_us`, µs.
    pub deadline_us: f64,
    /// Admission-control class.
    pub priority: Priority,
}

impl UserJob {
    /// Absolute deadline, µs.
    pub fn absolute_deadline_us(&self) -> f64 {
        self.arrival_us + self.deadline_us
    }
}

/// Counts of jobs per lifecycle state — the broker's status snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Census {
    /// Ever submitted.
    pub submitted: u64,
    /// Currently queued.
    pub queued: u64,
    /// Currently batched (admitted, undispatched).
    pub batched: u64,
    /// Currently running.
    pub running: u64,
    /// Completed.
    pub completed: u64,
    /// Shed.
    pub shed: u64,
    /// Failed.
    pub failed: u64,
}

impl Census {
    /// Jobs not yet in a terminal state.
    pub fn in_flight(&self) -> u64 {
        self.queued + self.batched + self.running
    }

    /// The conservation identity: every submitted job is in exactly
    /// one state.
    pub fn conserved(&self) -> bool {
        self.submitted == self.in_flight() + self.completed + self.shed + self.failed
    }
}

/// The broker: per-cell FIFO queues plus the full status table.
#[derive(Clone, Debug, Default)]
pub struct Broker {
    /// Status table indexed by [`JobId`].
    states: Vec<JobState>,
    /// Job payloads indexed by [`JobId`] (status queries, re-pulls).
    jobs: Vec<UserJob>,
    /// Per-cell FIFO queues. `BTreeMap` so cross-cell iteration is
    /// deterministic (cell order).
    queues: BTreeMap<usize, VecDeque<JobId>>,
    census: Census,
}

impl Broker {
    /// An empty broker.
    pub fn new() -> Self {
        Broker::default()
    }

    /// Submits a job: it enters its cell's queue in `Queued` state and
    /// gets a dense, monotone [`JobId`].
    pub fn submit(&mut self, job: UserJob) -> JobId {
        let id = JobId(self.states.len() as u64);
        self.states.push(JobState::Queued);
        self.jobs.push(job);
        self.queues.entry(job.cell).or_default().push_back(id);
        self.census.submitted += 1;
        self.census.queued += 1;
        id
    }

    /// The job payload behind `id`.
    pub fn job(&self, id: JobId) -> &UserJob {
        &self.jobs[id.index()]
    }

    /// The current lifecycle state of `id`.
    pub fn state(&self, id: JobId) -> JobState {
        self.states[id.index()]
    }

    /// Pops the oldest queued job of `cell` (FIFO), or `None` when its
    /// queue is empty. The job stays `Queued` — the caller decides its
    /// next transition.
    pub fn pop_queued(&mut self, cell: usize) -> Option<JobId> {
        self.queues.get_mut(&cell)?.pop_front()
    }

    /// Moves `id` to `to`, keeping the census in step.
    ///
    /// # Panics
    /// Panics on an illegal lifecycle transition — a scheduler bug,
    /// not an operating condition.
    pub fn transition(&mut self, id: JobId, to: JobState) {
        let from = self.states[id.index()];
        assert!(
            from.may_transition(to),
            "illegal job lifecycle transition {from:?} → {to:?} for {id:?}"
        );
        fn gauge(census: &mut Census, state: JobState) -> &mut u64 {
            match state {
                JobState::Queued => &mut census.queued,
                JobState::Batched => &mut census.batched,
                JobState::Running => &mut census.running,
                JobState::Completed => &mut census.completed,
                JobState::Shed => &mut census.shed,
                JobState::Failed => &mut census.failed,
            }
        }
        *gauge(&mut self.census, from) -= 1;
        *gauge(&mut self.census, to) += 1;
        self.states[id.index()] = to;
    }

    /// The current per-state census.
    pub fn census(&self) -> Census {
        self.census
    }

    /// Publishes the census through `telemetry`:
    /// `quamax_broker_census_total{state=…}` absolute counters plus an
    /// in-flight gauge. Snapshot-time publication — [`Broker::census`]
    /// stays the plain accessor; this is a view over it, never a
    /// replacement, and a disabled handle makes it a no-op.
    pub fn publish_telemetry(&self, telemetry: &quamax_telemetry::Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        let c = self.census;
        for (state, value) in [
            ("submitted", c.submitted),
            ("queued", c.queued),
            ("batched", c.batched),
            ("running", c.running),
            ("completed", c.completed),
            ("shed", c.shed),
            ("failed", c.failed),
        ] {
            telemetry.counter_store("quamax_broker_census_total", &[("state", state)], value);
        }
        telemetry.gauge_set("quamax_broker_in_flight", &[], c.in_flight() as f64);
    }

    /// Whether every job has reached a terminal state (queues empty,
    /// nothing batched or running) — what a drained pipeline looks
    /// like.
    pub fn drained(&self) -> bool {
        self.census.in_flight() == 0 && self.queues.values().all(VecDeque::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Broker {
        /// Queued jobs waiting in `cell`'s queue.
        fn queue_len(&self, cell: usize) -> usize {
            self.queues.get(&cell).map_or(0, VecDeque::len)
        }

        /// Cells with a non-empty queue, in cell order.
        fn busy_cells(&self) -> impl Iterator<Item = usize> + '_ {
            self.queues
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(&c, _)| c)
        }
    }

    fn job(cell: usize, arrival_us: f64) -> UserJob {
        UserJob {
            arrival_us,
            cell,
            direction: JobDirection::Uplink,
            channel_hash: 0xC0FFEE,
            problems: 1,
            logical_vars: 16,
            users: 16,
            deadline_us: 3_000.0,
            priority: Priority::Normal,
        }
    }

    #[test]
    fn lifecycle_happy_path_conserves() {
        let mut b = Broker::new();
        let id = b.submit(job(3, 10.0));
        assert_eq!(b.state(id), JobState::Queued);
        assert_eq!(b.queue_len(3), 1);
        assert_eq!(b.pop_queued(3), Some(id));
        for to in [JobState::Batched, JobState::Running, JobState::Completed] {
            b.transition(id, to);
            assert!(b.census().conserved());
        }
        assert!(b.drained());
        assert_eq!(b.census().completed, 1);
    }

    #[test]
    fn per_cell_queues_are_fifo_and_cells_ordered() {
        let mut b = Broker::new();
        let a = b.submit(job(7, 1.0));
        let c = b.submit(job(2, 2.0));
        let d = b.submit(job(7, 3.0));
        assert_eq!(b.busy_cells().collect::<Vec<_>>(), vec![2, 7]);
        assert_eq!(b.pop_queued(7), Some(a));
        assert_eq!(b.pop_queued(7), Some(d));
        assert_eq!(b.pop_queued(7), None);
        assert_eq!(b.pop_queued(2), Some(c));
        assert!(!b.drained(), "popped jobs are still Queued");
    }

    #[test]
    #[should_panic(expected = "illegal job lifecycle transition")]
    fn cannot_complete_a_queued_job() {
        let mut b = Broker::new();
        let id = b.submit(job(0, 0.0));
        b.transition(id, JobState::Completed);
    }

    #[test]
    fn queued_jobs_can_be_shed_directly() {
        let mut b = Broker::new();
        let id = b.submit(job(0, 0.0));
        b.pop_queued(0);
        b.transition(id, JobState::Shed);
        assert!(b.census().conserved());
        assert!(b.drained());
        assert_eq!(b.census().shed, 1);
    }
}
