//! Deterministic discrete-event simulation of the C-RAN air interface
//! — uplink detection and downlink precoding frames over one shared
//! serving pool.
//!
//! Frames arrive periodically at each AP, cross the fronthaul, and
//! become [`UserJob`]s that flow through [`Broker`] admission and the
//! [`BatchScheduler`] onto a [`ResilientServer`] pool. Each frame is
//! scored against its own AP's radio deadline on completion (including
//! the return fronthaul hop for the ACK/feedback — or, for a downlink
//! stream, the precoded samples heading back to the radio head). The
//! simulation answers §7's deployment question: with today's QPU
//! overheads nothing meets a deadline; with an integrated device, QA
//! decoding fits even Wi-Fi budgets for problems that parallelize
//! on-chip.
//!
//! Every data-center server is a pool configuration under
//! [`Policy::Fifo`](crate::sched::Policy::Fifo) — one job per dispatch,
//! in arrival order: a plain QPU is [`ResilientServer::plain_qpu`], a
//! CPU pool is [`ResilientServer::without_qpu`], and the classical-
//! first hybrid is that pool with [`ResilientServer::with_hybrid`].
//! A full-duplex cell is two [`AccessPoint`]s sharing an `id` with
//! opposite [`JobDirection`](crate::qpu::JobDirection)s; their session
//! keys never alias because the synthetic channel hash is rekeyed by
//! direction.

use crate::broker::{Broker, JobState, UserJob};
use crate::sched::{BatchScheduler, SchedConfig};
use crate::serve::{Priority, ResilientServer, ServeRung};
use crate::topology::{AccessPoint, FronthaulConfig};
use quamax_telemetry::Telemetry;

/// How a frame's decode ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FrameOutcome {
    /// Decoded (possibly after retries or down the escalation ladder).
    Served {
        /// QPU attempts consumed.
        attempts: u32,
        /// The rung that produced the answer.
        rung: ServeRung,
    },
    /// Shed by admission control — recorded, deadline scored as
    /// missed.
    Shed,
    /// Failed with a classified error after the guardrails gave up.
    Failed,
}

impl FrameOutcome {
    /// `true` when the frame produced an answer.
    pub fn is_served(&self) -> bool {
        matches!(self, FrameOutcome::Served { .. })
    }
}

/// One decoded frame's fate.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameRecord {
    /// Originating AP.
    pub ap_id: usize,
    /// Arrival time at the AP antenna, µs.
    pub arrival_us: f64,
    /// Total latency from arrival to feedback availability at the AP
    /// (infinite for shed/failed frames — no feedback ever arrives).
    pub latency_us: f64,
    /// Whether the radio deadline was met.
    pub met_deadline: bool,
    /// How the decode ended.
    pub outcome: FrameOutcome,
}

/// Aggregate results of one simulation run.
///
/// Derives `PartialEq`: two runs are comparable frame for frame, which
/// is what the fault-injection determinism and zero-fault bit-identity
/// tests assert.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Per-frame records in arrival order.
    pub frames: Vec<FrameRecord>,
}

impl SimReport {
    /// Fraction of frames meeting their deadline (shed and failed
    /// frames count as missed).
    pub fn deadline_rate(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames.iter().filter(|f| f.met_deadline).count() as f64 / self.frames.len() as f64
    }

    /// Worst-case *served* frame latency, µs.
    pub fn max_latency_us(&self) -> f64 {
        self.frames
            .iter()
            .filter(|f| f.outcome.is_served())
            .map(|f| f.latency_us)
            .fold(0.0, f64::max)
    }

    /// Mean *served* frame latency, µs.
    pub fn mean_latency_us(&self) -> f64 {
        let served: Vec<f64> = self
            .frames
            .iter()
            .filter(|f| f.outcome.is_served())
            .map(|f| f.latency_us)
            .collect();
        if served.is_empty() {
            return 0.0;
        }
        served.iter().sum::<f64>() / served.len() as f64
    }

    /// Frames that produced an answer.
    pub fn served_count(&self) -> usize {
        self.frames.iter().filter(|f| f.outcome.is_served()).count()
    }

    /// Frames shed by admission control.
    pub fn shed_count(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.outcome == FrameOutcome::Shed)
            .count()
    }

    /// Frames that failed with a classified error.
    pub fn failed_count(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.outcome == FrameOutcome::Failed)
            .count()
    }
}

/// The synthetic channel-hash schedule shared by [`Simulation::run`]
/// and the [`load`] generator: each cell's channel re-draws once per
/// coherence interval, so the hash is constant within an interval and
/// changes at its boundary.
///
/// [`load`]: crate::load
pub fn synthetic_channel_hash(ap_id: usize, at_dc: f64, coherence_us: f64) -> u64 {
    let interval = (at_dc / coherence_us) as u64;
    (ap_id as u64 ^ interval)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(interval)
}

/// [`synthetic_channel_hash`] with the AP's direction folded in
/// ([`crate::qpu::JobDirection::rekey`]): a full-duplex cell's uplink and downlink
/// streams observe the *same* physical channel per coherence interval,
/// but compile different programmed problems from it, so their session
/// keys must never alias.
fn directed_synthetic_hash(ap: &AccessPoint, at_dc: f64, coherence_us: f64) -> u64 {
    ap.direction
        .rekey(synthetic_channel_hash(ap.id, at_dc, coherence_us))
}

/// The uplink simulation.
pub struct Simulation {
    aps: Vec<AccessPoint>,
    fronthaul: FronthaulConfig,
    pool: ResilientServer,
    config: SchedConfig,
    /// Frame-level metrics sink, propagated into the serving stack by
    /// [`Simulation::with_telemetry`]. Recording observes the run but
    /// never feeds back into it: a telemetry-enabled run's
    /// [`SimReport`] is bit-identical to a disabled one (a tested
    /// contract).
    telemetry: Telemetry,
}

impl Simulation {
    /// Builds a simulation over `aps` serving every frame from `pool`
    /// under the scheduling `config`.
    pub fn new(
        aps: Vec<AccessPoint>,
        fronthaul: FronthaulConfig,
        pool: ResilientServer,
        config: SchedConfig,
    ) -> Self {
        assert!(!aps.is_empty(), "need at least one access point");
        Simulation {
            aps,
            fronthaul,
            pool,
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle, propagating it to the pool and every
    /// pool worker.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.pool.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The serving pool (post-run inspection: ledger, fault counters,
    /// breaker trips).
    pub fn pool(&self) -> &ResilientServer {
        &self.pool
    }

    /// Runs for `horizon_us` of simulated time: generates each AP's
    /// periodic frames, schedules them through the broker onto the
    /// pool, and returns one record per frame in arrival order.
    pub fn run(&mut self, horizon_us: f64) -> SimReport {
        assert!(horizon_us > 0.0, "empty horizon");
        let mut arrivals: Vec<(f64, usize)> = Vec::new();
        for (idx, ap) in self.aps.iter().enumerate() {
            let mut t = ap.frame_interval_us; // first frame after one interval
            while t <= horizon_us {
                arrivals.push((t, idx));
                t += ap.frame_interval_us;
            }
        }
        arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        self.pool.reset();

        let hop = self.fronthaul.one_way_latency_us;
        let coherence = self.pool.coherence_us();
        let jobs: Vec<UserJob> = arrivals
            .iter()
            .map(|&(arrival, idx)| {
                let ap = &self.aps[idx];
                let at_dc = arrival + hop;
                let channel_hash = match coherence {
                    // With a session cache, each AP's channel re-draws
                    // once per coherence interval, so the cache
                    // reprograms exactly when the channel moves.
                    Some(c) => directed_synthetic_hash(ap, at_dc, c),
                    // Without one, the hash is a per-AP constant and
                    // programming follows frame-counted coherence.
                    None => directed_synthetic_hash(ap, 0.0, 1.0),
                };
                UserJob {
                    arrival_us: at_dc,
                    cell: ap.id,
                    direction: ap.direction,
                    channel_hash,
                    problems: ap.problems_per_frame(),
                    logical_vars: ap.logical_vars(),
                    users: ap.users,
                    // The decode must finish `hop` before the radio
                    // deadline (the feedback still has to cross the
                    // fronthaul back), and one hop was already spent
                    // getting here.
                    deadline_us: ap.deadline.budget_us() - 2.0 * hop,
                    priority: Priority::Normal,
                }
            })
            .collect();
        let mut broker = Broker::new();
        let mut sched = BatchScheduler::new(self.config).with_telemetry(self.telemetry.clone());
        let schedule = sched.run(&mut self.pool, &mut broker, jobs);
        broker.publish_telemetry(&self.telemetry);
        debug_assert!(broker.drained(), "the scheduler drains every job");
        debug_assert_eq!(self.pool.ledger().in_flight(), 0);

        // Outcomes come back in submission order, which is `arrivals`'
        // order: each frame keeps its generated arrival and is scored
        // against its own AP's budget.
        let frames = arrivals
            .iter()
            .zip(&schedule.outcomes)
            .map(|(&(arrival, idx), o)| {
                let ap = &self.aps[idx];
                let (latency_us, outcome) = match o.state {
                    JobState::Completed => (
                        o.done_us + hop - arrival,
                        FrameOutcome::Served {
                            attempts: o.attempts,
                            rung: o.rung.expect("completed jobs have a rung"),
                        },
                    ),
                    JobState::Shed => (f64::INFINITY, FrameOutcome::Shed),
                    _ => (f64::INFINITY, FrameOutcome::Failed),
                };
                FrameRecord {
                    ap_id: ap.id,
                    arrival_us: arrival,
                    latency_us,
                    met_deadline: latency_us <= ap.deadline.budget_us(),
                    outcome,
                }
            })
            .collect();
        let report = SimReport { frames };
        self.finish(&report);
        report
    }

    /// End-of-run telemetry: per-frame latency/outcome series plus the
    /// pool's snapshot-time publication. A no-op with a disabled
    /// handle, and purely observational otherwise — called after the
    /// report is final, so it cannot perturb it.
    fn finish(&self, report: &SimReport) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for f in &report.frames {
            let outcome = match f.outcome {
                FrameOutcome::Served { .. } => "served",
                FrameOutcome::Shed => "shed",
                FrameOutcome::Failed => "failed",
            };
            self.telemetry
                .counter_inc("quamax_sim_frames_total", &[("outcome", outcome)]);
            if f.outcome.is_served() {
                let cell = f.ap_id.to_string();
                self.telemetry.observe(
                    "quamax_sim_frame_latency_us",
                    &[("cell", &cell)],
                    f.latency_us,
                );
            }
        }
        self.telemetry
            .gauge_set("quamax_sim_deadline_rate", &[], report.deadline_rate());
        self.pool.publish_telemetry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CpuPolicy, CpuPool};
    use crate::fault::{FaultPlan, FaultRates};
    use crate::hybrid::HybridServer;
    use crate::qpu::{JobDirection, QpuOverheads, QpuServer};
    use crate::sched::Policy;
    use crate::serve::Guardrails;
    use crate::topology::Deadline;
    use quamax_wireless::Modulation;

    fn wifi_ap(id: usize, interval_us: f64) -> AccessPoint {
        AccessPoint {
            id,
            users: 16,
            modulation: Modulation::Bpsk,
            direction: JobDirection::Uplink,
            subcarriers: 50,
            frame_interval_us: interval_us,
            deadline: Deadline::WifiAck,
        }
    }

    fn zf(cores: usize) -> CpuPool {
        CpuPool::new(
            cores,
            CpuPolicy::ZeroForcing {
                vectors_per_channel: 1,
            },
        )
    }

    /// A simulation dispatching every frame alone, in arrival order.
    fn fifo(
        aps: Vec<AccessPoint>,
        fronthaul: FronthaulConfig,
        pool: ResilientServer,
    ) -> Simulation {
        Simulation::new(aps, fronthaul, pool, SchedConfig::new(Policy::Fifo, 1))
    }

    /// Two cache-equipped integrated workers over an 8-core ZF floor,
    /// guardrails on.
    fn cached_pool(seed: u64) -> ResilientServer {
        let qpu =
            || QpuServer::new(QpuOverheads::integrated(), 2.0, 3).with_session_cache(30_000.0);
        ResilientServer::new(
            vec![qpu(), qpu()],
            zf(8),
            FaultPlan::quiet(seed),
            Guardrails::on(),
        )
    }

    #[test]
    fn integrated_qpu_meets_wifi_deadlines() {
        // 16-var BPSK problems tile ~24×: 50 subcarriers ≈ 3 batches of
        // 5 anneals × 2 µs = 30 µs? With 5 anneals per problem:
        // 3 × 5 × 2 = 30 µs < 30 µs budget − 10 µs fronthaul? Use 4
        // anneals to leave headroom.
        let pool = ResilientServer::plain_qpu(QpuServer::new(QpuOverheads::integrated(), 2.0, 3));
        let mut sim = fifo(
            vec![wifi_ap(0, 1_000.0)],
            FronthaulConfig {
                one_way_latency_us: 2.0,
            },
            pool,
        );
        let report = sim.run(20_000.0);
        assert_eq!(report.frames.len(), 20);
        assert_eq!(
            report.deadline_rate(),
            1.0,
            "max latency {}",
            report.max_latency_us()
        );
    }

    #[test]
    fn current_overheads_miss_every_wireless_deadline() {
        // §7: "QuAMax cannot be deployed today".
        let pool = ResilientServer::plain_qpu(QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 3));
        let mut sim = fifo(
            vec![AccessPoint {
                deadline: Deadline::Wcdma,
                ..wifi_ap(0, 100_000.0)
            }],
            FronthaulConfig::default(),
            pool,
        );
        let report = sim.run(500_000.0);
        assert!(!report.frames.is_empty());
        assert_eq!(report.deadline_rate(), 0.0);
    }

    #[test]
    fn coherence_batching_recovers_deadlines_reprogramming_misses() {
        // A hypothetical part-way-integrated device: programming costs
        // 80 µs per job. Reprogramming every frame busts a 100 µs
        // budget; a 50-frame compiled session meets it on every frame
        // after the first (> 90% of frames over the horizon).
        let overheads = QpuOverheads {
            preprocessing_us: 0.0,
            programming_us: 80.0,
            readout_per_anneal_us: 0.0,
        };
        let ap = || wifi_ap(0, 1_000.0); // Wi-Fi ACK budget: ~30 µs
        let fronthaul = FronthaulConfig {
            one_way_latency_us: 2.0,
        };
        let run = |server: QpuServer| {
            fifo(vec![ap()], fronthaul, ResilientServer::plain_qpu(server)).run(50_000.0)
        };
        let per_frame = run(QpuServer::new(overheads, 2.0, 3));
        let sessions = run(QpuServer::new(overheads, 2.0, 3).with_coherence(50));
        assert_eq!(per_frame.deadline_rate(), 0.0, "80 µs per frame busts ACK");
        assert!(
            sessions.deadline_rate() > 0.9,
            "session frames after the boundary meet the ACK: rate {}",
            sessions.deadline_rate()
        );
    }

    #[test]
    fn overloaded_server_builds_backlog() {
        // Frames every 10 µs against ~30 µs service: latency must grow.
        let pool = ResilientServer::plain_qpu(QpuServer::new(QpuOverheads::integrated(), 2.0, 3));
        let mut sim = fifo(vec![wifi_ap(0, 10.0)], FronthaulConfig::default(), pool);
        let report = sim.run(2_000.0);
        let first = report.frames.first().unwrap().latency_us;
        let last = report.frames.last().unwrap().latency_us;
        assert!(last > 3.0 * first, "backlog did not grow: {first} → {last}");
    }

    #[test]
    fn cpu_pool_meets_lte_but_not_wifi_for_large_mimo() {
        // 48-user ZF on 8 cores: ~0.1–1 ms per frame — fine for LTE's
        // 3 ms, hopeless for a Wi-Fi ACK.
        let ap = AccessPoint {
            id: 0,
            users: 48,
            modulation: Modulation::Bpsk,
            direction: JobDirection::Uplink,
            subcarriers: 50,
            frame_interval_us: 2_000.0,
            deadline: Deadline::Lte,
        };
        let mut wifi_variant = ap.clone();
        wifi_variant.deadline = Deadline::WifiAck;

        let mut sim_lte = fifo(
            vec![ap],
            FronthaulConfig::default(),
            ResilientServer::without_qpu(zf(8)),
        );
        assert_eq!(sim_lte.run(20_000.0).deadline_rate(), 1.0);

        let mut sim_wifi = fifo(
            vec![wifi_variant],
            FronthaulConfig::default(),
            ResilientServer::without_qpu(zf(8)),
        );
        assert_eq!(sim_wifi.run(20_000.0).deadline_rate(), 0.0);
    }

    #[test]
    fn session_cache_in_sim_amortizes_like_frame_counted_coherence() {
        // The channel-hash cache and the frame-counted model describe
        // the same physics (one programming per coherence interval per
        // AP): with 1 ms frames and a 30 ms coherence time = 30 frames,
        // both servers should miss only the boundary frames of a
        // budget that amortized frames meet.
        let overheads = QpuOverheads {
            preprocessing_us: 0.0,
            programming_us: 80.0,
            readout_per_anneal_us: 0.0,
        };
        let fronthaul = FronthaulConfig {
            one_way_latency_us: 2.0,
        };
        let run = |server: QpuServer| {
            fifo(
                vec![wifi_ap(0, 1_000.0)],
                fronthaul,
                ResilientServer::plain_qpu(server),
            )
            .run(60_000.0)
        };
        let per_frame = run(QpuServer::new(overheads, 2.0, 3));
        let cached = run(QpuServer::new(overheads, 2.0, 3).with_session_cache(30_000.0));
        let counted = run(QpuServer::new(overheads, 2.0, 3).with_coherence(30));
        assert_eq!(per_frame.deadline_rate(), 0.0, "80 µs per frame busts ACK");
        assert!(
            cached.deadline_rate() > 0.9,
            "cached sessions should meet most frames: {}",
            cached.deadline_rate()
        );
        assert!((cached.deadline_rate() - counted.deadline_rate()).abs() < 0.05);
    }

    #[test]
    fn hybrid_server_recovers_deadlines_neither_pure_server_meets() {
        // A 30-user LTE cell: the sphere pool alone blows the 3 ms HARQ
        // budget (Table 1's "unfeasible" 1,900-node regime), and a
        // partly-integrated QPU decoding *all* 50 subcarriers per frame
        // also misses. Classical-first with a 10% quantum fallback —
        // ZF handles the easy problems, the QPU only the flagged tail —
        // fits the budget.
        let ap = AccessPoint {
            id: 0,
            users: 30,
            modulation: Modulation::Bpsk,
            direction: JobDirection::Uplink,
            subcarriers: 50,
            frame_interval_us: 4_000.0,
            deadline: Deadline::Lte,
        };
        let qpu = || {
            QpuServer::new(
                QpuOverheads {
                    preprocessing_us: 0.0,
                    programming_us: 500.0,
                    readout_per_anneal_us: 10.0,
                },
                2.0,
                20,
            )
            .with_coherence(30)
        };
        let sphere = CpuPool::new(
            2,
            CpuPolicy::Sphere {
                expected_nodes: 1_900,
            },
        );
        let run = |pool: ResilientServer| {
            fifo(vec![ap.clone()], FronthaulConfig::default(), pool).run(40_000.0)
        };
        let sphere_only = run(ResilientServer::without_qpu(sphere));
        let qpu_only = run(ResilientServer::plain_qpu(qpu()));
        let hybrid = run(
            ResilientServer::without_qpu(zf(4)).with_hybrid(HybridServer::new(zf(4), qpu(), 0.1)),
        );
        assert!(
            sphere_only.deadline_rate() < 0.5,
            "sphere pool should miss: rate {}",
            sphere_only.deadline_rate()
        );
        assert!(
            qpu_only.deadline_rate() < 0.5,
            "full-frame QPU should miss: rate {}",
            qpu_only.deadline_rate()
        );
        assert!(
            hybrid.deadline_rate() > 0.9,
            "hybrid should fit: rate {}",
            hybrid.deadline_rate()
        );
    }

    #[test]
    fn multiple_aps_share_the_server() {
        let pool = ResilientServer::plain_qpu(QpuServer::new(QpuOverheads::integrated(), 2.0, 3));
        let mut sim = fifo(
            vec![wifi_ap(0, 500.0), wifi_ap(1, 700.0)],
            FronthaulConfig::default(),
            pool,
        );
        let report = sim.run(10_000.0);
        let ap0 = report.frames.iter().filter(|f| f.ap_id == 0).count();
        let ap1 = report.frames.iter().filter(|f| f.ap_id == 1).count();
        assert_eq!(ap0, 20);
        assert_eq!(ap1, 14);
        assert!(report.mean_latency_us() > 0.0);
    }

    #[test]
    fn resilient_arm_matches_plain_qpu_when_quiet() {
        let overheads = QpuOverheads {
            preprocessing_us: 0.0,
            programming_us: 80.0,
            readout_per_anneal_us: 0.0,
        };
        let fronthaul = FronthaulConfig {
            one_way_latency_us: 2.0,
        };
        let run = |guardrails: Guardrails| {
            let qpu = QpuServer::new(overheads, 2.0, 3).with_session_cache(30_000.0);
            let pool = ResilientServer::new(vec![qpu], zf(8), FaultPlan::quiet(11), guardrails);
            fifo(vec![wifi_ap(0, 1_000.0)], fronthaul, pool).run(60_000.0)
        };
        assert_eq!(
            run(Guardrails::off()),
            run(Guardrails::on()),
            "guardrails must price zero in fair weather"
        );
    }

    #[test]
    fn resilient_arm_records_outcomes_and_conserves_frames() {
        let qpu = || QpuServer::new(QpuOverheads::integrated(), 2.0, 3);
        // LTE budget (3 ms): a funded retry or an escalated decode
        // still lands in time, so recovery shows up in the deadline
        // rate (a 30 µs Wi-Fi ACK leaves no room to retry at all).
        let ap = AccessPoint {
            deadline: Deadline::Lte,
            ..wifi_ap(0, 1_000.0)
        };
        let run = |guardrails: Guardrails| {
            let pool = ResilientServer::new(
                vec![qpu(), qpu()],
                zf(8),
                FaultPlan::new(17, FaultRates::uniform(0.05)),
                guardrails,
            );
            fifo(
                vec![ap.clone()],
                FronthaulConfig {
                    one_way_latency_us: 2.0,
                },
                pool,
            )
            .run(100_000.0)
        };
        let guarded = run(Guardrails::on());
        let unguarded = run(Guardrails::off());
        for report in [&guarded, &unguarded] {
            assert_eq!(report.frames.len(), 100);
            assert_eq!(
                report.served_count() + report.shed_count() + report.failed_count(),
                report.frames.len(),
                "every frame has a recorded fate"
            );
        }
        // 25% any-fault rate over 100 frames: some first attempts fail
        // in both configs. Unguarded, those become Failed frames;
        // guarded, they are retried or escalated.
        assert!(unguarded.failed_count() > 0, "faults must fire unguarded");
        assert_eq!(guarded.failed_count(), 0, "guardrails recover every frame");
        assert!(guarded.deadline_rate() > unguarded.deadline_rate());
    }

    #[test]
    fn brokered_batching_serves_multi_cell_load_with_coalescing() {
        let aps = vec![
            AccessPoint {
                deadline: Deadline::Lte,
                ..wifi_ap(0, 400.0)
            },
            AccessPoint {
                deadline: Deadline::Lte,
                ..wifi_ap(1, 400.0)
            },
        ];
        let mut sim = Simulation::new(
            aps,
            FronthaulConfig {
                one_way_latency_us: 2.0,
            },
            cached_pool(31),
            SchedConfig::new(Policy::DeadlineBatch, 8),
        );
        let report = sim.run(20_000.0);
        assert_eq!(report.frames.len(), 100);
        assert_eq!(
            report.served_count() + report.shed_count() + report.failed_count(),
            report.frames.len(),
            "every frame has a recorded fate"
        );
        assert!(
            report.deadline_rate() > 0.9,
            "LTE slack leaves room to batch: rate {}",
            report.deadline_rate()
        );
        assert!(sim.pool().ledger().conserved());
        assert_eq!(sim.pool().ledger().in_flight(), 0);
    }

    #[test]
    fn full_duplex_cell_serves_both_directions_from_one_pool() {
        // One cell, both directions: an uplink detection stream and a
        // downlink VPP stream share the cell id (and hence the same
        // physical channel schedule) but carry opposite directions, so
        // the scheduler may never coalesce them into one batch and the
        // session cache must hold two distinct compiled sessions per
        // coherence interval.
        let uplink = AccessPoint {
            deadline: Deadline::Lte,
            ..wifi_ap(0, 400.0)
        };
        let downlink = AccessPoint {
            direction: JobDirection::Downlink,
            ..uplink.clone()
        };
        assert_ne!(uplink.logical_vars(), downlink.logical_vars());
        let mut sim = Simulation::new(
            vec![uplink, downlink],
            FronthaulConfig {
                one_way_latency_us: 2.0,
            },
            cached_pool(41),
            SchedConfig::new(Policy::DeadlineBatch, 8),
        );
        let report = sim.run(20_000.0);
        // Both streams emit 50 frames and every frame has a fate.
        assert_eq!(report.frames.len(), 100);
        assert_eq!(
            report.served_count() + report.shed_count() + report.failed_count(),
            report.frames.len(),
        );
        assert!(
            report.deadline_rate() >= 0.85,
            "full-duplex LTE load should still fit: rate {}",
            report.deadline_rate()
        );
        assert!(sim.pool().ledger().conserved());
        assert_eq!(sim.pool().ledger().in_flight(), 0);
    }

    #[test]
    fn frames_are_scored_against_their_own_ap() {
        // A full-duplex cell whose two directions carry different
        // deadlines, over a fractional fronthaul hop: every frame must
        // keep its generated arrival and be scored against its own
        // stream's budget, not the first AP sharing its id.
        let uplink = wifi_ap(0, 400.0);
        let downlink = AccessPoint {
            direction: JobDirection::Downlink,
            deadline: Deadline::Lte,
            ..wifi_ap(0, 400.0)
        };
        let aps = vec![uplink, downlink];
        let pool = ResilientServer::new(
            vec![QpuServer::new(QpuOverheads::integrated(), 2.0, 3).with_session_cache(30_000.0)],
            zf(8),
            FaultPlan::quiet(3),
            Guardrails::on(),
        );
        let report = Simulation::new(
            aps.clone(),
            FronthaulConfig {
                one_way_latency_us: 2.3,
            },
            pool,
            SchedConfig::new(Policy::DeadlineBatch, 8),
        )
        .run(20_000.0);
        let mut expected: Vec<(f64, usize)> = Vec::new();
        for (idx, ap) in aps.iter().enumerate() {
            let mut t = ap.frame_interval_us;
            while t <= 20_000.0 {
                expected.push((t, idx));
                t += ap.frame_interval_us;
            }
        }
        expected.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert_eq!(report.frames.len(), expected.len());
        for (f, &(arrival, idx)) in report.frames.iter().zip(&expected) {
            assert_eq!(f.arrival_us.to_bits(), arrival.to_bits(), "{f:?}");
            let budget = aps[idx].deadline.budget_us();
            assert_eq!(f.met_deadline, f.latency_us <= budget, "{f:?}");
        }
        assert!(report.frames.iter().any(|f| f.met_deadline));
    }

    #[test]
    fn report_statistics_on_empty_run() {
        let report = SimReport::default();
        assert_eq!(report.deadline_rate(), 0.0);
        assert_eq!(report.max_latency_us(), 0.0);
        assert_eq!(report.mean_latency_us(), 0.0);
    }
}
