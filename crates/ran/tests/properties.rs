//! Property and determinism tests for the resilience and scheduling
//! subsystems.
//!
//! Contracts pinned for the resilience layer (PR 6):
//! 1. **Conservation** — across random fault-rate and priority mixes,
//!    the ledger balances: `submitted == completed + shed + failed`.
//!    No job is ever silently lost.
//! 2. **Determinism** — a fixed `FaultPlan` seed makes an entire
//!    degraded simulation reproducible: two runs yield an *identical*
//!    `SimReport`, frame for frame.
//! 3. **Zero-fault bit-identity** — with a quiet plan, a one-worker
//!    pool under `Guardrails::on()` is bit-identical to the plain QPU
//!    (`Guardrails::off()`): the guardrails price exactly zero in fair
//!    weather.
//!
//! Contracts pinned for the scheduling layer (PR 7):
//! 4. **Batch-deadline safety** — the closing rule fires only once a
//!    batch's projected slack is exhausted, and no rule- or full-closed
//!    batch is ever dispatched after its earliest member deadline has
//!    already passed.
//! 5. **Load-generation determinism** — a fixed seed makes synthetic
//!    traffic bit-identical; a different seed makes it different.
//! 6. **Fifo bit-identity** — brokered batch-of-1 Fifo scheduling
//!    replays unbrokered `ResilientServer::submit` exactly, *including
//!    its fault schedule*, across random fault seeds and rates.
//! 7. **In-flight conservation** — the ledger's `batched` gauge keeps
//!    the conservation identity through admit → dispatch/shed, and a
//!    drained pipeline collapses it to the terminal identity.
//!
//! Contract pinned for the observability layer (PR 9):
//! 8. **Telemetry transparency** — a telemetry-enabled simulation is
//!    bit-identical (`SimReport` equality) to a disabled one at
//!    matched seeds, across random fault seeds, both job directions,
//!    and both the `Fifo` and `DeadlineBatch` policies: recording
//!    reads no wall clock, draws no randomness, and never feeds back
//!    into serving.
//!
//! Contract pinned for the serving pool:
//! 9. **Simulation goldens** — FNV-1a digests of `SimReport`s over ten
//!    serving configurations (plain QPU ×4, CPU ×2, hybrid, resilient
//!    with faults under guardrails on and off, `DeadlineBatch`) and four
//!    AP sets. A change to the serving path that moves any frame's
//!    arrival, latency bits, deadline verdict or outcome fails here.

use proptest::prelude::*;
use quamax_ran::{
    AccessPoint, BatchScheduler, Broker, CloseTrigger, CpuPolicy, CpuPool, Deadline, FaultPlan,
    FaultRates, FrameOutcome, FronthaulConfig, Guardrails, HybridServer, Job, JobDirection,
    JobState, LoadGen, Policy, Priority, QpuOverheads, QpuServer, ResilientServer, SchedConfig,
    ServeError, SimReport, Simulation, UserJob,
};
use quamax_wireless::Modulation;

fn qpu() -> QpuServer {
    QpuServer::new(QpuOverheads::integrated(), 2.0, 5)
}

fn classical() -> CpuPool {
    CpuPool::new(
        8,
        CpuPolicy::ZeroForcing {
            vectors_per_channel: 1,
        },
    )
}

fn lte_ap(id: usize) -> AccessPoint {
    AccessPoint {
        id,
        users: 16,
        modulation: Modulation::Bpsk,
        direction: JobDirection::Uplink,
        subcarriers: 50,
        frame_interval_us: 1_000.0,
        deadline: Deadline::Lte,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation: whatever the fault mix, the priority mix, and the
    /// guardrail configuration, every submitted job ends in exactly one
    /// of {completed, shed, failed}.
    #[test]
    fn ledger_conserves_every_job(
        seed in 0u64..1_000,
        storm in 0.0f64..0.15,
        drift in 0.0f64..0.15,
        program in 0.0f64..0.15,
        stall in 0.0f64..0.15,
        crash in 0.0f64..0.15,
        priorities in proptest::collection::vec(0u8..3, 60),
        guarded in proptest::bool::ANY,
    ) {
        let rates = FaultRates {
            chain_break_storm: storm,
            ice_drift: drift,
            programming_failure: program,
            worker_stall: stall,
            worker_crash: crash,
        };
        let guardrails = if guarded { Guardrails::on() } else { Guardrails::off() };
        let mut srv = ResilientServer::new(
            vec![qpu(), qpu()],
            classical(),
            FaultPlan::new(seed, rates),
            guardrails,
        );
        for (k, &p) in priorities.iter().enumerate() {
            let job = Job {
                source: k % 3,
                direction: JobDirection::Uplink,
                channel_hash: None,
                problems: 1 + k % 50,
                logical_vars: 16,
                users: 16,
                deadline_us: 3_000.0,
                priority: match p {
                    0 => Priority::High,
                    1 => Priority::Normal,
                    _ => Priority::Low,
                },
            };
            // Bursty arrivals (4 jobs per instant) so backpressure can
            // actually engage and shed.
            let _ = srv.submit(250.0 * (k / 4) as f64, &job);
        }
        let ledger = srv.ledger();
        prop_assert_eq!(ledger.submitted, priorities.len() as u64);
        prop_assert!(
            ledger.conserved(),
            "ledger leaked a job: {:?}",
            ledger
        );
        // Unguarded configs never shed and never escalate.
        if !guarded {
            prop_assert_eq!(ledger.shed, 0);
        }
    }
}

/// Same `FaultPlan` seed ⇒ byte-identical `SimReport`, including every
/// frame's outcome, attempts, and latency. This is what makes degraded
/// runs debuggable: any failure observed in a sweep can be replayed.
#[test]
fn fixed_seed_fault_injection_is_deterministic() {
    let run = || {
        let server = ResilientServer::new(
            vec![qpu(), qpu()],
            classical(),
            FaultPlan::new(2_026, FaultRates::uniform(0.06)),
            Guardrails::on(),
        );
        Simulation::new(
            vec![lte_ap(0), lte_ap(1)],
            FronthaulConfig::default(),
            server,
            SchedConfig::new(Policy::Fifo, 1),
        )
        .run(150_000.0)
    };
    let a = run();
    let b = run();
    assert!(!a.frames.is_empty());
    assert_eq!(a, b, "same seed must replay the same degraded run");
    // And a different seed gives a genuinely different run.
    let other = {
        let server = ResilientServer::new(
            vec![qpu(), qpu()],
            classical(),
            FaultPlan::new(2_027, FaultRates::uniform(0.06)),
            Guardrails::on(),
        );
        Simulation::new(
            vec![lte_ap(0), lte_ap(1)],
            FronthaulConfig::default(),
            server,
            SchedConfig::new(Policy::Fifo, 1),
        )
        .run(150_000.0)
    };
    assert_ne!(a, other, "different seeds must explore different faults");
}

/// At fault rate zero the guarded path reproduces today's simulation
/// bit for bit — with and without a session cache on the QPU.
#[test]
fn zero_faults_guarded_is_bit_identical_to_plain_qpu() {
    let overheads = QpuOverheads {
        preprocessing_us: 0.0,
        programming_us: 80.0,
        readout_per_anneal_us: 0.0,
    };
    for cached in [false, true] {
        let make_qpu = || {
            let q = QpuServer::new(overheads, 2.0, 3);
            if cached {
                q.with_session_cache(30_000.0)
            } else {
                q.with_coherence(30)
            }
        };
        let aps = || vec![lte_ap(0), lte_ap(1)];
        let run = |pool: ResilientServer| {
            let fifo = SchedConfig::new(Policy::Fifo, 1);
            Simulation::new(aps(), FronthaulConfig::default(), pool, fifo).run(80_000.0)
        };
        let plain = run(ResilientServer::plain_qpu(make_qpu()));
        let guarded = run(ResilientServer::new(
            vec![make_qpu()],
            classical(),
            FaultPlan::quiet(9),
            Guardrails::on(),
        ));
        assert_eq!(
            plain, guarded,
            "guarded ≠ plain at zero faults (cached = {cached})"
        );
    }
}

/// A cache-equipped pool worker for the scheduling tests (coherence
/// matching the metro load generator's 10 ms channel blocks).
fn qpu_cached() -> QpuServer {
    QpuServer::new(QpuOverheads::integrated(), 2.0, 3).with_session_cache(10_000.0)
}

/// Float tolerance for close-rule record checks, µs.
const TOL_US: f64 = 1e-6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batch-deadline safety, over random synthetic loads: a
    /// `Slack`-triggered dispatch happens only once the batch's
    /// projected completion has reached its earliest member deadline
    /// (the rule never cuts batching short while slack remains), and
    /// *no* rule- or full-closed batch is dispatched after that
    /// deadline has already passed — when slack was available at
    /// close, the projection met it. Drain-triggered dispatches are
    /// end-of-run leftovers and exempt from the second clause.
    #[test]
    fn rule_closed_batches_never_project_past_a_meetable_deadline(
        seed in 0u64..10_000,
        rate in 0.0005f64..0.004,
    ) {
        let mut server = ResilientServer::new(
            vec![qpu_cached(), qpu_cached()],
            classical(),
            FaultPlan::quiet(seed),
            Guardrails::on(),
        );
        let mut broker = Broker::new();
        let arrivals = LoadGen::metro(seed, 3, rate).generate(20_000.0);
        let report = BatchScheduler::new(SchedConfig::new(Policy::DeadlineBatch, 24))
            .run(&mut server, &mut broker, arrivals);

        for d in &report.dispatches {
            // The record is internally consistent.
            prop_assert!(
                (d.earliest_deadline_us - d.projected_done_us - d.slack_at_close_us).abs()
                    < TOL_US,
                "slack_at_close must equal deadline − projected_done: {d:?}"
            );
            if d.trigger == CloseTrigger::Slack {
                prop_assert!(
                    d.slack_at_close_us <= TOL_US,
                    "the closing rule fired while slack remained: {d:?}"
                );
            }
            if d.trigger != CloseTrigger::Drain {
                prop_assert!(
                    d.close_us <= d.earliest_deadline_us + TOL_US,
                    "a batch was dispatched after its earliest deadline passed: {d:?}"
                );
            }
        }
        // The run drains completely: broker and ledger agree that
        // nothing is left in flight.
        prop_assert!(broker.drained());
        prop_assert!(broker.census().conserved());
        prop_assert_eq!(server.ledger().in_flight(), 0);
        prop_assert!(server.ledger().conserved());
    }

    /// A fixed seed makes the synthetic load bit-identical across
    /// runs; a different seed explores genuinely different traffic.
    #[test]
    fn fixed_seed_load_generation_is_bit_identical(
        seed in 0u64..1_000_000,
        cells in 1usize..4,
        rate in 0.0005f64..0.01,
    ) {
        let a = LoadGen::metro(seed, cells, rate).generate(25_000.0);
        let b = LoadGen::metro(seed, cells, rate).generate(25_000.0);
        prop_assert_eq!(&a, &b, "same seed must replay the same trace");
        let other = LoadGen::metro(seed ^ 0x5EED, cells, rate).generate(25_000.0);
        if !a.is_empty() && !other.is_empty() {
            prop_assert_ne!(&a, &other, "different seeds must differ");
        }
    }

    /// The full-duplex mix holds the same determinism contract as
    /// `metro` — bit-identical per seed, different across seeds — for
    /// any downlink ratio, and degenerates to `metro` exactly at
    /// ratio 0. Every emitted downlink job carries a session key that
    /// no uplink job of the trace shares (the direction rekey), and
    /// sizes its problems as the VPP `4·Nu` encoding.
    #[test]
    fn full_duplex_load_is_deterministic_and_never_aliases_directions(
        seed in 0u64..1_000_000,
        cells in 1usize..4,
        rate in 0.0005f64..0.01,
        fraction in 0.0f64..1.0,
    ) {
        let a = LoadGen::full_duplex(seed, cells, rate, fraction).generate(25_000.0);
        let b = LoadGen::full_duplex(seed, cells, rate, fraction).generate(25_000.0);
        prop_assert_eq!(&a, &b, "same seed must replay the same trace");
        let other = LoadGen::full_duplex(seed ^ 0x5EED, cells, rate, fraction).generate(25_000.0);
        if !a.is_empty() && !other.is_empty() {
            prop_assert_ne!(&a, &other, "different seeds must differ");
        }
        let metro = LoadGen::metro(seed, cells, rate).generate(25_000.0);
        if fraction == 0.0 {
            prop_assert_eq!(&a, &metro, "ratio 0 must be metro bit for bit");
        }
        let up: std::collections::HashSet<u64> = a
            .iter()
            .filter(|j| j.direction == JobDirection::Uplink)
            .map(|j| j.channel_hash)
            .collect();
        for j in a.iter().filter(|j| j.direction == JobDirection::Downlink) {
            prop_assert!(
                !up.contains(&j.channel_hash),
                "a downlink session key aliased an uplink one: {:#x}",
                j.channel_hash
            );
            prop_assert_eq!(j.logical_vars, 4 * j.users);
        }
    }

    /// The flash-crowd preset is bit-identical per seed and different
    /// across seeds, like every other generator.
    #[test]
    fn flash_crowd_load_is_deterministic(
        seed in 0u64..1_000_000,
        cells in 1usize..4,
        rate in 0.0005f64..0.01,
    ) {
        let a = LoadGen::flash_crowd(seed, cells, rate).generate(25_000.0);
        let b = LoadGen::flash_crowd(seed, cells, rate).generate(25_000.0);
        prop_assert_eq!(&a, &b, "same seed must replay the same trace");
        let other = LoadGen::flash_crowd(seed ^ 0x5EED, cells, rate).generate(25_000.0);
        if !a.is_empty() && !other.is_empty() {
            prop_assert_ne!(&a, &other, "different seeds must differ");
        }
    }

    /// Brokered batch-of-1 Fifo scheduling replays the unbrokered
    /// `ResilientServer::submit` path bit for bit — same completion
    /// times, same attempts, same rungs, same ledger — across random
    /// fault seeds and rates. The broker prices zero when it is not
    /// batching.
    #[test]
    fn brokered_fifo_replays_direct_submission_under_faults(
        seed in 0u64..10_000,
        rate in 0.0f64..0.12,
        n in 10usize..60,
    ) {
        let make_server = || {
            ResilientServer::new(
                vec![qpu_cached(), qpu_cached()],
                classical(),
                FaultPlan::new(seed, FaultRates::uniform(rate)),
                Guardrails::on(),
            )
        };
        // Bursty arrivals (3 per instant) across 3 cells so shedding,
        // retries, and escalation all engage.
        let arrivals: Vec<UserJob> = (0..n)
            .map(|k| UserJob {
                arrival_us: 400.0 * (k / 3) as f64,
                cell: k % 3,
                direction: JobDirection::Uplink,
                channel_hash: 0xABCD ^ (k % 3) as u64,
                problems: 1 + k % 8,
                logical_vars: 16,
                users: 16,
                deadline_us: 3_000.0,
                priority: match k % 3 {
                    0 => Priority::High,
                    1 => Priority::Normal,
                    _ => Priority::Low,
                },
            })
            .collect();

        // Direct path: one `submit` per job, in arrival order.
        let mut direct_server = make_server();
        let direct: Vec<Result<_, _>> = arrivals
            .iter()
            .map(|j| {
                let job = Job {
                    source: j.cell,
                    direction: j.direction,
                    channel_hash: Some(j.channel_hash),
                    problems: j.problems,
                    logical_vars: j.logical_vars,
                    users: j.users,
                    deadline_us: j.deadline_us,
                    priority: j.priority,
                };
                direct_server.submit(j.arrival_us, &job)
            })
            .collect();

        // Brokered path: the same jobs through admission + Fifo
        // dispatch.
        let mut brokered_server = make_server();
        let mut broker = Broker::new();
        let report = BatchScheduler::new(SchedConfig::new(Policy::Fifo, 24))
            .run(&mut brokered_server, &mut broker, arrivals);

        prop_assert_eq!(
            direct_server.ledger(),
            brokered_server.ledger(),
            "Fifo brokering must leave the identical ledger"
        );
        prop_assert_eq!(report.outcomes.len(), direct.len());
        for (o, d) in report.outcomes.iter().zip(&direct) {
            match d {
                Ok(served) => {
                    prop_assert_eq!(o.state, JobState::Completed);
                    prop_assert_eq!(o.done_us, served.done_us);
                    prop_assert_eq!(o.attempts, served.attempts);
                    prop_assert_eq!(o.rung, Some(served.rung));
                }
                Err(ServeError::Shed { .. }) => {
                    prop_assert_eq!(o.state, JobState::Shed);
                }
                Err(_) => {
                    prop_assert_eq!(o.state, JobState::Failed);
                }
            }
        }
    }
}

/// The in-flight gauge: admitted-but-undispatched jobs keep the
/// conservation identity (`submitted == completed + shed + failed +
/// batched`), and draining the pipeline — every admit resolved by a
/// dispatch or a shed — collapses it back to the terminal identity.
#[test]
fn ledger_conserves_through_admit_and_collapses_when_drained() {
    let mut srv = ResilientServer::new(
        vec![qpu_cached()],
        classical(),
        FaultPlan::quiet(41),
        Guardrails::on(),
    );
    let job = Job {
        source: 0,
        direction: JobDirection::Uplink,
        channel_hash: Some(0xFEED),
        problems: 2,
        logical_vars: 16,
        users: 16,
        deadline_us: 3_000.0,
        priority: Priority::Normal,
    };
    for _ in 0..3 {
        srv.admit(0.0, &job).expect("an idle pool admits");
    }
    let mid = srv.ledger();
    assert_eq!(mid.in_flight(), 3, "three jobs admitted, none resolved");
    assert!(mid.conserved(), "in-flight jobs keep the identity: {mid:?}");

    // Resolve all three: one cut under (hypothetical) backpressure,
    // two dispatched as a coalesced batch.
    srv.resolve_shed(1);
    srv.dispatch_batch(0.0, &job, 2 * job.problems, 2, None)
        .expect("a quiet pool serves the batch");
    let done = srv.ledger();
    assert_eq!(done.in_flight(), 0, "drained: {done:?}");
    assert!(done.conserved());
    assert_eq!(done.submitted, 3);
    assert_eq!(done.completed, 2);
    assert_eq!(done.shed, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Telemetry transparency: enabling the metrics registry changes
    /// nothing about a run — the `SimReport` is equal frame for frame
    /// (latency bits included via `PartialEq` on `f64`) whatever the
    /// fault seed, fault rate, direction mix, or serving arm.
    #[test]
    fn telemetry_never_perturbs_a_simulation(
        seed in 0u64..1_000,
        rate in 0.0f64..0.1,
        downlink in proptest::bool::ANY,
        batched in proptest::bool::ANY,
    ) {
        use quamax_telemetry::Telemetry;

        let direction = if downlink {
            JobDirection::Downlink
        } else {
            JobDirection::Uplink
        };
        let ap = AccessPoint {
            direction,
            ..lte_ap(0)
        };
        let pool = || ResilientServer::new(
            vec![
                qpu().with_session_cache(30_000.0),
                qpu().with_session_cache(30_000.0),
            ],
            classical(),
            FaultPlan::new(seed, FaultRates::uniform(rate)),
            Guardrails::on(),
        );
        let policy = if batched { Policy::DeadlineBatch } else { Policy::Fifo };
        let fronthaul = FronthaulConfig {
            one_way_latency_us: 2.0,
        };
        let run = |telemetry: Telemetry| {
            Simulation::new(vec![ap.clone()], fronthaul, pool(), SchedConfig::new(policy, 8))
                .with_telemetry(telemetry)
                .run(40_000.0)
        };

        let telemetry = Telemetry::enabled();
        let plain = run(Telemetry::disabled());
        let observed = run(telemetry.clone());
        prop_assert_eq!(&plain, &observed, "telemetry perturbed the run");

        // The observed run actually recorded: every frame fate shows
        // up in the outcome counters.
        let snap = telemetry.snapshot();
        prop_assert_eq!(
            snap.counter_total("quamax_sim_frames_total"),
            observed.frames.len() as u64
        );
    }
}

/// The serving configurations of the golden `SimReport` matrix.
const GOLDEN_ARMS: [&str; 10] = [
    "qpu_integrated",
    "qpu_coherence",
    "qpu_cache",
    "qpu_dw2q",
    "cpu_zf",
    "cpu_sphere",
    "hybrid",
    "resilient_on",
    "resilient_off",
    "brokered",
];

/// The pool and scheduling policy of one golden-matrix arm over `aps`.
fn golden_sim(arm: &str, aps: Vec<AccessPoint>, fronthaul: FronthaulConfig) -> Simulation {
    let partial = QpuOverheads {
        preprocessing_us: 0.0,
        programming_us: 80.0,
        readout_per_anneal_us: 2.0,
    };
    let faulty = |guardrails: Guardrails, cached: bool| {
        let worker = || {
            let q = QpuServer::new(QpuOverheads::integrated(), 2.0, 5);
            if cached {
                q.with_session_cache(30_000.0)
            } else {
                q
            }
        };
        ResilientServer::new(
            vec![worker(), worker()],
            classical(),
            FaultPlan::new(77, FaultRates::uniform(0.05)),
            guardrails,
        )
    };
    let plain = ResilientServer::plain_qpu;
    let pool = match arm {
        "qpu_integrated" => plain(QpuServer::new(QpuOverheads::integrated(), 2.0, 3)),
        "qpu_coherence" => plain(QpuServer::new(partial, 2.0, 3).with_coherence(30)),
        "qpu_cache" => plain(QpuServer::new(partial, 2.0, 3).with_session_cache(30_000.0)),
        "qpu_dw2q" => plain(QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 3)),
        "cpu_zf" => ResilientServer::without_qpu(classical()),
        "cpu_sphere" => ResilientServer::without_qpu(CpuPool::new(
            16,
            CpuPolicy::Sphere {
                expected_nodes: 1_900,
            },
        )),
        "hybrid" => ResilientServer::without_qpu(classical()).with_hybrid(HybridServer::new(
            classical(),
            QpuServer::new(partial, 2.0, 3).with_coherence(30),
            0.125,
        )),
        "resilient_on" | "brokered" => faulty(Guardrails::on(), true),
        "resilient_off" => faulty(Guardrails::off(), false),
        other => unreachable!("unknown arm {other}"),
    };
    let policy = if arm == "brokered" {
        Policy::DeadlineBatch
    } else {
        Policy::Fifo
    };
    Simulation::new(aps, fronthaul, pool, SchedConfig::new(policy, 8))
}

/// The AP sets of the golden matrix, with their fronthaul.
fn golden_ap_sets() -> Vec<(&'static str, Vec<AccessPoint>, FronthaulConfig)> {
    let hop = |one_way_latency_us| FronthaulConfig { one_way_latency_us };
    let ap = |id, users, modulation, direction, interval, deadline| AccessPoint {
        id,
        users,
        modulation,
        direction,
        subcarriers: 50,
        frame_interval_us: interval,
        deadline,
    };
    let up = JobDirection::Uplink;
    vec![
        (
            "wifi",
            vec![ap(0, 16, Modulation::Bpsk, up, 1_000.0, Deadline::WifiAck)],
            hop(2.0),
        ),
        (
            "fractional",
            vec![
                ap(0, 16, Modulation::Bpsk, up, 333.3, Deadline::Lte),
                ap(1, 14, Modulation::Qpsk, up, 471.9, Deadline::Lte),
            ],
            hop(2.3),
        ),
        (
            "cran",
            vec![
                ap(0, 16, Modulation::Bpsk, up, 1_000.0, Deadline::WifiAck),
                ap(1, 14, Modulation::Qpsk, up, 1_000.0, Deadline::Lte),
                ap(2, 48, Modulation::Bpsk, up, 2_000.0, Deadline::Wcdma),
            ],
            hop(5.0),
        ),
        (
            "full_duplex",
            vec![
                ap(0, 16, Modulation::Bpsk, up, 400.0, Deadline::WifiAck),
                ap(
                    0,
                    16,
                    Modulation::Bpsk,
                    JobDirection::Downlink,
                    400.0,
                    Deadline::Lte,
                ),
            ],
            hop(2.0),
        ),
    ]
}

/// FNV-1a over every frame's AP, arrival and latency bits, deadline
/// verdict and outcome.
fn report_digest(report: &SimReport) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            acc ^= u64::from(byte);
            acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &report.frames {
        eat(f.ap_id as u64);
        eat(f.arrival_us.to_bits());
        eat(f.latency_us.to_bits());
        eat(u64::from(f.met_deadline));
        match f.outcome {
            FrameOutcome::Served { attempts, rung } => {
                eat(0);
                eat(u64::from(attempts));
                eat(rung as u64);
            }
            FrameOutcome::Shed => eat(1),
            FrameOutcome::Failed => eat(2),
        }
    }
    acc
}

/// Golden digests of the simulation matrix: every serving arm over
/// every AP set. The full-duplex cell (one id, two directions with
/// different deadlines) is recorded only from the per-frame arms.
const GOLDEN_DIGESTS: &[(&str, &str, u64)] = &[
    ("qpu_integrated", "wifi", 0x79333360a63cde01),
    ("qpu_coherence", "wifi", 0x76b54795df1fd08b),
    ("qpu_cache", "wifi", 0x76b54795df1fd08b),
    ("qpu_dw2q", "wifi", 0x79a9cf62a3de7edb),
    ("cpu_zf", "wifi", 0xde4bc16edc897769),
    ("cpu_sphere", "wifi", 0x0b6569bfb3e964b1),
    ("hybrid", "wifi", 0x59ebc6762618b952),
    ("resilient_on", "wifi", 0x650da130932c0f47),
    ("resilient_off", "wifi", 0xbf933ac8021d7f9a),
    ("brokered", "wifi", 0x650da130932c0f47),
    ("qpu_integrated", "fractional", 0x8b5b750bd3d9421f),
    ("qpu_coherence", "fractional", 0x6cfea42c0d9f1074),
    ("qpu_cache", "fractional", 0x1ea09d9df2c8f46b),
    ("qpu_dw2q", "fractional", 0xca2d072993f7e3b8),
    ("cpu_zf", "fractional", 0x88d2fdba4fdb29c7),
    ("cpu_sphere", "fractional", 0x52c82238693a25b5),
    ("hybrid", "fractional", 0x7f3a740298e99cfc),
    ("resilient_on", "fractional", 0x3998cb72665754f2),
    ("resilient_off", "fractional", 0x84665055a814f83e),
    ("brokered", "fractional", 0xba01ad56f673ae21),
    ("qpu_integrated", "cran", 0x990539bee460c4d3),
    ("qpu_coherence", "cran", 0x5a0e72c76a6f389c),
    ("qpu_cache", "cran", 0x5a0e72c76a6f389c),
    ("qpu_dw2q", "cran", 0x93f82978a36efe66),
    ("cpu_zf", "cran", 0x17dfcfd12ebd12da),
    ("cpu_sphere", "cran", 0xceba223312240cbe),
    ("hybrid", "cran", 0xd150b9bfdff7a81b),
    ("resilient_on", "cran", 0x28f94ccf561b41ba),
    ("resilient_off", "cran", 0xd14bf66a9381f3d1),
    ("brokered", "cran", 0x4dfd2eeed9ce8e64),
    ("qpu_integrated", "full_duplex", 0x63e842b189f8862d),
    ("qpu_coherence", "full_duplex", 0x455865da5cbd0604),
    ("qpu_cache", "full_duplex", 0xac970b61e9da96ab),
    ("qpu_dw2q", "full_duplex", 0x1277124145d4c9c6),
    ("cpu_zf", "full_duplex", 0x6b246a264d9104d5),
    ("cpu_sphere", "full_duplex", 0xcfa5fc4b1f7df0f9),
    ("hybrid", "full_duplex", 0x03781a90e49004e9),
    ("resilient_on", "full_duplex", 0x4f4861c37c31410a),
    ("resilient_off", "full_duplex", 0xd9869c39a3f22473),
];

#[test]
fn simulation_reports_are_stable() {
    let mut golden = GOLDEN_DIGESTS.iter();
    for (set, aps, fronthaul) in golden_ap_sets() {
        for arm in GOLDEN_ARMS {
            if set == "full_duplex" && arm == "brokered" {
                continue;
            }
            let report = golden_sim(arm, aps.clone(), fronthaul).run(20_000.0);
            assert!(!report.frames.is_empty());
            let &(golden_arm, golden_set, expected) = golden.next().expect("one digest per case");
            assert_eq!((golden_arm, golden_set), (arm, set));
            let digest = report_digest(&report);
            assert_eq!(digest, expected, "{arm} on {set} moved: {digest:#018x}");
        }
    }
    assert!(golden.next().is_none(), "every golden digest is checked");
}
