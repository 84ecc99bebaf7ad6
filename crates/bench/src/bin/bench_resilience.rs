//! Records deadline-rate and goodput vs injected fault rate, guarded
//! vs unguarded, to `BENCH_resilience.json` (run from the repo root:
//! `cargo run --release -p quamax-bench --bin bench_resilience`).
//!
//! Workload: two LTE access points (16-user BPSK, 50 subcarriers,
//! 1 ms frames) dispatching to a pool of two integrated-overhead QPU
//! workers with a ZF CPU pool as the escalation floor. The fault rate
//! sweeps a seeded [`FaultPlan`] uniformly across all five classes
//! (chain-break storms, ICE drift, programming failures, stalls,
//! crashes); every rate is run twice — [`Guardrails::on`] (deadline-
//! funded retries, circuit breakers, escalation, shedding) and
//! [`Guardrails::off`] (one attempt, faults kill their jobs).
//!
//! Two claims are *asserted*, not eyeballed:
//! 1. at the stress point (highest fault rate), the guarded
//!    deadline-rate strictly exceeds the unguarded one — the
//!    guardrails buy real frames, and
//! 2. at fault rate zero, one worker under [`Guardrails::on`] is
//!    **bit-identical** to the plain QPU — the same worker under
//!    [`Guardrails::off`] (`SimReport` equality): resilience machinery
//!    prices exactly zero in fair weather.

use quamax_bench::{zf_floor, Args, BenchRecord};
use quamax_ran::{
    AccessPoint, Deadline, FaultPlan, FaultRates, FronthaulConfig, Guardrails, JobDirection,
    Policy, QpuOverheads, QpuServer, ResilientServer, SchedConfig, SimReport, Simulation,
};
use quamax_telemetry::Histogram;
use quamax_wireless::Modulation;

const SWEEP: [f64; 5] = [0.0, 0.01, 0.02, 0.04, 0.08];

/// Served-frame latency quantiles through the shared telemetry
/// [`Histogram`] (exact nearest-rank, same rule as
/// `ScheduleReport::latency_quantile_us`).
fn latency_histogram(report: &SimReport) -> Histogram {
    let mut h = Histogram::new();
    for f in &report.frames {
        if f.outcome.is_served() {
            h.observe(f.latency_us);
        }
    }
    h
}

fn ap(id: usize) -> AccessPoint {
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

fn qpu() -> QpuServer {
    QpuServer::new(QpuOverheads::integrated(), 2.0, 5)
}

/// On-time payload bits per millisecond of horizon.
fn goodput_bits_per_ms(report: &SimReport, horizon_us: f64) -> f64 {
    let bits_per_frame = (ap(0).logical_vars() * ap(0).problems_per_frame()) as f64;
    let on_time = report.frames.iter().filter(|f| f.met_deadline).count() as f64;
    on_time * bits_per_frame / (horizon_us / 1_000.0)
}

/// The two LTE APs served frame by frame from `pool`.
fn sim(pool: ResilientServer) -> Simulation {
    Simulation::new(
        vec![ap(0), ap(1)],
        FronthaulConfig::default(),
        pool,
        SchedConfig::new(Policy::Fifo, 1),
    )
}

fn resilient_sim(workers: usize, rate: f64, seed: u64, guardrails: Guardrails) -> Simulation {
    sim(ResilientServer::new(
        (0..workers).map(|_| qpu()).collect(),
        zf_floor(),
        FaultPlan::new(seed, FaultRates::uniform(rate)),
        guardrails,
    ))
}

fn main() {
    let args = Args::parse(&["frames", "seed"], &[]);
    let frames = args.get_usize("frames", 100); // per AP
    let seed = args.get_u64("seed", 2019); // SIGCOMM '19
    let horizon_us = frames as f64 * ap(0).frame_interval_us;

    // Claim 2 first: zero faults, one worker, guardrails on — the
    // report must equal the plain QPU's bit for bit.
    let plain = sim(ResilientServer::plain_qpu(qpu())).run(horizon_us);
    let guarded_quiet = resilient_sim(1, 0.0, seed, Guardrails::on()).run(horizon_us);
    assert_eq!(
        plain, guarded_quiet,
        "guarded serving at fault rate 0 must be bit-identical to the plain QPU sim"
    );

    println!(
        "{frames} frames/AP x 2 LTE APs, 2 QPU workers + ZF floor, uniform per-class fault rate sweep:\n"
    );
    println!(
        "{:<10} {:>14} {:>16} {:>14} {:>16} {:>8} {:>7} {:>7}",
        "rate/class",
        "guarded ddl",
        "guarded goodput",
        "unguard ddl",
        "unguard goodput",
        "faults",
        "trips",
        "shed"
    );

    let mut record = BenchRecord::new("BENCH_resilience", "simulated");
    let mut stress = None;
    for rate in SWEEP {
        let mut stats = Vec::new();
        for guarded in [true, false] {
            let guardrails = if guarded {
                Guardrails::on()
            } else {
                Guardrails::off()
            };
            let mut sim = resilient_sim(2, rate, seed, guardrails);
            let report = sim.run(horizon_us);
            let srv = sim.pool();
            let ledger = srv.ledger();
            assert!(ledger.conserved(), "ledger leaked a job at rate {rate}");
            if guarded {
                assert_eq!(
                    report.failed_count(),
                    0,
                    "guardrails must recover every frame at rate {rate}"
                );
            }
            stats.push((
                report.deadline_rate(),
                goodput_bits_per_ms(&report, horizon_us),
                srv.fault_plan().counters().total(),
                srv.breaker_trips(),
                report.shed_count(),
                report.failed_count(),
                latency_histogram(&report),
            ));
        }
        let (g, u) = (&stats[0], &stats[1]);
        println!(
            "{rate:<10} {:>14.4} {:>16.1} {:>14.4} {:>16.1} {:>8} {:>7} {:>7}",
            g.0, g.1, u.0, u.1, g.2, g.3, g.4
        );
        if rate == SWEEP[SWEEP.len() - 1] {
            stress = Some((g.0, u.0));
        }
        let arm = |s: &(f64, f64, u64, u64, usize, usize, Histogram)| {
            serde_json::json!({
                "deadline_rate": s.0,
                "goodput_bits_per_ms": s.1,
                "faults_injected": s.2,
                "breaker_trips": s.3,
                "shed_frames": s.4,
                "failed_frames": s.5,
                "latency_p50_us": s.6.quantile(0.5),
                "latency_p99_us": s.6.quantile(0.99),
                "latency_p999_us": s.6.quantile(0.999),
            })
        };
        record.rows.push(serde_json::json!({
            "row": "fault_rate",
            "fault_rate_per_class": rate,
            "guarded": arm(g),
            "unguarded": arm(u),
        }));
    }

    // Claim 1: strict dominance at the stress point.
    let (guarded_ddl, unguarded_ddl) = stress.expect("sweep includes the stress rate");
    assert!(
        guarded_ddl > unguarded_ddl,
        "at the stress fault rate the guarded deadline-rate ({guarded_ddl}) must strictly \
         exceed the unguarded one ({unguarded_ddl})"
    );

    record.workload = serde_json::json!({
        "aps": 2,
        "ap_class": "16-user BPSK, 50 subcarriers, 1 ms frames, LTE (3 ms) deadline",
        "frames_per_ap": frames,
        "workers": 2,
        "qpu": "integrated overheads, 2 us cycle, 5 anneals",
        "floor": "8-core ZF pool",
        "fault_classes": "storm, drift, programming, stall, crash (uniform rate each)",
        "seed": seed,
    });
    record.asserts = serde_json::json!({
        "stress_guarded_strictly_dominates": guarded_ddl > unguarded_ddl,
        "zero_fault_bit_identity_with_plain_qpu_sim": true,
    });
    record.rows.push(serde_json::json!({
        "row": "stress_point",
        "fault_rate_per_class": SWEEP[SWEEP.len() - 1],
        "guarded_deadline_rate": guarded_ddl,
        "unguarded_deadline_rate": unguarded_ddl,
    }));
    record.note = "fault_rate rows: one seeded run per uniform per-class fault rate, guarded \
        and unguarded (latency quantiles in simulated us); stress_point: the highest rate, \
        where the guarded deadline rate is asserted to strictly exceed the unguarded one; the \
        zero-fault guarded run is asserted bit-identical to the plain QPU simulation"
        .to_string();
    let path = record.write().expect("write BENCH_resilience.json");
    println!("\nwrote {}", path.display());
}
