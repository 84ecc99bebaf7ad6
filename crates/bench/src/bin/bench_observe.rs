//! Observability bench: per-stage latency breakdown of a metro run
//! with the telemetry subsystem on, plus the two claims that make
//! telemetry deployable, to `BENCH_observe.json` (run from the repo
//! root: `cargo run --release -p quamax-bench --bin bench_observe`).
//!
//! Workload: the `bench_serve` metro mix (four cells of seeded diurnal
//! × Markov-burst traffic) brokered with deadline-aware batching onto
//! two near-term QPU workers with session caches and a ZF floor.
//!
//! Two claims are *asserted*, not eyeballed:
//! 1. **bit-identity** — the telemetry-enabled run's
//!    [`ScheduleReport`] equals the disabled run's exactly (every
//!    outcome, dispatch row, and bill), because recording is keyed on
//!    simulated time and uses no wall clock and no RNG; and
//! 2. **within noise** — the telemetry-on wall-clock time (min over
//!    several repetitions, the standard noise floor estimator) stays
//!    within a generous multiple of telemetry-off, i.e. the registry
//!    never becomes the bottleneck of a simulated run.
//!
//! The JSON then reports what the instrumentation is *for*: the
//! per-stage QPU pipeline breakdown (programming, anneal, readout,
//! unembed, queue wait) of the same metro run, straight from the
//! merged telemetry histograms.

use quamax_ran::{
    BatchScheduler, Broker, CpuPolicy, CpuPool, FaultPlan, Guardrails, LoadGen, Policy,
    QpuOverheads, QpuServer, ResilientServer, SchedConfig, ScheduleReport,
};
use quamax_telemetry::Telemetry;

use quamax_bench::Args;

const CELLS: usize = 4;
const MAX_BATCH: usize = 24;
const RATE_TOTAL: f64 = 0.012; // jobs/µs across all cells
const REPS: usize = 5; // min-of-k wall-clock repetitions
/// Telemetry-on may cost at most this multiple of telemetry-off
/// wall-clock (generous: the simulated pipeline is µs-granular, so
/// even a 2× registry overhead would vanish in deployment, but a 10×
/// blowup would mean the mutex or label formatting sits on a hot
/// path).
const NOISE_FACTOR: f64 = 3.0;

fn qpu() -> QpuServer {
    let overheads = QpuOverheads {
        preprocessing_us: 0.0,
        programming_us: 200.0,
        readout_per_anneal_us: 25.0,
    };
    QpuServer::new(overheads, 2.0, 5).with_session_cache(10_000.0)
}

fn run_once(seed: u64, horizon_us: f64, telemetry: Telemetry) -> ScheduleReport {
    let mut srv = ResilientServer::new(
        vec![qpu(), qpu()],
        CpuPool::new(
            8,
            CpuPolicy::ZeroForcing {
                vectors_per_channel: 1,
            },
        ),
        FaultPlan::quiet(seed),
        Guardrails::on(),
    )
    .with_telemetry(telemetry.clone());
    let mut broker = Broker::new();
    let arrivals = LoadGen::metro(seed, CELLS, RATE_TOTAL / CELLS as f64).generate(horizon_us);
    let mut sched = BatchScheduler::new(SchedConfig::new(Policy::DeadlineBatch, MAX_BATCH))
        .with_telemetry(telemetry.clone());
    let report = sched.run(&mut srv, &mut broker, arrivals);
    srv.publish_telemetry();
    broker.publish_telemetry(&telemetry);
    report
}

/// Min-of-`REPS` wall-clock seconds for one full run. Wall time lives
/// only in this harness — the telemetry crate itself never reads a
/// clock.
fn min_wall_seconds(seed: u64, horizon_us: f64, enabled: bool) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let telemetry = if enabled {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let start = std::time::Instant::now();
        let report = run_once(seed, horizon_us, telemetry);
        let dt = start.elapsed().as_secs_f64();
        assert!(!report.outcomes.is_empty(), "the metro run served jobs");
        best = best.min(dt);
    }
    best
}

fn main() {
    let args = Args::parse(&["frames", "seed"], &[]);
    let frames = args.get_usize("frames", 100); // horizon in ms
    let seed = args.get_u64("seed", 2019); // SIGCOMM '19
    assert!(frames > 0, "need a positive horizon");
    let horizon_us = frames as f64 * 1_000.0;

    // Claim 1: bit-identity. Identical seeds, telemetry off vs on —
    // the reports must be equal in every field.
    let off = run_once(seed, horizon_us, Telemetry::disabled());
    let telemetry = Telemetry::enabled();
    let on = run_once(seed, horizon_us, telemetry.clone());
    assert_eq!(
        off, on,
        "telemetry-on must be bit-identical to telemetry-off at matched seeds"
    );

    // Claim 2: within noise on wall clock.
    let wall_off = min_wall_seconds(seed, horizon_us, false);
    let wall_on = min_wall_seconds(seed, horizon_us, true);
    assert!(
        wall_on <= wall_off * NOISE_FACTOR,
        "telemetry-on wall clock ({wall_on:.4}s) exceeded {NOISE_FACTOR}x telemetry-off \
         ({wall_off:.4}s)"
    );

    // The payoff: per-stage pipeline breakdown from the merged
    // histograms (merged over labels — per-cell series stay in the
    // snapshot for the exporters).
    let stages = [
        ("program", "quamax_qpu_program_us"),
        ("anneal", "quamax_qpu_anneal_us"),
        ("readout", "quamax_qpu_readout_us"),
        ("unembed", "quamax_qpu_unembed_us"),
        ("queue", "quamax_qpu_queue_wait_us"),
    ];
    println!(
        "{frames} ms metro horizon, deadline batching, telemetry on (bit-identical to off):\n"
    );
    println!(
        "{:<10} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "stage", "events", "total us", "mean us", "p50 us", "p99 us", "p999 us"
    );
    let mut breakdown = Vec::new();
    for (stage, series) in stages {
        let h = telemetry
            .merged_histogram(series)
            .unwrap_or_else(|| panic!("stage series {series} was never recorded"));
        println!(
            "{stage:<10} {:>8} {:>12.1} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            h.count(),
            h.sum(),
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.quantile(0.999),
        );
        breakdown.push(serde_json::json!({
            "stage": stage,
            "series": series,
            "events": h.count(),
            "total_us": h.sum(),
            "mean_us": h.mean(),
            "p50_us": h.quantile(0.5),
            "p99_us": h.quantile(0.99),
            "p999_us": h.quantile(0.999),
        }));
    }

    // Snapshot self-check: the exporter JSON must round-trip through
    // the parser and carry every stage series (this doubles as the CI
    // smoke assertion).
    let snap = telemetry.snapshot();
    let snap_json = serde_json::to_string_pretty(&snap.to_json()).expect("serializable");
    let parsed = serde_json::from_str(&snap_json).expect("snapshot JSON parses");
    assert!(
        parsed.get("series").and_then(|s| s.as_array()).is_some(),
        "snapshot JSON carries a series array"
    );
    for (_, series) in stages {
        assert!(snap.has_series(series), "snapshot missing {series}");
    }

    let workload = serde_json::json!({
        "cells": CELLS,
        "generator": "metro (diurnal x Markov bursts, 70% 16-user BPSK LTE / 30% 8-user QPSK WCDMA)",
        "offered_jobs_per_us": RATE_TOTAL,
        "horizon_ms": frames,
        "workers": 2,
        "qpu": "200 us programming, 25 us readout/anneal, 2 us cycle, 5 anneals, 10 ms session cache",
        "floor": "8-core ZF pool",
        "policy": "deadline_batch",
        "max_batch": MAX_BATCH,
        "seed": seed,
    });
    let asserts = serde_json::json!({
        "telemetry_on_bit_identical_to_off": true,
        "telemetry_on_within_noise_of_off": wall_on <= wall_off * NOISE_FACTOR,
        "snapshot_json_round_trips": true,
    });
    let wall = serde_json::json!({
        "reps": REPS,
        "noise_factor": NOISE_FACTOR,
        "off_min_s": wall_off,
        "on_min_s": wall_on,
        "on_over_off": wall_on / wall_off,
    });
    let doc = serde_json::json!({
        "name": "BENCH_observe",
        "workload": workload,
        "asserts": asserts,
        "wall_clock": wall,
        "stage_breakdown_us": serde_json::Value::Array(breakdown),
        "series_count": snap.series.len(),
    });
    std::fs::write(
        "BENCH_observe.json",
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .expect("write BENCH_observe.json");
    println!(
        "\nwall clock: off {wall_off:.4}s, on {wall_on:.4}s ({:.2}x, limit {NOISE_FACTOR}x)",
        wall_on / wall_off
    );
    println!("wrote BENCH_observe.json");
}
