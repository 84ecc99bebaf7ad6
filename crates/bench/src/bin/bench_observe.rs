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
//! 2. **within noise** — the telemetry-on wall-clock time (the minimum
//!    over repetitions interleaved with the telemetry-off ones, the
//!    standard noise floor estimator) stays within a generous multiple
//!    of telemetry-off, i.e. the registry never becomes the bottleneck
//!    of a simulated run.
//!
//! The JSON then reports what the instrumentation is *for*: the
//! per-stage QPU pipeline breakdown (programming, anneal, readout,
//! unembed, queue wait) of the same metro run, straight from the
//! merged telemetry histograms.

use quamax_ran::{BatchScheduler, Broker, LoadGen, Policy, SchedConfig, ScheduleReport};
use quamax_telemetry::Telemetry;

use quamax_bench::measure::interleave;
use quamax_bench::{metro_pool, Args, BenchRecord};

const CELLS: usize = 4;
const MAX_BATCH: usize = 24;
const RATE_TOTAL: f64 = 0.012; // jobs/µs across all cells
const REPS: usize = 5; // interleaved wall-clock rounds
/// Telemetry-on may cost at most this multiple of telemetry-off
/// wall-clock (generous: the simulated pipeline is µs-granular, so
/// even a 2× registry overhead would vanish in deployment, but a 10×
/// blowup would mean the mutex or label formatting sits on a hot
/// path).
const NOISE_FACTOR: f64 = 3.0;

fn run_once(seed: u64, horizon_us: f64, telemetry: Telemetry) -> ScheduleReport {
    let mut srv = metro_pool(seed).with_telemetry(telemetry.clone());
    let mut broker = Broker::new();
    let arrivals = LoadGen::metro(seed, CELLS, RATE_TOTAL / CELLS as f64).generate(horizon_us);
    let mut sched = BatchScheduler::new(SchedConfig::new(Policy::DeadlineBatch, MAX_BATCH))
        .with_telemetry(telemetry.clone());
    let report = sched.run(&mut srv, &mut broker, arrivals);
    srv.publish_telemetry();
    broker.publish_telemetry(&telemetry);
    report
}

fn main() {
    let args = Args::parse(&["frames", "seed"], &[]);
    let frames = args.get_usize("frames", 100); // horizon in ms
    let seed = args.get_u64("seed", 2019); // SIGCOMM '19
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

    // Claim 2: within noise on wall clock. Wall time lives only in this
    // harness — the telemetry crate itself never reads a clock.
    let timed = |telemetry: Telemetry| {
        let report = run_once(seed, horizon_us, telemetry);
        assert!(!report.outcomes.is_empty(), "the metro run served jobs");
    };
    let wall = interleave(
        REPS,
        1,
        &mut [
            ("on", &mut || timed(Telemetry::enabled())),
            ("off", &mut || timed(Telemetry::disabled())),
        ],
    );
    let on_over_off = wall.min_ratio(0, 1);
    assert!(
        on_over_off <= NOISE_FACTOR,
        "telemetry-on wall clock exceeded {NOISE_FACTOR}x telemetry-off: {on_over_off:.2}x"
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
    let mut record = BenchRecord::new("BENCH_observe", "both");
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
        record.rows.push(serde_json::json!({
            "row": "stage",
            "clock": "simulated",
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
    record.rows.push(serde_json::json!({
        "row": "snapshot",
        "clock": "simulated",
        "series_count": snap.series.len(),
    }));
    let head = serde_json::json!({
        "row": "wall_clock",
        "clock": "host",
        "reps": REPS,
        "noise_factor": NOISE_FACTOR,
    });
    let row = wall.pair_json(head, (0, 1), 1e-9, "s per run");
    record.rows.push(row);
    record.workload = workload;
    record.asserts = serde_json::json!({
        "telemetry_on_bit_identical_to_off": true,
        "telemetry_on_within_noise_of_off": true,
        "snapshot_json_round_trips": true,
    });
    record.note = format!(
        "stage rows: the simulated per-stage QPU pipeline breakdown of the telemetry-on run, \
         merged over labels; snapshot row: series in the telemetry snapshot; wall_clock row: \
         host seconds per full run, telemetry on (first arm) and off interleaved over {REPS} \
         rounds, one run each per round, the first arm alternating; min_ratio = on minimum \
         over off minimum, asserted <= noise_factor; paired_median_ratio with its bootstrap \
         95% interval over rounds (reported, not gated)"
    );
    let path = record.write().expect("write BENCH_observe.json");
    println!(
        "\nwall clock: {} (limit {NOISE_FACTOR}x)",
        wall.pair_line((0, 1), 1e-9, "s per run")
    );
    println!("wrote {}", path.display());
}
