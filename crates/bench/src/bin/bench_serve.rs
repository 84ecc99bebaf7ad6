//! Sweeps offered synthetic load × scheduling policy over the brokered
//! C-RAN serving stack and records latency quantiles, deadline-rate,
//! batch occupancy, and $/decode to `BENCH_serve.json` (run from the
//! repo root: `cargo run --release -p quamax-bench --bin bench_serve`).
//!
//! Workload: four cells of seeded `LoadGen::metro` traffic (diurnal ×
//! Markov-burst nonhomogeneous Poisson, 70/30 LTE/WCDMA user mix,
//! 10 ms channel-coherence blocks) brokered onto a pool of two QPU
//! workers (near-term overheads: 200 µs programming, 25 µs readout per
//! anneal, session caches) with a ZF CPU pool as the floor. Each
//! offered-load level runs once per [`Policy`]:
//!
//! * `Fifo` — every job dispatches alone at arrival (the unbrokered
//!   baseline, bit-identical to `ResilientServer::submit`);
//! * `DeadlineBatch` — same-channel jobs coalesce until full (one
//!   anneal wave, 24 × 16-var problems) or until the deadline-slack
//!   closing rule fires;
//! * `CostAware` — deadline batching plus the NextG price book:
//!   slack-rich batches route to the CPU floor when cheaper.
//!
//! Two claims are *asserted*, not eyeballed:
//! 1. at the highest offered load, deadline-batching strictly beats
//!    FIFO on deadline-rate — batching turns an overloaded pool's
//!    misses into met deadlines, and
//! 2. deadline-batching actually batches there: mean occupancy > 1.5.

use quamax_bench::{metro_pool, metro_qpu, Args, BenchRecord};
use quamax_ran::{
    BatchScheduler, Broker, CostModel, JobState, LoadGen, Policy, SchedConfig, ScheduleReport,
};
use quamax_telemetry::Histogram;

/// Offered aggregate load, jobs/µs across all cells (FIFO capacity of
/// the two-worker pool is ≈ 0.015 jobs/µs, so the sweep runs from
/// comfortable to ~2× overloaded).
const LOADS: [f64; 4] = [0.002, 0.006, 0.012, 0.024];
const CELLS: usize = 4;
const MAX_BATCH: usize = 24; // one anneal wave of 16-var problems

/// Served-job latency quantiles through the shared telemetry
/// [`Histogram`] — and a proof obligation: the histogram's exact
/// nearest-rank extraction must reproduce the report's historical
/// `latency_quantile_us` path bit for bit at every quantile we emit.
fn latency_histogram(report: &ScheduleReport) -> Histogram {
    let mut h = Histogram::new();
    for o in &report.outcomes {
        if o.state == JobState::Completed {
            h.observe(o.latency_us);
        }
    }
    for q in [0.5, 0.99, 0.999] {
        assert_eq!(
            h.quantile(q).to_bits(),
            report.latency_quantile_us(q).to_bits(),
            "telemetry histogram p{} diverged from ScheduleReport",
            q * 1000.0
        );
    }
    h
}

fn policy_name(policy: Policy) -> &'static str {
    match policy {
        Policy::Fifo => "fifo",
        Policy::DeadlineBatch => "deadline_batch",
        Policy::CostAware => "cost_aware",
    }
}

fn run_one(seed: u64, rate_total: f64, horizon_us: f64, policy: Policy) -> ScheduleReport {
    let mut srv = metro_pool(seed);
    let mut broker = Broker::new();
    let arrivals = LoadGen::metro(seed, CELLS, rate_total / CELLS as f64).generate(horizon_us);
    let report = BatchScheduler::new(SchedConfig::new(policy, MAX_BATCH)).run(
        &mut srv,
        &mut broker,
        arrivals,
    );
    assert!(
        broker.drained() && broker.census().conserved(),
        "broker must drain and conserve ({policy:?} @ {rate_total})"
    );
    let ledger = srv.ledger();
    assert!(
        ledger.in_flight() == 0 && ledger.conserved(),
        "ledger must drain and conserve ({policy:?} @ {rate_total}): {ledger:?}"
    );
    report
}

fn main() {
    let args = Args::parse(&["frames", "seed"], &[]);
    let frames = args.get_usize("frames", 100); // horizon in ms
    let seed = args.get_u64("seed", 2019); // SIGCOMM '19
    let horizon_us = frames as f64 * 1_000.0;
    let policies = [Policy::Fifo, Policy::DeadlineBatch, Policy::CostAware];

    println!(
        "{frames} ms horizon, {CELLS} metro cells, 2 QPU workers (200 us program, session \
         cache) + ZF floor, offered load x policy:\n"
    );
    println!(
        "{:<10} {:<16} {:>6} {:>9} {:>8} {:>8} {:>9} {:>7} {:>11} {:>10}",
        "jobs/us",
        "policy",
        "jobs",
        "ddl rate",
        "p50 us",
        "p99 us",
        "p999 us",
        "occ",
        "$/decode",
        "J/decode"
    );

    let mut record = BenchRecord::new("BENCH_serve", "simulated");
    let mut stress: Option<(f64, f64, f64)> = None; // (fifo ddl, batch ddl, batch occ)
    for rate in LOADS {
        let mut fifo_ddl = None;
        for policy in policies {
            let report = run_one(seed, rate, horizon_us, policy);
            let ddl = report.deadline_rate();
            let occ = report.mean_occupancy();
            let latency = latency_histogram(&report);
            println!(
                "{rate:<10} {:<16} {:>6} {:>9.4} {:>8.1} {:>8.1} {:>9.1} {:>7.2} {:>11.6} {:>10.4}",
                policy_name(policy),
                report.outcomes.len(),
                ddl,
                latency.quantile(0.5),
                latency.quantile(0.99),
                latency.quantile(0.999),
                occ,
                report.usd_per_decode(),
                report.joules_per_decode(),
            );
            match policy {
                Policy::Fifo => fifo_ddl = Some(ddl),
                Policy::DeadlineBatch if rate == LOADS[LOADS.len() - 1] => {
                    stress = Some((fifo_ddl.expect("fifo ran first"), ddl, occ));
                }
                _ => {}
            }
            record.rows.push(serde_json::json!({
                "row": "load_policy",
                "offered_jobs_per_us": rate,
                "policy": policy_name(policy),
                "jobs": report.outcomes.len(),
                "completed": report.completed(),
                "shed": report.shed(),
                "failed": report.failed(),
                "deadline_rate": ddl,
                "latency_p50_us": latency.quantile(0.5),
                "latency_p99_us": latency.quantile(0.99),
                "latency_p999_us": latency.quantile(0.999),
                "mean_batch_occupancy": occ,
                "dispatches": report.dispatches.len(),
                "usd_per_decode": report.usd_per_decode(),
                "joules_per_decode": report.joules_per_decode(),
                "total_usd": report.total_cost.usd,
            }));
        }
    }

    let (fifo_ddl, batch_ddl, batch_occ) = stress.expect("sweep includes the stress load");
    assert!(
        batch_ddl > fifo_ddl,
        "at the highest offered load, deadline-batching ({batch_ddl}) must strictly beat \
         FIFO ({fifo_ddl}) on deadline-rate"
    );
    assert!(
        batch_occ > 1.5,
        "deadline-batching must actually batch at the stress load (mean occupancy \
         {batch_occ} <= 1.5)"
    );

    // Datacenter sizing illustration from the price book: annealers
    // needed for a 100-cell datacenter at the stress per-cell rate,
    // assuming batched service (one wave per 24-job batch).
    let cost = CostModel::nextg_baseline();
    let per_cell_rate = LOADS[LOADS.len() - 1] / CELLS as f64;
    let wave_us = metro_qpu().amortized_service_time_us(MAX_BATCH, 16, false);
    let qpu_us_per_s = per_cell_rate * 100.0 * 1e6 * (wave_us / MAX_BATCH as f64);
    let annealers = cost.annealers_per_datacenter(qpu_us_per_s, 0.7);

    record.workload = serde_json::json!({
        "cells": CELLS,
        "generator": "metro (diurnal x Markov bursts, 70% 16-user BPSK LTE / 30% 8-user QPSK WCDMA)",
        "horizon_ms": frames,
        "workers": 2,
        "qpu": "200 us programming, 25 us readout/anneal, 2 us cycle, 5 anneals, 10 ms session cache",
        "floor": "8-core ZF pool",
        "max_batch": MAX_BATCH,
        "seed": seed,
    });
    record.asserts = serde_json::json!({
        "stress_batching_strictly_beats_fifo_deadline_rate": batch_ddl > fifo_ddl,
        "stress_mean_occupancy_above_1p5": batch_occ > 1.5,
    });
    record.rows.push(serde_json::json!({
        "row": "stress_point",
        "offered_jobs_per_us": LOADS[LOADS.len() - 1],
        "fifo_deadline_rate": fifo_ddl,
        "deadline_batch_deadline_rate": batch_ddl,
        "deadline_batch_mean_occupancy": batch_occ,
    }));
    record.rows.push(serde_json::json!({
        "row": "datacenter_sizing",
        "cells": 100,
        "per_cell_offered_jobs_per_us": per_cell_rate,
        "batched_qpu_us_per_job": wave_us / MAX_BATCH as f64,
        "offered_qpu_us_per_s": qpu_us_per_s,
        "utilization_target": 0.7,
        "annealers_required": annealers,
    }));
    record.note = "load_policy rows: one seeded metro run per offered load and policy \
        (latency quantiles in simulated us from the telemetry histogram, bit-identical to the \
        report's); stress_point: the highest load, where deadline batching is asserted to beat \
        FIFO on deadline rate with mean occupancy > 1.5; datacenter_sizing: annealers for 100 \
        cells at the stress per-cell rate under batched service, from the NextG price book"
        .to_string();
    let path = record.write().expect("write BENCH_serve.json");
    println!("\nwrote {}", path.display());
}
