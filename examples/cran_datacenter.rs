//! C-RAN deployment study: can QA decoding meet wireless deadlines?
//!
//! Models the paper's §7 discussion quantitatively: several access
//! points forward uplink frames over fronthaul to a data center that
//! decodes them either on a QPU (with today's overhead stack, or the
//! integrated future device) or on a classical CPU pool running
//! zero-forcing. Every server is a configuration of one serving pool.
//!
//! Run: `cargo run --release --example cran_datacenter [-- --metrics]`
//! (any other argument prints usage and exits 2).

use quamax::prelude::*;
use quamax::ran::{
    AccessPoint, BatchScheduler, Broker, CpuPolicy, CpuPool, Deadline, FaultPlan, FronthaulConfig,
    Guardrails, HybridServer, JobDirection, JobState, LoadGen, Policy, QpuOverheads, QpuServer,
    ResilientServer, SchedConfig, Simulation,
};
use quamax::telemetry::{Histogram, Telemetry};
use quamax::wireless::Modulation;

fn main() {
    let metrics = match std::env::args().skip(1).collect::<Vec<_>>().as_slice() {
        [] => false,
        [flag] if flag == "--metrics" => true,
        _ => {
            eprintln!("usage: cran_datacenter [--metrics]");
            std::process::exit(2);
        }
    };
    // Three APs: a Wi-Fi hotspot with 16-user BPSK, an LTE macro cell
    // with 14-user QPSK, and a WCDMA carrier with 48-user BPSK.
    let aps = vec![
        AccessPoint {
            id: 0,
            users: 16,
            modulation: Modulation::Bpsk,
            direction: JobDirection::Uplink,
            subcarriers: 50,
            frame_interval_us: 1_000.0,
            deadline: Deadline::WifiAck,
        },
        AccessPoint {
            id: 1,
            users: 14,
            modulation: Modulation::Qpsk,
            direction: JobDirection::Uplink,
            subcarriers: 50,
            frame_interval_us: 1_000.0,
            deadline: Deadline::Lte,
        },
        AccessPoint {
            id: 2,
            users: 48,
            modulation: Modulation::Bpsk,
            direction: JobDirection::Uplink,
            subcarriers: 50,
            frame_interval_us: 2_000.0,
            deadline: Deadline::Wcdma,
        },
    ];
    let fronthaul = FronthaulConfig {
        one_way_latency_us: 5.0,
    };
    let horizon_us = 100_000.0;

    // Anneal budget per subcarrier problem: 3 anneals of 2 µs cycles
    // (enough for BER 1e-6 at these sizes per the fig10 results).
    // A walking-speed coherence interval (~30 ms) spans ~30 frames at
    // these arrival rates: compile-once sessions reprogram the chip
    // once per interval instead of once per frame.
    let coherence_frames = 30;

    // The hybrid row's fallback fraction is *measured*, not guessed:
    // run the decode-level router (ZF primary, annealed fallback,
    // noise-matched gate) over a calibration batch drawn from the
    // Wi-Fi AP's workload, and provision the queueing-level server
    // with the fraction the policy actually flagged — the loop between
    // BER sims and queueing sims, closed.
    let calib_snr = Snr::from_db(9.0);
    let router = DetectorKind::hybrid(
        DetectorKind::zf(),
        DetectorKind::quamax(
            Annealer::dw2q(AnnealerConfig::default()),
            DecoderConfig::default(),
            3,
        ),
        RoutePolicy::noise_matched(calib_snr, Modulation::Bpsk, 3.0),
    );
    let calibration = Scenario::new(16, 16, Modulation::Bpsk)
        .with_rayleigh()
        .with_snr(calib_snr);
    let fallback_fraction = measured_fallback_fraction(&router, &calibration, 40, 7)
        .expect("calibration batch compiles on both sides");
    println!(
        "measured decode-level fallback rate (16x16 BPSK @ {calib_snr}, noise-matched gate): \
         {:.1}%\n",
        100.0 * fallback_fraction
    );

    let zf16 = || {
        CpuPool::new(
            16,
            CpuPolicy::ZeroForcing {
                vectors_per_channel: 1,
            },
        )
    };
    let plain = ResilientServer::plain_qpu;
    let scenarios: Vec<(&str, ResilientServer)> = vec![
        (
            "QPU, today's overheads (§7)",
            plain(QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 3)),
        ),
        (
            "QPU, today's overheads + sessions",
            plain(
                QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 3)
                    .with_coherence(coherence_frames),
            ),
        ),
        // Same amortization, keyed by *channel hash* instead of frame
        // counting: the sim re-draws each AP's channel every 30 ms and
        // the per-AP session cache reprograms exactly then.
        (
            "QPU, today's overheads + session cache",
            plain(
                QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 3).with_session_cache(30_000.0),
            ),
        ),
        (
            "QPU, integrated (paper's vision)",
            plain(QpuServer::new(QpuOverheads::integrated(), 2.0, 3)),
        ),
        (
            "CPU pool, 16 cores, zero-forcing",
            ResilientServer::without_qpu(zf16()),
        ),
        (
            "CPU pool, 16 cores, sphere (1,900 nodes)",
            ResilientServer::without_qpu(CpuPool::new(
                16,
                CpuPolicy::Sphere {
                    expected_nodes: 1_900,
                },
            )),
        ),
        // The HotNets '20 routing structure: the ZF pool answers every
        // subcarrier, and a partly-integrated QPU (programming not yet
        // engineered away, but sessions amortize it per coherence
        // interval) re-decodes only the fraction the confidence policy
        // flagged in the calibration batch above.
        (
            "Hybrid: ZF pool + measured QPU fallback",
            ResilientServer::without_qpu(zf16()).with_hybrid(HybridServer::new(
                zf16(),
                QpuServer::new(
                    QpuOverheads {
                        preprocessing_us: 0.0,
                        programming_us: 500.0,
                        readout_per_anneal_us: 10.0,
                    },
                    2.0,
                    3,
                )
                .with_coherence(coherence_frames),
                fallback_fraction,
            )),
        ),
    ];

    println!(
        "{:<42} {:>9} {:>12} {:>12}",
        "data-center server", "deadline%", "mean lat.", "max lat."
    );
    for (label, pool) in scenarios {
        let mut sim = Simulation::new(
            aps.clone(),
            fronthaul,
            pool,
            SchedConfig::new(Policy::Fifo, 1),
        );
        let report = sim.run(horizon_us);
        println!(
            "{label:<42} {:>8.1}% {:>10.1}µs {:>10.1}µs",
            100.0 * report.deadline_rate(),
            report.mean_latency_us(),
            report.max_latency_us(),
        );
    }
    // Scheduling-policy comparison: the same two-worker brokered pool
    // under overloaded metro traffic (diurnal × bursts, 4 cells),
    // FIFO vs deadline-aware batching vs cost-aware routing. Batching
    // coalesces same-channel jobs into one anneal wave; the price book
    // bills every decode.
    let brokered_pool = || {
        let worker = || {
            QpuServer::new(
                QpuOverheads {
                    preprocessing_us: 0.0,
                    programming_us: 200.0,
                    readout_per_anneal_us: 25.0,
                },
                2.0,
                5,
            )
            .with_session_cache(10_000.0)
        };
        ResilientServer::new(
            vec![worker(), worker()],
            CpuPool::new(
                8,
                CpuPolicy::ZeroForcing {
                    vectors_per_channel: 1,
                },
            ),
            FaultPlan::quiet(2_019),
            Guardrails::on(),
        )
    };
    println!(
        "\nbrokered pool under overloaded metro traffic (0.012 jobs/µs, 4 cells):\n\
         {:<42} {:>9} {:>10} {:>7} {:>11}",
        "scheduling policy", "deadline%", "p99 lat.", "occ.", "$/decode"
    );
    for (label, policy) in [
        ("FIFO (batch of 1, arrival order)", Policy::Fifo),
        ("deadline-aware batching", Policy::DeadlineBatch),
        ("cost-aware (CPU floor when cheaper)", Policy::CostAware),
    ] {
        let mut pool = brokered_pool();
        let mut broker = Broker::new();
        let arrivals = LoadGen::metro(2_019, 4, 0.003).generate(50_000.0);
        let report =
            BatchScheduler::new(SchedConfig::new(policy, 24)).run(&mut pool, &mut broker, arrivals);
        println!(
            "{label:<42} {:>8.1}% {:>8.1}µs {:>7.2} {:>11.6}",
            100.0 * report.deadline_rate(),
            report.latency_quantile_us(0.99),
            report.mean_occupancy(),
            report.usd_per_decode(),
        );
    }
    // Full-duplex row: half of every cell's traffic is downlink VPP
    // precoding (`quamax_core::precode`) riding the same brokered
    // pool. Batches never mix directions and the session cache holds
    // one compiled problem per (channel, direction), so detection and
    // precoding amortize programming independently; the price book
    // bills a precode exactly like a decode of the same anneal wave.
    println!(
        "\nfull-duplex metro traffic, 50% downlink VPP, deadline-aware batching:\n\
         {:<42} {:>9} {:>10} {:>11}",
        "direction", "deadline%", "p99 lat.", "$/job"
    );
    {
        let mut pool = brokered_pool();
        let mut broker = Broker::new();
        let arrivals = LoadGen::full_duplex(2_019, 4, 0.003, 0.5).generate(50_000.0);
        let report = BatchScheduler::new(SchedConfig::new(Policy::DeadlineBatch, 24)).run(
            &mut pool,
            &mut broker,
            arrivals,
        );
        for direction in [JobDirection::Uplink, JobDirection::Downlink] {
            let outcomes: Vec<_> = report
                .outcomes
                .iter()
                .filter(|o| broker.job(o.id).direction == direction)
                .collect();
            if outcomes.is_empty() {
                continue;
            }
            let met = outcomes.iter().filter(|o| o.met_deadline).count();
            let mut latency = Histogram::new();
            for o in &outcomes {
                if o.state == JobState::Completed {
                    latency.observe(o.latency_us);
                }
            }
            let p99 = latency.quantile(0.99);
            let usd: f64 = outcomes.iter().map(|o| o.cost.usd).sum();
            let label = match direction {
                JobDirection::Uplink => "uplink (detection)",
                JobDirection::Downlink => "downlink (VPP precoding)",
            };
            println!(
                "{label:<42} {:>8.1}% {:>8.1}µs {:>11.6}",
                100.0 * met as f64 / outcomes.len() as f64,
                p99,
                if latency.is_empty() {
                    0.0
                } else {
                    usd / latency.count() as f64
                },
            );
        }
    }
    println!(
        "\nToday's QPU overhead stack (≈47 ms/job) busts every radio deadline —\n\
         the paper's own §7 conclusion. Compile-once sessions amortize the\n\
         preprocessing + programming over a coherence interval ({coherence_frames} frames\n\
         here), shrinking mean latency, but the boundary frames still miss:\n\
         only engineering the overheads away makes the QPU the server that\n\
         also holds the Wi-Fi ACK budget. The hybrid row is the HotNets '20\n\
         routing answer: classical-first keeps the QPU off the easy bulk of\n\
         subcarriers — provisioned with the fallback rate the decode-level\n\
         router *measured*, not a guessed constant — so even a partly-\n\
         integrated device contributes. The policy table shows the\n\
         serving-layer lever: at ~1.6× FIFO capacity, per-job dispatch\n\
         collapses while deadline-aware batching rides channel-coherence\n\
         coalescing to near-perfect deadline compliance at a fraction of\n\
         the cost — and cost-aware routing sends slack-rich batches to\n\
         the CPU floor for pennies."
    );

    // `--metrics`: re-run the deployment mix through a fully
    // instrumented brokered pool and emit the telemetry snapshot in
    // both exporter formats. The assertions double as the CI smoke
    // check: the JSON round-trips through the parser and the pipeline's
    // key series are present.
    if metrics {
        let telemetry = Telemetry::enabled();
        let mut sim = Simulation::new(
            aps.clone(),
            fronthaul,
            brokered_pool(),
            SchedConfig::new(Policy::DeadlineBatch, 24),
        )
        .with_telemetry(telemetry.clone());
        sim.run(horizon_us);

        let snap = telemetry.snapshot();
        let json = serde_json::to_string_pretty(&snap.to_json()).expect("serializable");
        let parsed = serde_json::from_str(&json).expect("snapshot JSON parses");
        assert!(
            parsed.get("series").and_then(|s| s.as_array()).is_some(),
            "snapshot JSON carries a series array"
        );
        for series in [
            "quamax_qpu_program_us",
            "quamax_qpu_anneal_us",
            "quamax_qpu_readout_us",
            "quamax_qpu_unembed_us",
            "quamax_qpu_queue_wait_us",
            "quamax_sched_batches_total",
            "quamax_sched_batch_occupancy",
            "quamax_serve_served_total",
            "quamax_serve_ledger_total",
            "quamax_broker_census_total",
            "quamax_cache_hits_total",
            "quamax_sim_frames_total",
        ] {
            assert!(snap.has_series(series), "missing series {series}");
        }
        println!("\n--- telemetry snapshot (Prometheus exposition) ---");
        print!("{}", snap.to_prometheus());
        println!(
            "--- {} series; JSON parses; required series present ---",
            snap.series.len()
        );
    }
}
