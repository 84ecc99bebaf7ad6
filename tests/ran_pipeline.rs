//! Integration: measured decode statistics drive the C-RAN deployment
//! model — the full arc of the paper, from anneal samples to "does
//! this meet a Wi-Fi deadline?".

use quamax::prelude::*;
use quamax::ran::{
    AccessPoint, Deadline, FronthaulConfig, JobDirection, Policy, QpuOverheads, QpuServer,
    ResilientServer, SchedConfig, Simulation,
};
use quamax::wireless::fer_from_ber;

/// Measures, from a real decode run, the anneal count needed for a
/// 1e-4 FER on 1,500-byte frames; feeds it into the C-RAN sim; checks
/// the §7 story (integrated device OK, today's overheads hopeless).
#[test]
fn measured_anneal_budget_feeds_the_deadline_model() {
    // Step 1: measure the per-problem anneal budget for 16-user BPSK.
    let mut rng = Rng::seed_from_u64(1);
    let sc = Scenario::new(16, 16, Modulation::Bpsk).with_snr(Snr::from_db(20.0));
    let inst = sc.sample(&mut rng);
    let decoder = QuamaxDecoder::new(
        Annealer::dw2q(AnnealerConfig::default()),
        DecoderConfig::default(),
    );
    let run = decoder
        .decode(&inst.detection_input(), 400, &mut rng)
        .unwrap();
    let stats = RunStatistics::from_run(&run, inst.tx_bits(), None);
    let na = stats
        .profile
        .anneals_to_ber(1e-6)
        .expect("this class reaches 1e-6 easily");
    assert!(na <= 50, "anneal budget blew up: {na}");
    assert!(fer_from_ber(stats.expected_ber(na), 1500) <= 1.2e-2);

    // Step 2: run the C-RAN sim with that measured budget.
    let ap = AccessPoint {
        id: 0,
        users: 16,
        modulation: Modulation::Bpsk,
        direction: JobDirection::Uplink,
        subcarriers: 50,
        frame_interval_us: 1_000.0,
        deadline: Deadline::WifiAck,
    };
    let cycle = run.anneal_cycle_us();
    let mut integrated = Simulation::new(
        vec![ap.clone()],
        FronthaulConfig {
            one_way_latency_us: 2.0,
        },
        ResilientServer::plain_qpu(QpuServer::new(QpuOverheads::integrated(), cycle, na)),
        SchedConfig::new(Policy::Fifo, 1),
    );
    let report = integrated.run(30_000.0);
    assert!(!report.frames.is_empty());
    // An integrated QPU at the measured budget holds the Wi-Fi ACK
    // deadline for at least the overwhelming majority of frames.
    assert!(
        report.deadline_rate() > 0.9,
        "deadline rate {} at Na={na}, cycle={cycle}",
        report.deadline_rate()
    );

    // Step 3: same budget, today's overheads: nothing meets anything.
    let mut today = Simulation::new(
        vec![AccessPoint {
            deadline: Deadline::Wcdma,
            ..ap
        }],
        FronthaulConfig::default(),
        ResilientServer::plain_qpu(QpuServer::new(QpuOverheads::current_dw2q(), cycle, na)),
        SchedConfig::new(Policy::Fifo, 1),
    );
    let report = today.run(200_000.0);
    assert_eq!(report.deadline_rate(), 0.0, "§7: not deployable today");
}

/// OFDM + RAN consistency: the per-frame problem count equals the
/// subcarrier count, and service time scales with it.
#[test]
fn subcarrier_load_scales_service_time() {
    let mut one = QpuServer::new(QpuOverheads::integrated(), 2.0, 10);
    let t_small = one.enqueue(0.0, 0, None, 10, 32);
    one.reset();
    let t_large = one.enqueue(0.0, 0, None, 100, 32);
    assert!(t_large > 5.0 * t_small, "{t_small} vs {t_large}");
}
