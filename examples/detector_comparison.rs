//! Detector shoot-out through the unified `Detector` trait API: ZF vs
//! MMSE vs Sphere (exact ML) vs QuAMax vs the hybrid classical–quantum
//! router, on poorly-conditioned channels — the paper's Fig. 14
//! argument plus the HotNets '20 routing structure, in miniature.
//!
//! Every backend is a [`DetectorKind`] value from the registry: the
//! sweep below does not know (or care) which detector is quantum — it
//! compiles a session per channel and streams `detect(&y, seed)`
//! through it. At `Nt = Nr` and moderate SNR, linear filters amplify
//! noise on near-singular channels; ML-class detection (sphere, or
//! QuAMax's annealed approximation) keeps working; the hybrid router
//! gets ML-class BER while sending only the residual-flagged fraction
//! of problems to the annealer.
//!
//! Run: `cargo run --release --example detector_comparison --
//!       [--trials N] [--anneals N]`
//! (an unknown flag or a value that is not a whole number prints usage
//! and exits 2).

use quamax::prelude::*;
use quamax_baselines::timing::{sphere_time_us, zf_time_us};
use quamax_core::BackendStats;
use quamax_wireless::count_bit_errors;

fn main() {
    // Tiny strict --key value parser (the bench crate's Args is not a
    // dependency of the facade examples).
    let mut trials = 40usize;
    let mut anneals = 150usize;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let slot = match pair[0].as_str() {
            "--trials" => &mut trials,
            "--anneals" => &mut anneals,
            _ => usage(),
        };
        *slot = pair
            .get(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage());
    }

    let mut rng = Rng::seed_from_u64(14);
    let users = 12usize;
    let modulation = Modulation::Qpsk;

    println!(
        "{users}x{users} {} over Rayleigh fading, {trials} channel uses (trait API):\n",
        modulation.name()
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "SNR", "ZF", "MMSE", "Sphere(ML)", "QuAMax", "Hybrid", "fallback%"
    );
    for snr_db in [8.0, 12.0, 16.0, 20.0] {
        let snr = Snr::from_db(snr_db);
        let sigma2 = snr.noise_variance(modulation);
        let quamax = || {
            DetectorKind::quamax(
                Annealer::dw2q(AnnealerConfig::default()),
                DecoderConfig::default(),
                anneals,
            )
        };
        // The registry: every backend (and the router over two of
        // them) is just a value in this list.
        let kinds: Vec<(&str, DetectorKind)> = vec![
            ("ZF", DetectorKind::zf()),
            ("MMSE", DetectorKind::mmse(sigma2)),
            ("Sphere(ML)", DetectorKind::sphere()),
            ("QuAMax", quamax()),
            (
                "Hybrid",
                DetectorKind::hybrid(
                    DetectorKind::mmse(sigma2),
                    quamax(),
                    RoutePolicy::noise_matched(snr, modulation, 3.0),
                ),
            ),
        ];

        let mut errs = vec![0usize; kinds.len()];
        let mut bits = 0usize;
        let mut sphere_nodes = 0u64;
        let mut fallbacks = 0usize;
        for trial in 0..trials {
            let sc = Scenario::new(users, users, modulation)
                .with_rayleigh()
                .with_snr(snr);
            let inst = sc.sample(&mut rng);
            let input = inst.detection_input();
            let tx = inst.tx_bits();
            bits += tx.len();
            let seed = 1_000 * snr_db as u64 + trial as u64;
            for (k, (_, kind)) in kinds.iter().enumerate() {
                match kind.compile(&input) {
                    Ok(mut session) => {
                        let det = session.detect(&input.y, seed).expect("detect");
                        errs[k] += count_bit_errors(&det.bits, tx);
                        if let BackendStats::Sphere { visited_nodes } = det.stats {
                            sphere_nodes += visited_nodes;
                        }
                        if det.route() == Some(quamax_core::Route::Fallback) {
                            fallbacks += 1;
                        }
                    }
                    // Rank-deficient draw: a linear filter refuses;
                    // score a coin-flip payload like the paper's BER
                    // floor convention.
                    Err(_) => errs[k] += tx.len() / 2,
                }
            }
        }
        let ber = |e: usize| e as f64 / bits as f64;
        println!(
            "{snr_db:>4}dB {:>12.2e} {:>12.2e} {:>12.2e} {:>12.2e} {:>12.2e} {:>9.0}%",
            ber(errs[0]),
            ber(errs[1]),
            ber(errs[2]),
            ber(errs[3]),
            ber(errs[4]),
            100.0 * fallbacks as f64 / trials as f64,
        );
        if snr_db == 12.0 {
            println!(
                "       (paper-era single-core times: ZF ≈ {:.0} µs, sphere ≈ {:.0} µs/subcarrier)",
                zf_time_us(users, users, 1),
                sphere_time_us(sphere_nodes / trials as u64)
            );
        }
    }
    println!(
        "\nML-class detectors hold their BER as conditioning worsens; linear filters pay.\n\
         The hybrid router matches ML-class BER while annealing only its fallback%."
    );
}

fn usage() -> ! {
    eprintln!("usage: detector_comparison [--trials N] [--anneals N]");
    std::process::exit(2);
}
