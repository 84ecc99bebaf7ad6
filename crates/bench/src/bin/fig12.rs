//! **Figure 12** — the Fig. 4-style rank anatomy under AWGN: one fixed
//! 18×18 QPSK channel and bit string, re-noised at six SNRs from 10 to
//! 40 dB.
//!
//! Paper shapes: rising SNR raises the ground-state probability and
//! widens the relative energy gap between the best and second-best
//! solutions (at 10 dB the gap narrows to a few percent); at low SNR
//! the ground state itself starts carrying bit errors.
//!
//! The channel (and hence the ML reduction structure, embedding, and
//! programmed problem) is fixed across the whole sweep, so **one
//! compiled detector session serves all SNR points and noise draws** —
//! only the received vector changes per decode. Bit-identical to
//! recompiling per draw (the session contract), at a fraction of the
//! setup cost.
//!
//! Run: `cargo run --release -p quamax-bench --bin fig12`

use quamax_anneal::Annealer;
use quamax_bench::{default_params, ground_truth, spec_for, Args, Report};
use quamax_core::{Detector, DetectorKind, DetectorSession, Scenario};
use quamax_wireless::{count_bit_errors, Modulation, Snr};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["anneals", "noise-draws", "seed"], &[]);
    let anneals = args.get_usize("anneals", 3_000);
    let noise_draws = args.get_usize("noise-draws", 10); // paper: 10
    let seed = args.get_u64("seed", 1);

    let mut report = Report::new(
        "fig12",
        serde_json::json!({"anneals": anneals, "noise_draws": noise_draws, "seed": seed}),
    );

    // One fixed channel + bit string (noise-free base instance), one
    // compiled session for the whole sweep: the reduction structure
    // and embedding depend only on H.
    let mut rng = StdRng::seed_from_u64(seed);
    let base = Scenario::new(18, 18, Modulation::Qpsk).sample(&mut rng);
    let spec = spec_for(default_params(), Default::default(), anneals, seed);
    let kind = DetectorKind::quamax(Annealer::new(spec.annealer), spec.decoder, anneals);
    let mut session = kind
        .compile(&base.detection_input())
        .expect("18x18 QPSK fits the chip");

    for snr_db in [10.0, 15.0, 20.0, 25.0, 30.0, 40.0] {
        let snr = Snr::from_db(snr_db);
        let mut p0s = Vec::new();
        let mut gaps2 = Vec::new();
        let mut gs_errors = Vec::new();
        for draw in 0..noise_draws {
            let inst = base.renoise(snr, &mut rng);
            let gt = ground_truth(&inst);
            let detection = session
                .detect(inst.y(), seed + 1000 * draw as u64)
                .expect("annealed decode");
            let run = detection
                .annealed_run()
                .expect("quamax kind attaches its run");
            let dist = run.distribution();
            let tol = 1e-6 * gt.energy.abs().max(1.0);
            p0s.push(dist.probability_of_energy(gt.energy, tol));
            let gaps = dist.relative_gaps();
            if gaps.len() > 1 {
                gaps2.push(gaps[1]);
            }
            // Bit errors of the ML/ground solution vs ground truth —
            // channel noise, not annealer noise.
            gs_errors.push(count_bit_errors(&gt.ml_bits, inst.tx_bits()));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let p0_avg = mean(&p0s);
        let gap_avg = mean(&gaps2);
        let err_avg = gs_errors.iter().sum::<usize>() as f64 / gs_errors.len().max(1) as f64;
        println!(
            "SNR {snr_db:>4} dB: P0 avg {:.4} | rank-2 relative gap avg {:.4} | ML-solution bit errors avg {:.2}/36",
            p0_avg, gap_avg, err_avg
        );
        report.push(serde_json::json!({
            "snr_db": snr_db,
            "p0_mean": p0_avg,
            "rank2_gap_mean": gap_avg,
            "ml_bit_errors_mean": err_avg,
            "p0_draws": p0s,
        }));
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
