//! Records coded BER vs detection–decoding iteration count per
//! backend to `BENCH_idd.json` (run from the repo root:
//! `cargo run --release -p quamax-bench --bin bench_idd`).
//!
//! Workload: the `bench_coded` frame geometry (rate-1/2 K=7 + block
//! interleaver, 8-user QPSK Rayleigh, fresh channel per use), decoded
//! through `CodedFrame::run_idd` at each backend's stress SNR. Every
//! iteration beyond the first feeds the SISO decoder's extrinsic back
//! to the detector as priors — the QuAMax backend re-detects by
//! *reverse-annealing* from the decoder's current decision (the
//! Fig. 15 warm-start structure), the classical backends re-demap
//! prior-aware.
//!
//! The headline claim is *asserted*, not eyeballed: for the QuAMax
//! backend the first pass must leave payload errors and iteration 2
//! must leave strictly fewer — the extra anneal ensemble buys coded
//! BER instead of being thrown away.

use quamax_bench::{run_map, starved_quamax, Args, BenchRecord};
use quamax_core::coded::{IddOutcome, IddSpec};
use quamax_core::{CodedFrame, DetectorKind, SoftSpec};
use quamax_wireless::{Modulation, Snr};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USERS: usize = 8;
const MODULATION: Modulation = Modulation::Qpsk;
const PAYLOAD: usize = 114; // 240 coded bits = exactly 15 uses of 16

fn main() {
    let args = Args::parse(&["frames", "anneals", "iters", "seed"], &[]);
    let frames = args.get_usize("frames", 40);
    let anneals = args.get_usize("anneals", 6);
    let iters = args.get_usize_at_least("iters", 3, 2); // IDD feeds back from iteration 2
    let seed = args.get_u64("seed", 2020); // HotNets '20

    let frame = CodedFrame::new(USERS, MODULATION, PAYLOAD);
    // Deeper into starvation than bench_coded (fewer anneals): coded
    // (post-FEC) errors survive one pass, so the feedback loop has work
    // to do.
    let sigma2 = |snr_db: f64| Snr::from_db(snr_db).noise_variance(MODULATION);
    let backends: Vec<(&str, DetectorKind, f64)> = vec![
        ("quamax", starved_quamax(frames, anneals), 5.0),
        ("mmse", DetectorKind::mmse(sigma2(-2.0)), -2.0),
        ("sphere", DetectorKind::sphere(), -4.0),
    ];

    println!(
        "{frames} coded frames ({PAYLOAD} payload bits over {} uses of {USERS}x{USERS} {}), up to {iters} IDD iterations per backend at its stress SNR:\n",
        frame.uses(),
        MODULATION.name()
    );
    let iter_heads: String = (1..=iters)
        .map(|i| format!("{:>12}", format!("iter {i} BER")))
        .collect();
    println!(
        "{:<8} {:>6} {iter_heads} {:>12} {:>10}",
        "backend", "SNR", "mean iters", "early exit"
    );

    let mut record = BenchRecord::new("BENCH_idd", "simulated");
    for (name, kind, snr_db) in &backends {
        let snr = Snr::from_db(*snr_db);
        let spec = SoftSpec::noise_matched(snr, MODULATION);
        let idd = IddSpec::new(iters);
        let items: Vec<u64> = (0..frames as u64).collect();
        let outcomes: Vec<IddOutcome> = run_map(&items, |&i| {
            let mut rng = StdRng::seed_from_u64(seed ^ (i + 1).wrapping_mul(0x9e37));
            let payload = frame.random_payload(&mut rng);
            frame
                .run_idd(kind, spec, idd, snr, &payload, seed.wrapping_add(i * 7919))
                .expect("bench sizes compile on every backend")
        });
        let total_payload = (frames * PAYLOAD) as f64;
        let errors_at: Vec<usize> = (0..iters)
            .map(|it| outcomes.iter().map(|o| o.payload_errors_at(it)).sum())
            .collect();
        let bers: Vec<f64> = errors_at
            .iter()
            .map(|&e| e as f64 / total_payload)
            .collect();
        let mean_iters =
            outcomes.iter().map(IddOutcome::iters_run).sum::<usize>() as f64 / frames as f64;
        let early = outcomes.iter().filter(|o| o.early_exited).count() as f64 / frames as f64;
        let ber_cols: String = bers.iter().map(|b| format!("{b:>12.4}")).collect();
        println!("{name:<8} {snr_db:>4}dB {ber_cols} {mean_iters:>12.2} {early:>10.2}");

        if *name == "quamax" {
            // The bench's claim: the extra iteration
            // buys coded BER for the annealed backend.
            assert!(
                errors_at[0] > 0,
                "quamax at {snr_db} dB: the first pass left no payload errors to fix"
            );
            assert!(
                errors_at[1] < errors_at[0],
                "quamax at {snr_db} dB: iteration 2 ({}) should beat iteration 1 ({})",
                errors_at[1],
                errors_at[0]
            );
        }
        record.rows.push(serde_json::json!({
            "row": "backend",
            "backend": *name,
            "snr_db": snr_db,
            "frames": frames,
            "max_iters": iters,
            "ber_by_iteration": bers,
            "mean_iterations_run": mean_iters,
            "early_exit_fraction": early,
            "iteration2_beats_iteration1": errors_at[1] < errors_at[0],
            "errors_by_iteration": errors_at,
        }));
    }

    record.workload = serde_json::json!({
        "class": format!("{USERS}x{USERS} {} Rayleigh, fresh channel per use", MODULATION.name()),
        "code": "rate-1/2 K=7 (133/171) + block interleaver",
        "payload_bits": PAYLOAD,
        "uses_per_frame": frame.uses(),
        "frames": frames,
        "anneals_per_use": anneals,
        "damping": quamax_core::coded::IDD_DAMPING,
        "seed": seed,
    });
    record.note = "coded BER vs detection–decoding iteration count at each backend's stress \
        SNR; iteration ≥ 2 feeds the SISO decoder's extrinsic back as detector priors (quamax \
        = reverse-anneal warm start from the decoder decision, linear/sphere = prior-aware MAP \
        demapping); the quamax backend is asserted to strictly improve from iteration 1 to 2"
        .to_string();
    record.asserts = serde_json::json!({ "quamax_iteration2_beats_iteration1": true });
    let path = record.write().expect("write BENCH_idd.json");
    println!("\nwrote {}", path.display());
}
