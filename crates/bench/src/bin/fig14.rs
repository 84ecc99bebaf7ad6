//! **Figure 14** — QuAMax versus the zero-forcing decoder at low SNR:
//! the time QuAMax needs to *match ZF's BER*, against ZF's single-core
//! processing time (BigStation-inferred cost model).
//!
//! Paper shapes: at `Nt = Nr`, ZF's BER is poor (noise amplification on
//! ill-conditioned channels) and its time is tens to hundreds of µs;
//! QuAMax reaches the same or better BER roughly 10–1000× faster, for
//! BPSK with 36/48/60 users and QPSK with 12/14/16 users.
//!
//! Run: `cargo run --release -p quamax-bench --bin fig14`

use quamax_baselines::timing::zf_time_us;
use quamax_baselines::ZeroForcingDetector;
use quamax_bench::{default_params, run_instances, spec_for, Args, ProblemClass, Report};
use quamax_core::metrics::percentile;
use quamax_core::Scenario;
use quamax_wireless::{count_bit_errors, Modulation, Snr};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["anneals", "instances", "zf-trials", "seed", "snr"], &[]);
    let anneals = args.get_usize("anneals", 1_000);
    let instances = args.get_usize("instances", 8);
    let zf_trials = args.get_usize("zf-trials", 400);
    let seed = args.get_u64("seed", 1);
    let snr = Snr::from_db(args.get_f64("snr", 12.0));

    let mut report = Report::new(
        "fig14",
        serde_json::json!({
            "anneals": anneals, "instances": instances, "zf_trials": zf_trials,
            "seed": seed, "snr_db": snr.db()
        }),
    );

    let classes = [
        ProblemClass {
            users: 36,
            modulation: Modulation::Bpsk,
        },
        ProblemClass {
            users: 48,
            modulation: Modulation::Bpsk,
        },
        ProblemClass {
            users: 60,
            modulation: Modulation::Bpsk,
        },
        ProblemClass {
            users: 12,
            modulation: Modulation::Qpsk,
        },
        ProblemClass {
            users: 14,
            modulation: Modulation::Qpsk,
        },
        ProblemClass {
            users: 16,
            modulation: Modulation::Qpsk,
        },
    ];

    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>10}",
        "class", "ZF BER", "ZF time", "QuAMax t@BER", "speedup"
    );
    for class in classes {
        // ZF BER: empirical over many Rayleigh channel uses at this SNR
        // (Rayleigh gives the ill-conditioned Nt=Nr regime the paper
        // targets here).
        let mut rng = StdRng::seed_from_u64(seed + class.logical_vars() as u64);
        let sc = Scenario::new(class.users, class.users, class.modulation)
            .with_rayleigh()
            .with_snr(snr);
        let zf = ZeroForcingDetector::new(class.modulation);
        let mut errs = 0usize;
        let mut bits = 0usize;
        for _ in 0..zf_trials {
            let inst = sc.sample(&mut rng);
            if let Ok(decoded) = zf.decode(inst.h(), inst.y()) {
                errs += count_bit_errors(&decoded, inst.tx_bits());
            } else {
                errs += inst.tx_bits().len() / 2; // singular channel: coin-flip bits
            }
            bits += inst.tx_bits().len();
        }
        let zf_ber = (errs as f64 / bits as f64).max(1e-12);
        let zf_us = zf_time_us(class.users, class.users, 1);

        // QuAMax: wall-clock time to reach the same BER (Eq. 9 curve),
        // median across instances on the same channel family.
        // Instances draw sequentially (after the ZF pass, same stream
        // position as the serial harness); decodes shard across cores.
        let insts: Vec<_> = (0..instances).map(|_| sc.sample(&mut rng)).collect();
        let work: Vec<_> = insts
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                (
                    inst,
                    spec_for(
                        default_params(),
                        Default::default(),
                        anneals,
                        seed + i as u64,
                    ),
                )
            })
            .collect();
        let quamax_t: Vec<f64> = run_instances(&work)
            .iter()
            .map(|(stats, _)| stats.ttb_us(zf_ber).unwrap_or(f64::INFINITY))
            .collect();
        let t_match = percentile(&quamax_t, 50.0);
        let speedup = zf_us / t_match;
        println!(
            "{:<14} {:>10.2e} {:>9.1}µs {:>11} {:>9}",
            class.label(),
            zf_ber,
            zf_us,
            fmt(t_match),
            if speedup.is_finite() {
                format!("{speedup:.0}x")
            } else {
                "—".into()
            }
        );
        report.push(serde_json::json!({
            "class": class.label(),
            "zf_ber": zf_ber,
            "zf_time_us": zf_us,
            "quamax_time_to_zf_ber_us": nullable(t_match),
            "speedup": nullable(speedup),
        }));
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}

fn fmt(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.1}µs")
    } else {
        "∞".into()
    }
}

fn nullable(x: f64) -> serde_json::Value {
    if x.is_finite() {
        serde_json::json!(x)
    } else {
        serde_json::Value::Null
    }
}
