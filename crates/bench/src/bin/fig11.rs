//! **Figure 11** — Time-to-FER for different user counts, modulations,
//! and frame sizes (1,500-byte MTU down to 50-byte TCP ACK).
//!
//! Paper shapes: tens of µs suffice for FER below 1e-3/1e-4 at
//! 60-user BPSK / 18-user QPSK / 4-user 16-QAM; low sensitivity to
//! frame size (the Na → FER curve is steep once the profile's floor
//! is below target).
//!
//! Run: `cargo run --release -p quamax-bench --bin fig11`

use quamax_bench::{default_params, run_instances, spec_for, Args, ProblemClass, Report};
use quamax_core::metrics::percentile;
use quamax_core::Scenario;
use quamax_wireless::frame::{FRAME_BYTES_ACK, FRAME_BYTES_MTU};
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["anneals", "instances", "seed", "target-fer"], &[]);
    let anneals = args.get_usize("anneals", 1_200);
    let instances = args.get_usize("instances", 10); // paper: 20
    let seed = args.get_u64("seed", 1);
    let target_fer = args.get_f64("target-fer", 1e-4);

    let mut report = Report::new(
        "fig11",
        serde_json::json!({
            "anneals": anneals, "instances": instances, "seed": seed,
            "target_fer": target_fer
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
            users: 14,
            modulation: Modulation::Qpsk,
        },
        ProblemClass {
            users: 18,
            modulation: Modulation::Qpsk,
        },
        ProblemClass {
            users: 4,
            modulation: Modulation::Qam16,
        },
    ];

    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>14}",
        "class", "med TTF(1500B)", "mean TTF(1500B)", "med TTF(50B)", "mean TTF(50B)"
    );
    for class in classes {
        // Instances draw sequentially from the class RNG stream; the
        // decodes shard across cores.
        let mut rng = StdRng::seed_from_u64(seed + 13 * class.logical_vars() as u64);
        let insts: Vec<_> = (0..instances)
            .map(|_| Scenario::new(class.users, class.users, class.modulation).sample(&mut rng))
            .collect();
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
        let mut per_frame: Vec<Vec<f64>> = vec![Vec::new(); 2];
        for (stats, _) in run_instances(&work) {
            for (fi, bytes) in [FRAME_BYTES_MTU, FRAME_BYTES_ACK].iter().enumerate() {
                per_frame[fi].push(stats.ttf_us(target_fer, *bytes).unwrap_or(f64::INFINITY));
            }
        }
        let stats_of = |v: &[f64]| -> (f64, f64) {
            let med = percentile(v, 50.0);
            let finite: Vec<f64> = v.iter().copied().filter(|t| t.is_finite()).collect();
            let mean = if finite.is_empty() {
                f64::INFINITY
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            };
            (med, mean)
        };
        let (med_mtu, mean_mtu) = stats_of(&per_frame[0]);
        let (med_ack, mean_ack) = stats_of(&per_frame[1]);
        println!(
            "{:<14} {:>14} {:>14} {:>14} {:>14}",
            class.label(),
            fmt(med_mtu),
            fmt(mean_mtu),
            fmt(med_ack),
            fmt(mean_ack)
        );
        report.push(serde_json::json!({
            "class": class.label(),
            "ttf_mtu_median_us": nullable(med_mtu),
            "ttf_mtu_mean_us": nullable(mean_mtu),
            "ttf_ack_median_us": nullable(med_ack),
            "ttf_ack_mean_us": nullable(mean_ack),
        }));
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}

fn fmt(x: f64) -> String {
    if x.is_finite() {
        if x >= 1_000.0 {
            format!("{:.2}ms", x / 1_000.0)
        } else {
            format!("{x:.1}µs")
        }
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
