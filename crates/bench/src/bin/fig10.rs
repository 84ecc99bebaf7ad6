//! **Figure 10** — per-instance TTB at target BER 1e-6, box statistics
//! across modulations and user counts (instances reaching the target
//! within 10 ms, plus average performance).
//!
//! Paper shapes: TTB grows with users within each modulation, jumps
//! across modulations; small-problem TTB floors at the amortized cycle
//! time thanks to on-chip parallelization.
//!
//! Run: `cargo run --release -p quamax-bench --bin fig10`

use quamax_bench::{default_params, run_instances, spec_for, Args, ProblemClass, Report};
use quamax_core::metrics::percentile;
use quamax_core::Scenario;
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["anneals", "instances", "seed", "deadline-us"], &[]);
    let anneals = args.get_usize("anneals", 1_200);
    let instances = args.get_usize("instances", 12); // paper: 20
    let seed = args.get_u64("seed", 1);
    let deadline_us = args.get_f64("deadline-us", 10_000.0);

    let mut report = Report::new(
        "fig10",
        serde_json::json!({"anneals": anneals, "instances": instances, "seed": seed}),
    );

    let classes = [
        ProblemClass {
            users: 12,
            modulation: Modulation::Bpsk,
        },
        ProblemClass {
            users: 24,
            modulation: Modulation::Bpsk,
        },
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
            users: 6,
            modulation: Modulation::Qpsk,
        },
        ProblemClass {
            users: 10,
            modulation: Modulation::Qpsk,
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
        ProblemClass {
            users: 6,
            modulation: Modulation::Qam16,
        },
    ];

    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9}  {:>7}",
        "class", "p5", "p25", "median", "p75", "p95", "within"
    );
    for class in classes {
        // Instances draw sequentially from the class RNG stream (same
        // set as the serial harness); the decodes shard across cores.
        let mut rng = StdRng::seed_from_u64(seed + 7 * class.logical_vars() as u64);
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
        let ttbs: Vec<f64> = run_instances(&work)
            .iter()
            .map(|(stats, _)| stats.ttb_us(1e-6).unwrap_or(f64::INFINITY))
            .collect();
        let within: Vec<f64> = ttbs.iter().copied().filter(|t| *t <= deadline_us).collect();
        let q = |p: f64| -> f64 {
            if within.is_empty() {
                f64::INFINITY
            } else {
                percentile(&within, p)
            }
        };
        println!(
            "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9}  {:>3}/{:<3}",
            class.label(),
            fmt(q(5.0)),
            fmt(q(25.0)),
            fmt(q(50.0)),
            fmt(q(75.0)),
            fmt(q(95.0)),
            within.len(),
            ttbs.len()
        );
        report.push(serde_json::json!({
            "class": class.label(),
            "ttb_us_all": ttbs.iter().map(|t| if t.is_finite() { serde_json::json!(t) } else { serde_json::Value::Null }).collect::<Vec<_>>(),
            "within_deadline": within.len(),
            "p5": nullable(q(5.0)), "p25": nullable(q(25.0)), "median": nullable(q(50.0)),
            "p75": nullable(q(75.0)), "p95": nullable(q(95.0)),
        }));
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}

fn fmt(x: f64) -> String {
    if x.is_finite() {
        if x >= 1_000.0 {
            format!("{:.1}ms", x / 1_000.0)
        } else {
            format!("{x:.1}µs")
        }
    } else {
        "—".into()
    }
}

fn nullable(x: f64) -> serde_json::Value {
    if x.is_finite() {
        serde_json::json!(x)
    } else {
        serde_json::Value::Null
    }
}
