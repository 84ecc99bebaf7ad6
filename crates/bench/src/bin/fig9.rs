//! **Figure 9** — Time-to-BER trajectories across user counts and
//! modulations at the edge of QuAMax's capability; Opt (oracle) versus
//! Fix (deployed) strategies.
//!
//! Paper shapes: TTB degrades gracefully with user count, steeply with
//! modulation order; mean TTB dominates median (long-tail outliers);
//! Opt reaches BER 1e-6 within 1–100 µs on these classes.
//!
//! Run: `cargo run --release -p quamax-bench --bin fig9`

use quamax_bench::{
    default_params, optimize_instance, run_instance, small_pause_grid, spec_for, Args,
    ProblemClass, Report,
};
use quamax_core::metrics::percentile;
use quamax_core::{RunStatistics, Scenario};
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["anneals", "instances", "seed"], &["no-opt"]);
    let anneals = args.get_usize("anneals", 1_000);
    let instances = args.get_usize("instances", 10); // paper: 20
    let seed = args.get_u64("seed", 1);
    let with_opt = !args.has_flag("no-opt");

    let mut report = Report::new(
        "fig9",
        serde_json::json!({"anneals": anneals, "instances": instances, "seed": seed}),
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
            users: 15,
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
            users: 5,
            modulation: Modulation::Qam16,
        },
        ProblemClass {
            users: 6,
            modulation: Modulation::Qam16,
        },
    ];

    for class in classes {
        let mut rng = StdRng::seed_from_u64(seed + class.logical_vars() as u64);
        let insts: Vec<_> = (0..instances)
            .map(|_| Scenario::new(class.users, class.users, class.modulation).sample(&mut rng))
            .collect();

        // Fix: the calibrated default operating point.
        let fix_stats: Vec<RunStatistics> = insts
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let spec = spec_for(
                    default_params(),
                    Default::default(),
                    anneals,
                    seed + i as u64,
                );
                run_instance(inst, &spec).0
            })
            .collect();
        summarize(&class, "Fix", &fix_stats, &mut report);

        if with_opt {
            let opt_stats: Vec<RunStatistics> = insts
                .iter()
                .enumerate()
                .map(|(i, inst)| {
                    optimize_instance(
                        inst,
                        &small_pause_grid(),
                        Default::default(),
                        anneals,
                        seed + 17 * i as u64,
                    )
                    .1
                })
                .collect();
            summarize(&class, "Opt", &opt_stats, &mut report);
        }
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}

fn summarize(class: &ProblemClass, strategy: &str, stats: &[RunStatistics], report: &mut Report) {
    let ttbs: Vec<f64> = stats
        .iter()
        .map(|s| s.ttb_us(1e-6).unwrap_or(f64::INFINITY))
        .collect();
    let med = percentile(&ttbs, 50.0);
    let finite: Vec<f64> = ttbs.iter().copied().filter(|t| t.is_finite()).collect();
    let mean = if finite.is_empty() {
        f64::INFINITY
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    };
    println!(
        "{:<14} {:<4} TTB(1e-6): median {:>10} | mean(finite) {:>10} | reached {}/{}",
        class.label(),
        strategy,
        fmt(med),
        fmt(mean),
        finite.len(),
        ttbs.len()
    );
    // The time-series the paper plots: median E[BER] at a grid of
    // wall-clock points.
    let mut series = Vec::new();
    for t_us in [
        2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0, 5_000.0,
    ] {
        let bers: Vec<f64> = stats
            .iter()
            .map(|s| {
                let per = s.cycle_us / s.parallel_factor as f64;
                let na = (t_us / per).floor().max(1.0) as usize;
                s.expected_ber(na)
            })
            .collect();
        series.push(serde_json::json!({
            "time_us": t_us,
            "median_ber": percentile(&bers, 50.0),
            "p10_ber": percentile(&bers, 10.0),
            "p90_ber": percentile(&bers, 90.0),
        }));
    }
    report.push(serde_json::json!({
        "class": class.label(),
        "strategy": strategy,
        "ttb_median_us": if med.is_finite() { serde_json::json!(med) } else { serde_json::Value::Null },
        "ttb_mean_us": if mean.is_finite() { serde_json::json!(mean) } else { serde_json::Value::Null },
        "reached": stats.iter().filter(|s| s.ttb_us(1e-6).is_some()).count(),
        "series": series,
    }));
}

fn fmt(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.1} µs")
    } else {
        "∞".into()
    }
}
