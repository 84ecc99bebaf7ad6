//! **Figure 8** — expected BER versus anneal count and versus wall
//! clock for 18×18 QPSK, comparing pausing/non-pausing schedules under
//! the Fix (per-class) and Opt (per-instance oracle) strategies.
//!
//! Paper shape: the pausing schedule beats the non-pausing one in
//! wall-clock BER *despite* each cycle costing twice as long
//! (`Ta + Tp = 2 µs` vs `1 µs`), under both strategies.
//!
//! Run: `cargo run --release -p quamax-bench --bin fig8`

use quamax_bench::{
    fix_for_class, optimize_instance, small_no_pause_grid, small_pause_grid, Args, Report,
};
use quamax_core::metrics::percentile;
use quamax_core::{RunStatistics, Scenario};
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn na_grid() -> Vec<usize> {
    let mut v = Vec::new();
    let mut na = 1usize;
    while na <= 100_000 {
        v.push(na);
        na = ((na as f64) * 2.0).ceil() as usize;
    }
    v
}

fn main() {
    let args = Args::parse(&["anneals", "instances", "seed"], &[]);
    let anneals = args.get_usize("anneals", 800);
    let instances = args.get_usize("instances", 10); // paper: 20
    let seed = args.get_u64("seed", 1);

    let mut report = Report::new(
        "fig8",
        serde_json::json!({"anneals": anneals, "instances": instances, "seed": seed}),
    );

    let m = Modulation::Qpsk;
    let nt = 18;
    let mut rng = StdRng::seed_from_u64(seed);
    let insts: Vec<_> = (0..instances)
        .map(|_| Scenario::new(nt, nt, m).sample(&mut rng))
        .collect();

    // Four strategies: {pause, no-pause} × {Fix, Opt}.
    let mut strategies: Vec<(String, Vec<RunStatistics>)> = Vec::new();
    for (label, grid) in [
        ("pause", small_pause_grid()),
        ("no-pause", small_no_pause_grid()),
    ] {
        // Fix: best class-level setting by median score.
        let (fix_params, fix_stats) =
            fix_for_class(&insts, &grid, Default::default(), anneals, seed);
        println!(
            "Fix[{label}]: J_F={}, schedule={:?}",
            fix_params.embed.j_ferro, fix_params.schedule
        );
        strategies.push((format!("Fix {label}"), fix_stats));

        // Opt: per-instance oracle over the same grid.
        let opt_stats: Vec<RunStatistics> = insts
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                optimize_instance(
                    inst,
                    &grid,
                    Default::default(),
                    anneals,
                    seed + 31 * i as u64,
                )
                .1
            })
            .collect();
        strategies.push((format!("Opt {label}"), opt_stats));

        // Keep the Fix parameters reproducible in the JSON.
        report.push(serde_json::json!({
            "strategy": format!("Fix {label}"),
            "j_ferro": fix_params.embed.j_ferro,
            "pause": fix_params.schedule.pause,
            "ta_us": fix_params.schedule.anneal_time_us,
        }));
    }

    println!("\nmedian E[BER] vs Na (and wall-clock µs, amortized):");
    print!("{:>8}", "Na");
    for (label, _) in &strategies {
        print!(" {label:>16}");
    }
    println!();
    for na in na_grid() {
        print!("{na:>8}");
        for (_, stats) in &strategies {
            let bers: Vec<f64> = stats.iter().map(|s| s.expected_ber(na)).collect();
            let med = percentile(&bers, 50.0);
            print!(" {med:>16.3e}");
        }
        println!();
        for (label, stats) in &strategies {
            let bers: Vec<f64> = stats.iter().map(|s| s.expected_ber(na)).collect();
            let times: Vec<f64> = stats.iter().map(|s| s.time_for_anneals_us(na)).collect();
            report.push(serde_json::json!({
                "strategy": label,
                "na": na,
                "median_ber": percentile(&bers, 50.0),
                "p15_ber": percentile(&bers, 15.0),
                "p85_ber": percentile(&bers, 85.0),
                "median_time_us": percentile(&times, 50.0),
            }));
        }
    }

    // Headline check: pause vs no-pause at equal wall clock (Fix).
    let fix_pause = &strategies[0].1;
    let fix_nopause = &strategies[2].1;
    let t_target = 40.0; // µs
    let ber_at = |stats: &[RunStatistics], t: f64| -> f64 {
        let v: Vec<f64> = stats
            .iter()
            .map(|s| {
                let na = (t / (s.cycle_us / s.parallel_factor as f64))
                    .floor()
                    .max(1.0) as usize;
                s.expected_ber(na)
            })
            .collect();
        percentile(&v, 50.0)
    };
    println!(
        "\nat {t_target} µs wall clock: median BER pause={:.3e} vs no-pause={:.3e}",
        ber_at(fix_pause, t_target),
        ber_at(fix_nopause, t_target)
    );
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
