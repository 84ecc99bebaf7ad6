//! **Ablation: ICE noise floor** (see `quamax_anneal::IceModel`).
//!
//! Sweeps the intrinsic-control-error scale from 0 (ideal device)
//! through the paper's measured moments (1.0×) and beyond, at two
//! problem sizes. Shows why this reproduction calibrates to 0.2×: the
//! paper's absolute moments extinguish `P0` for N ≥ 28 problems under
//! classical dynamics (see `IceModel::calibrated`).
//!
//! Run: `cargo run --release -p quamax-bench --bin ablation_ice`

use quamax_anneal::{AnnealerConfig, IceModel};
use quamax_bench::{default_params, run_instances, spec_for, Args, Report};
use quamax_core::metrics::percentile;
use quamax_core::Scenario;
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let anneals = args.get_usize("anneals", 800);
    let instances = args.get_usize("instances", 5);
    let seed = args.get_u64("seed", 1);

    let mut report = Report::new(
        "ablation_ice",
        serde_json::json!({"anneals": anneals, "instances": instances, "seed": seed}),
    );

    for (nt, m) in [(48usize, Modulation::Bpsk), (18, Modulation::Qpsk)] {
        let mut rng = StdRng::seed_from_u64(seed + nt as u64);
        let insts: Vec<_> = (0..instances)
            .map(|_| Scenario::new(nt, nt, m).sample(&mut rng))
            .collect();
        println!(
            "\n{nt}x{nt} {} | median P0 and TTB(1e-6) vs ICE scale",
            m.name()
        );
        for scale in [0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0] {
            let annealer = AnnealerConfig {
                ice: IceModel::dw2q().scaled(scale),
                ..Default::default()
            };
            // All instances of this ICE scale decode in parallel
            // (per-seed deterministic; see runner::run_instances).
            let work: Vec<_> = insts
                .iter()
                .enumerate()
                .map(|(i, inst)| {
                    (
                        inst,
                        spec_for(default_params(), annealer, anneals, seed + i as u64),
                    )
                })
                .collect();
            let results: Vec<(f64, f64)> = run_instances(&work)
                .iter()
                .map(|(stats, _)| (stats.p0, stats.ttb_us(1e-6).unwrap_or(f64::INFINITY)))
                .collect();
            let p0s: Vec<f64> = results.iter().map(|r| r.0).collect();
            let ttbs: Vec<f64> = results.iter().map(|r| r.1).collect();
            let p0_med = percentile(&p0s, 50.0);
            let ttb_med = percentile(&ttbs, 50.0);
            println!(
                "  ICE {scale:>3}x: P0 {:.4} | TTB {}",
                p0_med,
                if ttb_med.is_finite() {
                    format!("{ttb_med:.1} µs")
                } else {
                    "∞".into()
                }
            );
            report.push(serde_json::json!({
                "class": format!("{nt}x{nt} {}", m.name()),
                "ice_scale": scale,
                "p0_median": p0_med,
                "ttb_median_us": if ttb_med.is_finite() { serde_json::json!(ttb_med) } else { serde_json::Value::Null },
            }));
        }
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
