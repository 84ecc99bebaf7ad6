//! **Ablation: SA vs SQA dynamics** (see `quamax_anneal`'s crate docs).
//!
//! Do the reproduced effects — pause benefit, J_F response — survive
//! replacing Metropolis simulated annealing with path-integral
//! (simulated quantum annealing) dynamics? SQA is ~`slices`× more
//! expensive, so this uses modest sizes and anneal counts.
//!
//! Run: `cargo run --release -p quamax-bench --bin ablation_backend`

use quamax_anneal::{AnnealerConfig, Backend, Schedule};
use quamax_bench::{run_instances, spec_for, Args, Report};
use quamax_chimera::EmbedParams;
use quamax_core::metrics::percentile;
use quamax_core::params::CandidateParams;
use quamax_core::Scenario;
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(
        &["anneals", "instances", "slices", "seed", "sweeps-per-us"],
        &[],
    );
    let anneals = args.get_usize("anneals", 300);
    let instances = args.get_usize("instances", 4);
    let slices = args.get_usize_at_least("slices", 8, 2);
    let seed = args.get_u64("seed", 1);
    let sweeps = args.get_f64("sweeps-per-us", 20.0);

    let mut report = Report::new(
        "ablation_backend",
        serde_json::json!({
            "anneals": anneals, "instances": instances, "slices": slices, "seed": seed
        }),
    );

    let m = Modulation::Qpsk;
    let nt = 12;
    let mut rng = StdRng::seed_from_u64(seed);
    let insts: Vec<_> = (0..instances)
        .map(|_| Scenario::new(nt, nt, m).sample(&mut rng))
        .collect();

    for (backend_label, backend) in [("SA", Backend::Sa), ("SQA", Backend::Sqa { slices })] {
        println!("\n== {backend_label} backend | 12x12 QPSK | median P0 / TTS(0.99) ==");
        for (setting, schedule) in [
            ("no pause Ta=1", Schedule::standard(1.0)),
            ("pause @0.35  ", Schedule::with_pause(1.0, 0.35, 1.0)),
        ] {
            for jf in [2.0, 4.0, 8.0] {
                let params = CandidateParams {
                    embed: EmbedParams {
                        j_ferro: jf,
                        improved_range: true,
                    },
                    schedule,
                };
                let annealer = AnnealerConfig {
                    backend,
                    sweeps_per_us: sweeps,
                    ..Default::default()
                };
                // All instances of this setting decode in parallel
                // (per-seed deterministic; see runner::run_instances).
                let work: Vec<_> = insts
                    .iter()
                    .enumerate()
                    .map(|(i, inst)| (inst, spec_for(params, annealer, anneals, seed + i as u64)))
                    .collect();
                let results: Vec<(f64, f64)> = run_instances(&work)
                    .iter()
                    .map(|(stats, _)| (stats.p0, stats.tts99_us().unwrap_or(f64::INFINITY)))
                    .collect();
                let p0s: Vec<f64> = results.iter().map(|r| r.0).collect();
                let tts: Vec<f64> = results.iter().map(|r| r.1).collect();
                let p0_med = percentile(&p0s, 50.0);
                let tts_med = percentile(&tts, 50.0);
                println!(
                    "  {setting} J_F={jf:>3}: P0 {:.4} | TTS {}",
                    p0_med,
                    if tts_med.is_finite() {
                        format!("{tts_med:.1} µs")
                    } else {
                        "∞".into()
                    }
                );
                report.push(serde_json::json!({
                    "backend": backend_label,
                    "setting": setting.trim(),
                    "j_ferro": jf,
                    "p0_median": p0_med,
                    "tts_median_us": if tts_med.is_finite() { serde_json::json!(tts_med) } else { serde_json::Value::Null },
                }));
            }
        }
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
