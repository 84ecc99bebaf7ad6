//! **Figure 6** — TTS versus anneal time `Ta ∈ {1, 10, 100} µs` for
//! QPSK problem sizes, with the per-`J_F` scatter the paper overlays.
//!
//! Paper shapes: with improved dynamic range the best TTS is achieved
//! at `Ta = 1 µs` regardless of size (longer anneals raise `P0` but
//! not enough to pay for their cycle time), and sensitivity to `J_F`
//! shrinks with improved range.
//!
//! Run: `cargo run --release -p quamax-bench --bin fig6`

use quamax_anneal::Schedule;
use quamax_bench::{run_instances, spec_for, Args, Report};
use quamax_chimera::EmbedParams;
use quamax_core::metrics::percentile;
use quamax_core::params::CandidateParams;
use quamax_core::Scenario;
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["anneals", "instances", "seed"], &[]);
    let anneals = args.get_usize("anneals", 500);
    let instances = args.get_usize("instances", 5); // paper: 10
    let seed = args.get_u64("seed", 1);

    let mut report = Report::new(
        "fig6",
        serde_json::json!({"anneals": anneals, "instances": instances, "seed": seed}),
    );

    let jfs = [2.0, 3.0, 4.0, 6.0];
    for nt in [8usize, 12, 14, 16, 18] {
        let m = Modulation::Qpsk;
        let mut rng = StdRng::seed_from_u64(seed + nt as u64);
        let insts: Vec<_> = (0..instances)
            .map(|_| Scenario::new(nt, nt, m).sample(&mut rng))
            .collect();
        println!("\n{nt}x{nt} QPSK | median TTS(0.99) µs per (Ta, J_F), improved range");
        for ta in [1.0, 10.0, 100.0] {
            print!("  Ta={ta:>5}:");
            let mut best_for_ta = f64::INFINITY;
            for &jf in &jfs {
                let params = CandidateParams {
                    embed: EmbedParams {
                        j_ferro: jf,
                        improved_range: true,
                    },
                    schedule: Schedule::standard(ta),
                };
                // All instances of this setting decode in parallel
                // (per-seed deterministic; see runner::run_instances).
                let work: Vec<_> = insts
                    .iter()
                    .enumerate()
                    .map(|(i, inst)| {
                        (
                            inst,
                            spec_for(params, Default::default(), anneals, seed + i as u64),
                        )
                    })
                    .collect();
                let tts: Vec<f64> = run_instances(&work)
                    .iter()
                    .map(|(stats, _)| stats.tts99_us().unwrap_or(f64::INFINITY))
                    .collect();
                let med = percentile(&tts, 50.0);
                best_for_ta = best_for_ta.min(med);
                print!(
                    "  JF{jf}:{}",
                    if med.is_finite() {
                        format!("{med:>9.1}")
                    } else {
                        "      inf".into()
                    }
                );
                report.push(serde_json::json!({
                    "users": nt,
                    "ta_us": ta,
                    "j_ferro": jf,
                    "tts_median_us": if med.is_finite() { serde_json::json!(med) } else { serde_json::Value::Null },
                }));
            }
            println!(
                "   | best {}",
                if best_for_ta.is_finite() {
                    format!("{best_for_ta:.1}")
                } else {
                    "inf".into()
                }
            );
        }
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
