//! **Figure 7** — TTS versus anneal-pause time `Tp` and position
//! `s_p` for 18-user QPSK (`Ta = 1 µs`, improved range).
//!
//! Paper shapes: a sweet spot in `s_p` (mid-schedule, where the
//! effective temperature crosses the ordering region); growing `Tp`
//! raises per-cycle cost faster than it raises `P0`, so `Tp = 1 µs`
//! wins on TTS.
//!
//! Run: `cargo run --release -p quamax-bench --bin fig7`

use quamax_anneal::Schedule;
use quamax_bench::{run_instances, spec_for, Args, Report};
use quamax_chimera::EmbedParams;
use quamax_core::metrics::percentile;
use quamax_core::params::{sp_grid, CandidateParams};
use quamax_core::Scenario;
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["anneals", "instances", "sp-step", "seed", "jf"], &[]);
    let anneals = args.get_usize("anneals", 400); // paper: 10,000
    let instances = args.get_usize("instances", 5); // paper: 10
    let sp_step = args.get_usize("sp-step", 2); // paper grid: step 1 (0.02)
    let seed = args.get_u64("seed", 1);
    let jf = args.get_f64("jf", 4.0);

    let mut report = Report::new(
        "fig7",
        serde_json::json!({
            "anneals": anneals, "instances": instances, "sp_step": sp_step,
            "jf": jf, "seed": seed
        }),
    );

    let m = Modulation::Qpsk;
    let nt = 18;
    let mut rng = StdRng::seed_from_u64(seed);
    let insts: Vec<_> = (0..instances)
        .map(|_| Scenario::new(nt, nt, m).sample(&mut rng))
        .collect();

    for tp in [1.0, 10.0, 100.0] {
        println!("\n18x18 QPSK | Tp={tp} µs | median TTS(0.99) µs vs pause position");
        let mut best = (f64::INFINITY, 0.0);
        for (k, &sp) in sp_grid().iter().enumerate() {
            if k % sp_step != 0 {
                continue;
            }
            let params = CandidateParams {
                embed: EmbedParams {
                    j_ferro: jf,
                    improved_range: true,
                },
                schedule: Schedule::with_pause(1.0, sp, tp),
            };
            // All instances of this pause setting decode in parallel
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
            if med < best.0 {
                best = (med, sp);
            }
            println!(
                "  sp={sp:.2}: {}",
                if med.is_finite() {
                    format!("{med:>9.1}")
                } else {
                    "      inf".into()
                }
            );
            report.push(serde_json::json!({
                "tp_us": tp,
                "sp": sp,
                "tts_median_us": if med.is_finite() { serde_json::json!(med) } else { serde_json::Value::Null },
            }));
        }
        println!(
            "  best sp for Tp={tp}: {:.2} (TTS {:.1} µs)",
            best.1, best.0
        );
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
