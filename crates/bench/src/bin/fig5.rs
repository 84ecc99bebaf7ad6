//! **Figure 5** — TTS(0.99) versus ferromagnetic chain strength
//! `|J_F|`, standard versus improved coupler dynamic range, for BPSK
//! and QPSK problem sizes at `Ta = 1 µs`.
//!
//! Paper shapes to reproduce: standard range has a size-dependent
//! optimum `|J_F|` with steep degradation on both sides; improved
//! range is flatter and achieves roughly the standard optimum across a
//! wide `|J_F|` band.
//!
//! Run: `cargo run --release -p quamax-bench --bin fig5 --
//!       [--anneals N] [--instances K] [--jf-step S]`

use quamax_anneal::Schedule;
use quamax_bench::{run_instances, spec_for, Args, Report};
use quamax_chimera::EmbedParams;
use quamax_core::metrics::percentile;
use quamax_core::params::{jf_grid, CandidateParams};
use quamax_core::Scenario;
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["anneals", "instances", "jf-step", "seed"], &[]);
    let anneals = args.get_usize("anneals", 800);
    let instances = args.get_usize("instances", 6); // paper: 10
    let jf_step = args.get_usize("jf-step", 2); // paper grid: step 1 (0.5 increments)
    let seed = args.get_u64("seed", 1);

    let mut report = Report::new(
        "fig5",
        serde_json::json!({
            "anneals": anneals, "instances": instances, "jf_step": jf_step, "seed": seed
        }),
    );

    let classes = [
        (24usize, Modulation::Bpsk),
        (36, Modulation::Bpsk),
        (48, Modulation::Bpsk),
        (8, Modulation::Qpsk),
        (14, Modulation::Qpsk),
        (18, Modulation::Qpsk),
    ];

    for (nt, m) in classes {
        // The same instance set across all parameter settings isolates
        // the J_F effect (paper protocol).
        let mut rng = StdRng::seed_from_u64(seed + nt as u64);
        let insts: Vec<_> = (0..instances)
            .map(|_| Scenario::new(nt, nt, m).sample(&mut rng))
            .collect();
        for improved in [false, true] {
            println!(
                "\n{}x{} {} | {} range | TTS(0.99) median [10th–90th] µs",
                nt,
                nt,
                m.name(),
                if improved { "improved" } else { "standard" }
            );
            for (k, &jf) in jf_grid().iter().enumerate() {
                if k % jf_step != 0 {
                    continue;
                }
                let params = CandidateParams {
                    embed: EmbedParams {
                        j_ferro: jf,
                        improved_range: improved,
                    },
                    schedule: Schedule::standard(1.0),
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
                let p10 = percentile(&tts, 10.0);
                let p90 = percentile(&tts, 90.0);
                println!("  J_F={jf:>4}: {:>10.1} [{:>8.1} – {:>8.1}]", med, p10, p90);
                report.push(serde_json::json!({
                    "class": format!("{}x{} {}", nt, nt, m.name()),
                    "improved_range": improved,
                    "j_ferro": jf,
                    "tts_median_us": finite_or_null(med),
                    "tts_p10_us": finite_or_null(p10),
                    "tts_p90_us": finite_or_null(p90),
                }));
            }
        }
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}

fn finite_or_null(x: f64) -> serde_json::Value {
    if x.is_finite() {
        serde_json::json!(x)
    } else {
        serde_json::Value::Null
    }
}
