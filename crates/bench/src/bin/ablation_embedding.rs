//! **Ablation: embedded-physical vs logical-only annealing**
//! (see `quamax_chimera::embedded`).
//!
//! Runs the same logical ML problems (a) through the full pipeline —
//! Chimera embedding, chains, majority-vote unembedding — and (b)
//! directly on the logical fully-connected problem (a hypothetical
//! all-to-all annealer). The gap quantifies how much of QuAMax's
//! hardness is *embedding overhead* rather than problem hardness, the
//! motivation behind the paper's §8 excitement about Pegasus.
//!
//! Run: `cargo run --release -p quamax-bench --bin ablation_embedding`

use quamax_anneal::{Annealer, AnnealerConfig, Schedule, SolutionDistribution};
use quamax_bench::{default_params, ground_truth, run_instances, spec_for, Args, Report};
use quamax_core::metrics::percentile;
use quamax_core::reduce::ising_from_ml;
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
        "ablation_embedding",
        serde_json::json!({"anneals": anneals, "instances": instances, "seed": seed}),
    );

    for (nt, m) in [
        (36usize, Modulation::Bpsk),
        (14, Modulation::Qpsk),
        (18, Modulation::Qpsk),
    ] {
        let mut rng = StdRng::seed_from_u64(seed + nt as u64);
        let insts: Vec<_> = (0..instances)
            .map(|_| Scenario::new(nt, nt, m).sample(&mut rng))
            .collect();

        // (a) full pipeline — all instances in parallel (per-seed
        // deterministic; see runner::run_instances).
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
        let embedded_p0: Vec<f64> = run_instances(&work)
            .iter()
            .map(|(stats, _)| stats.p0)
            .collect();

        // (b) logical-only: anneal the un-embedded problem with the
        // same schedule/ICE; chains don't exist, so the only "chain
        // move" analogue is the plain sweep.
        let annealer = Annealer::new(AnnealerConfig::default());
        let schedule = Schedule::with_pause(1.0, 0.35, 1.0);
        let logical_p0: Vec<f64> = insts
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let gt = ground_truth(inst);
                let (logical, _) = ising_from_ml(inst.h(), inst.y(), m);
                // Match the embedded pipeline's pre-normalization so ICE
                // hits comparable coefficient scales.
                let max = logical.max_abs_coefficient();
                let programmed = logical.scaled(1.0 / max);
                let samples = annealer.run(&programmed, &schedule, anneals, seed + 77 * i as u64);
                let dist = SolutionDistribution::from_samples(&programmed, &samples);
                dist.probability_of_energy(gt.energy / max, 1e-6 * (gt.energy / max).abs().max(1.0))
            })
            .collect();

        let emb = percentile(&embedded_p0, 50.0);
        let log = percentile(&logical_p0, 50.0);
        println!(
            "{nt}x{nt} {:<6}: median P0 embedded {:.4} vs logical-only {:.4} (overhead factor {:.1}x)",
            m.name(),
            emb,
            log,
            if emb > 0.0 { log / emb } else { f64::INFINITY }
        );
        report.push(serde_json::json!({
            "class": format!("{nt}x{nt} {}", m.name()),
            "p0_embedded_median": emb,
            "p0_logical_median": log,
        }));
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
