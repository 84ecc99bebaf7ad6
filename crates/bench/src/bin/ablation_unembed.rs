//! **Ablation: majority-vote vs discard-on-break unembedding**
//! (see `quamax_chimera::unembed`).
//!
//! The paper unembeds broken chains by majority vote (ties
//! randomized). The alternative — discarding any sample with a broken
//! chain — wastes anneals but returns only "clean" readouts. This
//! ablation measures both the break rate (as a function of `J_F`) and
//! the effective ground-state probability per *submitted* anneal under
//! each policy.
//!
//! Run: `cargo run --release -p quamax-bench --bin ablation_unembed`

use quamax_anneal::{Annealer, AnnealerConfig, Schedule};
use quamax_bench::{ground_truth, inner_threads_for, run_map, Args, Report};
use quamax_chimera::{
    unembed_majority_vote, ChimeraGraph, CliqueEmbedding, EmbedParams, EmbeddedProblem,
};
use quamax_core::reduce::ising_from_ml;
use quamax_core::Scenario;
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["anneals", "seed"], &[]);
    let anneals = args.get_usize("anneals", 1_000);
    let seed = args.get_u64("seed", 1);

    let mut report = Report::new(
        "ablation_unembed",
        serde_json::json!({"anneals": anneals, "seed": seed}),
    );

    let m = Modulation::Qpsk;
    let nt = 14;
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = Scenario::new(nt, nt, m).sample(&mut rng);
    let gt = ground_truth(&inst);
    let (logical, _) = ising_from_ml(inst.h(), inst.y(), m);
    let graph = ChimeraGraph::dw2q_ideal();
    let embedding = CliqueEmbedding::new(&graph, logical.num_spins()).unwrap();
    let schedule = Schedule::with_pause(1.0, 0.35, 1.0);

    println!("14x14 QPSK | unembedding policies vs J_F (improved range)");
    println!(
        "{:>5} {:>12} {:>14} {:>14} {:>10}",
        "J_F", "break rate", "P0 (majority)", "P0 (discard)", "kept"
    );
    // Each J_F setting is one self-contained job (its own embedding
    // compile, anneal batch, and unembedding rng), so the sweep shards
    // across cores; leftover cores flow into each job's anneal batch.
    let jf_values = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0];
    let annealer = Annealer::new(AnnealerConfig {
        threads: inner_threads_for(jf_values.len()),
        ..Default::default()
    });
    let rows = run_map(&jf_values, |&jf| {
        let embedded = EmbeddedProblem::compile(
            &graph,
            &embedding,
            &logical,
            EmbedParams {
                j_ferro: jf,
                improved_range: true,
            },
        );
        let samples = annealer.run_chained(
            embedded.problem(),
            embedded.chains(),
            &schedule,
            anneals,
            seed + jf as u64,
        );
        let tol = 1e-6 * gt.energy.abs().max(1.0);
        let mut breaks = 0usize;
        let mut hits_majority = 0usize;
        let mut hits_discard = 0usize;
        let mut kept = 0usize;
        let mut urng = StdRng::seed_from_u64(seed + 999);
        for s in &samples {
            let out = unembed_majority_vote(&embedded, s, &mut urng);
            breaks += out.broken_chains;
            let hit = (logical.energy(&out.logical) - gt.energy).abs() <= tol;
            if hit {
                hits_majority += 1;
            }
            if out.broken_chains == 0 {
                kept += 1;
                if hit {
                    hits_discard += 1;
                }
            }
        }
        let total_chains = logical.num_spins() * samples.len();
        (
            jf,
            breaks as f64 / total_chains as f64,
            hits_majority as f64 / samples.len() as f64,
            hits_discard as f64 / samples.len() as f64, // per submitted anneal
            kept as f64 / samples.len() as f64,
        )
    });
    for (jf, break_rate, p0_majority, p0_discard, kept_fraction) in rows {
        println!(
            "{jf:>5} {break_rate:>12.4} {p0_majority:>14.4} {p0_discard:>14.4} {:>7.1}%",
            100.0 * kept_fraction
        );
        report.push(serde_json::json!({
            "j_ferro": jf,
            "chain_break_rate": break_rate,
            "p0_majority": p0_majority,
            "p0_discard_per_submitted": p0_discard,
            "clean_sample_fraction": kept_fraction,
        }));
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
