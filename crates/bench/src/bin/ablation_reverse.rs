//! **Ablation: reverse annealing** (§8 — "new QA techniques such as
//! reverse annealing may close the gap to Opt").
//!
//! Forward annealing searches from scratch; reverse annealing starts
//! from a classical candidate (here: the zero-forcing decode), ramps
//! the schedule back to a reversal point `s_r`, holds, and re-anneals —
//! a local refinement. This bench compares forward vs ZF-seeded reverse
//! decoding at equal anneal budgets, sweeping `s_r`: the deeper the
//! reversal, the more the candidate is forgotten (at `s_r → 0` it is a
//! forward anneal again).
//!
//! Run: `cargo run --release -p quamax-bench --bin ablation_reverse`

use quamax_anneal::{Annealer, AnnealerConfig, Schedule};
use quamax_baselines::ZeroForcingDetector;
use quamax_bench::{default_params, ground_truth, inner_threads_for, run_map, Args, Report};
use quamax_core::{DecoderConfig, QuamaxDecoder, Scenario};
use quamax_wireless::{Modulation, Snr};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["anneals", "instances", "seed", "snr"], &[]);
    let anneals = args.get_usize("anneals", 500);
    let instances = args.get_usize("instances", 6);
    let seed = args.get_u64("seed", 1);
    let snr = Snr::from_db(args.get_f64("snr", 14.0));

    let mut report = Report::new(
        "ablation_reverse",
        serde_json::json!({
            "anneals": anneals, "instances": instances, "seed": seed, "snr_db": snr.db()
        }),
    );

    let m = Modulation::Qpsk;
    let nt = 16;
    let mut rng = StdRng::seed_from_u64(seed);
    let sc = Scenario::new(nt, nt, m).with_rayleigh().with_snr(snr);
    let insts: Vec<_> = (0..instances).map(|_| sc.sample(&mut rng)).collect();
    let zf = ZeroForcingDetector::new(m);

    // Decoders are rebuilt per sharded job; cap their inner anneal
    // threads so instances × anneal batches fill the machine exactly
    // once (the run_map contract keeps results worker-count
    // independent either way).
    let annealer = || {
        Annealer::new(AnnealerConfig {
            threads: inner_threads_for(insts.len()),
            ..Default::default()
        })
    };
    // Forward baseline: the calibrated default (pause schedule).
    let forward_config = DecoderConfig {
        embed: default_params().embed,
        schedule: default_params().schedule,
    };
    // Each instance's ground truth + decode + P0 is one self-seeded
    // job; the median is taken over the sharded per-run artifacts.
    let p0_of = |config: DecoderConfig,
                 reverse_from: Option<&(dyn Fn(usize) -> Vec<u8> + Sync)>| {
        let jobs: Vec<usize> = (0..insts.len()).collect();
        let mut p0s: Vec<f64> = run_map(&jobs, |&i| {
            let inst = &insts[i];
            let gt = ground_truth(inst);
            let decoder = QuamaxDecoder::new(annealer(), config);
            let mut drng = StdRng::seed_from_u64(seed + 7 * i as u64);
            let run = match reverse_from {
                None => decoder
                    .decode(&inst.detection_input(), anneals, &mut drng)
                    .unwrap(),
                Some(cand) => decoder
                    .decode_reverse(&inst.detection_input(), anneals, &cand(i), &mut drng)
                    .unwrap(),
            };
            let tol = 1e-6 * gt.energy.abs().max(1.0);
            run.distribution().probability_of_energy(gt.energy, tol)
        });
        p0s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        p0s[p0s.len() / 2]
    };

    let fwd = p0_of(forward_config, None);
    println!("16x16 QPSK @ {snr}: forward-anneal median P0 = {fwd:.4}");
    report.push(serde_json::json!({"mode": "forward", "p0_median": fwd}));

    let candidates: Vec<Vec<u8>> = insts
        .iter()
        .map(|inst| zf.decode(inst.h(), inst.y()).expect("non-degenerate"))
        .collect();
    for s_r in [0.2, 0.35, 0.5, 0.65, 0.8] {
        let reverse_config = DecoderConfig {
            embed: default_params().embed,
            schedule: Schedule::reverse(1.0, s_r, 1.0),
        };
        let p0 = p0_of(reverse_config, Some(&|i: usize| candidates[i].clone()));
        println!("  reverse from ZF, s_r = {s_r}: median P0 = {p0:.4}");
        report.push(serde_json::json!({"mode": "reverse_zf", "s_r": s_r, "p0_median": p0}));
    }
    println!("\n(deep reversal ≈ forward anneal; shallow reversal is a local\n refinement of the ZF decode — best when ZF is already close)");
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
