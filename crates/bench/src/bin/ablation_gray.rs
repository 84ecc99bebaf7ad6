//! **Ablation: the Fig. 2 bitwise post-translation**.
//!
//! What happens if a 16-QAM receiver skips the QuAMax→Gray
//! post-translation and reads the QUBO bits as if they were Gray
//! bits? Symbol decisions are unchanged (same constellation point),
//! but the bit labelling disagrees with the transmitter for 3 of 4
//! columns — errors appear even on *correct* symbol decisions, and
//! near-miss symbol errors cost extra bit flips (the Gray property is
//! lost). This quantifies the BER penalty the translation removes.
//!
//! Run: `cargo run --release -p quamax-bench --bin ablation_gray`

use quamax_anneal::Annealer;
use quamax_bench::{default_params, inner_threads_for, run_map, spec_for, Args, Report};
use quamax_core::{Instance, QuamaxDecoder, Scenario};
use quamax_ising::spins_to_bits;
use quamax_wireless::{count_bit_errors, Modulation, Snr};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["anneals", "instances", "seed", "snr"], &[]);
    let anneals = args.get_usize("anneals", 400);
    let instances = args.get_usize("instances", 20);
    let seed = args.get_u64("seed", 1);
    let snr_db = args.get_f64("snr", 16.0);

    let mut report = Report::new(
        "ablation_gray",
        serde_json::json!({
            "anneals": anneals, "instances": instances, "seed": seed, "snr_db": snr_db
        }),
    );

    let m = Modulation::Qam16;
    let nt = 4;
    let q = m.bits_per_symbol();
    let mut rng = StdRng::seed_from_u64(seed);
    let sc = Scenario::new(nt, nt, m).with_snr(Snr::from_db(snr_db));

    // Instance generation stays serial (one cheap rng stream); the
    // decodes — the expensive part — shard across cores, each run
    // self-seeded so the artifacts are worker-count independent.
    let insts: Vec<(usize, Instance)> = (0..instances).map(|i| (i, sc.sample(&mut rng))).collect();
    let inner_threads = inner_threads_for(insts.len());
    let per_run: Vec<(usize, usize)> = run_map(&insts, |(i, inst)| {
        let mut spec = spec_for(
            default_params(),
            Default::default(),
            anneals,
            seed + *i as u64,
        );
        if spec.annealer.threads == 0 {
            spec.annealer.threads = inner_threads;
        }
        let decoder = QuamaxDecoder::new(Annealer::new(spec.annealer), spec.decoder);
        let mut drng = StdRng::seed_from_u64(spec.seed);
        let run = decoder
            .decode(&inst.detection_input(), anneals, &mut drng)
            .unwrap();
        // With translation: the pipeline's own decode.
        let translated = run.best_bits();
        // Without: raw QUBO bits of the best solution, taken as Gray.
        let raw: Vec<u8> = spins_to_bits(&run.distribution().best_solution().unwrap().spins);
        (
            count_bit_errors(&translated, inst.tx_bits()),
            count_bit_errors(&raw, inst.tx_bits()),
        )
    });
    let with_bits_errs: usize = per_run.iter().map(|r| r.0).sum();
    let without_bits_errs: usize = per_run.iter().map(|r| r.1).sum();
    let total_bits = instances * nt * q;
    let ber_with = with_bits_errs as f64 / total_bits as f64;
    let ber_without = without_bits_errs as f64 / total_bits as f64;
    println!("4x4 16-QAM at {snr_db} dB, {instances} channel uses:");
    println!("  BER with Fig. 2 translation   : {ber_with:.4}");
    println!("  BER without (raw QUBO as Gray): {ber_without:.4}");
    println!(
        "  penalty factor                : {}",
        if ber_with > 0.0 {
            format!("{:.1}x", ber_without / ber_with)
        } else {
            "∞".into()
        }
    );
    report.push(serde_json::json!({
        "ber_with_translation": ber_with,
        "ber_without_translation": ber_without,
    }));
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
