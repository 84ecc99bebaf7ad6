//! **Ablation: imperfect channel state information** (paper §2.1,
//! footnote 2 — `H` is "practically estimated and tracked via
//! preambles and/or pilot tones").
//!
//! The paper evaluates with perfect CSI. Here the receiver estimates
//! `H` from DFT pilots (least squares) before reducing to Ising; the
//! pilot length `Np` sweeps the estimation quality (`σ²/Np` per-entry
//! error). Shows how much pilot overhead ML-grade detection needs.
//!
//! Run: `cargo run --release -p quamax-bench --bin ablation_csi`

use quamax_anneal::Annealer;
use quamax_bench::{default_params, inner_threads_for, run_map, Args, Report};
use quamax_core::{DecoderConfig, DetectionInput, QuamaxDecoder, Scenario};
use quamax_wireless::{count_bit_errors, dft_pilots, estimate_channel, Modulation, Snr};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["anneals", "instances", "seed", "snr", "pilot-snr"], &[]);
    let anneals = args.get_usize("anneals", 300);
    let instances = args.get_usize("instances", 20);
    let seed = args.get_u64("seed", 1);
    let snr = Snr::from_db(args.get_f64("snr", 14.0));
    let pilot_snr = Snr::from_db(args.get_f64("pilot-snr", 2.0));

    let mut report = Report::new(
        "ablation_csi",
        serde_json::json!({
            "anneals": anneals, "instances": instances, "seed": seed,
            "snr_db": snr.db(), "pilot_snr_db": pilot_snr.db()
        }),
    );

    let m = Modulation::Qpsk;
    let nt = 12;
    let pilot_sigma2 = pilot_snr.noise_variance(m);
    let pilot_lengths = [0usize, 12, 24, 48, 96]; // Np = 0 encodes "perfect CSI"

    // One flat work list over (Np, instance): every job re-derives its
    // instance, pilot noise, and decode from its own seeds, so the
    // whole sweep shards across cores with worker-count-independent
    // results (the per-run artifact is the instance's bit-error count).
    let jobs: Vec<(usize, usize)> = pilot_lengths
        .iter()
        .flat_map(|&np| (0..instances).map(move |i| (np, i)))
        .collect();
    let inner_threads = inner_threads_for(jobs.len());
    let decoder = || {
        QuamaxDecoder::new(
            Annealer::new(quamax_anneal::AnnealerConfig {
                threads: inner_threads,
                ..Default::default()
            }),
            DecoderConfig {
                embed: default_params().embed,
                schedule: default_params().schedule,
            },
        )
    };

    println!("12x12 QPSK @ {snr} (pilots at {pilot_snr}): BER vs pilot length (LS estimation)");
    let per_job: Vec<(usize, usize)> = run_map(&jobs, |&(np, i)| {
        let mut rng = StdRng::seed_from_u64(
            seed ^ (np as u64 + 1).wrapping_mul(0x9e37_79b9) ^ (i as u64) << 17,
        );
        let inst = Scenario::new(nt, nt, m)
            .with_rayleigh()
            .with_snr(snr)
            .sample(&mut rng);
        let h_used = if np == 0 {
            inst.h().clone()
        } else {
            let pilots = dft_pilots(nt, np);
            estimate_channel(inst.h(), &pilots, pilot_sigma2, &mut rng)
        };
        let input = DetectionInput {
            h: h_used,
            y: inst.y().clone(),
            modulation: m,
        };
        let mut drng = StdRng::seed_from_u64(seed + 13 * i as u64);
        let run = decoder().decode(&input, anneals, &mut drng).unwrap();
        (
            count_bit_errors(&run.best_bits(), inst.tx_bits()),
            inst.tx_bits().len(),
        )
    });
    for (k, &np) in pilot_lengths.iter().enumerate() {
        let slice = &per_job[k * instances..(k + 1) * instances];
        let errors: usize = slice.iter().map(|r| r.0).sum();
        let bits: usize = slice.iter().map(|r| r.1).sum();
        let ber = errors as f64 / bits as f64;
        let label = if np == 0 {
            "perfect".into()
        } else {
            format!("Np={np}")
        };
        println!("  {label:>8}: BER {ber:.3e}");
        report.push(serde_json::json!({
            "pilot_len": np,
            "ber": ber,
        }));
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
