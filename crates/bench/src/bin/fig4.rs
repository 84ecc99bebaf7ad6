//! **Figure 4** — empirical QA solution-rank anatomy: six decoding
//! problems, all needing 36 logical qubits (36×36 BPSK, 18×18 QPSK,
//! 9×9 16-QAM × two channel uses), showing each distinct solution's
//! frequency of occurrence, relative Ising energy gap ΔE, and bit
//! errors.
//!
//! Paper observations to reproduce: as modulation order rises at fixed
//! logical size, the ground-state probability falls, the relative gaps
//! shrink, and low-energy (not necessarily rank-1) solutions carry few
//! bit errors.
//!
//! Run: `cargo run --release -p quamax-bench --bin fig4 -- [--anneals N]`

use quamax_anneal::Annealer;
use quamax_bench::{default_params, ground_truth, spec_for, Args, Report};
use quamax_core::metrics::BitErrorProfile;
use quamax_core::{Detector, DetectorKind, DetectorSession, Scenario};
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["anneals", "seed", "ranks"], &[]);
    let anneals = args.get_usize("anneals", 5_000); // paper: 50,000
    let seed = args.get_u64("seed", 1);
    let show = args.get_usize("ranks", 8);

    let mut report = Report::new(
        "fig4",
        serde_json::json!({"anneals": anneals, "seed": seed}),
    );

    let classes = [
        (36usize, Modulation::Bpsk),
        (18, Modulation::Qpsk),
        (9, Modulation::Qam16),
    ];
    for (nt, m) in classes {
        for channel_use in 0..2u64 {
            let mut rng = StdRng::seed_from_u64(seed * 100 + channel_use);
            let inst = Scenario::new(nt, nt, m).sample(&mut rng);
            let gt = ground_truth(&inst);
            let spec = spec_for(
                default_params(),
                Default::default(),
                anneals,
                seed + channel_use,
            );
            let (stats, _) = quamax_bench::run_instance(&inst, &spec);
            // Re-decode to reach the distribution (run_instance returns
            // statistics only); the decode is deterministic, so rebuild
            // through the trait API for the rank table.
            let kind = DetectorKind::quamax(Annealer::new(spec.annealer), spec.decoder, anneals);
            let input = inst.detection_input();
            let mut session = kind.compile(&input).expect("fits the chip");
            let detection = session
                .detect(&input.y, spec.seed)
                .expect("annealed decode");
            let run = detection
                .annealed_run()
                .expect("quamax kind attaches its run");
            let profile = BitErrorProfile::from_run(run, inst.tx_bits());
            let dist = run.distribution();
            let gaps = dist.relative_gaps();

            println!(
                "\n{}x{} {} | use {} | N=36 | P0={:.4} | distinct={}",
                nt,
                nt,
                m.name(),
                channel_use,
                stats.p0,
                dist.num_distinct()
            );
            println!(
                "{:>5} {:>10} {:>9} {:>7}",
                "rank", "dE (rel)", "freq", "bits✗"
            );
            let mut rows = Vec::new();
            #[allow(clippy::needless_range_loop)] // r is a rank, indexing three parallel views
            for r in 0..dist.num_distinct().min(show) {
                let e = &dist.entries()[r];
                let freq = e.count as f64 / dist.total_samples() as f64;
                let bits = run.bits_for_rank(r).expect("r < num_distinct");
                let errors = quamax_wireless::count_bit_errors(&bits, inst.tx_bits());
                println!("{:>5} {:>10.5} {:>9.5} {:>7}", r + 1, gaps[r], freq, errors);
                rows.push(serde_json::json!({
                    "rank": r + 1,
                    "relative_gap": gaps[r],
                    "frequency": freq,
                    "bit_errors": errors,
                }));
            }
            report.push(serde_json::json!({
                "class": format!("{}x{} {}", nt, nt, m.name()),
                "channel_use": channel_use,
                "p0": stats.p0,
                "distinct_solutions": dist.num_distinct(),
                "ground_energy": gt.energy,
                "floor_ber": profile.floor_ber(),
                "ranks": rows,
            }));
        }
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
