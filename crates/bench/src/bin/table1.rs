//! **Table 1** — Sphere Decoder visited-node counts and practicality.
//!
//! Workload: Rayleigh channels at 13 dB SNR (the paper also mentions
//! 50 subcarriers over 20 MHz; node counts are per-subcarrier, so the
//! subcarrier count only multiplies the workload, not the statistic).
//! Paper values: ≈40 nodes (feasible) for 12×12 BPSK / 7×7 QPSK /
//! 4×4 16-QAM, ≈270 (borderline) for 21/11/6, ≈1,900 (unfeasible) for
//! 30/15/8.
//!
//! Run: `cargo run --release -p quamax-bench --bin table1 -- [--instances N]`

use quamax_baselines::SphereDecoder;
use quamax_bench::{run_map, Args, Report};
use quamax_core::{Instance, Scenario};
use quamax_wireless::{Modulation, Snr};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["instances", "seed", "snr"], &[]);
    let instances = args.get_usize("instances", 2_000); // paper: 10,000
    let seed = args.get_u64("seed", 1);
    let snr = Snr::from_db(args.get_f64("snr", 13.0));

    let rows_spec: [(usize, &[usize]); 3] = [
        (0, &[12, 21, 30]), // BPSK
        (1, &[7, 11, 15]),  // QPSK
        (2, &[4, 6, 8]),    // 16-QAM
    ];
    let mods = [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16];
    let paper = [40.0, 270.0, 1_900.0];
    let labels = ["feasible", "borderline", "unfeasible"];

    let mut report = Report::new(
        "table1",
        serde_json::json!({"instances": instances, "seed": seed, "snr_db": snr.db()}),
    );

    println!("Table 1: Sphere Decoder mean visited nodes ({instances} instances, {snr})");
    println!("{:<10} {:>8} {:>8} {:>8}", "", "row 1", "row 2", "row 3");
    let mut measured = [[0.0f64; 3]; 3];
    for (mi, sizes) in rows_spec {
        for (col, &nt) in sizes.iter().enumerate() {
            let m = mods[mi];
            let mut rng = StdRng::seed_from_u64(seed + (mi * 10 + col) as u64);
            let sc = Scenario::new(nt, nt, m).with_rayleigh().with_snr(snr);
            let decoder = SphereDecoder::new(m);
            // Instance generation keeps its sequential RNG stream; the
            // (independent, per-instance) sphere searches shard across
            // cores — same decodes, same mean, all cores busy.
            let insts: Vec<Instance> = (0..instances).map(|_| sc.sample(&mut rng)).collect();
            let nodes = run_map(&insts, |inst| {
                decoder
                    .decode(inst.h(), inst.y())
                    .expect("Rayleigh channels are non-degenerate")
                    .visited_nodes
            });
            let total: u64 = nodes.iter().sum();
            measured[mi][col] = total as f64 / instances as f64;
        }
    }
    for (mi, sizes) in rows_spec {
        let m = mods[mi];
        print!("{:<10}", m.name());
        #[allow(clippy::needless_range_loop)]
        for col in 0..3 {
            print!(" {:>7.0}n", measured[mi][col]);
        }
        println!();
        for (col, &nt) in sizes.iter().enumerate() {
            report.push(serde_json::json!({
                "modulation": m.name(),
                "users": nt,
                "mean_visited_nodes": measured[mi][col],
                "paper_nodes": paper[col],
                "paper_label": labels[col],
            }));
        }
    }
    println!();
    println!("Complexity columns (mean over modulations) vs paper:");
    for col in 0..3 {
        let avg = (measured[0][col] + measured[1][col] + measured[2][col]) / 3.0;
        println!(
            "  column {}: measured ≈ {:>7.0} nodes | paper ≈ {:>5.0} ({})",
            col + 1,
            avg,
            paper[col],
            labels[col]
        );
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
