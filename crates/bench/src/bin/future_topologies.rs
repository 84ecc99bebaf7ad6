//! **§8 forward look** — capacity of next-generation annealer
//! topologies for ML MIMO detection, using the analytic Pegasus model.
//!
//! The paper forecasts chips with "2× the degree of Chimera, 2× the
//! qubits and longer range couplings", chains of `N/12 + 1`, and
//! speculates about 175×175 QPSK. This binary tabulates what the
//! announced P16 actually supports and how chain length / footprint /
//! parallelization compare with Chimera across the paper's problem
//! classes.
//!
//! Run: `cargo run --release -p quamax-bench --bin future_topologies`

use quamax_bench::Report;
use quamax_chimera::{clique_chain_len, clique_qubit_cost, parallelization, PegasusModel};
use quamax_wireless::Modulation;

fn main() {
    let p16 = PegasusModel::p16();
    let mut report = Report::new("future_topologies", serde_json::json!({}));

    println!("Chimera C16 vs Pegasus P16 for ML MIMO problem classes");
    println!(
        "{:<16} {:>4} {:>16} {:>16} {:>10}",
        "class", "N", "C16 chain/qubits", "P16 chain/qubits", "P16 Pf"
    );
    let classes = [
        (48usize, Modulation::Bpsk),
        (60, Modulation::Bpsk),
        (180, Modulation::Bpsk),
        (18, Modulation::Qpsk),
        (48, Modulation::Qpsk),
        (90, Modulation::Qpsk),
        (9, Modulation::Qam16),
        (45, Modulation::Qam16),
    ];
    for (users, m) in classes {
        let n = users * m.bits_per_symbol();
        let c16 = if n <= 64 {
            format!("{} / {}", clique_chain_len(n), clique_qubit_cost(n))
        } else {
            "does not fit".into()
        };
        let p16_cell = if p16.fits(n) {
            format!("{} / {}", p16.chain_len(n), p16.clique_qubit_cost(n))
        } else {
            "does not fit".into()
        };
        let pf = p16.parallelization_asymptotic(n);
        println!(
            "{:<16} {:>4} {:>16} {:>16} {:>10.1}",
            format!("{users}x{users} {}", m.name()),
            n,
            c16,
            p16_cell,
            pf
        );
        report.push(serde_json::json!({
            "class": format!("{users}x{users} {}", m.name()),
            "logical": n,
            "c16_fits": n <= 64,
            "c16_chain": if n <= 64 { serde_json::json!(clique_chain_len(n)) } else { serde_json::Value::Null },
            "p16_fits": p16.fits(n),
            "p16_chain": if p16.fits(n) { serde_json::json!(p16.chain_len(n)) } else { serde_json::Value::Null },
            "p16_parallel_asymptotic": pf,
        }));
    }
    println!("\nC16 geometric parallelization for small problems (measured by tiling):");
    for n in [8usize, 16, 28, 36, 48] {
        println!("  N={n:>2}: {} copies", parallelization(n));
    }
    println!(
        "\nNote: the paper's '175×175 QPSK' forecast needs N=350 — beyond P16's\nnative clique bound of {}.",
        p16.max_clique()
    );
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
