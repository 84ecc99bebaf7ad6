//! Tables 1 and 2 of §5 and the §8 forward look.

use super::{classes, draw, label, preset, Entry, Preset};
use crate::output::Report;
use crate::runner::run_map;
use quamax_baselines::SphereDecoder;
use quamax_chimera::{
    clique_chain_len, clique_qubit_cost, parallelization, ChimeraGraph, CliqueEmbedding,
    PegasusModel,
};
use quamax_core::Scenario;
use quamax_wireless::Modulation::{self, Bpsk, Qam16, Qpsk};
use quamax_wireless::Snr;
use serde_json::json;

pub(super) static TABLE1: Entry = Entry {
    name: "table1",
    reproduces: "Table 1: sphere-decoder visited nodes and practicality",
    shapes: "Rayleigh channels at 13 dB; node counts are per subcarrier. About 40 \
        nodes (feasible) for 12x12 BPSK, 7x7 QPSK and 4x4 16-QAM, about 270 \
        (borderline) for 21/11/6 users and about 1,900 (unfeasible) for 30/15/8. \
        The complexity columns' mean counts grow at the quick preset; the \
        magnitudes need the full preset (`repro table1`).",
    reads: &["instances", "seed"],
    full: preset(0, 2_000), // paper: 10,000 instances
    quick: preset(0, 20),
    run: table1,
};

fn table1(p: &Preset) -> Report {
    let snr = Snr::from_db(13.0);
    let params = json!({"instances": p.instances, "seed": p.seed, "snr_db": snr.db()});
    let mut report = Report::new("table1", params);
    let paper = [
        (40.0, "feasible"),
        (270.0, "borderline"),
        (1_900.0, "unfeasible"),
    ];
    let rows = [
        (Bpsk, [12, 21, 30]),
        (Qpsk, [7, 11, 15]),
        (Qam16, [4, 6, 8]),
    ];
    let mut measured = [[0.0f64; 3]; 3];
    for (mi, (m, sizes)) in rows.into_iter().enumerate() {
        for (col, nt) in sizes.into_iter().enumerate() {
            let sc = Scenario::new(nt, nt, m).with_rayleigh().with_snr(snr);
            let insts = draw(&sc, p.instances, p.seed + (mi * 10 + col) as u64);
            let decoder = SphereDecoder::new(m);
            let nodes = run_map(&insts, |inst| {
                let found = decoder.decode(inst.h(), inst.y());
                found
                    .expect("Rayleigh channels are non-degenerate")
                    .visited_nodes
            });
            measured[mi][col] = nodes.iter().sum::<u64>() as f64 / p.instances as f64;
            report.push(json!({
                "modulation": m.name(),
                "users": nt,
                "mean_visited_nodes": measured[mi][col],
                "paper_nodes": paper[col].0,
                "paper_label": paper[col].1,
            }));
        }
    }
    // The paper's complexity columns: the mean over modulations.
    for (col, (nodes, name)) in paper.into_iter().enumerate() {
        report.push(json!({
            "column": col + 1,
            "mean_visited_nodes": (measured[0][col] + measured[1][col] + measured[2][col]) / 3.0,
            "paper_nodes": nodes,
            "paper_label": name,
        }));
    }
    report
}

pub(super) static TABLE2: Entry = Entry {
    name: "table2",
    reproduces: "Table 2: logical (physical) qubits, DW2Q feasibility, the §8 Pegasus model",
    shapes: "Pure embedding arithmetic: N = Nt*log2|O| logical variables, \
        N*(ceil(N/4)+1) physical qubits, feasible on the DW2Q's C16 Chimera \
        exactly when N <= 64. Pegasus P16 takes up to 180 BPSK, 90 QPSK, 45 16-QAM \
        and 30 64-QAM users. Every shape holds at any preset.",
    reads: &[],
    full: preset(0, 0),
    quick: preset(0, 0),
    run: table2,
};

fn table2(_: &Preset) -> Report {
    let graph = ChimeraGraph::dw2q_ideal();
    let mut report = Report::new("table2", json!({}));
    for users in [10usize, 20, 40, 60] {
        for m in Modulation::ALL {
            let n = users * m.bits_per_symbol();
            report.push(json!({
                "users": users,
                "modulation": m.name(),
                "logical": n,
                "physical": clique_qubit_cost(n),
                "feasible_dw2q": CliqueEmbedding::new(&graph, n).is_ok(),
            }));
        }
    }
    let p16 = PegasusModel::p16();
    for m in Modulation::ALL {
        let users = p16.max_users(m.bits_per_symbol());
        let n = users * m.bits_per_symbol();
        report.push(json!({
            "topology": "pegasus_p16",
            "modulation": m.name(),
            "max_users": users,
            "logical": n,
            "chain": p16.chain_len(n),
            "qubits": p16.clique_qubit_cost(n),
            "total_qubits": p16.total_qubits(),
        }));
    }
    report
}

pub(super) static FUTURE_TOPOLOGIES: Entry = Entry {
    name: "future_topologies",
    reproduces: "§8 forward look: Chimera C16 vs Pegasus P16 for ML detection",
    shapes: "The paper forecasts chips with twice Chimera's degree and qubits and \
        chains of N/12 + 1, and speculates about 175x175 QPSK. P16 embeds every \
        class up to its native 180-variable clique (180x180 BPSK, 90x90 QPSK, \
        45x45 16-QAM), so 175x175 QPSK (N = 350) does not fit. Pure arithmetic: \
        every shape holds at any preset.",
    reads: &[],
    full: preset(0, 0),
    quick: preset(0, 0),
    run: future_topologies,
};

fn future_topologies(_: &Preset) -> Report {
    let p16 = PegasusModel::p16();
    let mut report = Report::new("future_topologies", json!({}));
    let sets = [
        (Bpsk, &[48, 60, 180][..]),
        (Qpsk, &[18, 48, 90]),
        (Qam16, &[9, 45]),
    ];
    for (users, m) in classes(&sets) {
        let n = users * m.bits_per_symbol();
        let (c16, p16_fits) = (n <= 64, p16.fits(n));
        report.push(json!({
            "class": label(users, m),
            "logical": n,
            "c16_fits": c16,
            "c16_chain": c16.then(|| clique_chain_len(n)),
            "p16_fits": p16_fits,
            "p16_chain": p16_fits.then(|| p16.chain_len(n)),
            "p16_parallel_asymptotic": p16.parallelization_asymptotic(n),
            "c16_qubits": c16.then(|| clique_qubit_cost(n)),
            "p16_qubits": p16_fits.then(|| p16.clique_qubit_cost(n)),
        }));
    }
    // C16's geometric parallelization of small problems, by tiling.
    for n in [8usize, 16, 28, 36, 48] {
        report.push(json!({"logical": n, "c16_copies": parallelization(n)}));
    }
    // The paper's 175x175 QPSK forecast against P16's native clique.
    report.push(json!({
        "class": label(175, Qpsk),
        "logical": 350,
        "p16_fits": p16.fits(350),
        "p16_max_clique": p16.max_clique(),
    }));
    report
}
