//! Reproduces one experiment of the paper's evaluation: a figure, a
//! table, the §8 forward look, the calibration probe or an ablation
//! (see `quamax_bench::repro`).
//!
//! Run: `cargo run --release -p quamax-bench --bin repro --
//!       <experiment> [--anneals N] [--instances N] [--seed N]`
//!
//! It runs the experiment's full preset, with any of the three flags
//! the experiment reads overriding it, prints the report's rows as text
//! tables and writes `results/<experiment>.json`. A missing or unknown
//! experiment, or a flag the experiment does not read, exits 2 with the
//! usage line.

use quamax_bench::cli::exit_usage;
use quamax_bench::repro::{find, Preset, REGISTRY};
use quamax_bench::Args;

fn main() {
    let mut argv = std::env::args().skip(1);
    let names: Vec<&str> = REGISTRY.iter().map(|entry| entry.name).collect();
    let usage = format!(
        "usage: repro <experiment> [--anneals V] [--instances V] [--seed V]\n\
         experiments: {}",
        names.join(", ")
    );
    let entry = match argv.next().filter(|name| !name.starts_with("--")) {
        None => exit_usage("missing experiment name", &usage),
        Some(name) => {
            find(&name).unwrap_or_else(|| exit_usage(&format!("unknown experiment {name}"), &usage))
        }
    };
    let args = Args::parse_from(&format!("repro {}", entry.name), argv, entry.reads, &[]);
    let full = entry.full;
    let preset = Preset {
        anneals: args.get_usize("anneals", full.anneals),
        instances: args.get_usize("instances", full.instances),
        seed: args.get_u64("seed", full.seed),
        ..full
    };
    println!("{}\n{}\n", entry.reproduces, entry.shapes);
    let report = (entry.run)(&preset);
    print!("{}", report.render());
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}
