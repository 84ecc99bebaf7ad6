//! Experiment harness shared library.
//!
//! Every table and figure of the paper has a binary in `src/bin/`
//! (`cargo run --release -p quamax-bench --bin fig5 -- --help`-style
//! flags); this library holds what they share:
//!
//! * [`cli`] — a tiny `--key value` argument parser (no external CLI
//!   dependency; smoltcp-style minimalism);
//! * [`ground`] — ground-truth Ising energies and ML bits, computed
//!   classically with the sphere decoder;
//! * [`output`] — uniform text + JSON result emission into `results/`;
//! * [`runner`] — "decode this instance under these parameters and
//!   give me `RunStatistics`", the kernel of every experiment.
//!
//! Scaled defaults: the paper burned >8×10¹⁰ hardware anneals; these
//! binaries default to laptop-scale sample counts and accept
//! `--anneals`, `--instances`, `--seed` to scale up. Each run records
//! the parameters it used in the `params` field of its
//! `results/<name>.json`.

pub mod cli;
pub mod ground;
pub mod kernelbench;
pub mod output;
pub mod runner;
pub mod workload;

pub use cli::Args;
pub use ground::ground_truth;
pub use output::Report;
pub use runner::{inner_threads_for, run_instance, run_instances, run_map, RunSpec};
pub use workload::{
    default_params, fix_for_class, optimize_instance, score, small_no_pause_grid, small_pause_grid,
    spec_for, ProblemClass,
};
