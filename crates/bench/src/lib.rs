//! Experiment harness shared library.
//!
//! The paper's evaluation is one binary, `repro`, over the [`repro`]
//! registry (`cargo run --release -p quamax-bench --bin repro -- fig5
//! --anneals 30`); the `bench_*` binaries each write one committed
//! `BENCH_*.json` record. This library holds what they share:
//!
//! * [`cli`] — a tiny `--key value` argument parser (no external CLI
//!   dependency; smoltcp-style minimalism);
//! * [`ground`] — ground-truth Ising energies and ML bits, computed
//!   classically with the sphere decoder;
//! * [`kernelbench`] — the sweep-kernel fixtures `bench_kernel` times;
//! * [`measure`] — the interleaved timer every `bench_*` binary times
//!   host work with (per-arm minimum and median, paired ratio with a
//!   bootstrap interval);
//! * [`output`] — experiment reports as text tables and JSON files
//!   under `results/`, and the one record schema of the committed
//!   `BENCH_*.json` files;
//! * [`repro`] — every figure, table and ablation as a registry entry
//!   with a full and a quick preset;
//! * [`runner`] — "decode this instance under these parameters and
//!   give me `RunStatistics`", the kernel of every experiment.
//!
//! Scaled defaults: the paper burned >8×10¹⁰ hardware anneals; the
//! full presets are laptop-scale sample counts, and `repro` takes
//! `--anneals`, `--instances`, `--seed` to scale up. Each run records
//! the parameters it used in the `params` field of its
//! `results/<name>.json`.

pub mod cli;
pub mod ground;
pub mod kernelbench;
pub mod measure;
pub mod output;
pub mod repro;
pub mod runner;
pub mod workload;

pub use cli::Args;
pub use output::{BenchRecord, Report};
pub use runner::run_map;
pub use workload::{metro_pool, metro_qpu, starved_quamax, zf_floor};
