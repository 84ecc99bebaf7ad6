//! The paper's evaluation as one registry of experiments: the §5
//! figures and tables, the §8 forward look, the calibration probe and
//! the ablations. Each [`Entry`] names what it reproduces, states the
//! paper's shapes, and runs a [`Preset`] into a [`Report`].
//!
//! Run one with `cargo run --release -p quamax-bench --bin repro --
//! <name> [--anneals N] [--instances N] [--seed N]`: it runs the
//! entry's full preset (with the flags the entry reads overriding it),
//! prints the report's rows as text tables and writes
//! `results/<name>.json`. `crates/bench/tests/reproduction.rs` runs
//! every quick preset and pins each report's digest.

use crate::output::Report;
use crate::runner::run_instances;
use crate::workload::{default_params, spec_for};
use quamax_anneal::{Annealer, AnnealerConfig, Schedule};
use quamax_chimera::EmbedParams;
use quamax_core::metrics::percentile;
use quamax_core::params::CandidateParams;
use quamax_core::{DecoderConfig, DetectorKind, Instance, QuamaxDecoder, RunStatistics, Scenario};
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod ablations;
mod figures;
mod tables;

/// One run's settings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Preset {
    /// Anneals per decode (`Na`).
    pub anneals: usize,
    /// Instances per setting; fig12's noise draws per SNR point and
    /// fig15's trace channel uses.
    pub instances: usize,
    /// The base seed every stream derives from.
    pub seed: u64,
    /// fig14's zero-forcing trials per class; no other entry reads it.
    pub zf_trials: usize,
}

/// A preset at seed 1.
const fn preset(anneals: usize, instances: usize) -> Preset {
    Preset {
        anneals,
        instances,
        seed: 1,
        zf_trials: 0,
    }
}

/// The quick preset of most entries: 30 anneals on one instance.
const QUICK: Preset = preset(30, 1);

/// The shared flags most entries read.
const ALL: &[&str] = &["anneals", "instances", "seed"];

/// One experiment of the registry.
pub struct Entry {
    /// The `repro` argument and the stem of `results/<name>.json`.
    pub name: &'static str,
    /// The figure, table or section it reproduces.
    pub reproduces: &'static str,
    /// The paper's shapes, and the ones that need the full preset.
    pub shapes: &'static str,
    /// The shared flags it reads, among `anneals`, `instances`, `seed`.
    pub reads: &'static [&'static str],
    /// Laptop-scale defaults: what `repro <name>` runs.
    pub full: Preset,
    /// Seconds-scale settings whose report digest the reproduction test
    /// pins.
    pub quick: Preset,
    /// Runs the experiment.
    pub run: fn(&Preset) -> Report,
}

/// Every experiment, in the paper's order.
pub static REGISTRY: &[&Entry] = &[
    &figures::FIG4,
    &figures::FIG5,
    &figures::FIG6,
    &figures::FIG7,
    &figures::FIG8,
    &figures::FIG9,
    &figures::FIG10,
    &figures::FIG11,
    &figures::FIG12,
    &figures::FIG13,
    &figures::FIG14,
    &figures::FIG15,
    &tables::TABLE1,
    &tables::TABLE2,
    &tables::FUTURE_TOPOLOGIES,
    &ablations::CALIBRATE,
    &ablations::BACKEND,
    &ablations::CSI,
    &ablations::EMBEDDING,
    &ablations::GRAY,
    &ablations::ICE,
    &ablations::REVERSE,
    &ablations::UNEMBED,
];

/// The registry entry called `name`.
pub fn find(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().copied().find(|entry| entry.name == name)
}

/// `"18x18 QPSK"`: the paper's class label.
fn label(users: usize, modulation: Modulation) -> String {
    format!("{users}x{users} {}", modulation.name())
}

/// Square classes in order: each modulation with its user counts.
fn classes(sets: &[(Modulation, &[usize])]) -> Vec<(usize, Modulation)> {
    (sets.iter())
        .flat_map(|&(m, users)| users.iter().map(move |&u| (u, m)))
        .collect()
}

/// `count` instances of `scenario`, drawn in turn from one stream
/// seeded `seed`.
fn draw(scenario: &Scenario, count: usize, seed: u64) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| scenario.sample(&mut rng)).collect()
}

/// [`draw`] of square `users`-user instances with perfect CSI and no
/// noise.
fn square(users: usize, modulation: Modulation, count: usize, seed: u64) -> Vec<Instance> {
    draw(&Scenario::new(users, users, modulation), count, seed)
}

/// Improved-range (or standard-range) parameters at chain strength
/// `j_ferro`.
fn candidate(j_ferro: f64, improved_range: bool, schedule: Schedule) -> CandidateParams {
    let embed = EmbedParams {
        j_ferro,
        improved_range,
    };
    CandidateParams { embed, schedule }
}

/// Decodes every instance under `params` with the preset's anneals,
/// instance `i` seeded `p.seed + i`, sharded across cores.
fn run_each(
    instances: &[Instance],
    params: CandidateParams,
    annealer: AnnealerConfig,
    p: &Preset,
) -> Vec<RunStatistics> {
    let work: Vec<_> = (instances.iter().enumerate())
        .map(|(i, inst)| {
            (
                inst,
                spec_for(params, annealer, p.anneals, p.seed + i as u64),
            )
        })
        .collect();
    run_instances(&work).into_iter().map(|(s, _)| s).collect()
}

/// The annealed detector at the calibrated default operating point,
/// its annealer on `threads` threads (0: the annealer's own choice).
fn default_detector(threads: usize, anneals: usize) -> DetectorKind {
    let params = default_params();
    let (embed, schedule) = (params.embed, params.schedule);
    let annealer = Annealer::new(AnnealerConfig {
        threads,
        ..Default::default()
    });
    DetectorKind::quamax(annealer, DecoderConfig { embed, schedule }, anneals)
}

/// The one-shot decoder at the calibrated default embedding under
/// `schedule`, its annealer on `threads` threads.
fn default_decoder(threads: usize, schedule: Schedule) -> QuamaxDecoder {
    let embed = default_params().embed;
    let annealer = Annealer::new(AnnealerConfig {
        threads,
        ..Default::default()
    });
    QuamaxDecoder::new(annealer, DecoderConfig { embed, schedule })
}

/// A time in µs, infinite when the target is never reached. An
/// infinite number serializes as `null` and prints as `inf`.
fn or_inf(time_us: Option<f64>) -> f64 {
    time_us.unwrap_or(f64::INFINITY)
}

/// Each run's ground-state probability.
fn p0s(stats: &[RunStatistics]) -> Vec<f64> {
    stats.iter().map(|s| s.p0).collect()
}

/// Each run's TTS(0.99) in µs ([`or_inf`]).
fn tts99(stats: &[RunStatistics]) -> Vec<f64> {
    stats.iter().map(|s| or_inf(s.tts99_us())).collect()
}

/// Each run's time to `ber` in µs ([`or_inf`]).
fn ttb(stats: &[RunStatistics], ber: f64) -> Vec<f64> {
    stats.iter().map(|s| or_inf(s.ttb_us(ber))).collect()
}

/// The median.
fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The mean of the finite values; infinite when none is.
fn mean_finite(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|t| t.is_finite()).collect();
    if finite.is_empty() {
        f64::INFINITY
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

/// Expected BER after `t_us` of wall clock: as many amortized cycles
/// as fit, at least one.
fn ber_at(stats: &RunStatistics, t_us: f64) -> f64 {
    let per_anneal = stats.cycle_us / stats.parallel_factor as f64;
    stats.expected_ber((t_us / per_anneal).floor().max(1.0) as usize)
}
