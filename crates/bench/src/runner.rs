//! The experiment kernel: decode one instance under one parameter
//! setting, return the full `RunStatistics` — plus the sharded drivers
//! that fan whole work lists out across CPU cores.
//!
//! Decodes go through the unified detector traits
//! (`DetectorKind::quamax` → `compile` → `detect`), so every
//! experiment exercises the same API surface the examples and the C-RAN
//! front-end use; the trait path is bit-identical to the historical
//! direct `QuamaxDecoder::decode` under the same seed.

use crate::ground::{ground_truth, GroundTruth};
use quamax_anneal::{Annealer, AnnealerConfig};
use quamax_core::{
    DecoderConfig, Detector, DetectorKind, DetectorSession, Instance, RunStatistics,
};

/// Everything one decode-and-score run needs.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Decoder parameters (J_F, range, schedule).
    pub decoder: DecoderConfig,
    /// Device configuration (backend, ICE, sweep calibration).
    pub annealer: AnnealerConfig,
    /// Anneals in the run (`Na`).
    pub anneals: usize,
    /// RNG seed (controls annealer streams and unembedding ties).
    pub seed: u64,
}

/// Decodes `instance` under `spec` and scores it against classical
/// ground truth.
///
/// Returns the statistics plus the ground truth (so callers can reuse
/// the ML bits / hardness probe without re-running the sphere decoder).
pub fn run_instance(instance: &Instance, spec: &RunSpec) -> (RunStatistics, GroundTruth) {
    let gt = ground_truth(instance);
    (score(instance, spec, &gt), gt)
}

/// Decodes `instance` under `spec` and scores it against its ground
/// truth `gt`.
fn score(instance: &Instance, spec: &RunSpec, gt: &GroundTruth) -> RunStatistics {
    let kind = DetectorKind::quamax(Annealer::new(spec.annealer), spec.decoder, spec.anneals);
    let input = instance.detection_input();
    let mut session = kind.compile(&input).expect("experiment sizes fit the chip");
    let detection = session
        .detect(&input.y, spec.seed)
        .expect("the annealed session cannot fail per decode");
    let run = detection
        .annealed_run()
        .expect("the quamax kind always attaches its run");
    RunStatistics::from_run(run, instance.tx_bits(), Some(gt.energy))
}

/// Runs a whole work list of `(instance, spec)` decode-and-score jobs
/// sharded across CPU cores, returning results in input order.
///
/// Each distinct instance (by reference) gets its sphere-decoded
/// ground truth once, shared by every spec that decodes it: a sweep of
/// one instance set under many settings runs one sphere decode per
/// instance, not one per setting. Each job is self-seeded (`spec.seed`
/// drives the whole run) and the annealer's output is thread-count
/// independent, so the results are bit-identical to calling
/// [`run_instance`] serially — every experiment keeps its recorded
/// numbers, it just produces them on all cores. The instance dimension
/// is the primary parallelism; leftover cores (work lists shorter than
/// the machine) are split across the workers' inner anneal batches. An
/// explicit thread setting on a spec's annealer wins.
pub fn run_instances(work: &[(&Instance, RunSpec)]) -> Vec<(RunStatistics, GroundTruth)> {
    let mut distinct: Vec<&Instance> = Vec::new();
    let slots: Vec<(usize, &RunSpec)> = work
        .iter()
        .map(|&(instance, ref spec)| {
            let at = distinct
                .iter()
                .position(|&seen| std::ptr::eq(seen, instance))
                .unwrap_or_else(|| {
                    distinct.push(instance);
                    distinct.len() - 1
                });
            (at, spec)
        })
        .collect();
    let truths = run_map(&distinct, |&instance| ground_truth(instance));
    let inner_threads = inner_threads_for(work.len());
    run_map(&slots, |&(at, spec)| {
        let mut spec = spec.clone();
        if spec.annealer.threads == 0 {
            spec.annealer.threads = inner_threads;
        }
        let gt = &truths[at];
        (score(distinct[at], &spec, gt), gt.clone())
    })
}

/// Inner anneal threads for each of `workers` sharded workers: splits
/// the machine so `workers × inner ≈ cores` — leftover cores on short
/// work lists flow into the workers' anneal batches, and long lists
/// never oversubscribe to `cores²` threads. Callers driving
/// [`run_map`] with their own annealing workers (e.g. fig13's
/// per-channel sessions) should set `AnnealerConfig::threads` from
/// this unless the user pinned an explicit value.
pub fn inner_threads_for(workers: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(workers.max(1));
    (cores / threads).max(1)
}

/// Shards any per-item work list across CPU cores, returning results
/// in input order — the generic primitive behind [`run_instances`],
/// also used by the classical sweeps (`table1`'s sphere decodes, the
/// ablations).
///
/// `f` must be self-contained per item (seeded by the item, no shared
/// mutable state), which makes the output independent of the worker
/// count — the same determinism contract as [`run_instances`].
pub fn run_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(items.len());
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (in_chunk, out_chunk) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (item, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamax_anneal::{IceModel, Schedule};
    use quamax_chimera::EmbedParams;
    use quamax_core::Scenario;
    use quamax_wireless::Modulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kernel_produces_consistent_statistics() {
        let mut rng = StdRng::seed_from_u64(3);
        let sc = Scenario::new(6, 6, Modulation::Bpsk);
        let inst = sc.sample(&mut rng);
        let spec = RunSpec {
            decoder: DecoderConfig {
                embed: EmbedParams::default(),
                schedule: Schedule::standard(5.0),
            },
            annealer: AnnealerConfig {
                ice: IceModel::none(),
                sweeps_per_us: 30.0,
                ..Default::default()
            },
            anneals: 200,
            seed: 42,
        };
        let (stats, gt) = run_instance(&inst, &spec);
        // Noise-free channel: the ML bits are the transmission, and a
        // healthy run finds the ground state with decent probability.
        assert_eq!(gt.ml_bits, inst.tx_bits());
        assert!(stats.p0 > 0.05, "p0={}", stats.p0);
        assert_eq!(stats.profile.n_bits(), 6);
        assert!(stats.tts99_us().is_some());
        // Deterministic under the same spec.
        let (stats2, _) = run_instance(&inst, &spec);
        assert_eq!(stats.p0, stats2.p0);
    }

    #[test]
    fn sharded_runs_match_serial_runs() {
        let mut rng = StdRng::seed_from_u64(8);
        let sc = Scenario::new(4, 4, Modulation::Qpsk);
        let insts: Vec<_> = (0..5).map(|_| sc.sample(&mut rng)).collect();
        let spec = |seed: u64| RunSpec {
            decoder: DecoderConfig {
                embed: EmbedParams::default(),
                schedule: Schedule::standard(2.0),
            },
            annealer: AnnealerConfig {
                ice: IceModel::none(),
                sweeps_per_us: 20.0,
                ..Default::default()
            },
            anneals: 60,
            seed,
        };
        let work: Vec<(&Instance, RunSpec)> = insts
            .iter()
            .map(|inst| (inst, spec(100 + inst.tx_bits()[0] as u64)))
            .collect();
        let sharded = run_instances(&work);
        for ((inst, s), (stats, gt)) in work.iter().zip(&sharded) {
            let (serial_stats, serial_gt) = run_instance(inst, s);
            assert_eq!(stats.p0, serial_stats.p0);
            assert_eq!(stats.profile, serial_stats.profile);
            assert_eq!(gt.ml_bits, serial_gt.ml_bits);
        }
        assert!(run_instances(&[]).is_empty());
    }

    #[test]
    fn run_map_preserves_order_and_handles_edges() {
        let items: Vec<u64> = (0..23).collect();
        let out = run_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        assert!(run_map::<u64, u64, _>(&[], |&x| x).is_empty());
        assert_eq!(run_map(&[7u64], |&x| x + 1), vec![8]);
    }
}
