//! Shared experiment workloads: parameter strategies, the Fix/Opt
//! drivers built on the runner kernel, and the coded and
//! serving benches' shared detector and worker pool.

use crate::runner::{inner_threads_for, run_instances, RunSpec};
use quamax_anneal::{Annealer, AnnealerConfig, Schedule};
use quamax_chimera::EmbedParams;
use quamax_core::params::{select_best, CandidateParams};
use quamax_core::{DecoderConfig, DetectorKind, Instance, RunStatistics};
use quamax_ran::{
    CpuPolicy, CpuPool, FaultPlan, Guardrails, QpuOverheads, QpuServer, ResilientServer,
};

/// The workspace's fixed default operating point (from the calibration
/// probe; the committed Fix baselines start here): improved range,
/// `J_F = 4`, `Ta = 1 µs` with a 1 µs pause at `s_p = 0.35`.
pub fn default_params() -> CandidateParams {
    CandidateParams {
        embed: EmbedParams {
            j_ferro: 4.0,
            improved_range: true,
        },
        schedule: Schedule::with_pause(1.0, 0.35, 1.0),
    }
}

/// A compact pausing parameter grid for Fix/Opt searches
/// (`J_F × s_p`, improved range, `Ta = Tp = 1 µs`).
pub fn small_pause_grid() -> Vec<CandidateParams> {
    let mut out = Vec::new();
    for jf in [2.0, 3.0, 4.0, 5.0] {
        for sp in [0.25, 0.35, 0.45] {
            out.push(CandidateParams {
                embed: EmbedParams {
                    j_ferro: jf,
                    improved_range: true,
                },
                schedule: Schedule::with_pause(1.0, sp, 1.0),
            });
        }
    }
    out
}

/// A compact non-pausing grid (`J_F × Ta`, improved range).
pub fn small_no_pause_grid() -> Vec<CandidateParams> {
    let mut out = Vec::new();
    for jf in [2.0, 3.0, 4.0, 5.0] {
        for ta in [1.0, 10.0] {
            out.push(CandidateParams {
                embed: EmbedParams {
                    j_ferro: jf,
                    improved_range: true,
                },
                schedule: Schedule::standard(ta),
            });
        }
    }
    out
}

/// Builds a `RunSpec` from candidate parameters.
pub fn spec_for(
    params: CandidateParams,
    annealer: AnnealerConfig,
    anneals: usize,
    seed: u64,
) -> RunSpec {
    RunSpec {
        decoder: DecoderConfig {
            embed: params.embed,
            schedule: params.schedule,
        },
        annealer,
        anneals,
        seed,
    }
}

/// The scalar score used to rank parameter settings: TTB(1e-6) when
/// reachable, else TTS(0.99) pushed past any reachable TTB, else
/// `None` (worst).
fn score(stats: &RunStatistics) -> Option<f64> {
    const TTS_PENALTY: f64 = 1e9;
    stats
        .ttb_us(1e-6)
        .or_else(|| stats.tts99_us().map(|t| t + TTS_PENALTY))
}

/// Opt (§5.3.2): per-instance oracle — runs every candidate on this
/// instance and keeps the best-scoring statistics.
pub fn optimize_instance(
    instance: &Instance,
    candidates: &[CandidateParams],
    annealer: AnnealerConfig,
    anneals: usize,
    seed: u64,
) -> (CandidateParams, RunStatistics) {
    assert!(!candidates.is_empty(), "need at least one candidate");
    // All candidates decode in parallel (the oracle's whole point is
    // trying everything); the winner scan below keeps the historical
    // first-wins tie-breaking by walking results in candidate order.
    let work: Vec<(&Instance, RunSpec)> = candidates
        .iter()
        .enumerate()
        .map(|(k, cand)| {
            (
                instance,
                spec_for(*cand, annealer, anneals, seed.wrapping_add(k as u64)),
            )
        })
        .collect();
    let results = run_instances(&work);
    let mut best: Option<(CandidateParams, RunStatistics, Option<f64>)> = None;
    for (cand, (stats, _)) in candidates.iter().zip(results) {
        let s = score(&stats);
        let better = match &best {
            None => true,
            Some((_, _, None)) => s.is_some(),
            Some((_, _, Some(cur))) => s.is_some_and(|new| new < *cur),
        };
        if better {
            best = Some((*cand, stats, s));
        }
    }
    let (cand, stats, _) = best.expect("non-empty candidates");
    (cand, stats)
}

/// Fix (§5.3.2): one setting per problem class — the candidate whose
/// *median* score across the sample instances is lowest. Returns the
/// winning parameters plus each instance's statistics under them.
pub fn fix_for_class(
    instances: &[Instance],
    candidates: &[CandidateParams],
    annealer: AnnealerConfig,
    anneals: usize,
    seed: u64,
) -> (CandidateParams, Vec<RunStatistics>) {
    assert!(
        !instances.is_empty() && !candidates.is_empty(),
        "empty search"
    );
    // Evaluate all candidates on all instances once — the full
    // (candidate × instance) grid sharded across cores — then pick by
    // median score.
    let work: Vec<(&Instance, RunSpec)> = candidates
        .iter()
        .enumerate()
        .flat_map(|(k, cand)| {
            instances.iter().enumerate().map(move |(i, inst)| {
                (
                    inst,
                    spec_for(
                        *cand,
                        annealer,
                        anneals,
                        seed.wrapping_add((k * instances.len() + i) as u64),
                    ),
                )
            })
        })
        .collect();
    let mut results = run_instances(&work).into_iter().map(|(stats, _)| stats);
    let mut all_stats: Vec<Vec<RunStatistics>> = Vec::with_capacity(candidates.len());
    for _ in candidates {
        all_stats.push(results.by_ref().take(instances.len()).collect());
    }
    let median_score = |stats: &Vec<RunStatistics>| -> Option<f64> {
        let mut scores: Vec<f64> = stats
            .iter()
            .map(|s| score(s).unwrap_or(f64::INFINITY))
            .collect();
        scores.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let m = scores[scores.len() / 2];
        if m.is_finite() {
            Some(m)
        } else {
            None
        }
    };
    let scored: Vec<(usize, Option<f64>)> = all_stats
        .iter()
        .enumerate()
        .map(|(k, s)| (k, median_score(s)))
        .collect();
    let (best_idx, _) = select_best(&scored, |&(_, s)| s).expect("non-empty");
    let idx = best_idx.0;
    (candidates[idx], all_stats.swap_remove(idx))
}

/// The coded benches' annealed detector at the §5.3.3 operating
/// point: a decode deadline (a 1 µs anneal at 2 sweeps/µs, `anneals`
/// cycles) leaves residual detector errors for FEC to mop up, the
/// regime where the anneal ensemble's reliabilities matter. Sized for
/// `frames` frames decoded in parallel.
pub fn starved_quamax(frames: usize, anneals: usize) -> DetectorKind {
    let annealer = Annealer::new(AnnealerConfig {
        threads: inner_threads_for(frames),
        sweeps_per_us: 2.0,
        ..Default::default()
    });
    let config = DecoderConfig {
        schedule: Schedule::standard(1.0),
        ..Default::default()
    };
    DetectorKind::quamax(annealer, config, anneals)
}

/// A near-term QPU worker: 200 µs programming, 25 µs readout per
/// anneal, a 2 µs cycle, 5 anneals, and a session cache whose 10 ms
/// coherence matches the metro generator's channel blocks.
pub fn metro_qpu() -> QpuServer {
    let overheads = QpuOverheads {
        preprocessing_us: 0.0,
        programming_us: 200.0,
        readout_per_anneal_us: 25.0,
    };
    QpuServer::new(overheads, 2.0, 5).with_session_cache(10_000.0)
}

/// The serving benches' CPU floor: 8 cores of zero forcing.
pub fn zf_floor() -> CpuPool {
    let zf = CpuPolicy::ZeroForcing {
        vectors_per_channel: 1,
    };
    CpuPool::new(8, zf)
}

/// The serving benches' pool: two [`metro_qpu`] workers over the
/// [`zf_floor`], no faults, guardrails on.
pub fn metro_pool(seed: u64) -> ResilientServer {
    let qpus = vec![metro_qpu(), metro_qpu()];
    ResilientServer::new(qpus, zf_floor(), FaultPlan::quiet(seed), Guardrails::on())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_instance;
    use quamax_core::Scenario;
    use quamax_wireless::Modulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grids_are_well_formed() {
        assert_eq!(small_pause_grid().len(), 12);
        assert_eq!(small_no_pause_grid().len(), 8);
        assert!(small_pause_grid()
            .iter()
            .all(|c| c.schedule.pause.is_some()));
    }

    #[test]
    fn opt_never_scores_worse_than_default() {
        let mut rng = StdRng::seed_from_u64(5);
        let inst = Scenario::new(6, 6, Modulation::Bpsk).sample(&mut rng);
        let annealer = AnnealerConfig::default();
        let cands = vec![
            default_params(),
            CandidateParams {
                embed: EmbedParams {
                    j_ferro: 9.0,
                    improved_range: false,
                },
                schedule: Schedule::standard(1.0),
            },
        ];
        // Default under the same seed path as optimize's candidate 0.
        let spec = spec_for(default_params(), annealer, 150, 9);
        let (default_stats, _) = run_instance(&inst, &spec);
        let (_, best) = optimize_instance(&inst, &cands, annealer, 150, 9);
        let s_best = score(&best).unwrap_or(f64::INFINITY);
        let s_def = score(&default_stats).unwrap_or(f64::INFINITY);
        assert!(s_best <= s_def + 1e-9, "opt {s_best} vs default {s_def}");
    }

    #[test]
    fn fix_returns_stats_for_every_instance() {
        let mut rng = StdRng::seed_from_u64(6);
        let sc = Scenario::new(4, 4, Modulation::Bpsk);
        let instances: Vec<_> = (0..3).map(|_| sc.sample(&mut rng)).collect();
        let cands = vec![default_params()];
        let (won, stats) = fix_for_class(&instances, &cands, AnnealerConfig::default(), 100, 3);
        assert_eq!(won, default_params());
        assert_eq!(stats.len(), 3);
    }
}
