//! Annealer parameter selection: the Fix and Opt strategies (§5.3.2).
//!
//! The paper compares two ways of setting `{J_F, Ta, s_p, Tp}`:
//!
//! * **Fix** — one setting per *problem class* (e.g. "18×18 QPSK"),
//!   chosen to optimize the median metric across a sample of instances;
//!   this is what a deployed QuAMax would run.
//! * **Opt** — an oracle that re-optimizes *per instance*; an upper
//!   bound on what instance-adaptive tuning could achieve.
//!
//! Both are grid searches over the paper's §4 ranges. This module
//! provides the paper's `J_F` and `s_p` sweeps and the generic
//! selection driver; the bench harness builds the candidate grids and
//! supplies the evaluation closures (TTS or TTB on real decode runs).

use quamax_anneal::Schedule;
use quamax_chimera::EmbedParams;

/// One point of the annealer parameter grid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CandidateParams {
    /// Chain strength / dynamic range.
    pub embed: EmbedParams,
    /// Anneal schedule.
    pub schedule: Schedule,
}

/// The paper's `|J_F|` sweep: 1.0–10.0 in steps of 0.5 (§4).
pub fn jf_grid() -> Vec<f64> {
    (0..=18).map(|k| 1.0 + 0.5 * k as f64).collect()
}

/// The paper's pause-position sweep: 0.15–0.55 in steps of 0.02.
pub fn sp_grid() -> Vec<f64> {
    (0..=20).map(|k| 0.15 + 0.02 * k as f64).collect()
}

/// Selects the candidate minimizing `score` (lower = better; `None` =
/// failed/unbounded, ranked worst). Ties break toward the earlier
/// candidate, keeping selection deterministic.
///
/// Returns `None` only for an empty candidate list.
pub fn select_best<C: Clone>(
    candidates: &[C],
    mut score: impl FnMut(&C) -> Option<f64>,
) -> Option<(C, Option<f64>)> {
    let mut best: Option<(usize, Option<f64>)> = None;
    for (i, c) in candidates.iter().enumerate() {
        let s = score(c);
        let better = match (&best, &s) {
            (None, _) => true,
            (Some((_, None)), Some(_)) => true,
            (Some((_, Some(cur))), Some(new)) => new < cur,
            _ => false,
        };
        if better {
            best = Some((i, s));
        }
    }
    best.map(|(i, s)| (candidates[i].clone(), s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grids_have_the_right_extent() {
        let jf = jf_grid();
        assert_eq!(jf.len(), 19);
        assert_eq!(jf[0], 1.0);
        assert_eq!(*jf.last().unwrap(), 10.0);
        let sp = sp_grid();
        assert_eq!(sp.len(), 21);
        assert!((sp[0] - 0.15).abs() < 1e-12);
        assert!((sp.last().unwrap() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn select_best_minimizes_and_breaks_ties_early() {
        let cands = vec![3.0f64, 1.0, 1.0, 2.0];
        let (best, score) = select_best(&cands, |&c| Some(c)).unwrap();
        assert_eq!(best, 1.0);
        assert_eq!(score, Some(1.0));
    }

    #[test]
    fn select_best_prefers_any_success_over_failure() {
        let cands = vec!["fail", "ok"];
        let (best, score) =
            select_best(&cands, |&c| if c == "ok" { Some(5.0) } else { None }).unwrap();
        assert_eq!(best, "ok");
        assert_eq!(score, Some(5.0));
    }

    #[test]
    fn select_best_with_all_failures_returns_first() {
        let cands = vec![10, 20];
        let (best, score) = select_best(&cands, |_| None::<f64>).unwrap();
        assert_eq!(best, 10);
        assert_eq!(score, None);
    }

    #[test]
    fn empty_candidates() {
        let r = select_best::<f64>(&[], |_| Some(0.0));
        assert!(r.is_none());
    }
}
