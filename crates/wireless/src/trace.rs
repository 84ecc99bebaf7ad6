//! Synthetic stand-in for the Argos measured channel trace (§5.5).
//!
//! The paper's trace-driven evaluation uses the Shepard et al. 2.4 GHz
//! measurement campaign: a 96-antenna base station and 8 static users,
//! the largest spatial-multiplexing MIMO trace publicly available. That
//! dataset is not redistributable here, so this module synthesizes a
//! trace with the properties the Fig. 15 experiment actually exercises
//! (the model below describes the substitution).
//!
//! The model is geometric (finite scattering): each user's channel is a
//! sum of a few plane-wave paths arriving at a half-wavelength uniform
//! linear array, with path angles clustered around the user's bearing:
//!
//! `h_u = amp_u · (1/√P) Σ_p g_{u,p} · a(θ_{u,p})`,
//! `a_k(θ) = e^{jπ k sin θ}`.
//!
//! This produces the three properties Fig. 15 depends on:
//!
//! * realistic conditioning — users at nearby bearings have correlated
//!   *columns*, so an 8×8 antenna subsample conditions worse than i.i.d.
//!   Rayleigh no matter which rows are drawn (a Kronecker row-correlation
//!   model fails this: random rows of a 96-antenna array are far apart
//!   and nearly independent);
//! * static users — path geometry is fixed; only small-scale path gains
//!   evolve (first-order Gauss–Markov, coherence ≈ 30 ms per the paper's
//!   footnote 2);
//! * per-use SNR drawn uniformly from the paper's reported 25–35 dB.
//!
//! Fig. 15's protocol then subsamples 8 of the 96 BS antennas per
//! channel use, exactly as the paper does.

use quamax_linalg::rng::ComplexGaussian;
use quamax_linalg::{CMatrix, Complex};
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration of the synthetic trace generator.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Base-station antennas (paper: 96).
    pub bs_antennas: usize,
    /// Static users (paper: 8).
    pub users: usize,
    /// Plane-wave paths per user. More paths → richer scattering →
    /// better conditioning; measured urban arrays see a handful.
    pub paths_per_user: usize,
    /// Angular spread of each user's path cluster, degrees. Smaller →
    /// more rank-deficient per-user signatures.
    pub angular_spread_deg: f64,
    /// Sector width: user bearings are drawn uniformly in
    /// `[−sector/2, +sector/2]` degrees off broadside.
    pub sector_deg: f64,
    /// Temporal correlation between consecutive channel uses, in [0, 1].
    /// 0.99 ≈ a sub-millisecond sampling interval against a ~30 ms
    /// coherence time.
    pub temporal_alpha: f64,
    /// Per-user large-scale gain spread: gains are drawn log-uniform in
    /// `[−spread_db/2, +spread_db/2]` around 0 dB.
    pub gain_spread_db: f64,
    /// Per-use SNR range in dB (paper: ca. 25–35 dB).
    pub snr_range_db: (f64, f64),
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            bs_antennas: 96,
            users: 8,
            paths_per_user: 6,
            angular_spread_deg: 10.0,
            sector_deg: 50.0,
            temporal_alpha: 0.99,
            gain_spread_db: 6.0,
            snr_range_db: (25.0, 35.0),
        }
    }
}

/// One channel use drawn from the trace.
#[derive(Clone, Debug)]
pub struct TraceUse {
    /// Full `bs_antennas × users` channel.
    pub h_full: CMatrix,
    /// The SNR at which this use was captured.
    pub snr_db: f64,
    /// Sequence number within the trace.
    pub index: usize,
}

impl TraceUse {
    /// Subsamples `k` distinct BS antennas (rows) uniformly at random —
    /// the paper's Fig. 15 protocol with `k = 8`.
    pub fn subsample<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> CMatrix {
        assert!(
            k <= self.h_full.rows(),
            "cannot subsample {k} of {} antennas",
            self.h_full.rows()
        );
        let mut rows: Vec<usize> = (0..self.h_full.rows()).collect();
        rows.shuffle(rng);
        rows.truncate(k);
        CMatrix::from_fn(k, self.h_full.cols(), |r, c| self.h_full[(rows[r], c)])
    }
}

/// Generates a correlated synthetic channel trace.
pub struct TraceGenerator {
    config: TraceConfig,
    /// Per-(user, path) steering vectors, fixed for the trace lifetime
    /// (static users): `steer[u][p][antenna]`.
    steer: Vec<Vec<Vec<Complex>>>,
    /// Per-user amplitude gains (sqrt of linear power gain).
    user_amp: Vec<f64>,
    /// Evolving small-scale path gains `g[u][p]`.
    path_gain: Vec<Vec<Complex>>,
    next_index: usize,
}

impl TraceGenerator {
    /// Builds a generator; draws the static geometry (user bearings,
    /// path angles, large-scale gains) immediately.
    ///
    /// # Panics
    /// Panics on out-of-range parameters.
    pub fn new<R: Rng + ?Sized>(config: TraceConfig, rng: &mut R) -> Self {
        assert!(config.bs_antennas > 0 && config.users > 0, "empty geometry");
        assert!(config.paths_per_user > 0, "need at least one path per user");
        assert!(
            (0.0..=1.0).contains(&config.temporal_alpha),
            "temporal_alpha must lie in [0,1]"
        );
        let deg = std::f64::consts::PI / 180.0;
        let g = ComplexGaussian::unit();

        let mut steer = Vec::with_capacity(config.users);
        let mut path_gain = Vec::with_capacity(config.users);
        let mut user_amp = Vec::with_capacity(config.users);
        for _ in 0..config.users {
            let bearing = rng.random_range(-config.sector_deg / 2.0..=config.sector_deg / 2.0);
            let mut user_steer = Vec::with_capacity(config.paths_per_user);
            let mut user_gain = Vec::with_capacity(config.paths_per_user);
            for _ in 0..config.paths_per_user {
                let theta = (bearing
                    + rng.random_range(
                        -config.angular_spread_deg / 2.0..=config.angular_spread_deg / 2.0,
                    ))
                    * deg;
                // Half-wavelength ULA steering vector.
                let phase_step = std::f64::consts::PI * theta.sin();
                user_steer.push(
                    (0..config.bs_antennas)
                        .map(|k| Complex::from_phase(phase_step * k as f64))
                        .collect(),
                );
                user_gain.push(g.sample(rng));
            }
            steer.push(user_steer);
            path_gain.push(user_gain);
            let gain_db =
                rng.random_range(-config.gain_spread_db / 2.0..=config.gain_spread_db / 2.0);
            user_amp.push(10f64.powf(gain_db / 20.0));
        }

        TraceGenerator {
            config,
            steer,
            user_amp,
            path_gain,
            next_index: 0,
        }
    }

    /// The configuration this trace was generated with.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Draws the next channel use, advancing the temporal state.
    pub fn next_use<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TraceUse {
        let m = self.config.bs_antennas;
        let n = self.config.users;
        let p = self.config.paths_per_user;
        // Evolve small-scale gains; geometry stays put (static users).
        if self.next_index > 0 {
            let alpha = self.config.temporal_alpha;
            let innov = (1.0 - alpha * alpha).sqrt();
            let g = ComplexGaussian::unit();
            for user in self.path_gain.iter_mut() {
                for gain in user.iter_mut() {
                    *gain = *gain * alpha + g.sample(rng) * innov;
                }
            }
        }
        let norm = 1.0 / (p as f64).sqrt();
        let mut h_full = CMatrix::zeros(m, n);
        for u in 0..n {
            let amp = self.user_amp[u] * norm;
            for pi in 0..p {
                let gain = self.path_gain[u][pi] * amp;
                let sv = &self.steer[u][pi];
                for k in 0..m {
                    h_full[(k, u)] += gain * sv[k];
                }
            }
        }
        let snr_db = rng.random_range(self.config.snr_range_db.0..=self.config.snr_range_db.1);
        let use_ = TraceUse {
            h_full,
            snr_db,
            index: self.next_index,
        };
        self.next_index += 1;
        use_
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config() -> TraceConfig {
        TraceConfig {
            bs_antennas: 24,
            users: 4,
            ..TraceConfig::default()
        }
    }

    #[test]
    fn default_matches_paper_geometry() {
        let c = TraceConfig::default();
        assert_eq!(c.bs_antennas, 96);
        assert_eq!(c.users, 8);
        assert_eq!(c.snr_range_db, (25.0, 35.0));
    }

    #[test]
    fn uses_have_expected_shape_and_snr() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = TraceGenerator::new(small_config(), &mut rng);
        for i in 0..5 {
            let u = g.next_use(&mut rng);
            assert_eq!(u.index, i);
            assert_eq!(u.h_full.rows(), 24);
            assert_eq!(u.h_full.cols(), 4);
            assert!(u.snr_db >= 25.0 && u.snr_db <= 35.0);
        }
    }

    #[test]
    fn marginal_tap_power_is_near_unit_without_gain_spread() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = TraceConfig {
            gain_spread_db: 0.0,
            ..TraceConfig::default()
        };
        let mut g = TraceGenerator::new(cfg, &mut rng);
        // Average over many uses: per-tap power ≈ 1 (path gains CN(0,1/P),
        // unit-modulus steering entries).
        let mut acc = 0.0;
        let uses = 30;
        for _ in 0..uses {
            // Decorrelate between samples by stepping several uses.
            for _ in 0..20 {
                g.next_use(&mut rng);
            }
            let u = g.next_use(&mut rng);
            acc += u.h_full.frobenius_sqr() / (96.0 * 8.0);
        }
        let avg = acc / uses as f64;
        assert!((avg - 1.0).abs() < 0.25, "E|h|²={avg}");
    }

    #[test]
    fn temporal_correlation_is_high_and_decaying() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = TraceGenerator::new(small_config(), &mut rng);
        let u0 = g.next_use(&mut rng);
        let u1 = g.next_use(&mut rng);
        let mut u_far = u1.clone();
        for _ in 0..500 {
            u_far = g.next_use(&mut rng);
        }
        let corr = |a: &CMatrix, b: &CMatrix| {
            let mut inner = Complex::ZERO;
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                inner += x.conj() * *y;
            }
            inner.abs() / (a.frobenius_sqr().sqrt() * b.frobenius_sqr().sqrt())
        };
        let near = corr(&u0.h_full, &u1.h_full);
        let far = corr(&u0.h_full, &u_far.h_full);
        assert!(near > 0.9, "adjacent uses decorrelated: {near}");
        assert!(far < near, "correlation must decay: near={near} far={far}");
    }

    #[test]
    fn antennas_within_a_column_are_correlated() {
        // A user's channel lives in a P-dimensional steering subspace, so
        // nearby antennas see correlated coefficients.
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = TraceGenerator::new(TraceConfig::default(), &mut rng);
        let mut acc = 0.0;
        let uses = 20;
        for _ in 0..uses {
            let u = g.next_use(&mut rng);
            let col = u.h_full.col(0);
            // Lag-1 autocorrelation along the array.
            let mut num = Complex::ZERO;
            let mut den = 0.0;
            for k in 0..95 {
                num += col[k].conj() * col[k + 1];
                den += col[k].norm_sqr();
            }
            acc += num.abs() / den;
        }
        let avg = acc / uses as f64;
        assert!(avg > 0.5, "lag-1 antenna correlation too low: {avg}");
    }

    #[test]
    fn subsample_extracts_distinct_rows() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = TraceGenerator::new(small_config(), &mut rng);
        let u = g.next_use(&mut rng);
        let sub = u.subsample(8, &mut rng);
        assert_eq!(sub.rows(), 8);
        assert_eq!(sub.cols(), 4);
        // Every subsampled row must exist among the original rows.
        for r in 0..8 {
            let found = (0..24).any(|orig| (0..4).all(|c| sub[(r, c)] == u.h_full[(orig, c)]));
            assert!(found, "row {r} not found in original");
        }
    }

    #[test]
    fn subsampled_channels_are_worse_conditioned_than_iid() {
        // The property the geometric model exists for: 8×8 cuts of the
        // 96-antenna trace condition worse (higher ZF noise
        // amplification trace((H*H)⁻¹), median over trials) than i.i.d.
        // Rayleigh 8×8 draws.
        use quamax_linalg::{lu_solve, CVector};
        let mut rng = StdRng::seed_from_u64(6);
        let trace_inv_gram = |h: &CMatrix| -> f64 {
            let gram = h.gram();
            let n = gram.rows();
            let mut tr = 0.0;
            for c in 0..n {
                let mut e = CVector::zeros(n);
                e[c] = Complex::ONE;
                match lu_solve(&gram, &e) {
                    Ok(x) => tr += x[c].re,
                    Err(_) => return f64::INFINITY,
                }
            }
            tr
        };
        let cfg = TraceConfig {
            gain_spread_db: 0.0,
            ..TraceConfig::default()
        };
        let mut g = TraceGenerator::new(cfg, &mut rng);
        let mut corr_vals = Vec::new();
        let mut iid_vals = Vec::new();
        for _ in 0..101 {
            let u = g.next_use(&mut rng);
            let sub = u.subsample(8, &mut rng);
            corr_vals.push(trace_inv_gram(&sub));
            iid_vals.push(trace_inv_gram(&crate::rayleigh_channel(8, 8, &mut rng)));
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let m_corr = median(&mut corr_vals);
        let m_iid = median(&mut iid_vals);
        assert!(
            m_corr > m_iid,
            "trace subsamples should condition worse: median {m_corr} vs iid {m_iid}"
        );
    }

    #[test]
    #[should_panic(expected = "temporal_alpha")]
    fn invalid_alpha_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = TraceConfig {
            temporal_alpha: 1.5,
            ..TraceConfig::default()
        };
        let _ = TraceGenerator::new(cfg, &mut rng);
    }

    #[test]
    fn seeded_traces_reproduce() {
        let gen = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = TraceGenerator::new(small_config(), &mut rng);
            g.next_use(&mut rng).h_full
        };
        assert_eq!(gen(42), gen(42));
    }
}
