//! The unified detector API: every MIMO detector — quantum-annealed or
//! classical — behind one pair of traits, with a router on top.
//!
//! The paper evaluates QuAMax against ZF, MMSE, and sphere decoding
//! (§5, Figs. 4–7) and sketches a C-RAN deployment where a data-center
//! solver pool serves many APs (§7); the follow-on HotNets '20 work
//! (*Towards Hybrid Classical-Quantum Computation Structures in
//! Wirelessly-Networked Systems*) argues the real system is a *router*
//! over heterogeneous detectors. This module is that abstraction:
//!
//! * [`Detector`] — the per-coherence-interval side: `compile(&input)`
//!   does all the work that depends only on the channel `H` (ML→Ising
//!   reduction structure + embedding + CSR freeze for QuAMax;
//!   pseudo-inverse for ZF; LU of the regularized Gram for MMSE; QR
//!   for the sphere search) and returns a session;
//! * [`DetectorSession`] — the per-received-vector side:
//!   `detect(&y, seed)` decodes one vector through the compiled state
//!   and returns a uniform [`Detection`] (bits, ML objective, backend
//!   statistics);
//! * [`DetectorKind`] — the registry: every backend (and the hybrid
//!   router) constructible from one enum, so sweeps, sims, and
//!   examples treat detectors as *values* and iterate over them;
//! * [`DetectorKind::Hybrid`] — the HotNets routing structure: a cheap
//!   linear session answers first, and only problems whose residual
//!   fails a [`RoutePolicy`] are re-decoded by the expensive (annealed
//!   or sphere) session.
//!
//! Each backend has exactly one session struct, defined in
//! [`crate::soft`] beside its LLR derivation: it implements both
//! [`DetectorSession`] and [`SoftDetectorSession`], and one registry
//! match builds it for [`Detector::compile`] and
//! [`DetectorKind::compile_soft`] alike. The hard `detect` of every
//! session is the backend's own hard algorithm — **bit-identical** to
//! its direct API under the same `(H, y, seed)`; the traits add
//! routing and amortization, never a different algorithm
//! (property-tested per modulation in `tests/properties.rs`).
//!
//! [`SoftDetectorSession`]: crate::soft::SoftDetectorSession

use crate::decoder::{DecodeError, DecodeRun, DecoderConfig};
use crate::scenario::DetectionInput;
use crate::soft::SoftSpec;
use quamax_anneal::Annealer;
use quamax_baselines::{MmseFilter, SphereError, ZfFilter};
use quamax_linalg::{CMatrix, CVector, LinalgError};
use quamax_wireless::{Modulation, Snr};

/// Why a detector could not compile or decode.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectError {
    /// The annealed path failed (problem does not embed on the chip).
    Decode(DecodeError),
    /// A linear filter could not be formed (rank-deficient channel).
    Linalg(LinalgError),
    /// The sphere search returned no leaf (radius or node budget).
    Sphere(SphereError),
}

impl std::fmt::Display for DetectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectError::Decode(e) => write!(f, "annealed decode failed: {e}"),
            DetectError::Linalg(e) => write!(f, "linear filter failed: {e}"),
            DetectError::Sphere(e) => write!(f, "sphere search failed: {e}"),
        }
    }
}

impl std::error::Error for DetectError {}

/// Whether a failed detect/compile is worth retrying.
///
/// The serving layer (`quamax_ran`) threads this classification through
/// its retry and circuit-breaker machinery: a **transient** error can
/// succeed on a fresh attempt (different seed, different worker, a
/// bigger budget), a **permanent** one is a property of the job itself
/// and will fail identically everywhere — retrying it only burns
/// deadline slack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// A retry (new seed / worker / budget) may succeed.
    Transient,
    /// Deterministic in the inputs: every retry fails the same way.
    Permanent,
}

impl DetectError {
    /// Classifies this error for retry decisions.
    ///
    /// * embedding failures are **permanent**: the problem does not fit
    ///   the chip, and refuses to on every worker of the same topology;
    /// * linear-algebra failures are **permanent**: a singular or
    ///   mis-shaped channel factorizes identically on every attempt;
    /// * sphere failures are **transient**: both the initial radius and
    ///   the node budget are attempt-local policy choices a retry can
    ///   relax.
    pub fn class(&self) -> ErrorClass {
        match self {
            DetectError::Decode(DecodeError::Embedding(_)) => ErrorClass::Permanent,
            DetectError::Linalg(_) => ErrorClass::Permanent,
            DetectError::Sphere(_) => ErrorClass::Transient,
        }
    }

    /// `true` when a retry may succeed (see [`DetectError::class`]).
    pub fn is_transient(&self) -> bool {
        self.class() == ErrorClass::Transient
    }
}

impl From<DecodeError> for DetectError {
    fn from(e: DecodeError) -> Self {
        DetectError::Decode(e)
    }
}

impl From<LinalgError> for DetectError {
    fn from(e: LinalgError) -> Self {
        DetectError::Linalg(e)
    }
}

impl From<SphereError> for DetectError {
    fn from(e: SphereError) -> Self {
        DetectError::Sphere(e)
    }
}

/// Which way a [`DetectorKind::Hybrid`] router sent a problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// The cheap primary session's answer was accepted.
    Primary,
    /// The confidence policy rejected the primary; the fallback
    /// session decoded.
    Fallback,
}

/// Backend-specific statistics carried by a [`Detection`].
#[derive(Clone, Debug)]
pub enum BackendStats {
    /// A linear filter (ZF or MMSE): no per-decode statistics beyond
    /// the residual already in [`Detection::metric`].
    Linear,
    /// Sphere search: the visited-node count (Table 1's complexity
    /// measure).
    Sphere {
        /// Tree nodes whose partial metric was computed.
        visited_nodes: u64,
    },
    /// Exhaustive ML: exact by construction.
    Exact,
    /// Quantum-annealed: the full [`DecodeRun`] (solution
    /// distribution, chain health, parallelization factor) for the
    /// paper's order-statistic metrics.
    Annealed(Box<DecodeRun>),
    /// Routed by a [`DetectorKind::Hybrid`] router.
    Hybrid {
        /// Which session produced the answer.
        route: Route,
        /// The primary session's ML residual that drove the decision.
        primary_metric: f64,
        /// The producing session's own statistics.
        inner: Box<BackendStats>,
    },
}

impl BackendStats {
    /// The annealed run behind this detection, if any (looks through
    /// hybrid routing).
    pub fn annealed_run(&self) -> Option<&DecodeRun> {
        match self {
            BackendStats::Annealed(run) => Some(run),
            BackendStats::Hybrid { inner, .. } => inner.annealed_run(),
            _ => None,
        }
    }

    /// The hybrid routing decision, if this detection was routed.
    pub fn route(&self) -> Option<Route> {
        match self {
            BackendStats::Hybrid { route, .. } => Some(*route),
            _ => None,
        }
    }
}

/// The uniform result of one detection: what every backend agrees to
/// report.
#[derive(Clone, Debug)]
pub struct Detection {
    /// Gray-coded decoded bits, user 0 first.
    pub bits: Vec<u8>,
    /// The ML objective `‖y − Hv̂‖²` of the decoded symbol vector
    /// (for the annealed backend: best logical energy + ML offset).
    /// `None` only when a backend cannot price its answer.
    pub metric: Option<f64>,
    /// Backend-specific statistics.
    pub stats: BackendStats,
}

impl Detection {
    /// The annealed run behind this detection, if any (looks through
    /// hybrid routing).
    pub fn annealed_run(&self) -> Option<&DecodeRun> {
        self.stats.annealed_run()
    }

    /// The hybrid routing decision, if this detection was routed.
    pub fn route(&self) -> Option<Route> {
        self.stats.route()
    }
}

/// The per-coherence-interval side of a detector: everything that
/// depends only on the channel estimate `H` (and the modulation) is
/// done in [`Detector::compile`]; the returned session streams
/// per-received-vector decodes.
pub trait Detector {
    /// The compiled per-interval state.
    type Session: DetectorSession;

    /// Compiles the `H`-only work for one coherence interval.
    /// `input.y` shapes the compile only (any received vector of the
    /// interval works).
    fn compile(&self, input: &DetectionInput) -> Result<Self::Session, DetectError>;
}

/// The per-received-vector side of a detector. `seed` drives any
/// randomness (annealer streams, unembedding tie-breaks) so a fixed
/// `(H, y, seed)` always reproduces the same [`Detection`];
/// deterministic backends ignore it.
pub trait DetectorSession {
    /// Detects one received vector through the compiled state.
    fn detect(&mut self, y: &CVector, seed: u64) -> Result<Detection, DetectError>;

    /// Modulation the session was compiled for.
    fn modulation(&self) -> Modulation;

    /// Payload bits per detection.
    fn num_bits(&self) -> usize;

    /// A short static backend name (for reports and tables).
    fn backend_name(&self) -> &'static str;
}

impl<S: DetectorSession + ?Sized> DetectorSession for Box<S> {
    fn detect(&mut self, y: &CVector, seed: u64) -> Result<Detection, DetectError> {
        (**self).detect(y, seed)
    }
    fn modulation(&self) -> Modulation {
        (**self).modulation()
    }
    fn num_bits(&self) -> usize {
        (**self).num_bits()
    }
    fn backend_name(&self) -> &'static str {
        (**self).backend_name()
    }
}

/// `‖y − H·map(bits)‖²` — the ML objective every backend's answer is
/// priced with.
pub(crate) fn ml_objective(h: &CMatrix, y: &CVector, bits: &[u8], m: Modulation) -> f64 {
    let v = m.map_gray_vector(bits);
    (y - &h.mul_vec(&v)).norm_sqr()
}

// --- Linear filters (ZF, MMSE) --------------------------------------

/// What a compiled linear filter must expose to serve as a
/// [`LinearSession`](crate::soft::LinearSession) — ZF's cached
/// pseudo-inverse and MMSE's cached LU both qualify; the session logic
/// (decode, price with the ML objective, demap) is written once over
/// this.
pub trait LinearFilter {
    /// Backend name reported by the session.
    const NAME: &'static str;
    /// Decodes one received vector over the compiled channel.
    fn decode(&self, y: &CVector) -> Vec<u8>;
    /// The equalized (pre-slicing) symbol estimates `z = Wy`.
    fn equalize(&self, y: &CVector) -> CVector;
    /// The compiled equalizer matrix `W` itself — soft demappers price
    /// the filter's post-equalization SINR from it (see
    /// [`crate::soft`]).
    fn filter_matrix(&self) -> CMatrix;
    /// Modulation the filter slices for.
    fn modulation(&self) -> Modulation;
    /// Users of the compiled channel.
    fn num_users(&self) -> usize;
}

impl LinearFilter for ZfFilter {
    const NAME: &'static str = "zf";
    fn decode(&self, y: &CVector) -> Vec<u8> {
        ZfFilter::decode(self, y)
    }
    fn equalize(&self, y: &CVector) -> CVector {
        ZfFilter::equalize(self, y)
    }
    fn filter_matrix(&self) -> CMatrix {
        ZfFilter::filter_matrix(self)
    }
    fn modulation(&self) -> Modulation {
        ZfFilter::modulation(self)
    }
    fn num_users(&self) -> usize {
        ZfFilter::num_users(self)
    }
}

impl LinearFilter for MmseFilter {
    const NAME: &'static str = "mmse";
    fn decode(&self, y: &CVector) -> Vec<u8> {
        MmseFilter::decode(self, y)
    }
    fn equalize(&self, y: &CVector) -> CVector {
        MmseFilter::equalize(self, y)
    }
    fn filter_matrix(&self) -> CMatrix {
        MmseFilter::filter_matrix(self)
    }
    fn modulation(&self) -> Modulation {
        MmseFilter::modulation(self)
    }
    fn num_users(&self) -> usize {
        MmseFilter::num_users(self)
    }
}

// --- Hybrid routing -------------------------------------------------

/// The confidence policy of a [`DetectorKind::Hybrid`] router: accept the primary
/// session's answer when its ML residual `‖y − Hv̂‖²`, normalized per
/// receive antenna, is small enough to be plain channel noise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoutePolicy {
    /// Maximum accepted residual per receive antenna.
    pub max_residual_per_antenna: f64,
}

impl RoutePolicy {
    /// A policy from an absolute per-antenna residual bound.
    pub fn new(max_residual_per_antenna: f64) -> Self {
        assert!(
            max_residual_per_antenna >= 0.0,
            "residual bound must be non-negative"
        );
        RoutePolicy {
            max_residual_per_antenna,
        }
    }

    /// The noise-matched policy: under a *correct* decode the residual
    /// is pure AWGN with mean `Nr·σ²`, so accept up to `margin × σ²`
    /// per antenna (`margin` ≈ 2–4 tolerates noise fluctuation;
    /// residuals above that mean the linear filter likely sliced at
    /// least one user wrong).
    pub fn noise_matched(snr: Snr, modulation: Modulation, margin: f64) -> Self {
        assert!(margin > 0.0, "margin must be positive");
        RoutePolicy::new(margin * snr.noise_variance(modulation))
    }
}

// --- The registry ---------------------------------------------------

/// Every detector backend as one constructible value — the registry
/// sweeps, sims, and examples iterate over. The modulation always
/// comes from the [`DetectionInput`] at compile time, so one kind
/// serves any constellation.
#[derive(Clone)]
pub enum DetectorKind {
    /// Zero-forcing (pseudo-inverse) linear detection.
    ZeroForcing,
    /// MMSE linear detection at the given noise variance.
    Mmse {
        /// Total complex noise variance σ² per receive antenna.
        noise_variance: f64,
    },
    /// Schnorr–Euchner sphere decoding (exact ML), optionally
    /// node-budget capped.
    Sphere {
        /// Visited-node cap; `None` = run to completion.
        node_budget: Option<u64>,
    },
    /// Exhaustive maximum-likelihood search (test-suite sizes).
    ExactMl,
    /// The quantum-annealed QuAMax decoder.
    Quamax {
        /// The (simulated) annealing machine.
        annealer: Annealer,
        /// Embedding and schedule parameters.
        config: DecoderConfig,
        /// Anneal cycles per detection.
        anneals: usize,
    },
    /// The hybrid classical–quantum router: a cheap `primary`
    /// (typically a linear filter) answers every problem, and only
    /// low-confidence answers are re-decoded by the expensive
    /// `fallback` (typically the annealed or sphere session).
    ///
    /// Routing is *deterministic*: the decision depends only on the
    /// primary's detection (itself deterministic for linear filters),
    /// so a fixed `(H, y, seed)` always routes the same way.
    ///
    /// The router is never less available than its parts: when one
    /// side cannot compile at all (a ZF primary on a rank-deficient
    /// channel, an annealed fallback on a problem too large to embed),
    /// every problem routes to the side that could; when the fallback
    /// cannot produce an answer for one vector (e.g. a
    /// node-budget-capped sphere search), the primary's low-confidence
    /// answer is returned instead of an error. Compile fails only when
    /// *neither* side can be formed.
    Hybrid {
        /// The cheap first-pass detector.
        primary: Box<DetectorKind>,
        /// The expensive fallback detector.
        fallback: Box<DetectorKind>,
        /// The confidence policy gating the fallback.
        policy: RoutePolicy,
    },
}

impl DetectorKind {
    /// Zero-forcing.
    pub fn zf() -> Self {
        DetectorKind::ZeroForcing
    }

    /// MMSE at noise variance `sigma2`.
    pub fn mmse(sigma2: f64) -> Self {
        DetectorKind::Mmse {
            noise_variance: sigma2,
        }
    }

    /// Unconstrained sphere decoding.
    pub fn sphere() -> Self {
        DetectorKind::Sphere { node_budget: None }
    }

    /// Exhaustive ML.
    pub fn exact_ml() -> Self {
        DetectorKind::ExactMl
    }

    /// The QuAMax annealed decoder.
    pub fn quamax(annealer: Annealer, config: DecoderConfig, anneals: usize) -> Self {
        DetectorKind::Quamax {
            annealer,
            config,
            anneals,
        }
    }

    /// A hybrid router over two other kinds.
    pub fn hybrid(primary: DetectorKind, fallback: DetectorKind, policy: RoutePolicy) -> Self {
        DetectorKind::Hybrid {
            primary: Box::new(primary),
            fallback: Box::new(fallback),
            policy,
        }
    }

    /// The backend's short name (matches
    /// [`DetectorSession::backend_name`]).
    pub fn name(&self) -> &'static str {
        match self {
            DetectorKind::ZeroForcing => "zf",
            DetectorKind::Mmse { .. } => "mmse",
            DetectorKind::Sphere { .. } => "sphere",
            DetectorKind::ExactMl => "exact_ml",
            DetectorKind::Quamax { .. } => "quamax",
            DetectorKind::Hybrid { .. } => "hybrid",
        }
    }
}

impl Detector for DetectorKind {
    type Session = Box<dyn DetectorSession>;

    /// The registry's one session, seen through its hard face: the same
    /// struct [`DetectorKind::compile_soft`] returns, upcast to
    /// `Box<dyn DetectorSession>`. That type has no soft methods, so
    /// the spec passed along is never read.
    fn compile(&self, input: &DetectionInput) -> Result<Box<dyn DetectorSession>, DetectError> {
        Ok(self.compile_soft(input, SoftSpec::new(0.0))?)
    }
}

/// Measures a detector's *empirical* fallback rate over a calibration
/// batch of `trials` instances drawn from `scenario` — the loop-closer
/// between the decode-level [`DetectorKind::Hybrid`] and the queueing-level
/// `quamax_ran::HybridServer`: the fraction this helper measures under
/// a routing policy is exactly the `fallback_fraction` the discrete-
/// event server should be provisioned with (and what `cran_datacenter`
/// feeds it).
///
/// Non-hybrid kinds never route, so their measured fraction is 0.
/// Deterministic: the batch is drawn from `StdRng::seed_from_u64(seed)`
/// and each detection is seeded from the trial index.
///
/// The result is always a valid provisioning fraction: an *empty*
/// decode log (`trials == 0` — e.g. a calibration window that saw no
/// traffic) measures 0.0 rather than dividing by zero, and the ratio
/// is clamped to `[0, 1]` so downstream consumers with strict range
/// asserts (`HybridServer::new`) can take it verbatim.
pub fn measured_fallback_fraction(
    kind: &DetectorKind,
    scenario: &crate::scenario::Scenario,
    trials: usize,
    seed: u64,
) -> Result<f64, DetectError> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    if trials == 0 {
        return Ok(0.0);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fallbacks = 0usize;
    for t in 0..trials {
        let inst = scenario.sample(&mut rng);
        let input = inst.detection_input();
        let mut session = kind.compile(&input)?;
        let det = session.detect(
            &input.y,
            seed ^ (0x9e37_79b9_7f4a_7c15u64).wrapping_mul(t as u64 + 1),
        )?;
        if det.route() == Some(Route::Fallback) {
            fallbacks += 1;
        }
    }
    Ok((fallbacks as f64 / trials as f64).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use quamax_anneal::{AnnealerConfig, IceModel, Schedule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quiet_annealer() -> Annealer {
        Annealer::new(AnnealerConfig {
            ice: IceModel::none(),
            sweeps_per_us: 50.0,
            ..Default::default()
        })
    }

    #[test]
    fn every_kind_constructs_and_detects() {
        let mut rng = StdRng::seed_from_u64(1);
        let sc = Scenario::new(3, 3, Modulation::Qpsk).with_snr(Snr::from_db(22.0));
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let sigma2 = Snr::from_db(22.0).noise_variance(Modulation::Qpsk);
        let kinds = [
            DetectorKind::zf(),
            DetectorKind::mmse(sigma2),
            DetectorKind::sphere(),
            DetectorKind::exact_ml(),
            DetectorKind::quamax(
                quiet_annealer(),
                DecoderConfig {
                    schedule: Schedule::standard(10.0),
                    ..Default::default()
                },
                200,
            ),
            DetectorKind::hybrid(
                DetectorKind::zf(),
                DetectorKind::sphere(),
                RoutePolicy::noise_matched(Snr::from_db(22.0), Modulation::Qpsk, 3.0),
            ),
        ];
        for kind in kinds {
            let name = kind.name();
            let mut session = kind.compile(&input).expect(name);
            assert_eq!(session.modulation(), Modulation::Qpsk, "{name}");
            assert_eq!(session.num_bits(), 6, "{name}");
            let det = session.detect(&input.y, 7).expect(name);
            assert_eq!(det.bits, inst.tx_bits(), "{name} at 22 dB should be clean");
            assert!(det.metric.expect(name).is_finite(), "{name}");
        }
    }

    #[test]
    fn metric_is_the_ml_objective() {
        // Every backend prices its answer with ‖y − Hv̂‖² of its own
        // decoded bits.
        let mut rng = StdRng::seed_from_u64(2);
        let sc = Scenario::new(3, 3, Modulation::Qam16).with_snr(Snr::from_db(14.0));
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        for kind in [
            DetectorKind::zf(),
            DetectorKind::mmse(Snr::from_db(14.0).noise_variance(Modulation::Qam16)),
            DetectorKind::sphere(),
            DetectorKind::exact_ml(),
        ] {
            let name = kind.name();
            let mut session = kind.compile(&input).unwrap();
            let det = session.detect(&input.y, 0).unwrap();
            let expect = ml_objective(&input.h, &input.y, &det.bits, input.modulation);
            let got = det.metric.unwrap();
            assert!(
                (got - expect).abs() <= 1e-9 * expect.max(1.0),
                "{name}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn hybrid_routes_primary_on_clean_channels() {
        // High SNR: ZF residual is pure noise, the gate accepts, the
        // sphere is never consulted.
        let mut rng = StdRng::seed_from_u64(3);
        let snr = Snr::from_db(30.0);
        let sc = Scenario::new(4, 4, Modulation::Qpsk).with_snr(snr);
        let kind = DetectorKind::hybrid(
            DetectorKind::zf(),
            DetectorKind::sphere(),
            RoutePolicy::noise_matched(snr, Modulation::Qpsk, 4.0),
        );
        let mut primaries = 0usize;
        for _ in 0..10 {
            let inst = sc.sample(&mut rng);
            let input = inst.detection_input();
            let mut session = kind.compile(&input).unwrap();
            let det = session.detect(&input.y, 0).unwrap();
            if det.route() == Some(Route::Primary) {
                primaries += 1;
                assert_eq!(det.bits, inst.tx_bits(), "accepted primary must be clean");
            }
        }
        assert!(primaries >= 8, "only {primaries}/10 accepted at 30 dB");
    }

    #[test]
    fn hybrid_zero_threshold_always_falls_back() {
        // A zero-residual gate rejects every noisy primary answer: the
        // hybrid's output must equal the fallback's own detection.
        let mut rng = StdRng::seed_from_u64(4);
        let sc = Scenario::new(3, 3, Modulation::Qpsk).with_snr(Snr::from_db(10.0));
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let kind = DetectorKind::hybrid(
            DetectorKind::zf(),
            DetectorKind::sphere(),
            RoutePolicy::new(0.0),
        );
        let mut session = kind.compile(&input).unwrap();
        let det = session.detect(&input.y, 0).unwrap();
        assert_eq!(det.route(), Some(Route::Fallback));
        let mut sphere = DetectorKind::sphere().compile(&input).unwrap();
        let direct = sphere.detect(&input.y, 0).unwrap();
        assert_eq!(det.bits, direct.bits);
        assert_eq!(det.metric, direct.metric);
    }

    #[test]
    fn hybrid_routing_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let sc = Scenario::new(4, 4, Modulation::Qpsk).with_snr(Snr::from_db(12.0));
        let kind = DetectorKind::hybrid(
            DetectorKind::zf(),
            DetectorKind::sphere(),
            RoutePolicy::noise_matched(Snr::from_db(12.0), Modulation::Qpsk, 2.0),
        );
        for _ in 0..6 {
            let inst = sc.sample(&mut rng);
            let input = inst.detection_input();
            let mut a = kind.compile(&input).unwrap();
            let mut b = kind.compile(&input).unwrap();
            let da = a.detect(&input.y, 9).unwrap();
            let db = b.detect(&input.y, 9).unwrap();
            assert_eq!(da.route(), db.route());
            assert_eq!(da.bits, db.bits);
        }
    }

    #[test]
    fn quamax_trait_session_exposes_the_run() {
        let mut rng = StdRng::seed_from_u64(6);
        let sc = Scenario::new(4, 4, Modulation::Bpsk);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let kind = DetectorKind::quamax(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(10.0),
                ..Default::default()
            },
            100,
        );
        let mut session = kind.compile(&input).unwrap();
        let det = session.detect(&input.y, 11).unwrap();
        let run = det.annealed_run().expect("annealed stats carry the run");
        assert_eq!(run.best_bits(), det.bits);
        assert_eq!(session.backend_name(), "quamax");
        // The metric is the run's own ML pricing.
        let best_e = run.distribution().best_energy().unwrap();
        assert_eq!(det.metric.unwrap(), best_e + run.ml_offset());
    }

    #[test]
    fn hybrid_survives_a_primary_that_cannot_compile() {
        // Rank-deficient channel: the ZF primary's compile fails, but
        // the router still serves the interval through its fallback —
        // and matches the fallback's own answer.
        let mut rng = StdRng::seed_from_u64(8);
        let sc = Scenario::new(3, 3, Modulation::Bpsk).with_snr(Snr::from_db(12.0));
        let inst = sc.sample(&mut rng);
        // Duplicate user 0's column into user 1: H*H singular.
        let h = CMatrix::from_fn(3, 3, |r, c| {
            if c == 1 {
                inst.h()[(r, 0)]
            } else {
                inst.h()[(r, c)]
            }
        });
        let input = DetectionInput {
            h,
            y: inst.y().clone(),
            modulation: Modulation::Bpsk,
        };
        assert!(matches!(
            DetectorKind::zf().compile(&input),
            Err(DetectError::Linalg(LinalgError::Singular))
        ));
        let kind = DetectorKind::hybrid(
            DetectorKind::zf(),
            DetectorKind::sphere(),
            RoutePolicy::new(1.0),
        );
        let mut session = kind.compile(&input).expect("fallback carries the router");
        let det = session.detect(&input.y, 5).unwrap();
        assert_eq!(det.route(), Some(Route::Fallback));
        let mut sphere = DetectorKind::sphere().compile(&input).unwrap();
        assert_eq!(det.bits, sphere.detect(&input.y, 5).unwrap().bits);
    }

    #[test]
    fn hybrid_survives_a_fallback_that_cannot_compile() {
        // A problem too large to embed kills the annealed fallback's
        // compile; the router still serves the interval through its
        // primary ("never less available than its parts", both ways).
        let mut rng = StdRng::seed_from_u64(10);
        let sc = Scenario::new(40, 40, Modulation::Qam16).with_snr(Snr::from_db(25.0));
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let quamax = DetectorKind::quamax(quiet_annealer(), DecoderConfig::default(), 10);
        assert!(quamax.compile(&input).is_err(), "160 logical cannot embed");
        let kind = DetectorKind::hybrid(DetectorKind::zf(), quamax.clone(), RoutePolicy::new(0.0));
        let mut session = kind.compile(&input).expect("primary carries the router");
        let det = session.detect(&input.y, 4).unwrap();
        assert_eq!(det.route(), Some(Route::Primary));
        let mut zf = DetectorKind::zf().compile(&input).unwrap();
        assert_eq!(det.bits, zf.detect(&input.y, 4).unwrap().bits);
        // Both sides dead: compile reports the failure.
        let hopeless = DetectorKind::hybrid(quamax.clone(), quamax, RoutePolicy::new(0.0));
        assert!(matches!(
            hopeless.compile(&input),
            Err(DetectError::Decode(_))
        ));
    }

    #[test]
    fn hybrid_never_fall_back_policy_routes_fallback_when_primary_is_dead() {
        // An infinite acceptance threshold ("never fall back") must not
        // panic when the primary could not even compile — the vector
        // still reaches the fallback.
        let mut rng = StdRng::seed_from_u64(11);
        let inst = Scenario::new(3, 3, Modulation::Bpsk)
            .with_snr(Snr::from_db(12.0))
            .sample(&mut rng);
        let h = CMatrix::from_fn(3, 3, |r, c| {
            if c == 1 {
                inst.h()[(r, 0)]
            } else {
                inst.h()[(r, c)]
            }
        });
        let input = DetectionInput {
            h,
            y: inst.y().clone(),
            modulation: Modulation::Bpsk,
        };
        let kind = DetectorKind::hybrid(
            DetectorKind::zf(),
            DetectorKind::sphere(),
            RoutePolicy::new(f64::INFINITY),
        );
        let mut session = kind.compile(&input).unwrap();
        let det = session.detect(&input.y, 6).unwrap();
        assert_eq!(det.route(), Some(Route::Fallback));
    }

    #[test]
    fn sphere_kind_rejects_wide_channels_without_panicking() {
        let input = DetectionInput {
            h: CMatrix::zeros(2, 4),
            y: CVector::zeros(2),
            modulation: Modulation::Bpsk,
        };
        assert!(matches!(
            DetectorKind::sphere().compile(&input),
            Err(DetectError::Linalg(LinalgError::ShapeMismatch))
        ));
    }

    #[test]
    fn hybrid_returns_primary_when_fallback_cannot_answer() {
        // A node-budget-capped sphere fallback that trips before any
        // leaf: the router hands back the (low-confidence) primary
        // answer instead of erroring.
        let mut rng = StdRng::seed_from_u64(9);
        let sc = Scenario::new(4, 4, Modulation::Qpsk).with_snr(Snr::from_db(8.0));
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let kind = DetectorKind::hybrid(
            DetectorKind::zf(),
            DetectorKind::Sphere {
                node_budget: Some(1),
            },
            RoutePolicy::new(0.0), // gate rejects everything
        );
        let mut session = kind.compile(&input).unwrap();
        let det = session.detect(&input.y, 2).unwrap();
        assert_eq!(det.route(), Some(Route::Primary));
        let mut zf = DetectorKind::zf().compile(&input).unwrap();
        assert_eq!(det.bits, zf.detect(&input.y, 2).unwrap().bits);
        // With neither side able to answer, the error propagates.
        let hopeless = DetectorKind::hybrid(
            DetectorKind::Sphere {
                node_budget: Some(1),
            },
            DetectorKind::Sphere {
                node_budget: Some(1),
            },
            RoutePolicy::new(0.0),
        );
        let mut session = hopeless.compile(&input).unwrap();
        assert!(matches!(
            session.detect(&input.y, 2),
            Err(DetectError::Sphere(_))
        ));
    }

    #[test]
    fn measured_fallback_fraction_tracks_the_policy() {
        // A zero threshold rejects every primary answer (fraction 1);
        // an infinite one accepts everything (fraction 0); a noise-
        // matched gate at moderate SNR lands strictly between — the
        // number a HybridServer should be provisioned with.
        let sc = Scenario::new(4, 4, Modulation::Qpsk).with_snr(Snr::from_db(9.0));
        let always = DetectorKind::hybrid(
            DetectorKind::zf(),
            DetectorKind::sphere(),
            RoutePolicy::new(0.0),
        );
        assert_eq!(measured_fallback_fraction(&always, &sc, 8, 1).unwrap(), 1.0);
        let never = DetectorKind::hybrid(
            DetectorKind::zf(),
            DetectorKind::sphere(),
            RoutePolicy::new(f64::INFINITY),
        );
        assert_eq!(measured_fallback_fraction(&never, &sc, 8, 1).unwrap(), 0.0);
        let gated = DetectorKind::hybrid(
            DetectorKind::zf(),
            DetectorKind::sphere(),
            RoutePolicy::noise_matched(Snr::from_db(9.0), Modulation::Qpsk, 3.0),
        );
        let f = measured_fallback_fraction(&gated, &sc, 30, 1).unwrap();
        assert!(f > 0.0 && f < 1.0, "measured fraction {f}");
        // Non-hybrid kinds never route.
        assert_eq!(
            measured_fallback_fraction(&DetectorKind::zf(), &sc, 5, 1).unwrap(),
            0.0
        );
    }

    #[test]
    fn measured_fallback_fraction_of_an_empty_log_is_zero() {
        // A calibration window that saw no traffic must measure a
        // provisionable 0.0, not divide by zero — and every measured
        // value must be a legal `HybridServer` fraction.
        let sc = Scenario::new(3, 3, Modulation::Qpsk).with_snr(Snr::from_db(9.0));
        let kind = DetectorKind::hybrid(
            DetectorKind::zf(),
            DetectorKind::sphere(),
            RoutePolicy::new(0.5),
        );
        let f = measured_fallback_fraction(&kind, &sc, 0, 1).unwrap();
        assert_eq!(f, 0.0);
        for trials in [1usize, 3, 10] {
            let f = measured_fallback_fraction(&kind, &sc, trials, 1).unwrap();
            assert!((0.0..=1.0).contains(&f), "trials={trials}: {f}");
        }
    }

    #[test]
    fn rank_deficient_channel_fails_compile_for_linear_kinds() {
        use quamax_linalg::Complex;
        let h1 = CMatrix::from_fn(4, 1, |r, _| Complex::real(1.0 + r as f64));
        let h = CMatrix::from_fn(4, 2, |r, _| h1[(r, 0)]);
        let input = DetectionInput {
            h,
            y: CVector::zeros(4),
            modulation: Modulation::Bpsk,
        };
        match DetectorKind::zf().compile(&input) {
            Err(DetectError::Linalg(LinalgError::Singular)) => {}
            other => panic!("expected singular, got {:?}", other.err()),
        }
    }

    #[test]
    fn oversized_quamax_kind_fails_compile() {
        let mut rng = StdRng::seed_from_u64(7);
        let sc = Scenario::new(40, 40, Modulation::Qam16);
        let inst = sc.sample(&mut rng);
        let kind = DetectorKind::quamax(quiet_annealer(), DecoderConfig::default(), 10);
        match kind.compile(&inst.detection_input()) {
            Err(DetectError::Decode(DecodeError::Embedding(_))) => {}
            other => panic!("expected embedding failure, got {:?}", other.err()),
        }
    }
}
