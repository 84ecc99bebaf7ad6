//! # QuAMax — quantum-annealing ML MIMO detection, reproduced in Rust
//!
//! This is the facade crate of a from-scratch reproduction of
//! *Leveraging Quantum Annealing for Large MIMO Processing in Centralized
//! Radio Access Networks* (Kim, Venturelli, Jamieson — SIGCOMM 2019).
//!
//! It re-exports the workspace crates under stable module names and provides
//! a [`prelude`] for the common decode workflow:
//!
//! ```
//! use quamax::prelude::*;
//!
//! let mut rng = Rng::seed_from_u64(7);
//! // 4 users, 4 AP antennas, BPSK, over a random-phase unit-gain channel.
//! let scenario = Scenario::new(4, 4, Modulation::Bpsk);
//! let instance = scenario.sample_noiseless(&mut rng);
//! let machine = Annealer::dw2q(AnnealerConfig::default());
//! let decoder = QuamaxDecoder::new(machine, DecoderConfig::default());
//! let run = decoder.decode(&instance.detection_input(), 50, &mut rng).unwrap();
//! assert_eq!(run.best_bits().len(), 4); // one bit per BPSK user
//! ```
//!
//! Detectors — quantum-annealed or classical — share one trait API:
//! [`DetectorKind`](prelude::DetectorKind) constructs any backend (or the
//! hybrid classical-first router), `compile` does the per-coherence-interval
//! work once, and the session streams per-received-vector detections:
//!
//! ```
//! use quamax::prelude::*;
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let snr = Snr::from_db(25.0);
//! let interval = Scenario::new(4, 4, Modulation::Qpsk).with_snr(snr).sample(&mut rng);
//! let input = interval.detection_input();
//!
//! // Classical-first with quantum fallback: MMSE answers, and only
//! // residual-flagged problems reach the annealer.
//! let kind = DetectorKind::hybrid(
//!     DetectorKind::mmse(snr.noise_variance(Modulation::Qpsk)),
//!     DetectorKind::quamax(
//!         Annealer::dw2q(AnnealerConfig::default()),
//!         DecoderConfig::default(),
//!         50,
//!     ),
//!     RoutePolicy::noise_matched(snr, Modulation::Qpsk, 3.0),
//! );
//! let mut session = kind.compile(&input).unwrap(); // once per coherence interval
//! let detection = session.detect(&input.y, 42).unwrap(); // per received vector
//! assert_eq!(detection.bits.len(), 8);
//! ```
//!
//! For the coded uplink, every kind also compiles a *soft* session
//! producing per-bit LLRs (positive ⇒ bit 1) that feed the soft-input
//! Viterbi decoder and the [`CodedFrame`](prelude::CodedFrame)
//! pipeline:
//!
//! ```
//! use quamax::prelude::*;
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let snr = Snr::from_db(15.0);
//! let inst = Scenario::new(4, 4, Modulation::Qpsk).with_snr(snr).sample(&mut rng);
//! let input = inst.detection_input();
//! let mut soft = DetectorKind::zf()
//!     .compile_soft(&input, SoftSpec::noise_matched(snr, Modulation::Qpsk))
//!     .unwrap();
//! let det = soft.detect_soft(&input.y, 1).unwrap();
//! assert_eq!(det.llrs.len(), 8);
//! assert!(det.llrs.iter().zip(&det.bits).all(|(&l, &b)| (l > 0.0) == (b == 1) || l == 0.0));
//! ```
pub use quamax_anneal as anneal;
pub use quamax_baselines as baselines;
pub use quamax_chimera as chimera;
pub use quamax_core as core;
pub use quamax_ising as ising;
pub use quamax_linalg as linalg;
pub use quamax_ran as ran;
pub use quamax_telemetry as telemetry;
pub use quamax_wireless as wireless;

/// The common decode workflow in one `use`.
pub mod prelude {
    pub use quamax_anneal::{Annealer, AnnealerConfig, Backend, Schedule};
    pub use quamax_baselines::{MmseDetector, SphereDecoder, ZeroForcingDetector};
    pub use quamax_core::metrics::{percentile, BitErrorProfile, RunStatistics};
    pub use quamax_core::{
        fold_mod_tau, measured_fallback_fraction, tau_for, CodedFrame, DecodeSession,
        DecoderConfig, Detection, DetectionInput, Detector, DetectorKind, DetectorSession,
        IddOutcome, IddSpec, PrecodeInput, Precoder, PrecoderKind, PrecoderSession, Precoding,
        QuamaxDecoder, RoutePolicy, Scenario, SoftDetection, SoftDetectorSession, SoftSpec,
    };
    pub use quamax_linalg::{CMatrix, CVector, Complex};
    pub use quamax_wireless::{Modulation, Snr};
    pub use rand::rngs::StdRng as Rng;
    pub use rand::SeedableRng;
}
