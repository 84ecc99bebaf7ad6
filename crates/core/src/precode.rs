//! Downlink vector-perturbation precoding (VPP) as a QUBO — the
//! detection pipeline's mirror image (Kasi et al., *Quantum Annealing
//! for Large MIMO Downlink Vector Perturbation Precoding*, ICC 2021).
//!
//! Uplink detection asks "which transmitted symbols explain `y`?";
//! downlink precoding asks "which integer perturbation `v` makes the
//! zero-forced transmit signal cheapest?". With `P = H*(HH*)⁻¹` the
//! per-user-stream ZF precoding matrix, VPP transmits
//!
//! ```text
//!   x = P(u + τv),   v ∈ ℤ[i]^{Nu},
//! ```
//!
//! choosing `v` to minimize the transmit energy `E(v) = ‖P(u + τv)‖²`.
//! Receivers undo the perturbation with a per-dimension modulo-τ fold
//! — no cooperation needed — so all the search hardness lives at the
//! base station, exactly where a C-RAN pools its QPUs.
//!
//! The QUBO realifies the model (`F = Φ(P)`, `y = φ(u)`, `G = FᵀF`),
//! expands each real perturbation dimension in a two's-complement
//! encoding `C` (t magnitude bits + one sign bit per variable), and
//! programs `Q = τ²CᵀGC + 2τCᵀGy` with scalar offset `‖Fy‖²`. Because
//! `Φ` is multiplicative and `Φ(A)ᵀ = Φ(A*)`, every `G` entry is read
//! straight from the complex Gram `W = P*P` — no explicit real `F` is
//! ever formed. The quadratic part `τ²CᵀGC` depends only on `(H, τ)`,
//! so one embedding + CSR freeze serves a whole coherence interval and
//! each user-symbol vector `u` refreshes only the linear fields —
//! the uplink `DecodeSession` contract, run by the same annealed core
//! (`decoder::AnnealCore`): this module supplies only the reduction
//! (`qubo_for`), the perturbation encoding and the `v = 0` floor.
//!
//! [`PrecoderKind`] is the registry mirror of `detect::DetectorKind`:
//! classical ZF (`τ→∞`, zero perturbation) and Tomlinson–Harashima
//! (successive modulo, a greedy `v`) slot in behind the same
//! [`Precoder`]/[`PrecoderSession`] traits, and [`HybridPrecoder`]
//! routes by the primary's realized transmit power per antenna.

use crate::decoder::{AnnealCore, Annealed, DecodeError, DecoderConfig};
use crate::detect::{ErrorClass, Route};
use quamax_anneal::{Annealer, Schedule};
use quamax_chimera::{ChimeraGraph, EmbeddingError};
use quamax_ising::{
    bits_to_spins, qubo_to_ising, spins_to_bits, CompiledProblem, IsingProblem, QuboProblem,
};
use quamax_linalg::{cholesky, pseudo_inverse, CMatrix, CVector, Complex, LinalgError};
use quamax_telemetry::Telemetry;
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What a precoder compiles against: the downlink channel estimate and
/// the constellation the users decode.
///
/// `h` is users × antennas (`Nu × Nb`, one row per user stream); the
/// ZF inverse exists only when `Nb ≥ Nu` and `HH*` is full rank.
#[derive(Clone, Debug)]
pub struct PrecodeInput {
    /// Downlink channel estimate, users × antennas.
    pub h: CMatrix,
    /// Constellation each user's receiver demaps.
    pub modulation: Modulation,
}

impl PrecodeInput {
    /// Number of user streams (rows of `h`).
    pub fn users(&self) -> usize {
        self.h.rows()
    }

    /// Number of transmit antennas (columns of `h`).
    pub fn antennas(&self) -> usize {
        self.h.cols()
    }

    /// Payload bits per precoded channel use.
    pub fn num_bits(&self) -> usize {
        self.users() * self.modulation.bits_per_symbol()
    }
}

/// The modulo base `τ = 2·L` for a constellation with `L` levels per
/// real dimension: the smallest modulus whose fold is the identity on
/// every constellation point (levels sit at `±1, ±3, … ±(L−1)`, all
/// strictly inside `[−τ/2, τ/2)`).
pub fn tau_for(modulation: Modulation) -> f64 {
    2.0 * modulation.levels_per_dimension() as f64
}

/// The receiver's symmetric modulo fold: `x − τ·round(x/τ)`, mapping
/// onto `[−τ/2, τ/2)` and removing any integer multiple of `τ`.
pub fn mod_tau(x: f64, tau: f64) -> f64 {
    x - tau * (x / tau).round()
}

/// Applies [`mod_tau`] to both real dimensions of every entry — the
/// per-user receiver step that strips the perturbation `τv` off the
/// effective channel output before demapping.
pub fn fold_mod_tau(z: &CVector, tau: f64) -> CVector {
    CVector::from_fn(z.len(), |i| {
        Complex::new(mod_tau(z[i].re, tau), mod_tau(z[i].im, tau))
    })
}

/// Why a precoder could not compile or precode.
#[derive(Debug, Clone, PartialEq)]
pub enum PrecodeError {
    /// The annealed path failed (problem does not embed on the chip).
    Decode(DecodeError),
    /// The ZF inverse / Cholesky could not be formed (rank-deficient
    /// or under-determined channel).
    Linalg(LinalgError),
}

impl std::fmt::Display for PrecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrecodeError::Decode(e) => write!(f, "annealed precode failed: {e}"),
            PrecodeError::Linalg(e) => write!(f, "precoding matrix failed: {e}"),
        }
    }
}

impl std::error::Error for PrecodeError {}

impl PrecodeError {
    /// Classifies this error for the serving layer's retry machinery —
    /// the same contract as `DetectError::class`: both embedding and
    /// linear-algebra failures are properties of the job itself and
    /// fail identically on every worker.
    pub fn class(&self) -> ErrorClass {
        match self {
            PrecodeError::Decode(DecodeError::Embedding(_)) => ErrorClass::Permanent,
            PrecodeError::Linalg(_) => ErrorClass::Permanent,
        }
    }

    /// `true` when a retry may succeed (see [`PrecodeError::class`]).
    pub fn is_transient(&self) -> bool {
        self.class() == ErrorClass::Transient
    }
}

impl From<DecodeError> for PrecodeError {
    fn from(e: DecodeError) -> Self {
        PrecodeError::Decode(e)
    }
}

impl From<LinalgError> for PrecodeError {
    fn from(e: LinalgError) -> Self {
        PrecodeError::Linalg(e)
    }
}

impl From<EmbeddingError> for PrecodeError {
    fn from(e: EmbeddingError) -> Self {
        PrecodeError::Decode(DecodeError::Embedding(e))
    }
}

/// Backend-specific statistics carried by a [`Precoding`].
#[derive(Clone, Debug)]
pub enum PrecodeStats {
    /// Plain ZF: no perturbation, nothing beyond the transmit power.
    Linear,
    /// Tomlinson–Harashima: greedy successive-modulo perturbation.
    Thp,
    /// Quantum-annealed VPP.
    Annealed {
        /// Fraction of broken chains across the anneal batch.
        chain_break_fraction: f64,
        /// Distinct logical solutions observed.
        num_distinct: usize,
        /// `true` when the `v = 0` floor beat every annealed sample —
        /// the session never transmits more power than plain ZF.
        zero_floor: bool,
    },
    /// Routed by a [`HybridPrecoder`].
    Hybrid {
        /// Which session produced the transmitted signal.
        route: Route,
        /// The primary's transmit power that drove the decision.
        primary_power: f64,
        /// The producing session's own statistics.
        inner: Box<PrecodeStats>,
    },
}

impl PrecodeStats {
    /// The hybrid routing decision, if this precoding was routed.
    pub fn route(&self) -> Option<Route> {
        match self {
            PrecodeStats::Hybrid { route, .. } => Some(*route),
            _ => None,
        }
    }
}

/// The uniform result of one precode: what every backend agrees to
/// report.
#[derive(Clone, Debug)]
pub struct Precoding {
    /// The antenna-domain transmit signal `P(u + τv)`, length `Nb`.
    pub x: CVector,
    /// The complex-integer perturbation `v`, length `Nu` (all zeros
    /// for plain ZF).
    pub perturbation: CVector,
    /// Transmit energy `‖x‖²` — the objective VPP minimizes.
    pub power: f64,
    /// Backend-specific statistics.
    pub stats: PrecodeStats,
}

impl Precoding {
    /// The hybrid routing decision, if this precoding was routed.
    pub fn route(&self) -> Option<Route> {
        self.stats.route()
    }
}

/// The per-coherence-interval side of a precoder: everything that
/// depends only on the channel estimate `H` (and the modulation) is
/// done in [`Precoder::compile`]; the returned session streams
/// per-user-symbol-vector precodes.
pub trait Precoder {
    /// The compiled per-interval state.
    type Session: PrecoderSession;

    /// Compiles the `H`-only work for one coherence interval.
    fn compile(&self, input: &PrecodeInput) -> Result<Self::Session, PrecodeError>;
}

/// The per-symbol-vector side of a precoder. `seed` drives any
/// randomness (annealer streams, unembedding tie-breaks) so a fixed
/// `(H, u, seed)` always reproduces the same [`Precoding`];
/// deterministic backends ignore it.
pub trait PrecoderSession {
    /// Precodes one user-symbol vector through the compiled state.
    fn precode(&mut self, u: &CVector, seed: u64) -> Result<Precoding, PrecodeError>;

    /// Modulation the session was compiled for.
    fn modulation(&self) -> Modulation;

    /// User streams per precode.
    fn num_users(&self) -> usize;

    /// The modulo base the receivers fold with.
    fn tau(&self) -> f64;

    /// A short static backend name (for reports and tables).
    fn backend_name(&self) -> &'static str;
}

impl<S: PrecoderSession + ?Sized> PrecoderSession for Box<S> {
    fn precode(&mut self, u: &CVector, seed: u64) -> Result<Precoding, PrecodeError> {
        (**self).precode(u, seed)
    }
    fn modulation(&self) -> Modulation {
        (**self).modulation()
    }
    fn num_users(&self) -> usize {
        (**self).num_users()
    }
    fn tau(&self) -> f64 {
        (**self).tau()
    }
    fn backend_name(&self) -> &'static str {
        (**self).backend_name()
    }
}

// --- The integer encoding -------------------------------------------

/// The two's-complement perturbation encoding `C`: each of the `2·Nu`
/// real dimensions of `v` expands into `t` magnitude bits of weight
/// `2^k` plus one sign bit of weight `−2^t`, covering the integer
/// range `[−2^t, 2^t − 1]` exactly once per codeword.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PerturbEncoding {
    num_users: usize,
    magnitude_bits: usize,
}

impl PerturbEncoding {
    /// An encoding for `num_users` complex perturbation entries with
    /// `magnitude_bits ≥ 1` magnitude bits per real dimension.
    pub fn new(num_users: usize, magnitude_bits: usize) -> Self {
        assert!(magnitude_bits >= 1, "need at least one magnitude bit");
        PerturbEncoding {
            num_users,
            magnitude_bits,
        }
    }

    /// Magnitude bits per real dimension (`t`).
    pub fn magnitude_bits(&self) -> usize {
        self.magnitude_bits
    }

    /// Bits per real dimension (`t + 1`, sign included).
    pub fn bits_per_dimension(&self) -> usize {
        self.magnitude_bits + 1
    }

    /// Total QUBO variables: `2·Nu·(t + 1)`.
    pub fn num_vars(&self) -> usize {
        2 * self.num_users * self.bits_per_dimension()
    }

    /// The signed weight of bit `k` within a dimension's group.
    pub fn weight(&self, k: usize) -> f64 {
        debug_assert!(k <= self.magnitude_bits);
        if k == self.magnitude_bits {
            -((1i64 << self.magnitude_bits) as f64)
        } else {
            (1i64 << k) as f64
        }
    }

    /// Smallest representable integer, `−2^t`.
    pub fn min_value(&self) -> i64 {
        -(1i64 << self.magnitude_bits)
    }

    /// Largest representable integer, `2^t − 1`.
    pub fn max_value(&self) -> i64 {
        (1i64 << self.magnitude_bits) - 1
    }

    /// Decodes a full QUBO bit string into the complex perturbation
    /// `v` (real dimensions `0..Nu` are real parts, `Nu..2Nu`
    /// imaginary parts).
    ///
    /// # Panics
    /// Panics when `bits.len() != num_vars()`.
    pub fn decode(&self, bits: &[u8]) -> CVector {
        assert_eq!(bits.len(), self.num_vars(), "encoding width mismatch");
        let group = self.bits_per_dimension();
        let dim = |r: usize| -> f64 {
            bits[r * group..(r + 1) * group]
                .iter()
                .enumerate()
                .map(|(k, &b)| self.weight(k) * b as f64)
                .sum()
        };
        CVector::from_fn(self.num_users, |c| {
            Complex::new(dim(c), dim(c + self.num_users))
        })
    }

    /// Encodes a complex-integer perturbation into QUBO bits, rounding
    /// each real dimension to the nearest integer and clamping into
    /// the representable range (warm starts from an out-of-range
    /// classical candidate land on the range boundary).
    pub fn encode(&self, v: &CVector) -> Vec<u8> {
        assert_eq!(v.len(), self.num_users, "perturbation length mismatch");
        let group = self.bits_per_dimension();
        let mut bits = vec![0u8; self.num_vars()];
        let mut write = |r: usize, value: f64| {
            let z = (value.round() as i64).clamp(self.min_value(), self.max_value());
            // Two's complement: negative values set the sign bit and
            // store `z + 2^t` in the magnitude bits.
            let mag = if z < 0 {
                bits[r * group + self.magnitude_bits] = 1;
                z + (1i64 << self.magnitude_bits)
            } else {
                z
            };
            for k in 0..self.magnitude_bits {
                bits[r * group + k] = ((mag >> k) & 1) as u8;
            }
        };
        for c in 0..self.num_users {
            write(c, v[c].re);
            write(c + self.num_users, v[c].im);
        }
        bits
    }
}

// --- The realified QUBO model ---------------------------------------

/// An entry of `G = Φ(W)` read straight off the complex Gram
/// `W = P*P`: `Φ(W) = [[Re W, −Im W], [Im W, Re W]]`, symmetric
/// because `W` is Hermitian.
fn g_entry(w: &CMatrix, nu: usize, r: usize, rp: usize) -> f64 {
    match (r < nu, rp < nu) {
        (true, true) => w[(r, rp)].re,
        (true, false) => -w[(r, rp - nu)].im,
        (false, true) => w[(r - nu, rp)].im,
        (false, false) => w[(r - nu, rp - nu)].re,
    }
}

/// The channel-only VPP model: the ZF precoding matrix `P`, its Gram
/// `W = P*P`, the modulo base `τ`, the integer encoding, and the
/// frozen quadratic QUBO template `τ²CᵀGC` — everything a coherence
/// interval shares. Per-`u` work ([`VppModel::qubo_for`]) only adds
/// linear (diagonal) terms `2τ·CᵀGφ(u)` and the scalar offset
/// `‖Pu‖²`, which is why the annealed session can refresh fields in
/// place without touching coupler structure.
#[derive(Clone, Debug)]
pub struct VppModel {
    p: CMatrix,
    w: CMatrix,
    tau: f64,
    modulation: Modulation,
    encoding: PerturbEncoding,
    quad: QuboProblem,
}

impl VppModel {
    /// Builds the model at the constellation's natural modulo base
    /// [`tau_for`].
    pub fn new(
        h: &CMatrix,
        modulation: Modulation,
        magnitude_bits: usize,
    ) -> Result<Self, PrecodeError> {
        Self::with_tau(h, modulation, magnitude_bits, tau_for(modulation))
    }

    /// Builds the model at an explicit modulo base `τ > 0` (property
    /// tests sweep it; receivers must fold with the same value).
    pub fn with_tau(
        h: &CMatrix,
        modulation: Modulation,
        magnitude_bits: usize,
        tau: f64,
    ) -> Result<Self, PrecodeError> {
        assert!(tau > 0.0, "modulo base must be positive");
        let nu = h.rows();
        // P = H*(HH*)⁻¹ via the pseudo-inverse of H* (antennas ≥ users
        // required, like any ZF precoder): (H*)⁺ = (HH*)⁻¹H, and its
        // Hermitian transpose is P.
        let p = pseudo_inverse(&h.hermitian())?.hermitian();
        let w = p.gram();
        let encoding = PerturbEncoding::new(nu, magnitude_bits);

        // τ²CᵀGC — the u-independent quadratic template. Exact zeros
        // (e.g. Im W_rr = 0 on the cross-block diagonal) are skipped so
        // the coupling sparsity matches what the embedding programs.
        let group = encoding.bits_per_dimension();
        let n = encoding.num_vars();
        let mut quad = QuboProblem::new(n);
        for i in 0..n {
            let (r, k) = (i / group, i % group);
            let wk = encoding.weight(k);
            quad.add_diagonal(i, tau * tau * wk * wk * g_entry(&w, nu, r, r));
            for j in (i + 1)..n {
                let (rp, kp) = (j / group, j % group);
                let value = 2.0 * tau * tau * wk * encoding.weight(kp) * g_entry(&w, nu, r, rp);
                if value != 0.0 {
                    quad.set_off_diagonal(i, j, value);
                }
            }
        }
        Ok(VppModel {
            p,
            w,
            tau,
            modulation,
            encoding,
            quad,
        })
    }

    /// The ZF precoding matrix `P` (antennas × users).
    pub fn precoding_matrix(&self) -> &CMatrix {
        &self.p
    }

    /// The modulo base.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The constellation the model was built for.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// The integer perturbation encoding.
    pub fn encoding(&self) -> &PerturbEncoding {
        &self.encoding
    }

    /// User streams.
    pub fn num_users(&self) -> usize {
        self.encoding.num_users
    }

    /// QUBO variables per precode.
    pub fn num_vars(&self) -> usize {
        self.encoding.num_vars()
    }

    /// The full QUBO for one user-symbol vector plus its scalar
    /// offset: `energy(bits) + offset = ‖P(u + τ·decode(bits))‖²`
    /// for every bit string (property-tested across encodings).
    pub fn qubo_for(&self, u: &CVector) -> (QuboProblem, f64) {
        assert_eq!(u.len(), self.num_users(), "symbol vector length mismatch");
        let mut qubo = self.quad.clone();
        // 2τ·CᵀGφ(u): G·φ(u) = φ(Wu) by the realification identities.
        let wu = self.w.mul_vec(u);
        let nu = self.num_users();
        let group = self.encoding.bits_per_dimension();
        for i in 0..self.num_vars() {
            let (r, k) = (i / group, i % group);
            let g = if r < nu { wu[r].re } else { wu[r - nu].im };
            qubo.add_diagonal(i, 2.0 * self.tau * self.encoding.weight(k) * g);
        }
        (qubo, self.p.mul_vec(u).norm_sqr())
    }

    /// The transmit signal `x = P(u + τv)`.
    pub fn transmit(&self, u: &CVector, v: &CVector) -> CVector {
        assert_eq!(u.len(), self.num_users(), "symbol vector length mismatch");
        assert_eq!(v.len(), self.num_users(), "perturbation length mismatch");
        let perturbed = CVector::from_fn(u.len(), |i| u[i] + v[i].scale(self.tau));
        self.p.mul_vec(&perturbed)
    }

    /// The objective `E(v) = ‖P(u + τv)‖²` evaluated directly.
    pub fn direct_energy(&self, u: &CVector, v: &CVector) -> f64 {
        self.transmit(u, v).norm_sqr()
    }

    /// Decodes QUBO bits into the complex perturbation.
    pub fn decode_perturbation(&self, bits: &[u8]) -> CVector {
        self.encoding.decode(bits)
    }

    /// Encodes a perturbation into QUBO bits (see
    /// [`PerturbEncoding::encode`]).
    pub fn encode_perturbation(&self, v: &CVector) -> Vec<u8> {
        self.encoding.encode(v)
    }
}

// --- The annealed VPP backend ---------------------------------------

/// The annealed VPP precoder: an annealer plus chip model plus the
/// decoder-side configuration (embedding parameters, schedule) it
/// shares with the uplink.
pub struct VppPrecoder {
    annealer: Annealer,
    graph: ChimeraGraph,
    config: DecoderConfig,
    anneals: usize,
    magnitude_bits: usize,
}

impl VppPrecoder {
    /// A VPP precoder on an ideal DW2Q chip.
    pub fn new(
        annealer: Annealer,
        config: DecoderConfig,
        anneals: usize,
        magnitude_bits: usize,
    ) -> Self {
        VppPrecoder {
            annealer,
            graph: ChimeraGraph::dw2q_ideal(),
            config,
            anneals,
            magnitude_bits,
        }
    }

    /// A VPP precoder on a specific chip (e.g. with a defect map).
    pub fn with_graph(
        annealer: Annealer,
        graph: ChimeraGraph,
        config: DecoderConfig,
        anneals: usize,
        magnitude_bits: usize,
    ) -> Self {
        VppPrecoder {
            annealer,
            graph,
            config,
            anneals,
            magnitude_bits,
        }
    }
}

impl Precoder for VppPrecoder {
    type Session = VppSession;

    /// Compiles the channel-dependent (per-coherence-interval) part of
    /// the precode once. The representative logical problem is the
    /// `u = 0` program; its coupling sparsity is `u`-independent (the
    /// quadratic QUBO block never changes), so the embedding, the
    /// chain layout, and the CSR coupler slots serve every symbol
    /// vector of the interval.
    fn compile(&self, input: &PrecodeInput) -> Result<VppSession, PrecodeError> {
        let model = VppModel::new(&input.h, input.modulation, self.magnitude_bits)?;
        let (logical, _) = qubo_to_ising(&model.quad);
        let core = AnnealCore::compile(
            self.annealer.clone(),
            Telemetry::disabled(),
            &self.graph,
            &logical,
            self.config.embed,
        )?;
        Ok(VppSession {
            scratch: core.scratch(),
            core,
            schedule: self.config.schedule,
            anneals: self.anneals,
            model,
        })
    }
}

/// A compiled VPP session: the `H`-dependent work (realified QUBO
/// structure, Chimera embedding, CSR freeze, chain tables) done once,
/// with per-`u` precodes reduced to an in-place linear-field/scale
/// refresh plus the anneal batch itself — the downlink twin of
/// `DecodeSession`, sharing its annealed core, plus the `v = 0` floor:
/// the session never returns a perturbation that costs more transmit
/// power than plain ZF on the same symbols.
pub struct VppSession {
    core: AnnealCore,
    scratch: CompiledProblem,
    schedule: Schedule,
    anneals: usize,
    model: VppModel,
}

impl VppSession {
    /// Modulation the session was compiled for.
    pub fn modulation(&self) -> Modulation {
        self.model.modulation()
    }

    /// User streams per precode.
    pub fn num_users(&self) -> usize {
        self.model.num_users()
    }

    /// The modulo base receivers fold with.
    pub fn tau(&self) -> f64 {
        self.model.tau()
    }

    /// Logical Ising variables per precode (`2·Nu·(t+1)`).
    pub fn num_logical(&self) -> usize {
        self.core.num_logical()
    }

    /// Physical qubits occupied by the compiled embedding.
    pub fn num_physical(&self) -> usize {
        self.core.num_physical()
    }

    /// Geometric chip parallelization factor of this problem size:
    /// symbol vectors one anneal wave precodes side by side (same `H`,
    /// per-tile fields).
    pub fn parallel_factor(&self) -> usize {
        self.core.parallel_factor()
    }

    /// The underlying channel model (QUBO construction, direct
    /// energies, encode/decode helpers).
    pub fn model(&self) -> &VppModel {
        &self.model
    }

    /// Precodes one symbol vector with a fixed seed — the streaming
    /// entry point (`seed` covers both the anneal batch and the
    /// unembedding tie-breaks).
    pub fn precode(&mut self, u: &CVector, seed: u64) -> Precoding {
        self.run(u, None, seed)
    }

    /// Reverse-anneal precode from a classical candidate perturbation
    /// under a supplied reverse schedule — the warm-start entry: the
    /// session stays compiled for its forward operating point, and a
    /// THP (or previous-interval) perturbation is refined by annealing
    /// backwards from it without recompiling anything. Out-of-range
    /// candidate entries are clamped into the encoding's range.
    /// Deterministic in `seed` exactly like [`VppSession::precode`].
    ///
    /// # Panics
    /// Panics when the candidate length differs from the user count,
    /// or `schedule` is not reverse.
    pub fn precode_reverse_from(
        &mut self,
        u: &CVector,
        candidate: &CVector,
        schedule: &Schedule,
        seed: u64,
    ) -> Precoding {
        assert!(
            schedule.is_reverse(),
            "precode_reverse_from needs a Schedule::reverse schedule"
        );
        assert_eq!(
            candidate.len(),
            self.num_users(),
            "candidate perturbation length mismatch"
        );
        self.run(u, Some((candidate, schedule)), seed)
    }

    /// Precodes a batch of `(u, seed)` pairs — one coherence
    /// interval's worth of downlink symbol vectors — through the same
    /// single batched device call as `DecodeSession::decode_batch`
    /// (threads shard the flattened anneals). Results are
    /// bit-identical to calling [`VppSession::precode`] item by item,
    /// regardless of batch width or worker count (same per-item seeded
    /// RNG streams).
    pub fn precode_batch(&self, items: &[(CVector, u64)]) -> Vec<Precoding> {
        self.core
            .run_batch(items, &self.schedule, self.anneals, |u| self.reduce(u))
            .into_iter()
            .zip(items)
            .map(|(annealed, (u, _))| self.finish(u, annealed))
            .collect()
    }

    /// The logical problem for `u` and the total additive offset
    /// linking its Ising energies to transmit power:
    /// `E_ising + offset = ‖P(u + τv)‖²`.
    fn reduce(&self, u: &CVector) -> (IsingProblem, f64) {
        let (qubo, power_offset) = self.model.qubo_for(u);
        let (logical, conversion_offset) = qubo_to_ising(&qubo);
        (logical, conversion_offset + power_offset)
    }

    /// One precode: forward under the session's schedule, or backwards
    /// from a candidate perturbation under the given reverse schedule.
    fn run(&mut self, u: &CVector, reverse: Option<(&CVector, &Schedule)>, seed: u64) -> Precoding {
        let schedule = reverse.map_or(self.schedule, |(_, s)| *s);
        let reduced = self.reduce(u);
        let start =
            reverse.map(|(candidate, _)| bits_to_spins(&self.model.encode_perturbation(candidate)));
        let annealed = self.core.run(
            &mut self.scratch,
            reduced,
            start.as_deref(),
            &schedule,
            self.anneals,
            &mut StdRng::seed_from_u64(seed),
        );
        self.finish(u, annealed)
    }

    /// The best annealed perturbation (logical energy and transmit
    /// power rank identically — they differ by the constant offset),
    /// guarded by the `v = 0` power floor.
    fn finish(&self, u: &CVector, annealed: Annealed) -> Precoding {
        let offset = annealed.offset;
        let best = annealed.distribution.best_solution().map(|entry| {
            let v = self.model.decode_perturbation(&spins_to_bits(&entry.spins));
            let power = self.model.direct_energy(u, &v);
            debug_assert!(
                (entry.energy + offset - power).abs() <= 1e-6 * power.abs().max(1.0),
                "Ising energy + offset must equal transmit power"
            );
            (v, power)
        });
        let zero = CVector::zeros(self.model.num_users());
        let zero_power = self.model.direct_energy(u, &zero);
        let (v, power, zero_floor) = match best {
            Some((v, power)) if power < zero_power => (v, power, false),
            _ => (zero, zero_power, true),
        };
        Precoding {
            x: self.model.transmit(u, &v),
            perturbation: v,
            power,
            stats: PrecodeStats::Annealed {
                chain_break_fraction: annealed.chain_break_fraction,
                num_distinct: annealed.distribution.num_distinct(),
                zero_floor,
            },
        }
    }
}

impl PrecoderSession for VppSession {
    fn precode(&mut self, u: &CVector, seed: u64) -> Result<Precoding, PrecodeError> {
        Ok(VppSession::precode(self, u, seed))
    }
    fn modulation(&self) -> Modulation {
        VppSession::modulation(self)
    }
    fn num_users(&self) -> usize {
        VppSession::num_users(self)
    }
    fn tau(&self) -> f64 {
        VppSession::tau(self)
    }
    fn backend_name(&self) -> &'static str {
        "vpp"
    }
}

// --- Classical baselines --------------------------------------------

/// Plain zero-forcing precoding: `x = Pu`, no perturbation — the
/// `τ → ∞` limit of VPP and the non-VPP baseline every benchmark
/// compares against.
pub struct ZfPrecoder;

/// Session for [`ZfPrecoder`].
pub struct ZfPrecodeSession {
    model: VppModel,
}

impl Precoder for ZfPrecoder {
    type Session = ZfPrecodeSession;

    fn compile(&self, input: &PrecodeInput) -> Result<ZfPrecodeSession, PrecodeError> {
        // Reuses the model's P so the zero-perturbation VPP transmit
        // is bit-identical to this baseline (property-tested).
        Ok(ZfPrecodeSession {
            model: VppModel::new(&input.h, input.modulation, 1)?,
        })
    }
}

impl PrecoderSession for ZfPrecodeSession {
    fn precode(&mut self, u: &CVector, _seed: u64) -> Result<Precoding, PrecodeError> {
        let zero = CVector::zeros(self.model.num_users());
        let x = self.model.transmit(u, &zero);
        let power = x.norm_sqr();
        Ok(Precoding {
            x,
            perturbation: zero,
            power,
            stats: PrecodeStats::Linear,
        })
    }
    fn modulation(&self) -> Modulation {
        self.model.modulation()
    }
    fn num_users(&self) -> usize {
        self.model.num_users()
    }
    fn tau(&self) -> f64 {
        self.model.tau()
    }
    fn backend_name(&self) -> &'static str {
        "zf"
    }
}

/// Tomlinson–Harashima precoding: the classical successive-modulo
/// baseline. With `W = P*P = LL*` (Cholesky) and `U = L*` upper
/// triangular, `E(v) = ‖U(u + τv)‖²`; processing users last-to-first
/// and rounding each dimension greedily is exactly the THP feedback
/// loop, and yields an integer perturbation cheaper than ZF's `v = 0`
/// on most channels (but not all — greed is not optimal, which is the
/// annealed backend's opening).
pub struct ThpPrecoder;

/// Session for [`ThpPrecoder`].
pub struct ThpPrecodeSession {
    model: VppModel,
    /// `U = L*` from `W = LL*` — the triangular factor the greedy
    /// back-substitution walks.
    upper: CMatrix,
}

impl Precoder for ThpPrecoder {
    type Session = ThpPrecodeSession;

    fn compile(&self, input: &PrecodeInput) -> Result<ThpPrecodeSession, PrecodeError> {
        let model = VppModel::new(&input.h, input.modulation, 1)?;
        let upper = cholesky(&model.w)?.hermitian();
        Ok(ThpPrecodeSession { model, upper })
    }
}

impl ThpPrecodeSession {
    /// The greedy perturbation alone (used as a reverse-anneal warm
    /// start for [`VppSession::precode_reverse_from`]).
    pub fn perturbation(&self, u: &CVector) -> CVector {
        let nu = self.model.num_users();
        let tau = self.model.tau();
        let mut v = vec![Complex::ZERO; nu];
        // a[j] = u[j] + τ·v[j] for already-decided users.
        let mut a = vec![Complex::ZERO; nu];
        for i in (0..nu).rev() {
            let mut carry = Complex::ZERO;
            for (j, aj) in a.iter().enumerate().skip(i + 1) {
                carry += self.upper[(i, j)] * *aj;
            }
            // Cholesky diagonals are real and positive.
            let z = u[i] + carry.scale(1.0 / self.upper[(i, i)].re);
            v[i] = Complex::new(-(z.re / tau).round(), -(z.im / tau).round());
            a[i] = u[i] + v[i].scale(tau);
        }
        CVector::from_vec(v)
    }
}

impl PrecoderSession for ThpPrecodeSession {
    fn precode(&mut self, u: &CVector, _seed: u64) -> Result<Precoding, PrecodeError> {
        let v = self.perturbation(u);
        let x = self.model.transmit(u, &v);
        let power = x.norm_sqr();
        Ok(Precoding {
            x,
            perturbation: v,
            power,
            stats: PrecodeStats::Thp,
        })
    }
    fn modulation(&self) -> Modulation {
        self.model.modulation()
    }
    fn num_users(&self) -> usize {
        self.model.num_users()
    }
    fn tau(&self) -> f64 {
        self.model.tau()
    }
    fn backend_name(&self) -> &'static str {
        "thp"
    }
}

// --- The hybrid router ----------------------------------------------

/// When a [`HybridPrecoder`] escalates: the primary's realized
/// transmit power per antenna is the downlink's confidence residual —
/// a near-singular channel makes `‖Pu‖²` blow up, and exactly those
/// instances are where perturbation search pays.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrecodePolicy {
    /// Maximum accepted transmit power per antenna.
    pub max_power_per_antenna: f64,
}

impl PrecodePolicy {
    /// A policy from an absolute per-antenna power bound.
    pub fn new(max_power_per_antenna: f64) -> Self {
        assert!(
            max_power_per_antenna >= 0.0,
            "power bound must be non-negative"
        );
        PrecodePolicy {
            max_power_per_antenna,
        }
    }
}

/// The hybrid classical–quantum precoding router, mirroring
/// [`DetectorKind::Hybrid`](crate::detect::DetectorKind::Hybrid): a
/// cheap `primary` (typically ZF or THP) answers every symbol vector,
/// and only high-power answers are re-precoded by the expensive
/// `fallback` (typically annealed VPP).
/// Availability degrades exactly like the detection router: a side
/// that cannot compile routes everything to the other, and a
/// per-vector fallback failure returns the primary's answer.
pub struct HybridPrecoder {
    primary: PrecoderKind,
    fallback: PrecoderKind,
    policy: PrecodePolicy,
}

impl HybridPrecoder {
    /// A router sending high-power `primary` answers to `fallback`.
    pub fn new(primary: PrecoderKind, fallback: PrecoderKind, policy: PrecodePolicy) -> Self {
        HybridPrecoder {
            primary,
            fallback,
            policy,
        }
    }
}

/// Session for [`HybridPrecoder`]: both sub-sessions compiled up
/// front; either side may be `None` when its backend could not compile
/// on this channel.
pub struct HybridPrecodeSession {
    primary: Option<Box<dyn PrecoderSession>>,
    fallback: Option<Box<dyn PrecoderSession>>,
    policy: PrecodePolicy,
    antennas: usize,
}

impl Precoder for HybridPrecoder {
    type Session = HybridPrecodeSession;

    fn compile(&self, input: &PrecodeInput) -> Result<HybridPrecodeSession, PrecodeError> {
        let primary = self.primary.compile(input).ok();
        let fallback = match self.fallback.compile(input) {
            Ok(session) => Some(session),
            Err(e) if primary.is_none() => return Err(e),
            Err(_) => None,
        };
        Ok(HybridPrecodeSession {
            primary,
            fallback,
            policy: self.policy,
            antennas: input.antennas(),
        })
    }
}

impl HybridPrecodeSession {
    fn wrap(precoding: Precoding, route: Route, primary_power: f64) -> Precoding {
        Precoding {
            x: precoding.x,
            perturbation: precoding.perturbation,
            power: precoding.power,
            stats: PrecodeStats::Hybrid {
                route,
                primary_power,
                inner: Box::new(precoding.stats),
            },
        }
    }
}

impl PrecoderSession for HybridPrecodeSession {
    fn precode(&mut self, u: &CVector, seed: u64) -> Result<Precoding, PrecodeError> {
        let first = match self.primary.as_mut() {
            Some(session) => match session.precode(u, seed) {
                Ok(precoding) => Some(precoding),
                Err(e) if self.fallback.is_none() => return Err(e),
                Err(_) => None,
            },
            None => None,
        };
        let Some(first) = first else {
            let session = self
                .fallback
                .as_mut()
                .expect("compile keeps at least one side");
            let second = session.precode(u, seed)?;
            return Ok(Self::wrap(second, Route::Fallback, f64::INFINITY));
        };
        let primary_power = first.power;
        let per_antenna = primary_power / self.antennas.max(1) as f64;
        let Some(fallback) = self.fallback.as_mut() else {
            return Ok(Self::wrap(first, Route::Primary, primary_power));
        };
        if per_antenna <= self.policy.max_power_per_antenna {
            return Ok(Self::wrap(first, Route::Primary, primary_power));
        }
        match fallback.precode(u, seed) {
            Ok(second) => Ok(Self::wrap(second, Route::Fallback, primary_power)),
            Err(_) => Ok(Self::wrap(first, Route::Primary, primary_power)),
        }
    }
    fn modulation(&self) -> Modulation {
        self.fallback
            .as_ref()
            .or(self.primary.as_ref())
            .expect("compile keeps at least one side")
            .modulation()
    }
    fn num_users(&self) -> usize {
        self.fallback
            .as_ref()
            .or(self.primary.as_ref())
            .expect("compile keeps at least one side")
            .num_users()
    }
    fn tau(&self) -> f64 {
        self.fallback
            .as_ref()
            .or(self.primary.as_ref())
            .expect("compile keeps at least one side")
            .tau()
    }
    fn backend_name(&self) -> &'static str {
        "hybrid"
    }
}

// --- The registry ---------------------------------------------------

/// Every precoder backend as one constructible value — the downlink
/// mirror of `DetectorKind`. The modulation always comes from the
/// [`PrecodeInput`] at compile time.
#[derive(Clone)]
pub enum PrecoderKind {
    /// Plain zero-forcing (no perturbation).
    ZeroForcing,
    /// Tomlinson–Harashima successive-modulo precoding.
    Thp,
    /// The quantum-annealed VPP precoder.
    Vpp {
        /// The (simulated) annealing machine.
        annealer: Annealer,
        /// Embedding and schedule parameters (shared with the uplink
        /// decoder stack).
        config: DecoderConfig,
        /// Anneal cycles per precode.
        anneals: usize,
        /// Magnitude bits per real perturbation dimension (`t ≥ 1`).
        magnitude_bits: usize,
    },
    /// The hybrid classical–quantum router.
    Hybrid {
        /// The cheap first-pass precoder.
        primary: Box<PrecoderKind>,
        /// The expensive fallback precoder.
        fallback: Box<PrecoderKind>,
        /// The power policy gating the fallback.
        policy: PrecodePolicy,
    },
}

impl PrecoderKind {
    /// Zero-forcing.
    pub fn zf() -> Self {
        PrecoderKind::ZeroForcing
    }

    /// Tomlinson–Harashima.
    pub fn thp() -> Self {
        PrecoderKind::Thp
    }

    /// The annealed VPP precoder.
    pub fn vpp(
        annealer: Annealer,
        config: DecoderConfig,
        anneals: usize,
        magnitude_bits: usize,
    ) -> Self {
        PrecoderKind::Vpp {
            annealer,
            config,
            anneals,
            magnitude_bits,
        }
    }

    /// A hybrid router over two other kinds.
    pub fn hybrid(primary: PrecoderKind, fallback: PrecoderKind, policy: PrecodePolicy) -> Self {
        PrecoderKind::Hybrid {
            primary: Box::new(primary),
            fallback: Box::new(fallback),
            policy,
        }
    }

    /// The backend's short name (matches
    /// [`PrecoderSession::backend_name`]).
    pub fn name(&self) -> &'static str {
        match self {
            PrecoderKind::ZeroForcing => "zf",
            PrecoderKind::Thp => "thp",
            PrecoderKind::Vpp { .. } => "vpp",
            PrecoderKind::Hybrid { .. } => "hybrid",
        }
    }
}

impl Precoder for PrecoderKind {
    type Session = Box<dyn PrecoderSession>;

    fn compile(&self, input: &PrecodeInput) -> Result<Box<dyn PrecoderSession>, PrecodeError> {
        Ok(match self {
            PrecoderKind::ZeroForcing => Box::new(ZfPrecoder.compile(input)?),
            PrecoderKind::Thp => Box::new(ThpPrecoder.compile(input)?),
            PrecoderKind::Vpp {
                annealer,
                config,
                anneals,
                magnitude_bits,
            } => Box::new(
                VppPrecoder::new(annealer.clone(), *config, *anneals, *magnitude_bits)
                    .compile(input)?,
            ),
            PrecoderKind::Hybrid {
                primary,
                fallback,
                policy,
            } => Box::new(
                HybridPrecoder::new((**primary).clone(), (**fallback).clone(), *policy)
                    .compile(input)?,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamax_anneal::{AnnealerConfig, IceModel};
    use quamax_wireless::rayleigh_channel;
    use rand::Rng;

    fn quiet_annealer() -> Annealer {
        Annealer::new(AnnealerConfig {
            ice: IceModel::none(),
            sweeps_per_us: 50.0,
            ..Default::default()
        })
    }

    fn vpp_config() -> DecoderConfig {
        DecoderConfig {
            schedule: Schedule::standard(10.0),
            ..Default::default()
        }
    }

    fn input(nu: usize, nb: usize, m: Modulation, seed: u64) -> PrecodeInput {
        let mut rng = StdRng::seed_from_u64(seed);
        PrecodeInput {
            h: rayleigh_channel(nu, nb, &mut rng),
            modulation: m,
        }
    }

    fn random_symbols(input: &PrecodeInput, rng: &mut StdRng) -> (Vec<u8>, CVector) {
        let bits: Vec<u8> = (0..input.num_bits())
            .map(|_| rng.random_range(0..2))
            .collect();
        let u = input.modulation.map_gray_vector(&bits);
        (bits, u)
    }

    #[test]
    fn precoding_matrix_inverts_the_channel() {
        let input = input(3, 5, Modulation::Qpsk, 1);
        let model = VppModel::new(&input.h, input.modulation, 1).unwrap();
        let hp = input.h.mul_mat(model.precoding_matrix());
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!((hp[(r, c)].re - expect).abs() < 1e-9, "HP[{r}{c}]");
                assert!(hp[(r, c)].im.abs() < 1e-9, "HP[{r}{c}] imag");
            }
        }
    }

    #[test]
    fn under_determined_channel_is_rejected() {
        // More users than antennas: no ZF inverse.
        let input = input(4, 2, Modulation::Bpsk, 2);
        match VppModel::new(&input.h, input.modulation, 1) {
            Err(PrecodeError::Linalg(LinalgError::ShapeMismatch)) => {}
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn qubo_energy_matches_direct_energy_spot_check() {
        let input = input(3, 4, Modulation::Qam16, 3);
        let mut rng = StdRng::seed_from_u64(30);
        for t in 1..=3usize {
            let model = VppModel::new(&input.h, input.modulation, t).unwrap();
            let (_, u) = random_symbols(&input, &mut rng);
            let (qubo, offset) = model.qubo_for(&u);
            for _ in 0..10 {
                let bits: Vec<u8> = (0..model.num_vars())
                    .map(|_| rng.random_range(0..2))
                    .collect();
                let v = model.decode_perturbation(&bits);
                let direct = model.direct_energy(&u, &v);
                let via_qubo = qubo.energy(&bits) + offset;
                assert!(
                    (via_qubo - direct).abs() <= 1e-8 * direct.max(1.0),
                    "t={t}: {via_qubo} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn ising_energy_plus_offset_matches_direct_energy() {
        // The session's program() contract end to end: QUBO→Ising
        // conversion offset plus ‖Pu‖² links logical energies to
        // transmit power.
        let input = input(2, 3, Modulation::Qpsk, 4);
        let model = VppModel::new(&input.h, input.modulation, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(40);
        let (_, u) = random_symbols(&input, &mut rng);
        let (qubo, power_offset) = model.qubo_for(&u);
        let (ising, conversion) = qubo_to_ising(&qubo);
        for _ in 0..10 {
            let bits: Vec<u8> = (0..model.num_vars())
                .map(|_| rng.random_range(0..2))
                .collect();
            let spins = bits_to_spins(&bits);
            let direct = model.direct_energy(&u, &model.decode_perturbation(&bits));
            let via_ising = ising.energy(&spins) + conversion + power_offset;
            assert!(
                (via_ising - direct).abs() <= 1e-8 * direct.max(1.0),
                "{via_ising} vs {direct}"
            );
        }
    }

    #[test]
    fn encoding_round_trips_every_value_in_range() {
        for t in 1..=3usize {
            let enc = PerturbEncoding::new(2, t);
            for re in enc.min_value()..=enc.max_value() {
                for im in [enc.min_value(), 0, enc.max_value()] {
                    let v = CVector::from_vec(vec![
                        Complex::new(re as f64, im as f64),
                        Complex::new(im as f64, re as f64),
                    ]);
                    let bits = enc.encode(&v);
                    let back = enc.decode(&bits);
                    for i in 0..2 {
                        assert_eq!(back[i].re, v[i].re, "t={t}");
                        assert_eq!(back[i].im, v[i].im, "t={t}");
                    }
                }
            }
        }
    }

    #[test]
    fn encoding_clamps_out_of_range_candidates() {
        let enc = PerturbEncoding::new(1, 1);
        let v = CVector::from_vec(vec![Complex::new(7.0, -9.0)]);
        let back = enc.decode(&enc.encode(&v));
        assert_eq!(back[0].re, enc.max_value() as f64);
        assert_eq!(back[0].im, enc.min_value() as f64);
    }

    #[test]
    fn zero_perturbation_is_bit_identical_to_zf() {
        let input = input(3, 4, Modulation::Qpsk, 5);
        let model = VppModel::new(&input.h, input.modulation, 1).unwrap();
        let mut zf = ZfPrecoder.compile(&input).unwrap();
        let mut rng = StdRng::seed_from_u64(50);
        for _ in 0..5 {
            let (_, u) = random_symbols(&input, &mut rng);
            let zero = CVector::zeros(3);
            let via_model = model.transmit(&u, &zero);
            let via_zf = zf.precode(&u, 0).unwrap();
            for i in 0..via_model.len() {
                assert_eq!(via_model[i].re.to_bits(), via_zf.x[i].re.to_bits());
                assert_eq!(via_model[i].im.to_bits(), via_zf.x[i].im.to_bits());
            }
        }
    }

    #[test]
    fn vpp_session_never_exceeds_zf_power() {
        // The v = 0 floor: annealed VPP is at most ZF's transmit
        // power on every single instance.
        let input = input(4, 4, Modulation::Qpsk, 6);
        let mut vpp = VppPrecoder::new(quiet_annealer(), vpp_config(), 40, 1)
            .compile(&input)
            .unwrap();
        let mut zf = ZfPrecoder.compile(&input).unwrap();
        let mut rng = StdRng::seed_from_u64(60);
        for k in 0..6u64 {
            let (_, u) = random_symbols(&input, &mut rng);
            let a = VppSession::precode(&mut vpp, &u, 600 + k);
            let z = zf.precode(&u, 0).unwrap();
            assert!(
                a.power <= z.power + 1e-9,
                "vpp {} vs zf {}",
                a.power,
                z.power
            );
        }
    }

    #[test]
    fn vpp_beats_zf_power_on_ill_conditioned_channels() {
        // Averaged over draws the perturbation search must find real
        // savings (this is the whole point of VPP).
        let input = input(4, 4, Modulation::Qpsk, 7);
        let mut vpp = VppPrecoder::new(quiet_annealer(), vpp_config(), 60, 1)
            .compile(&input)
            .unwrap();
        let mut zf = ZfPrecoder.compile(&input).unwrap();
        let mut rng = StdRng::seed_from_u64(70);
        let mut vpp_total = 0.0;
        let mut zf_total = 0.0;
        for k in 0..8u64 {
            let (_, u) = random_symbols(&input, &mut rng);
            vpp_total += VppSession::precode(&mut vpp, &u, 700 + k).power;
            zf_total += zf.precode(&u, 0).unwrap().power;
        }
        assert!(
            vpp_total < zf_total,
            "vpp {vpp_total} should beat zf {zf_total}"
        );
    }

    #[test]
    fn noiseless_receivers_recover_bits_from_every_backend() {
        // r = Hx = u + τv exactly; the mod-τ fold plus demap must
        // return the transmitted bits for ZF, THP, VPP, and hybrid.
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let input = input(3, 4, m, 8);
            let kinds = [
                PrecoderKind::zf(),
                PrecoderKind::thp(),
                PrecoderKind::vpp(quiet_annealer(), vpp_config(), 30, 1),
                PrecoderKind::hybrid(
                    PrecoderKind::zf(),
                    PrecoderKind::vpp(quiet_annealer(), vpp_config(), 30, 1),
                    PrecodePolicy::new(1.0),
                ),
            ];
            for kind in kinds {
                let mut session = kind.compile(&input).unwrap();
                let mut rng = StdRng::seed_from_u64(80);
                for k in 0..3u64 {
                    let (bits, u) = random_symbols(&input, &mut rng);
                    let out = session.precode(&u, 800 + k).unwrap();
                    let r = input.h.mul_vec(&out.x);
                    let folded = fold_mod_tau(&r, session.tau());
                    let decoded = m.demap_gray_vector(&folded);
                    assert_eq!(decoded, bits, "{} on {}", kind.name(), m.name());
                }
            }
        }
    }

    #[test]
    fn thp_reduces_average_power_vs_zf() {
        let input = input(4, 4, Modulation::Qpsk, 9);
        let mut thp = ThpPrecoder.compile(&input).unwrap();
        let mut zf = ZfPrecoder.compile(&input).unwrap();
        let mut rng = StdRng::seed_from_u64(90);
        let mut thp_total = 0.0;
        let mut zf_total = 0.0;
        for _ in 0..12 {
            let (_, u) = random_symbols(&input, &mut rng);
            thp_total += thp.precode(&u, 0).unwrap().power;
            zf_total += zf.precode(&u, 0).unwrap().power;
        }
        assert!(
            thp_total < zf_total,
            "thp {thp_total} should beat zf {zf_total}"
        );
    }

    #[test]
    fn batch_precode_is_bit_identical_to_sequential() {
        let input = input(3, 3, Modulation::Qpsk, 10);
        let mut session = VppPrecoder::new(quiet_annealer(), vpp_config(), 25, 1)
            .compile(&input)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(100);
        let items: Vec<(CVector, u64)> = (0..5u64)
            .map(|k| (random_symbols(&input, &mut rng).1, 9_000 + k))
            .collect();
        let batch = session.precode_batch(&items);
        assert_eq!(batch.len(), items.len());
        for (run, (u, seed)) in batch.iter().zip(&items) {
            let single = VppSession::precode(&mut session, u, *seed);
            assert_eq!(run.power.to_bits(), single.power.to_bits());
            for i in 0..run.perturbation.len() {
                assert_eq!(run.perturbation[i].re, single.perturbation[i].re);
                assert_eq!(run.perturbation[i].im, single.perturbation[i].im);
            }
        }
    }

    #[test]
    fn reverse_warm_start_from_thp_is_deterministic_and_floored() {
        let input = input(4, 4, Modulation::Qpsk, 11);
        let mut vpp = VppPrecoder::new(quiet_annealer(), vpp_config(), 30, 1)
            .compile(&input)
            .unwrap();
        let thp = ThpPrecoder.compile(&input).unwrap();
        let mut zf = ZfPrecoder.compile(&input).unwrap();
        let reverse = Schedule::reverse(2.0, 0.6, 2.0);
        let mut rng = StdRng::seed_from_u64(110);
        for k in 0..4u64 {
            let (_, u) = random_symbols(&input, &mut rng);
            let candidate = thp.perturbation(&u);
            let a = vpp.precode_reverse_from(&u, &candidate, &reverse, 1_100 + k);
            let b = vpp.precode_reverse_from(&u, &candidate, &reverse, 1_100 + k);
            assert_eq!(a.power.to_bits(), b.power.to_bits());
            let z = zf.precode(&u, 0).unwrap();
            assert!(a.power <= z.power + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "Schedule::reverse")]
    fn reverse_warm_start_rejects_forward_schedules() {
        let input = input(2, 2, Modulation::Bpsk, 12);
        let mut vpp = VppPrecoder::new(quiet_annealer(), vpp_config(), 5, 1)
            .compile(&input)
            .unwrap();
        let candidate = CVector::zeros(2);
        let _ = vpp.precode_reverse_from(&candidate, &candidate, &Schedule::standard(1.0), 1);
    }

    #[test]
    fn hybrid_routes_by_transmit_power() {
        let input = input(3, 4, Modulation::Qpsk, 13);
        let mut rng = StdRng::seed_from_u64(130);
        let (_, u) = random_symbols(&input, &mut rng);
        // A boundless budget keeps every vector on the ZF primary…
        let mut lenient = PrecoderKind::hybrid(
            PrecoderKind::zf(),
            PrecoderKind::thp(),
            PrecodePolicy::new(f64::INFINITY),
        )
        .compile(&input)
        .unwrap();
        assert_eq!(
            lenient.precode(&u, 1).unwrap().route(),
            Some(Route::Primary)
        );
        // …and a zero budget escalates everything.
        let mut strict = PrecoderKind::hybrid(
            PrecoderKind::zf(),
            PrecoderKind::thp(),
            PrecodePolicy::new(0.0),
        )
        .compile(&input)
        .unwrap();
        assert_eq!(
            strict.precode(&u, 1).unwrap().route(),
            Some(Route::Fallback)
        );
    }

    #[test]
    fn oversized_problem_is_rejected() {
        // 40 users × (1+1) bits × 2 dims = 160 logical variables:
        // beyond the C16 clique bound, exactly like the uplink.
        let input = input(40, 40, Modulation::Qpsk, 14);
        match VppPrecoder::new(quiet_annealer(), vpp_config(), 1, 1).compile(&input) {
            Err(PrecodeError::Decode(DecodeError::Embedding(EmbeddingError::DoesNotFit {
                n: 160,
                ..
            }))) => {}
            Err(other) => panic!("expected DoesNotFit, got {other:?}"),
            Ok(_) => panic!("expected DoesNotFit, got a session"),
        }
    }

    #[test]
    fn registry_names_match_sessions() {
        let input = input(2, 3, Modulation::Bpsk, 15);
        for kind in [
            PrecoderKind::zf(),
            PrecoderKind::thp(),
            PrecoderKind::vpp(quiet_annealer(), vpp_config(), 2, 1),
        ] {
            let session = kind.compile(&input).unwrap();
            assert_eq!(session.backend_name(), kind.name());
            assert_eq!(session.num_users(), 2);
            assert_eq!(session.modulation(), Modulation::Bpsk);
        }
    }

    #[test]
    fn session_reports_its_shape() {
        let input = input(4, 4, Modulation::Qpsk, 16);
        let session = VppPrecoder::new(quiet_annealer(), vpp_config(), 10, 1)
            .compile(&input)
            .unwrap();
        // 2 dims × 4 users × (1 magnitude + 1 sign) = 16 logical vars.
        assert_eq!(session.num_logical(), 16);
        assert_eq!(session.tau(), 4.0);
        assert!(session.parallel_factor() >= 1);
    }

    #[test]
    fn mod_tau_folds_onto_the_fundamental_interval() {
        assert_eq!(mod_tau(5.0, 4.0), 1.0);
        assert_eq!(mod_tau(-5.0, 4.0), -1.0);
        assert_eq!(mod_tau(1.0, 4.0), 1.0);
        assert_eq!(mod_tau(-9.0, 4.0), -1.0);
        assert_eq!(tau_for(Modulation::Qpsk), 4.0);
        assert_eq!(tau_for(Modulation::Qam16), 8.0);
    }
}
