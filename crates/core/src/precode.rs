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
//! The QUBO realifies the model (`F = Φ(P)`, `y = φ(u)`, `G = FᵀF`)
//! and searches a *lattice-reduced box* (lattice-reduction-aided VPP,
//! after Winter et al., IEEE WCL 2024). Once per coherence interval,
//! LLL (δ = 3/4) reduces the perturbation lattice `{Fz : z ∈ ℤ^{2Nu}}`
//! to a near-orthogonal basis `F̃ = FT`, `T` unimodular with an exact
//! integer inverse, and `G̃ = TᵀGT`. `T` is a bijection of ℤ^{2Nu}, so
//! searching `v' = T⁻¹φ(v)` instead of `v` loses nothing. On a
//! near-orthogonal basis the optimum sits next to the Babai point
//! `c = −T⁻¹y/τ`, so each real dimension searches only `t` unsigned
//! bits above the box corner `⌊c⌋ − (2^{t−1} − 1)`: with `t = 1`,
//! `v' ∈ ⌊c⌋ + {0, 1}^{2Nu}` — `2·Nu` variables, a quarter of the
//! qubits of the unreduced `t = 1` two's-complement search over
//! `{−2, …, 1}` per dimension. With `C` the bit weights and
//! `a = y + τT·corner`, the objective is
//!
//! ```text
//!   ‖F(y + τTv')‖² = ‖Fa‖² + 2τ·bᵀCᵀTᵀG·a + τ²·bᵀCᵀG̃C·b,
//! ```
//!
//! a QUBO in the box bits `b` with scalar offset `‖Fa‖²`. Because `Φ`
//! is multiplicative and `Φ(A)ᵀ = Φ(A*)`, every `G` entry is read
//! straight from the complex Gram `W = P*P` — no explicit real `F` is
//! ever formed. The quadratic part `τ²CᵀG̃C` depends only on `(H, τ)`,
//! so one reduction + embedding + CSR freeze serves a whole coherence
//! interval and each user-symbol vector `u` refreshes only the linear
//! fields and the offset — the uplink `DecodeSession` contract, run by
//! the same annealed core (`decoder::AnnealCore`): this module supplies
//! only the reduction (the box corner and the `TᵀG·a` fields over the
//! interval's couplings), the box encoding and the `v = 0` floor. The
//! session returns `v = T·v'` in the original coordinates, so receivers
//! fold modulo τ exactly as before.
//!
//! [`PrecoderKind`] is the registry mirror of `detect::DetectorKind`:
//! classical ZF (`τ→∞`, zero perturbation) and Tomlinson–Harashima
//! (successive modulo, a greedy `v`) slot in behind the same
//! [`Precoder`]/[`PrecoderSession`] traits, and [`PrecoderKind::Hybrid`]
//! is the uplink's [`Router`] serving the downlink: the same
//! availability rules and routing body, gated on the primary's
//! realized transmit power per transmit antenna. Every path returns
//! the crate's one [`Error`].

use crate::decoder::{AnnealCore, Annealed, DecoderConfig};
use crate::detect::{Error, Route, RoutePolicy, Routed, Router};
use quamax_anneal::{Annealer, Schedule};
use quamax_chimera::ChimeraGraph;
use quamax_ising::{bits_to_spins, spins_to_bits, IsingView, Listed, QuboProblem, UpperCouplings};
use quamax_linalg::{cholesky, pseudo_inverse, CMatrix, CVector, Complex, LllReduction};
use quamax_telemetry::Telemetry;
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

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

/// The symmetric modulo fold of one real dimension, removing any
/// integer multiple of `τ`.
fn mod_tau(x: f64, tau: f64) -> f64 {
    x - tau * (x / tau).round()
}

/// Applies the receiver's symmetric modulo fold `x − τ·round(x/τ)`,
/// which maps onto `[−τ/2, τ/2)`, to both real dimensions of every
/// entry — the
/// per-user receiver step that strips the perturbation `τv` off the
/// effective channel output before demapping.
pub fn fold_mod_tau(z: &CVector, tau: f64) -> CVector {
    CVector::from_fn(z.len(), |i| {
        Complex::new(mod_tau(z[i].re, tau), mod_tau(z[i].im, tau))
    })
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
    /// Routed by a [`PrecoderKind::Hybrid`] router.
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
    fn compile(&self, input: &PrecodeInput) -> Result<Self::Session, Error>;
}

/// The per-symbol-vector side of a precoder. `seed` drives any
/// randomness (annealer streams, unembedding tie-breaks) so a fixed
/// `(H, u, seed)` always reproduces the same [`Precoding`];
/// deterministic backends ignore it.
pub trait PrecoderSession {
    /// Precodes one user-symbol vector through the compiled state.
    fn precode(&mut self, u: &CVector, seed: u64) -> Result<Precoding, Error>;

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
    fn precode(&mut self, u: &CVector, seed: u64) -> Result<Precoding, Error> {
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

// --- The box encoding -----------------------------------------------

/// The lattice-reduced box encoding `C`: each of the `2·Nu` real
/// dimensions of the reduced-basis perturbation `v'` carries `t`
/// unsigned bits of weight `2^k`, an offset `b ∈ [0, 2^t − 1]` above the
/// box corner `⌊c⌋ − (2^{t−1} − 1)` (see [`VppModel::box_corner`]). Real
/// dimensions `0..Nu` are real parts, `Nu..2Nu` imaginary parts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PerturbEncoding {
    num_users: usize,
    bits: usize,
}

impl PerturbEncoding {
    /// An encoding for `num_users` complex perturbation entries with
    /// `bits ≥ 1` box bits per real dimension.
    pub fn new(num_users: usize, bits: usize) -> Self {
        assert!(bits >= 1, "need at least one bit per dimension");
        PerturbEncoding { num_users, bits }
    }

    /// Bits per real dimension (`t`).
    pub fn bits_per_dimension(&self) -> usize {
        self.bits
    }

    /// Total QUBO variables: `2·Nu·t`.
    pub fn num_vars(&self) -> usize {
        2 * self.num_users * self.bits
    }

    /// The weight `2^k` of bit `k` within a dimension's group.
    pub fn weight(&self, k: usize) -> f64 {
        debug_assert!(k < self.bits);
        (1i64 << k) as f64
    }

    /// How far the box corner sits below `⌊c⌋`: `2^{t−1} − 1`, so the
    /// box `⌊c⌋ − (2^{t−1} − 1) + [0, 2^t − 1]` straddles the cell.
    fn corner_below_floor(&self) -> i64 {
        (1i64 << (self.bits - 1)) - 1
    }

    /// Largest offset above the corner, `2^t − 1`.
    fn max_offset(&self) -> i64 {
        (1i64 << self.bits) - 1
    }

    /// Decodes a full QUBO bit string into each real dimension's
    /// offset above the box corner.
    ///
    /// # Panics
    /// Panics when `bits.len() != num_vars()`.
    pub fn decode(&self, bits: &[u8]) -> Vec<i64> {
        assert_eq!(bits.len(), self.num_vars(), "encoding width mismatch");
        bits.chunks_exact(self.bits)
            .map(|group| {
                group
                    .iter()
                    .enumerate()
                    .map(|(k, &b)| i64::from(b) << k)
                    .sum()
            })
            .collect()
    }

    /// Encodes per-dimension offsets above the box corner into QUBO
    /// bits, rounding each to the nearest integer and clamping it into
    /// `[0, 2^t − 1]` (a warm start from a classical candidate outside
    /// the box lands on the box boundary).
    ///
    /// # Panics
    /// Panics when `offsets.len() != 2·Nu`.
    pub fn encode(&self, offsets: &[f64]) -> Vec<u8> {
        assert_eq!(offsets.len(), 2 * self.num_users, "offset length mismatch");
        let mut bits = vec![0u8; self.num_vars()];
        for (group, &offset) in bits.chunks_exact_mut(self.bits).zip(offsets) {
            let z = offset.round().clamp(0.0, self.max_offset() as f64) as i64;
            for (k, bit) in group.iter_mut().enumerate() {
                *bit = ((z >> k) & 1) as u8;
            }
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

/// `G = Φ(W)`, row-major (`2·Nu × 2·Nu`).
fn realified_gram(w: &CMatrix) -> Vec<f64> {
    let nu = w.rows();
    let dim = 2 * nu;
    (0..dim * dim)
        .map(|x| g_entry(w, nu, x / dim, x % dim))
        .collect()
}

/// `φ(z) = [Re z; Im z]`.
fn realify(z: &CVector) -> Vec<f64> {
    let s = z.as_slice();
    s.iter()
        .map(|c| c.re)
        .chain(s.iter().map(|c| c.im))
        .collect()
}

/// The ZF precoding matrix `P = H*(HH*)⁻¹` (antennas × users), via the
/// pseudo-inverse of `H*` (antennas ≥ users required, like any ZF
/// precoder): `(H*)⁺ = (HH*)⁻¹H`, and its Hermitian transpose is `P`.
fn zf_matrix(h: &CMatrix) -> Result<CMatrix, Error> {
    Ok(pseudo_inverse(&h.hermitian())?.hermitian())
}

/// The transmit signal `x = P(u + τv)` — one body for every backend, so
/// a zero perturbation transmits bit for bit what ZF does.
fn transmit(p: &CMatrix, tau: f64, u: &CVector, v: &CVector) -> CVector {
    assert_eq!(u.len(), p.cols(), "symbol vector length mismatch");
    assert_eq!(v.len(), p.cols(), "perturbation length mismatch");
    let perturbed = CVector::from_fn(u.len(), |i| u[i] + v[i].scale(tau));
    p.mul_vec(&perturbed)
}

/// The channel-only VPP model: the ZF precoding matrix `P`, its Gram
/// `W = P*P`, the modulo base `τ`, the LLL basis change `T` of the
/// perturbation lattice, the box encoding, and the diagonal of the
/// quadratic QUBO template `τ²CᵀG̃C` — everything a coherence interval
/// shares. The template's off-diagonal entries become the annealed
/// session's couplings at compile; [`VppModel::qubo_for`] rebuilds the
/// whole template on demand. Per-`u` work only places the box (its
/// corner in the Babai cell) and adds the linear (diagonal) terms
/// `2τ·CᵀTᵀG·a` and the scalar offset `‖Fa‖²`, which is why the
/// annealed session can refresh fields in place without touching
/// coupler structure.
#[derive(Clone, Debug)]
pub struct VppModel {
    p: CMatrix,
    w: CMatrix,
    tau: f64,
    modulation: Modulation,
    encoding: PerturbEncoding,
    lattice: LllReduction,
    /// The template's diagonal `τ²·w_k²·G̃_rr`.
    diagonal: Vec<f64>,
}

impl VppModel {
    /// Builds the model at the constellation's natural modulo base
    /// [`tau_for`], with `bits ≥ 1` box bits per real dimension.
    pub fn new(h: &CMatrix, modulation: Modulation, bits: usize) -> Result<Self, Error> {
        Self::with_tau(h, modulation, bits, tau_for(modulation))
    }

    /// Builds the model at an explicit modulo base `τ > 0` (property
    /// tests sweep it; receivers must fold with the same value).
    pub fn with_tau(
        h: &CMatrix,
        modulation: Modulation,
        bits: usize,
        tau: f64,
    ) -> Result<Self, Error> {
        Ok(Self::with_template(h, modulation, bits, tau)?.0)
    }

    /// The model and the off-diagonal entries of its quadratic
    /// template, row-major over `i < j` (see [`VppModel::template`]).
    fn with_template(
        h: &CMatrix,
        modulation: Modulation,
        bits: usize,
        tau: f64,
    ) -> Result<(Self, Vec<f64>), Error> {
        assert!(tau > 0.0, "modulo base must be positive");
        let nu = h.rows();
        let p = zf_matrix(h)?;
        let w = p.gram();
        let g = realified_gram(&w);
        let mut model = VppModel {
            p,
            w,
            tau,
            modulation,
            encoding: PerturbEncoding::new(nu, bits),
            // LLL on the realified lattice: G = Φ(W), G̃ = TᵀGT.
            lattice: LllReduction::reduce(&g, 2 * nu),
            diagonal: Vec::new(),
        };
        let (diagonal, off_diagonal) = model.template(&g);
        model.diagonal = diagonal;
        Ok((model, off_diagonal))
    }

    /// `τ²CᵀG̃C` over the realified Gram `g` — the `u`-independent
    /// quadratic template: its diagonal, and its off-diagonal entries
    /// `(i, j)`, `i < j`, row-major. An exact zero entry is no QUBO
    /// term, and so no Ising coupling ([`Listed::Nonzero`]).
    fn template(&self, g: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let dim = 2 * self.num_users();
        let reduced = self.lattice.reduced_gram(g);
        let (tau, encoding) = (self.tau, &self.encoding);
        let group = encoding.bits_per_dimension();
        let n = encoding.num_vars();
        let mut diagonal = vec![0.0; n];
        let mut off_diagonal = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for (i, d) in diagonal.iter_mut().enumerate() {
            let (r, k) = (i / group, i % group);
            let wk = encoding.weight(k);
            *d += tau * tau * wk * wk * reduced[r * dim + r];
            for j in (i + 1)..n {
                let (rp, kp) = (j / group, j % group);
                off_diagonal
                    .push(2.0 * tau * tau * wk * encoding.weight(kp) * reduced[r * dim + rp]);
            }
        }
        (diagonal, off_diagonal)
    }

    /// The modulo base.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The constellation the model was built for.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// The box encoding.
    pub fn encoding(&self) -> &PerturbEncoding {
        &self.encoding
    }

    /// The LLL basis change `T` of the realified perturbation lattice
    /// (dimension `2·Nu`, real parts first).
    pub fn basis_change(&self) -> &LllReduction {
        &self.lattice
    }

    /// User streams.
    pub fn num_users(&self) -> usize {
        self.encoding.num_users
    }

    /// The box corner for `u` in reduced-basis coordinates:
    /// `⌊c⌋ − (2^{t−1} − 1)` per real dimension, with `c = −T⁻¹φ(u)/τ`
    /// the Babai point.
    pub fn box_corner(&self, u: &CVector) -> Vec<i64> {
        assert_eq!(u.len(), self.num_users(), "symbol vector length mismatch");
        let below = self.encoding.corner_below_floor();
        self.lattice
            .to_reduced(&realify(u))
            .into_iter()
            .map(|x| (-x / self.tau).floor() as i64 - below)
            .collect()
    }

    /// The original-coordinate perturbation `v = T·v'` of a
    /// reduced-basis point.
    fn original(&self, reduced: &[i64]) -> CVector {
        let x = self.lattice.to_original(reduced);
        let nu = self.num_users();
        CVector::from_fn(nu, |i| Complex::new(x[i] as f64, x[i + nu] as f64))
    }

    /// `u`'s per-variable linear terms `2τ·CᵀTᵀG·a` and the scalar
    /// offset `‖Fa‖² = ‖Pα‖²`, where `a = φ(α)` and
    /// `α = u + τ·T·corner` is the box corner's own perturbed symbol
    /// vector (`G·φ(α) = φ(Wα)` by the realification identities).
    /// `corner` is [`VppModel::box_corner`]`(u)`.
    fn fields(&self, u: &CVector, corner: &[i64]) -> (Vec<f64>, f64) {
        let base = self.original(corner);
        let alpha = CVector::from_fn(u.len(), |i| u[i] + base[i].scale(self.tau));
        let field = self
            .lattice
            .transpose_mul(&realify(&self.w.mul_vec(&alpha)));
        let group = self.encoding.bits_per_dimension();
        let linear = (0..self.encoding.num_vars())
            .map(|i| 2.0 * self.tau * self.encoding.weight(i % group) * field[i / group])
            .collect();
        (linear, self.p.mul_vec(&alpha).norm_sqr())
    }

    /// The full QUBO for one user-symbol vector plus its scalar
    /// offset: `energy(bits) + offset = ‖P(u + τ·v)‖²` with
    /// `v = decode_perturbation(&box_corner(u), bits)`, for every bit
    /// string (property-tested across box widths and τ).
    pub fn qubo_for(&self, u: &CVector) -> (QuboProblem, f64) {
        let (linear, offset) = self.fields(u, &self.box_corner(u));
        let (diagonal, off_diagonal) = self.template(&realified_gram(&self.w));
        let n = diagonal.len();
        let mut qubo = QuboProblem::new(n);
        let mut off_diagonal = off_diagonal.into_iter();
        for (i, d) in diagonal.into_iter().enumerate() {
            qubo.add_diagonal(i, d);
            for j in (i + 1)..n {
                let value = off_diagonal.next().expect("one entry per pair");
                if value != 0.0 {
                    qubo.set_off_diagonal(i, j, value);
                }
            }
        }
        for (i, d) in linear.into_iter().enumerate() {
            qubo.add_diagonal(i, d);
        }
        (qubo, offset)
    }

    /// The transmit signal `x = P(u + τv)`.
    pub fn transmit(&self, u: &CVector, v: &CVector) -> CVector {
        transmit(&self.p, self.tau, u, v)
    }

    /// The objective `E(v) = ‖P(u + τv)‖²` evaluated directly.
    pub fn direct_energy(&self, u: &CVector, v: &CVector) -> f64 {
        self.transmit(u, v).norm_sqr()
    }

    /// Decodes QUBO bits of the box at `corner` (a
    /// [`VppModel::box_corner`]) into the complex-integer perturbation
    /// `v = T·(corner + offsets)` in the original coordinates.
    ///
    /// # Panics
    /// Panics when `corner` is not `2·Nu` long.
    pub fn decode_perturbation(&self, corner: &[i64], bits: &[u8]) -> CVector {
        assert_eq!(corner.len(), 2 * self.num_users(), "corner length mismatch");
        let offsets = self.encoding.decode(bits);
        let reduced: Vec<i64> = corner.iter().zip(&offsets).map(|(c, b)| c + b).collect();
        self.original(&reduced)
    }

    /// Encodes a perturbation into QUBO bits of the box at `corner`:
    /// each entry is rounded to a Gaussian integer, mapped through
    /// `T⁻¹` and clamped into the box (see [`PerturbEncoding::encode`]).
    ///
    /// # Panics
    /// Panics when `v` is not `Nu` long or `corner` not `2·Nu`.
    pub fn encode_perturbation(&self, corner: &[i64], v: &CVector) -> Vec<u8> {
        assert_eq!(v.len(), self.num_users(), "perturbation length mismatch");
        assert_eq!(corner.len(), 2 * self.num_users(), "corner length mismatch");
        let rounded: Vec<f64> = realify(v).iter().map(|x| x.round()).collect();
        let offsets: Vec<f64> = self
            .lattice
            .to_reduced(&rounded)
            .iter()
            .zip(corner)
            .map(|(x, &c)| x - c as f64)
            .collect();
        self.encoding.encode(&offsets)
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
    bits: usize,
}

impl VppPrecoder {
    /// A VPP precoder on an ideal DW2Q chip, searching `bits` box bits
    /// per real perturbation dimension (`t ≥ 1`).
    pub fn new(annealer: Annealer, config: DecoderConfig, anneals: usize, bits: usize) -> Self {
        Self::with_graph(annealer, ChimeraGraph::dw2q_ideal(), config, anneals, bits)
    }

    /// A VPP precoder on a specific chip (e.g. with a defect map).
    pub fn with_graph(
        annealer: Annealer,
        graph: ChimeraGraph,
        config: DecoderConfig,
        anneals: usize,
        bits: usize,
    ) -> Self {
        VppPrecoder {
            annealer,
            graph,
            config,
            anneals,
            bits,
        }
    }
}

impl Precoder for VppPrecoder {
    type Session = VppSession;

    /// Compiles the channel-dependent (per-coherence-interval) part of
    /// the precode once: the realified model and its LLL reduction, the
    /// Ising couplings of its quadratic block (each template entry's
    /// quarter `Q_ij/4`, Eq. 4), and a lookup of the chip structure they
    /// select. The couplings are `u`-independent (the quadratic QUBO
    /// block never changes), so they, the embedding, the chain layout,
    /// and the CSR coupler slots serve every symbol vector of the
    /// interval.
    fn compile(&self, input: &PrecodeInput) -> Result<VppSession, Error> {
        let (model, off_diagonal) = VppModel::with_template(
            &input.h,
            input.modulation,
            self.bits,
            tau_for(input.modulation),
        )?;
        let mut quarters = off_diagonal.iter().map(|q| q / 4.0);
        let couplings =
            UpperCouplings::from_fn(model.encoding.num_vars(), Listed::Nonzero, |_, _| {
                quarters.next().expect("one entry per pair")
            });
        let core = AnnealCore::compile(
            self.annealer.clone(),
            Telemetry::disabled(),
            &self.graph,
            Arc::new(couplings),
            self.config.embed,
        )?;
        Ok(VppSession {
            core,
            schedule: self.config.schedule,
            anneals: self.anneals,
            model,
        })
    }
}

/// A compiled VPP session: the `H`-dependent work (realified QUBO
/// structure over the LLL-reduced lattice, its Ising couplings, the chip
/// structure they select) done once, with per-`u` precodes reduced to
/// the box corner, its `TᵀG·a` fields and the scale
/// written into the frozen problem plus the anneal batch itself — the
/// downlink twin of `DecodeSession`, sharing its annealed core, plus
/// the `v = 0` floor: the session never returns a perturbation that
/// costs more transmit power than plain ZF on the same symbols.
///
/// The session holds the couplings once, as its core's row-major
/// vector; the model keeps only the template's diagonal, and each
/// precode's fields replay the couplings' quarters onto it.
pub struct VppSession {
    core: AnnealCore,
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

    /// Logical Ising variables per precode (`2·Nu·t`).
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

    /// The underlying channel model (lattice reduction, QUBO
    /// construction, direct energies, encode/decode helpers).
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
    /// backwards from it without recompiling anything. The candidate
    /// is mapped through `T⁻¹` and clamped into `u`'s box.
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
        let placed: Vec<((&CVector, Vec<i64>), u64)> = items
            .iter()
            .map(|(u, seed)| ((u, self.model.box_corner(u)), *seed))
            .collect();
        self.core
            .run_batch(&placed, &self.schedule, self.anneals, |(u, corner)| {
                self.reduce(u, corner)
            })
            .into_iter()
            .zip(&placed)
            .map(|(annealed, ((u, corner), _))| self.finish(u, corner, annealed))
            .collect()
    }

    /// The logical problem for `u` — its fields over the session's
    /// couplings — and the total additive offset linking its Ising
    /// energies to transmit power: `E_ising + offset = ‖P(u + τv)‖²`
    /// with `v` decoded in `u`'s box. Bit for bit
    /// `qubo_to_ising(&model.qubo_for(u))` with the power offset added.
    pub fn reduced_problem(&self, u: &CVector) -> (IsingView, f64) {
        let (fields, offset) = self.reduce(u, &self.model.box_corner(u));
        (
            IsingView::new(Arc::clone(self.core.couplings()), fields),
            offset,
        )
    }

    /// The fields of `u` in the box at `corner` and the total offset
    /// (see [`VppSession::reduced_problem`]): only the diagonal
    /// `Q_ii + 2τ·CᵀTᵀG·a` moves with `u`, and each coupling — an
    /// off-diagonal's quarter `Q_ij/4`, its share of two fields and of
    /// the offset under the Eq. 4 conversion — is replayed onto the
    /// fields and the offset in the conversion's own order, skipping
    /// the exact zeros the template leaves out.
    fn reduce(&self, u: &CVector, corner: &[i64]) -> (Vec<f64>, f64) {
        let model = &self.model;
        let (mut fields, power_offset) = model.fields(u, corner);
        let mut offset = 0.0;
        for (f, &diagonal) in fields.iter_mut().zip(&model.diagonal) {
            let d = diagonal + *f;
            // The conversion adds onto a zero field: `−0.0` becomes `+0.0`.
            *f = 0.0 + d / 2.0;
            offset += d / 2.0;
        }
        for (i, j, quarter) in self.core.couplings().listed() {
            fields[i] += quarter;
            fields[j] += quarter;
            offset += quarter;
        }
        (fields, offset + power_offset)
    }

    /// One precode: forward under the session's schedule, or backwards
    /// from a candidate perturbation under the given reverse schedule.
    fn run(&mut self, u: &CVector, reverse: Option<(&CVector, &Schedule)>, seed: u64) -> Precoding {
        let schedule = reverse.map_or(self.schedule, |(_, s)| *s);
        let corner = self.model.box_corner(u);
        let reduced = self.reduce(u, &corner);
        let start = reverse.map(|(candidate, _)| {
            bits_to_spins(&self.model.encode_perturbation(&corner, candidate))
        });
        let annealed = self.core.run(
            reduced,
            start.as_deref(),
            &schedule,
            self.anneals,
            &mut StdRng::seed_from_u64(seed),
        );
        self.finish(u, &corner, annealed)
    }

    /// The best annealed perturbation in the box at `corner` (logical
    /// energy and transmit power rank identically — they differ by the
    /// constant offset), guarded by the `v = 0` power floor.
    fn finish(&self, u: &CVector, corner: &[i64], annealed: Annealed) -> Precoding {
        let offset = annealed.offset;
        let best = annealed.distribution.best_solution().map(|entry| {
            let v = self
                .model
                .decode_perturbation(corner, &spins_to_bits(&entry.spins));
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
    fn precode(&mut self, u: &CVector, seed: u64) -> Result<Precoding, Error> {
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

/// Session for [`ZfPrecoder`]: the precoding matrix `P` and nothing
/// else a perturbation search needs.
pub struct ZfPrecodeSession {
    p: CMatrix,
    tau: f64,
    modulation: Modulation,
}

impl ZfPrecodeSession {
    fn new(input: &PrecodeInput) -> Result<Self, Error> {
        Ok(ZfPrecodeSession {
            p: zf_matrix(&input.h)?,
            tau: tau_for(input.modulation),
            modulation: input.modulation,
        })
    }

    /// The signal and power of perturbation `v` (shared with THP).
    fn precoding(&self, u: &CVector, v: CVector, stats: PrecodeStats) -> Precoding {
        // The VPP model's own transmit body, so a zero perturbation is
        // bit-identical to the annealed session's `v = 0` floor
        // (property-tested).
        let x = transmit(&self.p, self.tau, u, &v);
        let power = x.norm_sqr();
        Precoding {
            x,
            perturbation: v,
            power,
            stats,
        }
    }
}

impl Precoder for ZfPrecoder {
    type Session = ZfPrecodeSession;

    fn compile(&self, input: &PrecodeInput) -> Result<ZfPrecodeSession, Error> {
        ZfPrecodeSession::new(input)
    }
}

impl PrecoderSession for ZfPrecodeSession {
    fn precode(&mut self, u: &CVector, _seed: u64) -> Result<Precoding, Error> {
        let zero = CVector::zeros(self.p.cols());
        Ok(self.precoding(u, zero, PrecodeStats::Linear))
    }
    fn modulation(&self) -> Modulation {
        self.modulation
    }
    fn num_users(&self) -> usize {
        self.p.cols()
    }
    fn tau(&self) -> f64 {
        self.tau
    }
    fn backend_name(&self) -> &'static str {
        "zf"
    }
}

/// Session for Tomlinson–Harashima precoding: the classical
/// successive-modulo baseline. With `W = P*P = LL*` (Cholesky) and `U = L*` upper
/// triangular, `E(v) = ‖U(u + τv)‖²`; processing users last-to-first
/// and rounding each dimension greedily is exactly the THP feedback
/// loop, and yields an integer perturbation cheaper than ZF's `v = 0`
/// on most channels (but not all — greed is not optimal, which is the
/// annealed backend's opening).
pub struct ThpPrecodeSession {
    zf: ZfPrecodeSession,
    /// `U = L*` from `W = LL*` — the triangular factor the greedy
    /// back-substitution walks.
    upper: CMatrix,
}

impl ThpPrecodeSession {
    /// Compiles the channel's ZF precoding matrix and the Cholesky
    /// factor of its Gram.
    pub fn new(input: &PrecodeInput) -> Result<Self, Error> {
        let zf = ZfPrecodeSession::new(input)?;
        let upper = cholesky(&zf.p.gram())?.hermitian();
        Ok(ThpPrecodeSession { zf, upper })
    }

    /// The greedy perturbation alone (used as a reverse-anneal warm
    /// start for [`VppSession::precode_reverse_from`]).
    pub fn perturbation(&self, u: &CVector) -> CVector {
        let nu = self.zf.p.cols();
        let tau = self.zf.tau;
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
    fn precode(&mut self, u: &CVector, _seed: u64) -> Result<Precoding, Error> {
        let v = self.perturbation(u);
        Ok(self.zf.precoding(u, v, PrecodeStats::Thp))
    }
    fn modulation(&self) -> Modulation {
        self.zf.modulation
    }
    fn num_users(&self) -> usize {
        self.zf.num_users()
    }
    fn tau(&self) -> f64 {
        self.zf.tau
    }
    fn backend_name(&self) -> &'static str {
        "thp"
    }
}

// --- The hybrid router ----------------------------------------------

impl Routed for Precoding {
    fn objective(&self) -> Option<f64> {
        Some(self.power)
    }
    fn routed(self, route: Route, primary_power: f64) -> Self {
        Precoding {
            stats: PrecodeStats::Hybrid {
                route,
                primary_power,
                inner: Box::new(self.stats),
            },
            ..self
        }
    }
}

/// The session of a [`PrecoderKind::Hybrid`]: the detection router's
/// routing body, gated on transmit power per transmit antenna.
impl PrecoderSession for Router<dyn PrecoderSession> {
    fn precode(&mut self, u: &CVector, seed: u64) -> Result<Precoding, Error> {
        self.route(|session| session.precode(u, seed))
    }
    fn modulation(&self) -> Modulation {
        self.a_side().modulation()
    }
    fn num_users(&self) -> usize {
        self.a_side().num_users()
    }
    fn tau(&self) -> f64 {
        self.a_side().tau()
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
        /// Box bits per real perturbation dimension (`t ≥ 1`).
        bits: usize,
    },
    /// The hybrid classical–quantum [`Router`]: a cheap `primary`
    /// (typically ZF or THP) answers every symbol vector, and only
    /// answers whose transmit power per antenna exceeds the policy are
    /// re-precoded by the expensive `fallback` (typically annealed
    /// VPP).
    Hybrid {
        /// The cheap first-pass precoder.
        primary: Box<PrecoderKind>,
        /// The expensive fallback precoder.
        fallback: Box<PrecoderKind>,
        /// The power policy gating the fallback.
        policy: RoutePolicy,
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
    pub fn vpp(annealer: Annealer, config: DecoderConfig, anneals: usize, bits: usize) -> Self {
        PrecoderKind::Vpp {
            annealer,
            config,
            anneals,
            bits,
        }
    }

    /// A hybrid router over two other kinds.
    pub fn hybrid(primary: PrecoderKind, fallback: PrecoderKind, policy: RoutePolicy) -> Self {
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

    /// Compiles this kind's session — the registry's one match.
    fn compile(&self, input: &PrecodeInput) -> Result<Box<dyn PrecoderSession>, Error> {
        Ok(match self {
            PrecoderKind::ZeroForcing => Box::new(ZfPrecoder.compile(input)?),
            PrecoderKind::Thp => Box::new(ThpPrecodeSession::new(input)?),
            PrecoderKind::Vpp {
                annealer,
                config,
                anneals,
                bits,
            } => Box::new(
                VppPrecoder::new(annealer.clone(), *config, *anneals, *bits).compile(input)?,
            ),
            PrecoderKind::Hybrid {
                primary,
                fallback,
                policy,
            } => Box::new(Router::new(
                primary.compile(input),
                fallback.compile(input),
                *policy,
                input.antennas(),
            )?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamax_anneal::{AnnealerConfig, IceModel};
    use quamax_chimera::EmbeddingError;
    use quamax_ising::qubo_to_ising;
    use quamax_linalg::LinalgError;
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
        let hp = input.h.mul_mat(&model.p);
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
            Err(Error::Linalg(LinalgError::ShapeMismatch)) => {}
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
            let corner = model.box_corner(&u);
            for _ in 0..10 {
                let bits: Vec<u8> = (0..model.encoding().num_vars())
                    .map(|_| rng.random_range(0..2))
                    .collect();
                let v = model.decode_perturbation(&corner, &bits);
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
        let corner = model.box_corner(&u);
        let (ising, conversion) = qubo_to_ising(&qubo);
        for _ in 0..10 {
            let bits: Vec<u8> = (0..model.encoding().num_vars())
                .map(|_| rng.random_range(0..2))
                .collect();
            let spins = bits_to_spins(&bits);
            let direct = model.direct_energy(&u, &model.decode_perturbation(&corner, &bits));
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
            for a in 0..=enc.max_offset() {
                for b in [0, 1, enc.max_offset()] {
                    let offsets = [a, b, b, a];
                    let real: Vec<f64> = offsets.iter().map(|&z| z as f64).collect();
                    assert_eq!(enc.decode(&enc.encode(&real)), offsets, "t={t}");
                }
            }
        }
    }

    #[test]
    fn encoding_clamps_out_of_range_candidates() {
        let enc = PerturbEncoding::new(1, 1);
        assert_eq!(enc.decode(&enc.encode(&[7.0, -9.0])), vec![1, 0]);
        let enc = PerturbEncoding::new(1, 2);
        assert_eq!(enc.corner_below_floor(), 1);
        assert_eq!(enc.decode(&enc.encode(&[2.4, 3.6])), vec![2, 3]);
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
                    RoutePolicy::new(1.0),
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
        let mut thp = ThpPrecodeSession::new(&input).unwrap();
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
        let thp = ThpPrecodeSession::new(&input).unwrap();
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
            RoutePolicy::new(f64::INFINITY),
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
            RoutePolicy::new(0.0),
        )
        .compile(&input)
        .unwrap();
        assert_eq!(
            strict.precode(&u, 1).unwrap().route(),
            Some(Route::Fallback)
        );
    }

    #[test]
    fn hybrid_survives_a_fallback_that_cannot_compile() {
        // 80 logical variables do not embed: the VPP fallback is gone,
        // and the ZF primary serves every vector — even under a gate
        // that rejects everything.
        let input = input(40, 40, Modulation::Qpsk, 14);
        let mut session = PrecoderKind::hybrid(
            PrecoderKind::zf(),
            PrecoderKind::vpp(quiet_annealer(), vpp_config(), 1, 1),
            RoutePolicy::new(0.0),
        )
        .compile(&input)
        .expect("primary carries the router");
        let mut zf = ZfPrecoder.compile(&input).unwrap();
        let mut rng = StdRng::seed_from_u64(140);
        for k in 0..3u64 {
            let (_, u) = random_symbols(&input, &mut rng);
            let out = session.precode(&u, k).unwrap();
            assert_eq!(out.route(), Some(Route::Primary));
            assert_eq!(
                out.power.to_bits(),
                zf.precode(&u, k).unwrap().power.to_bits()
            );
        }
    }

    #[test]
    fn hybrid_survives_a_primary_that_cannot_compile() {
        // The unembeddable VPP side as primary: every vector routes to
        // the ZF fallback.
        let input = input(40, 40, Modulation::Qpsk, 14);
        let mut session = PrecoderKind::hybrid(
            PrecoderKind::vpp(quiet_annealer(), vpp_config(), 1, 1),
            PrecoderKind::zf(),
            RoutePolicy::new(f64::INFINITY),
        )
        .compile(&input)
        .expect("fallback carries the router");
        assert_eq!(session.num_users(), 40);
        let mut zf = ZfPrecoder.compile(&input).unwrap();
        let mut rng = StdRng::seed_from_u64(141);
        for k in 0..3u64 {
            let (_, u) = random_symbols(&input, &mut rng);
            let out = session.precode(&u, k).unwrap();
            assert_eq!(out.route(), Some(Route::Fallback));
            assert_eq!(
                out.power.to_bits(),
                zf.precode(&u, k).unwrap().power.to_bits()
            );
        }
    }

    #[test]
    fn hybrid_with_both_sides_dead_fails_compile() {
        // More users than antennas: neither ZF nor VPP has an inverse.
        let input = input(4, 2, Modulation::Bpsk, 2);
        let hopeless = PrecoderKind::hybrid(
            PrecoderKind::zf(),
            PrecoderKind::vpp(quiet_annealer(), vpp_config(), 1, 1),
            RoutePolicy::new(0.0),
        );
        match hopeless.compile(&input) {
            Err(Error::Linalg(LinalgError::ShapeMismatch)) => {}
            Err(other) => panic!("expected ShapeMismatch, got {other:?}"),
            Ok(_) => panic!("expected ShapeMismatch, got a session"),
        }
    }

    #[test]
    fn oversized_problem_is_rejected() {
        // 40 users × 1 box bit × 2 dims = 80 logical variables:
        // beyond the C16 clique bound, exactly like the uplink.
        let input = input(40, 40, Modulation::Qpsk, 14);
        match VppPrecoder::new(quiet_annealer(), vpp_config(), 1, 1).compile(&input) {
            Err(Error::Embedding(EmbeddingError::DoesNotFit { n: 80, .. })) => {}
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
        // 2 dims × 4 users × 1 box bit = 8 logical vars.
        assert_eq!(session.num_logical(), 8);
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
