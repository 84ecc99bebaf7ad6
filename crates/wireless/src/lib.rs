//! Wireless PHY substrate for the QuAMax reproduction.
//!
//! Implements everything the paper's system model (§2.1) assumes around
//! the detector: constellations with both the transmitter's Gray mapping
//! and the receiver's "QuAMax transform" (§3.2.1, Fig. 2), the bitwise
//! post-translation between them, uplink MIMO channel models (i.i.d.
//! Rayleigh and the unit-gain random-phase channels of §5.3), AWGN at a
//! specified SNR, an OFDM subcarrier layer, frame bookkeeping, and a
//! synthetic stand-in for the Argos measured channel trace used in §5.5.
//!
//! ## Conventions
//!
//! * Constellations are **unnormalized**, exactly as in the paper's
//!   equations: BPSK ∈ {±1}, QPSK ∈ {±1±j}, 16-QAM levels {−3,−1,+1,+3}
//!   per dimension, 64-QAM levels {−7..+7}. The generalized Ising
//!   parameters of Eqs. 6–8/13–14 are derived for these representations.
//! * SNR is defined per user symbol at the receiver:
//!   `SNR = E[|v|²] / σ²` where `σ²` is the total complex noise variance
//!   per receive antenna. See [`Snr`].
//! * Bit order within a symbol: the first `Q/2` bits select the I (real)
//!   level, the last `Q/2` the Q (imaginary) level (BPSK: one bit, I
//!   only), matching the paper's indexing of QUBO variables.

pub mod channel;
pub mod coding;
pub mod estimate;
pub mod frame;
pub mod gray;
pub mod modulation;
pub mod noise;
pub mod ofdm;
pub mod snr;
pub mod trace;

pub use channel::{rayleigh_channel, unit_gain_random_phase_channel};
pub use coding::{ConvolutionalCode, SisoDecode};
pub use estimate::{dft_pilots, estimate_channel};
pub use frame::{count_bit_errors, fer_from_ber, Frame};
pub use gray::{binary_to_gray, gray_to_binary};
pub use modulation::Modulation;
pub use noise::apply_awgn;
pub use ofdm::{OfdmFrame, Subcarrier};
pub use snr::Snr;
pub use trace::{TraceConfig, TraceGenerator, TraceUse};
