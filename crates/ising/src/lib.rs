//! Ising and QUBO optimization problem forms (paper §3.1).
//!
//! Quantum annealers minimize the Ising spin-glass objective
//!
//! ```text
//! E(s) = Σ_{i<j} g_ij·s_i·s_j + Σ_i f_i·s_i ,   s_i ∈ {−1, +1}     (Eq. 2)
//! ```
//!
//! or equivalently the Quadratic Unconstrained Binary Optimization form
//!
//! ```text
//! E(q) = Σ_{i≤j} Q_ij·q_i·q_j ,                 q_i ∈ {0, 1}       (Eq. 3)
//! ```
//!
//! related by the affine substitution `q_i = (s_i + 1)/2` (Eq. 4), under
//! which energies agree up to a configuration-independent constant. This
//! crate provides both forms, the conversions with their explicit energy
//! offsets, energy/Δ-energy evaluation fast enough for Monte-Carlo
//! dynamics, a shared-couplings view for problems that differ only in
//! their fields, and an exhaustive exact solver used as ground truth by the
//! decoder tests and the Fig. 4-style solution-rank analyses.

pub mod compiled;
pub mod convert;
pub mod exact;
pub mod ising;
pub mod qubo;
pub mod shared;
pub mod spins;

pub use compiled::CompiledProblem;
pub use convert::{ising_to_qubo, qubo_to_ising};
pub use exact::{exact_ground_state, rank_all_solutions, ExactSolution, RankedSolution};
pub use ising::IsingProblem;
pub use qubo::QuboProblem;
pub use shared::{Energy, IsingView, Listed, UpperCouplings};
pub use spins::{bits_to_spins, spins_to_bits, Spin};
