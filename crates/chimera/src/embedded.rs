//! Compiling a logical Ising problem onto an embedding (Eqs. 10–12).
//!
//! The embedded physical problem has three coefficient groups:
//!
//! 1. **chain couplers** — ferromagnetic bonds (strength `−|J_F|` before
//!    renormalization) between consecutive qubits of each chain (Eq. 10);
//! 2. **problem couplers** — each logical `g_ij` programmed on the one
//!    physical coupler where chains `i` and `j` meet (Eq. 12), for every
//!    pair of the clique: a zero `g_ij` is a zero-weight coupler, so the
//!    physical structure depends on the problem size alone;
//! 3. **fields** — each logical `f_i` spread evenly over its chain's
//!    qubits, i.e. `f_i / L` per qubit (Eq. 11).
//!
//! The hardware's energy scale is bounded (couplers in `[−1, +1]`, or
//! `[−2, +1]` with the *improved dynamic range* option; fields in
//! `[−2, +2]`), so the whole problem is renormalized before programming:
//! with the logical problem pre-normalized to max |coefficient| = 1,
//! the programmed scale is `κ = min(1/|J_F|, 1)` standard or
//! `κ = min(2/|J_F|, 1)` improved. Large `|J_F|` therefore *squeezes*
//! the problem information toward the intrinsic-control-error floor —
//! the mechanism behind the TTS-vs-`|J_F|` optimum of Fig. 5 — and the
//! improved range halves the squeeze, which is why it flattens that
//! curve. Scaling never moves the argmin, only its noise robustness.

use crate::embed::CliqueEmbedding;
use crate::graph::{ChimeraGraph, QubitId};
use quamax_ising::IsingProblem;

/// Embedding-time parameters (paper §4, "Annealer Parameter Setting").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EmbedParams {
    /// Ferromagnetic chain strength `|J_F|` (the paper sweeps 1.0–10.0).
    pub j_ferro: f64,
    /// Use the extended coupler range (negative couplers down to −2).
    pub improved_range: bool,
}

impl Default for EmbedParams {
    /// The paper's selected operating point: improved dynamic range,
    /// with a `|J_F|` in the flat region of Fig. 5 (we default to 4.0;
    /// the Fix strategy re-tunes per problem class).
    fn default() -> Self {
        EmbedParams {
            j_ferro: 4.0,
            improved_range: true,
        }
    }
}

/// A logical Ising problem compiled onto physical qubits.
///
/// Physical spins are indexed *densely* (0..qubits_used), not by chip
/// site id, so Monte-Carlo sweeps touch only live qubits; `qubit_of`
/// maps back to chip coordinates.
#[derive(Clone, Debug)]
pub struct EmbeddedProblem {
    /// The programmed physical problem (post-renormalization, pre-ICE).
    problem: IsingProblem,
    /// Dense-index chains, parallel to the logical variables.
    chains: Vec<Vec<usize>>,
    /// Dense physical index → chip qubit id.
    qubit_of: Vec<QubitId>,
    /// Overall scale from the *original* logical problem to programmed
    /// coefficients (pre-normalization × hardware renormalization).
    scale: f64,
    /// The hardware renormalization factor κ (depends only on params).
    kappa: f64,
    /// The programmed chain coupler value (negative).
    chain_coupler: f64,
    /// One record per logical pair `i < j`, row-major: `(logical_i,
    /// logical_j, dense_a, dense_b)` where `(dense_a, dense_b)` is the
    /// physical coupler realizing `g_ij`. This is the *programming
    /// map* — coupler placement, a function of the embedding alone.
    programmed: Vec<(u32, u32, u32, u32)>,
    params: EmbedParams,
}

impl EmbeddedProblem {
    /// Compiles `logical` onto `embedding`, programming the coupler of
    /// every logical pair: a pair `logical` leaves uncoupled, or couples
    /// at exactly zero, becomes a zero-weight physical coupler. The
    /// physical structure is therefore the same for every problem of
    /// the embedding's size, and an ICE model leaves those couplers
    /// unprogrammed (no deviate, weight exactly zero).
    ///
    /// # Panics
    /// Panics if the logical problem size differs from the embedding's,
    /// or `j_ferro < 1.0` (weaker-than-problem chains are outside the
    /// paper's regime and break the renormalization rationale).
    pub fn compile(
        graph: &ChimeraGraph,
        embedding: &CliqueEmbedding,
        logical: &IsingProblem,
        params: EmbedParams,
    ) -> Self {
        assert_eq!(
            logical.num_spins(),
            embedding.num_logical(),
            "logical problem and embedding disagree on variable count"
        );
        assert!(params.j_ferro >= 1.0, "|J_F| must be >= 1.0");

        // Dense index space over used qubits.
        let mut qubit_of = Vec::with_capacity(embedding.qubits_used());
        let mut dense_of = vec![usize::MAX; graph.num_sites()];
        let mut chains = Vec::with_capacity(embedding.num_logical());
        for chain in embedding.chains() {
            let mut dense_chain = Vec::with_capacity(chain.len());
            for &q in chain {
                dense_of[q] = qubit_of.len();
                dense_chain.push(qubit_of.len());
                qubit_of.push(q);
            }
            chains.push(dense_chain);
        }

        // Pre-normalize the logical problem to max |coefficient| = 1.
        let max_abs = logical.max_abs_coefficient();
        let pre = if max_abs > 0.0 { 1.0 / max_abs } else { 1.0 };

        // Hardware renormalization (see module docs).
        let kappa = if params.improved_range {
            (2.0 / params.j_ferro).min(1.0)
        } else {
            (1.0 / params.j_ferro).min(1.0)
        };
        let chain_coupler = -params.j_ferro * kappa;
        let scale = pre * kappa;

        let n_phys = qubit_of.len();
        let mut problem = IsingProblem::new(n_phys);

        // (Eq. 10) chain couplers.
        for dense_chain in &chains {
            for w in dense_chain.windows(2) {
                problem.set_coupling(w[0], w[1], chain_coupler);
            }
        }
        // (Eq. 11) fields spread across chains.
        let chain_len = chains.first().map_or(1, Vec::len) as f64;
        for (i, dense_chain) in chains.iter().enumerate() {
            let per_qubit = logical.linear(i) * scale / chain_len;
            if per_qubit != 0.0 {
                for &d in dense_chain {
                    problem.add_linear(d, per_qubit);
                }
            }
        }
        // (Eq. 12) problem couplers at the chains' meeting points, one
        // per logical pair.
        let n = logical.num_spins();
        let mut dense = vec![0.0; n * n];
        for (i, j, g) in logical.couplings() {
            dense[i * n + j] = g;
        }
        let mut programmed = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in i + 1..n {
                let (qi, qj) = embedding.coupler_for(graph, i, j);
                debug_assert!(graph.edge_exists(qi, qj), "assigned coupler is not an edge");
                let (di, dj) = (dense_of[qi], dense_of[qj]);
                debug_assert!(di != usize::MAX && dj != usize::MAX);
                // The meeting coupler is never a chain edge (chains meet
                // across the K4,4, chain edges within a cell join same
                // positions of opposite sides belonging to one logical).
                debug_assert_eq!(problem.coupling(di, dj), 0.0, "coupler reuse");
                problem.set_coupling(di, dj, dense[i * n + j] * scale);
                programmed.push((i as u32, j as u32, di as u32, dj as u32));
            }
        }

        EmbeddedProblem {
            problem,
            chains,
            qubit_of,
            scale,
            kappa,
            chain_coupler,
            programmed,
            params,
        }
    }

    /// The logical→programmed scale a *new* logical problem would get
    /// on this embedding when its [`IsingProblem::max_abs_coefficient`]
    /// is `max_abs`: its pre-normalization times the fixed hardware
    /// renormalization κ. This is the per-decode piece of the Eq. 10–12
    /// compile for callers reusing the embedding across a coherence
    /// interval.
    pub fn scale_for_max_abs(&self, max_abs: f64) -> f64 {
        let pre = if max_abs > 0.0 { 1.0 / max_abs } else { 1.0 };
        pre * self.kappa
    }

    /// The programmed physical Ising problem (dense indices).
    pub fn problem(&self) -> &IsingProblem {
        &self.problem
    }

    /// Number of physical spins.
    pub fn num_physical(&self) -> usize {
        self.qubit_of.len()
    }

    /// Dense-index chains, one per logical variable.
    pub fn chains(&self) -> &[Vec<usize>] {
        &self.chains
    }

    /// The overall logical→programmed coefficient scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The programming map: one `(logical_i, logical_j, dense_a,
    /// dense_b)` record per logical pair `i < j`, row-major, whatever
    /// the pair's coupling. Callers that freeze the physical problem
    /// into a faster representation use this to re-target problem
    /// couplers for any problem of this size without re-deriving the
    /// embedding.
    pub fn programmed_couplers(&self) -> &[(u32, u32, u32, u32)] {
        &self.programmed
    }

    /// The programmed (negative) chain coupler value.
    pub fn chain_coupler(&self) -> f64 {
        self.chain_coupler
    }

    /// The parameters this problem was compiled with.
    pub fn params(&self) -> EmbedParams {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamax_ising::exact_ground_state;

    fn sample_logical(n: usize) -> IsingProblem {
        // Deterministic, fully-connected, mixed-sign problem.
        let mut p = IsingProblem::new(n);
        for i in 0..n {
            p.set_linear(i, ((i as f64) * 0.7).sin() * 2.0);
            for j in (i + 1)..n {
                p.set_coupling(i, j, ((i * n + j) as f64 * 1.3).cos() * 1.5);
            }
        }
        p
    }

    fn compile(n: usize, params: EmbedParams) -> (ChimeraGraph, EmbeddedProblem, IsingProblem) {
        let g = ChimeraGraph::dw2q_ideal();
        let e = CliqueEmbedding::new(&g, n).unwrap();
        let logical = sample_logical(n);
        let emb = EmbeddedProblem::compile(&g, &e, &logical, params);
        (g, emb, logical)
    }

    #[test]
    fn physical_size_matches_embedding_cost() {
        let (_, emb, _) = compile(12, EmbedParams::default());
        assert_eq!(emb.num_physical(), crate::clique_qubit_cost(12));
        assert_eq!(emb.chains().len(), 12);
    }

    #[test]
    fn chain_couplers_are_uniform_and_negative() {
        let (_, emb, _) = compile(
            8,
            EmbedParams {
                j_ferro: 3.0,
                improved_range: false,
            },
        );
        let expect = -1.0; // −J_F · κ = −3 · (1/3)
        for chain in emb.chains() {
            for w in chain.windows(2) {
                assert!((emb.problem().coupling(w[0], w[1]) - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn improved_range_doubles_chain_headroom() {
        let std = compile(
            8,
            EmbedParams {
                j_ferro: 4.0,
                improved_range: false,
            },
        )
        .1;
        let imp = compile(
            8,
            EmbedParams {
                j_ferro: 4.0,
                improved_range: true,
            },
        )
        .1;
        // Standard: chains at −1, scale 1/4. Improved: chains at −2,
        // scale 1/2 — problem coefficients squeezed half as much.
        assert!((std.chain_coupler() + 1.0).abs() < 1e-12);
        assert!((imp.chain_coupler() + 2.0).abs() < 1e-12);
        assert!((imp.scale() / std.scale() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn programmed_coefficients_respect_hardware_bounds() {
        for improved in [false, true] {
            for jf in [1.0, 2.5, 7.0] {
                let (_, emb, _) = compile(
                    10,
                    EmbedParams {
                        j_ferro: jf,
                        improved_range: improved,
                    },
                );
                let lo = if improved { -2.0 } else { -1.0 };
                for (_, _, g) in emb.problem().couplings() {
                    assert!(
                        g >= lo - 1e-12 && g <= 1.0 + 1e-12,
                        "coupling {g} out of range"
                    );
                }
                for i in 0..emb.num_physical() {
                    let f = emb.problem().linear(i);
                    assert!((-2.0..=2.0).contains(&f), "field {f} out of range");
                }
            }
        }
    }

    #[test]
    fn intact_chain_energy_tracks_logical_energy() {
        // E_phys(chains intact at s) = scale·E_logical(s) + chain const.
        let (_, emb, logical) = compile(9, EmbedParams::default());
        let n = logical.num_spins();
        let expand = |s: &[i8]| -> Vec<i8> {
            let mut phys = vec![0i8; emb.num_physical()];
            for (i, chain) in emb.chains().iter().enumerate() {
                for &d in chain {
                    phys[d] = s[i];
                }
            }
            phys
        };
        let chain_edges: usize = emb.chains().iter().map(|c| c.len() - 1).sum();
        let chain_const = emb.chain_coupler() * chain_edges as f64;
        let s1: Vec<i8> = (0..n).map(|i| if i % 3 == 0 { 1 } else { -1 }).collect();
        let s2: Vec<i8> = (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        for s in [&s1, &s2] {
            let ep = emb.problem().energy(&expand(s));
            let el = logical.energy(s);
            assert!(
                (ep - (emb.scale() * el + chain_const)).abs() < 1e-9,
                "{ep} vs scale*{el}+{chain_const}"
            );
        }
    }

    #[test]
    fn embedded_ground_state_projects_to_logical_ground_state() {
        // With adequate J_F, the physical ground state has intact chains
        // that read out to the logical ground state. n=6 → t=2, chain
        // len 3, 18 physical spins: exhaustive (2^18 = 262k) is fine.
        let g = ChimeraGraph::dw2q_ideal();
        let e = CliqueEmbedding::new(&g, 6).unwrap();
        let logical = sample_logical(6);
        let emb = EmbeddedProblem::compile(
            &g,
            &e,
            &logical,
            EmbedParams {
                j_ferro: 4.0,
                improved_range: true,
            },
        );
        let phys_gs = exact_ground_state(emb.problem());
        let logical_gs = exact_ground_state(&logical);
        for gs in &phys_gs.ground_states {
            // All chains intact…
            let mut readout = Vec::new();
            for chain in emb.chains() {
                let first = gs[chain[0]];
                for &d in chain {
                    assert_eq!(gs[d], first, "broken chain in ground state");
                }
                readout.push(first);
            }
            // …and the readout is the logical optimum.
            assert!(logical_gs.ground_states.contains(&readout));
        }
    }

    #[test]
    fn scale_accounts_for_pre_normalization() {
        // A logical problem with max coefficient 5 must land within
        // hardware bounds after compile.
        let mut logical = IsingProblem::new(4);
        logical.set_coupling(0, 1, 5.0);
        logical.set_linear(2, -3.0);
        let g = ChimeraGraph::dw2q_ideal();
        let e = CliqueEmbedding::new(&g, 4).unwrap();
        let emb = EmbeddedProblem::compile(
            &g,
            &e,
            &logical,
            EmbedParams {
                j_ferro: 2.0,
                improved_range: false,
            },
        );
        // pre = 1/5, κ = 1/2 → programmed g_01 = 5·(1/10) = 1/2.
        let mut found = false;
        for &a in &emb.chains()[0] {
            for &b in &emb.chains()[1] {
                let v = emb.problem().coupling(a, b);
                if v != 0.0 {
                    assert!((v - 0.5).abs() < 1e-12, "programmed {v}");
                    found = true;
                }
            }
        }
        assert!(found, "no coupler between chains 0 and 1");
    }

    #[test]
    #[should_panic(expected = "|J_F|")]
    fn weak_chains_are_rejected() {
        let _ = compile(
            4,
            EmbedParams {
                j_ferro: 0.5,
                improved_range: false,
            },
        );
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn size_mismatch_panics() {
        let g = ChimeraGraph::dw2q_ideal();
        let e = CliqueEmbedding::new(&g, 8).unwrap();
        let logical = sample_logical(6);
        let _ = EmbeddedProblem::compile(&g, &e, &logical, EmbedParams::default());
    }
}
