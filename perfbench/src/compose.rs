//! One decode composed from the public layer functions, with a span
//! around each layer:
//!
//! `ising_from_ml` → `CliqueEmbedding::new` + `EmbeddedProblem::compile`
//! → `CompiledProblem::new` + `CompiledChains::compile` →
//! `Annealer::run_compiled` → `unembed_majority_vote` →
//! `SolutionDistribution::from_samples`.
//!
//! The composition must reproduce `DecodeSession::decode` bit for bit
//! under the same seed; [`Composer::decode`] checks that on every call.

use crate::trace::Tracer;
use quamax_anneal::{Annealer, CompiledChains, SolutionDistribution};
use quamax_chimera::{unembed_majority_vote, ChimeraGraph, CliqueEmbedding, EmbeddedProblem};
use quamax_core::{ising_from_ml, DecoderConfig, DetectionInput, QuamaxDecoder};
use quamax_ising::CompiledProblem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What one composed decode produced, with its per-layer host times.
pub struct Composed {
    pub distribution: SolutionDistribution,
    pub chain_break_fraction: f64,
    pub reduce_ns: f64,
    pub embed_ns: f64,
    pub freeze_ns: f64,
    pub anneal_ns: f64,
    pub unembed_ns: f64,
    pub rank_ns: f64,
    pub wall_ns: f64,
    /// `anneals × sweeps × physical qubits`.
    pub spin_updates: f64,
    pub anneals: usize,
}

/// A decoder together with the pieces its layers need when composed by
/// hand.
pub struct Composer {
    annealer: Annealer,
    graph: ChimeraGraph,
    decoder: QuamaxDecoder,
}

impl Composer {
    /// A composer (and its session decoder) on an ideal DW2Q chip.
    pub fn new(annealer: Annealer, config: DecoderConfig) -> Self {
        let graph = ChimeraGraph::dw2q_ideal();
        let decoder = QuamaxDecoder::with_graph(annealer.clone(), graph.clone(), config);
        Composer {
            annealer,
            graph,
            decoder,
        }
    }

    /// The session decoder the composition is checked against.
    pub fn decoder(&self) -> &QuamaxDecoder {
        &self.decoder
    }

    /// The chip graph.
    pub fn graph(&self) -> &ChimeraGraph {
        &self.graph
    }

    /// Decodes `input` (its own `y`) through the layer functions,
    /// recording one span per layer under a `compose` root span of
    /// `unit`, then checks the result against a session compiled by
    /// [`Composer::decoder`] decoding the same `y` under the same seed.
    pub fn decode(
        &self,
        input: &DetectionInput,
        num_anneals: usize,
        seed: u64,
        tracer: &mut Tracer,
        unit: u64,
    ) -> Result<Composed, String> {
        let composed = self.compose(input, num_anneals, seed, tracer, unit)?;
        let mut session = self
            .decoder
            .compile(input)
            .map_err(|e| format!("session compile failed: {e}"))?;
        let run = session.decode(&input.y, num_anneals, seed);
        if run.distribution() != &composed.distribution
            || run.chain_break_fraction() != composed.chain_break_fraction
        {
            return Err("composed layer decode differs from DecodeSession::decode".into());
        }
        Ok(composed)
    }

    fn compose(
        &self,
        input: &DetectionInput,
        num_anneals: usize,
        seed: u64,
        tracer: &mut Tracer,
        unit: u64,
    ) -> Result<Composed, String> {
        let (annealer, graph) = (&self.annealer, &self.graph);
        let config = self.decoder.config();
        let start = std::time::Instant::now();
        let root = tracer.begin("compose", unit, None);
        let mut lap = Lap::new();
        let (logical, _) = tracer.wrap("reduce", unit, root, || {
            ising_from_ml(&input.h, &input.y, input.modulation)
        });
        let reduce_ns = lap.next();
        let embedded = tracer
            .wrap("embed", unit, root, || {
                CliqueEmbedding::new(graph, logical.num_spins())
                    .map(|e| EmbeddedProblem::compile(graph, &e, &logical, config.embed))
            })
            .map_err(|e| format!("composed decode: embedding failed: {e}"))?;
        let embed_ns = lap.next();
        let (compiled, chains) = tracer.wrap("freeze", unit, root, || {
            let compiled = CompiledProblem::new(embedded.problem());
            let chains = CompiledChains::compile(&compiled, embedded.chains());
            (compiled, chains)
        });
        let freeze_ns = lap.next();
        let mut rng = StdRng::seed_from_u64(seed);
        let anneal_seed: u64 = rng.random();
        let samples = tracer.wrap("anneal", unit, root, || {
            annealer.run_compiled(
                &compiled,
                &chains,
                &config.schedule,
                num_anneals,
                anneal_seed,
            )
        });
        let anneal_ns = lap.next();
        let (logical_samples, broken) = tracer.wrap("unembed", unit, root, || {
            let mut broken = 0usize;
            let out: Vec<_> = samples
                .iter()
                .map(|s| {
                    let u = unembed_majority_vote(&embedded, s, &mut rng);
                    broken += u.broken_chains;
                    u.logical
                })
                .collect();
            (out, broken)
        });
        let unembed_ns = lap.next();
        let distribution = tracer.wrap("rank", unit, root, || {
            SolutionDistribution::from_samples(&logical, &logical_samples)
        });
        let rank_ns = lap.next();
        tracer.end(root);
        let sweeps = config
            .schedule
            .sweep_fractions(annealer.config().sweeps_per_us)
            .len();
        let total_chains = logical.num_spins().max(1) * samples.len().max(1);
        Ok(Composed {
            distribution,
            chain_break_fraction: broken as f64 / total_chains as f64,
            reduce_ns,
            embed_ns,
            freeze_ns,
            anneal_ns,
            unembed_ns,
            rank_ns,
            wall_ns: start.elapsed().as_nanos() as f64,
            spin_updates: (num_anneals * sweeps * embedded.num_physical()) as f64,
            anneals: num_anneals,
        })
    }
}

/// Successive host-clock laps, ns.
struct Lap(std::time::Instant);

impl Lap {
    fn new() -> Self {
        Lap(std::time::Instant::now())
    }

    fn next(&mut self) -> f64 {
        let now = std::time::Instant::now();
        let ns = (now - self.0).as_nanos() as f64;
        self.0 = now;
        ns
    }
}
