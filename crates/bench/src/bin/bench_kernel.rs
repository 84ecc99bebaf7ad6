//! Records the sweep-kernel before/after comparison to
//! `BENCH_kernel.json` (run from the repo root:
//! `cargo run --release -p quamax-bench --bin bench_kernel`; pass
//! `--quick` for a CI smoke run — fewer samples, no JSON write, same
//! assertions; any other argument prints usage and exits 2).
//!
//! Measures the Monte-Carlo hot loop — the cost driver of every figure
//! in the reproduction — under the naive adjacency-list kernel the
//! repository started with and the CSR/local-field replica kernel that
//! replaced it, at the paper's two workload scales. The "compiled" side
//! of the first three rows is a width-1 `ReplicaBatch`, the one sweep
//! state of both samplers (one slice for SA, `P` Trotter slices for
//! SQA):
//!
//! * `sa_embedded_960q` — β-ladder SA sweeps over the clique-embedded
//!   60-user BPSK problem (960 physical qubits), the headline decode.
//!   The run asserts the compiled kernel is ≥ 2× faster here;
//! * `sa_chimera_2031q` — the same over a full-chip Chimera glass at
//!   the paper's 2,031 working qubits;
//! * `sqa_embedded_960q_8slice` — 8-slice SQA sweeps (local + global
//!   moves) over the embedded problem, laddered across the schedule
//!   like a real anneal, through an 8-slice width-1 batch;
//! * `sa_glass_batched_r{1,4,8}` — R replicas through one replica batch
//!   against R back-to-back naive ladders on the glass (the
//!   accept-dominated regime where the compiled kernel's win is
//!   smallest): one CSR row walk amortized over R replicas. The run
//!   asserts the width-8 batch is ≥ 1.25× faster;
//! * `ice_bind_embedded_624q_r8` — one window's per-anneal ICE refreeze
//!   on the clique-embedded 48-user BPSK problem (624 qubits), eight
//!   replicas: the reference `IceModel::refreeze` + `bind_replica`
//!   round trip per replica against one `bind_window_ice`, which draws
//!   the same ziggurat deviates from each replica's stream and writes
//!   the window entry-major, one contiguous strip per coefficient. The
//!   run asserts both leave identical coefficients bound and that the
//!   window bind is ≥ 1.2× faster, over 48 interleaved rounds where the
//!   other rows take 6;
//! * `ice_normals` — ns per standard-normal deviate, the ICE sampler
//!   (256-layer ziggurat) against the polar method that channels and
//!   noise draw from, over one replica's `n + m` deviates of that
//!   problem;
//! * `window_setup_embedded_624q_r8` — µs per setup of one 8-wide
//!   window of that problem (reset, ICE bind, random initial spins and
//!   their fields): the reference `init_replica_random` per replica,
//!   which walks the CSR rows once per replica with strided access,
//!   against drawing every replica's spins and then rebuilding all
//!   eight replicas' fields in one strip-wise pass. The run asserts
//!   equal spins, equal field bits and an equal next draw per stream;
//!   the speedup is reported, not asserted (it swings too widely on a
//!   shared machine for a gate);
//! * `window_embedded_624q_r8` — µs per full 8-wide window of that
//!   problem at the uplink operating point (calibrated ICE bind, random
//!   initial spins, one key per replica and fields, then the 8 sweeps of
//!   a 1 µs anneal with a 1 µs pause at 4 sweeps/µs, each followed by
//!   one move per chain): the scalar reference, which decides one
//!   counter-based proposal at a time, against the kernel dispatched to
//!   the host's widest instruction set, which decides eight at a time.
//!   The run asserts both leave the same spins, field bits and next
//!   draws; the speedup is reported, not asserted. The row also reports
//!   the spin pass's and the chain moves' lane acceptance and the
//!   window's chain-break fraction from an untimed pass;
//! * `vpp_clique_1088q_r{1,4}` — the same comparison at the shape of a
//!   metro VPP precode (the 64-variable clique embedding, 1 088 qubits,
//!   the default 40 sweeps) at the small widths 1 and 4 that its 4 + 1
//!   windows run at, in ns per spin proposal; asserted bit-identical.
//!
//! A speedup compares two kernels only within one interleaved run:
//! between full runs on a shared host the same binary's speedups swing
//! by about ±0.4×, so two `BENCH_kernel.json` files cannot rank kernels
//! closer than that.

use criterion::{measure_each, Summary};
use quamax_anneal::kernel::{CompiledChains, ReplicaBatch};
use quamax_anneal::schedule::curves;
use quamax_anneal::{draws, sa, AnnealerConfig, IceModel, Isa, WindowCoefficients};
use quamax_bench::kernelbench as kb;
use quamax_core::DecoderConfig;
use quamax_ising::CompiledProblem;
use quamax_linalg::rng::{standard_normal, NormalZiggurat};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;

/// One naive-vs-compiled row; `replicas` is set on the batched rows,
/// where both sides advance that many replica ladders per measured op.
struct Comparison {
    name: String,
    replicas: Option<usize>,
    naive: Summary,
    compiled: Summary,
}

/// Interleaves the two kernels' measurements in `rounds` alternating
/// windows and keeps the component-wise best summaries: a background
/// load spike then inflates both sides or neither, instead of silently
/// skewing whichever kernel it happened to overlap.
fn interleave(
    samples: usize,
    rounds: usize,
    mut naive: impl FnMut(usize) -> Summary,
    mut compiled: impl FnMut(usize) -> Summary,
) -> (Summary, Summary) {
    let best = |a: Summary, b: Summary| Summary {
        median_ns: a.median_ns.min(b.median_ns),
        min_ns: a.min_ns.min(b.min_ns),
        max_ns: a.max_ns.min(b.max_ns),
    };
    let (mut n, mut c) = (naive(samples), compiled(samples));
    for _ in 1..rounds {
        n = best(n, naive(samples));
        c = best(c, compiled(samples));
    }
    (n, c)
}

/// The ICE-bind row: reference refreeze + bind against the window bind.
struct IceBindRow {
    /// Normal deviates drawn per measured op.
    normals: usize,
    reference: Summary,
    window: Summary,
}

impl IceBindRow {
    const NAME: &'static str = "ice_bind_embedded_624q_r8";
    const WIDTH: usize = 8;
    /// Interleaved rounds in both modes. A round of this cheap row
    /// lasts milliseconds, so a few rounds fit inside one burst of a
    /// neighbor's load, and a burst that spares only the first
    /// reference block read as a failed gate (about one full run in
    /// ten at six rounds). Spreading the row over many short rounds
    /// gives each side quiet blocks to take its minimum from.
    const ROUNDS: usize = 48;

    fn speedup(&self) -> f64 {
        self.reference.min_ns / self.window.min_ns
    }
}

/// The window-setup row: per-replica field rebuilds against one
/// strip-wise pass.
struct WindowSetupRow {
    reference: Summary,
    strips: Summary,
}

impl WindowSetupRow {
    const NAME: &'static str = "window_setup_embedded_624q_r8";
    const WIDTH: usize = 8;

    fn speedup(&self) -> f64 {
        self.reference.min_ns / self.strips.min_ns
    }
}

/// One SA window of a problem under calibrated ICE: bind, random
/// initial spins, one key per replica, fields, then every sweep and
/// chain move — through the scalar reference (one proposal at a time)
/// or the dispatched kernel ([`ReplicaBatch::anneal_window`]).
struct WindowBench {
    compiled: CompiledProblem,
    chains: CompiledChains,
    betas: Vec<f64>,
    ice: IceModel,
    width: usize,
}

impl WindowBench {
    fn new(users: usize, sweeps_per_us: f64, width: usize) -> Self {
        let (embedded, chain_sets) = kb::embedded_bpsk(users, 1);
        let compiled = CompiledProblem::new(&embedded);
        let chains = CompiledChains::compile(&compiled, &chain_sets);
        let betas = DecoderConfig::default()
            .schedule
            .sweep_fractions(sweeps_per_us)
            .iter()
            .map(|&s| curves::beta(s).max(1e-3))
            .collect();
        WindowBench {
            compiled,
            chains,
            betas,
            ice: IceModel::calibrated(),
            width,
        }
    }

    fn streams(&self, base: u64) -> Vec<StdRng> {
        (0..self.width)
            .map(|r| StdRng::seed_from_u64(base + r as u64))
            .collect()
    }

    /// The window's setup; returns the keys.
    fn set_up(&self, batch: &mut ReplicaBatch, rngs: &mut [StdRng]) -> Vec<u64> {
        let problems = vec![&self.compiled; self.width];
        batch.reset_per_replica(&self.compiled, 1, self.width);
        batch.bind_window_ice(&problems, &self.ice, rngs);
        for (r, rng) in rngs.iter_mut().enumerate() {
            batch.draw_replica(r, rng);
        }
        let keys = rngs.iter_mut().map(|rng| rng.next_u64()).collect();
        batch.rebuild_fields(&self.compiled);
        keys
    }

    fn scalar(&self, batch: &mut ReplicaBatch, rngs: &mut [StdRng]) {
        let keys = self.set_up(batch, rngs);
        sa::anneal_batch_reference(&self.compiled, &self.chains, &self.betas, batch, &keys);
    }

    fn dispatched(&self, batch: &mut ReplicaBatch, rngs: &mut [StdRng]) {
        let problems = vec![&self.compiled; self.width];
        let coefficients = WindowCoefficients::PerReplica {
            structure: &self.compiled,
            problems: &problems,
            ice: &self.ice,
        };
        batch.anneal_window(coefficients, |_| None, &self.chains, &self.betas, rngs);
    }

    /// Times both paths interleaved over the same streams, equally
    /// often, then asserts they ended on the same spins, field bits and
    /// next draws: `(scalar, dispatched)`.
    fn time(&self, samples: usize, rounds: usize, seed: u64, name: &str) -> (Summary, Summary) {
        let (mut scalar, mut dispatched) = (ReplicaBatch::new(), ReplicaBatch::new());
        let (mut scalar_rngs, mut dispatched_rngs) = (self.streams(seed), self.streams(seed));
        let times = interleave(
            samples,
            rounds,
            |k| {
                measure_each(k, || {
                    self.scalar(&mut scalar, &mut scalar_rngs);
                    black_box(scalar.spin(0, 0))
                })
            },
            |k| {
                measure_each(k, || {
                    self.dispatched(&mut dispatched, &mut dispatched_rngs);
                    black_box(dispatched.spin(0, 0))
                })
            },
        );
        for r in 0..self.width {
            assert_eq!(
                scalar.replica_spins(r, 0),
                dispatched.replica_spins(r, 0),
                "{name}: the dispatched kernel ({:?}) left other spins than the scalar reference (replica {r})",
                Isa::detect()
            );
            for i in 0..self.compiled.num_spins() {
                assert_eq!(
                    scalar.field(i, r).to_bits(),
                    dispatched.field(i, r).to_bits(),
                    "{name}: the dispatched kernel left other fields (replica {r}, spin {i})"
                );
            }
            assert_eq!(
                scalar_rngs[r].next_u64(),
                dispatched_rngs[r].next_u64(),
                "{name}: the dispatched kernel left stream {r} elsewhere"
            );
        }
        times
    }

    /// Spin-pass proposals per window.
    fn proposals(&self) -> f64 {
        (self.width * self.compiled.num_spins() * self.betas.len()) as f64
    }
}

/// The full-window row: setup plus every sweep and chain move of one
/// anneal window, scalar reference against the dispatched kernel.
struct WindowRow {
    scalar: Summary,
    time: Summary,
    /// Sweeps per window.
    sweeps: usize,
    /// Accepted share of the spin pass's (spin, replica) proposals.
    acceptance: f64,
    /// Accepted share of the chain moves' (chain, replica) proposals.
    chain_acceptance: f64,
    /// Broken share of the (chain, replica) pairs the windows end with.
    chain_break_fraction: f64,
}

impl WindowRow {
    const NAME: &'static str = "window_embedded_624q_r8";
    const WIDTH: usize = 8;
    /// The uplink operating point's sweep density.
    const SWEEPS_PER_US: f64 = 4.0;
    /// Windows in the untimed statistics pass.
    const STAT_WINDOWS: usize = 32;

    fn speedup(&self) -> f64 {
        self.scalar.min_ns / self.time.min_ns
    }

    fn measure(samples: usize, rounds: usize) -> Self {
        let width = Self::WIDTH;
        let bench = WindowBench::new(48, Self::SWEEPS_PER_US, width);
        let (scalar, time) = bench.time(samples, rounds, 110, Self::NAME);

        // Statistics: the scalar reference's decisions counted.
        let (compiled, chains) = (&bench.compiled, &bench.chains);
        let n = compiled.num_spins();
        let mut batch = ReplicaBatch::new();
        let mut rngs = bench.streams(120);
        let (mut proposed, mut accepted, mut broken) = (0u64, 0u64, 0usize);
        let (mut chain_proposed, mut chain_accepted) = (0u64, 0u64);
        for _ in 0..Self::STAT_WINDOWS {
            let keys = bench.set_up(&mut batch, &mut rngs);
            for (t, &beta) in bench.betas.iter().enumerate() {
                let t = t as u32;
                batch.sweep_spins(compiled, |i, r, delta| {
                    let accept = draws::accept(beta, delta, keys[r], t, i as u32);
                    proposed += 1;
                    accepted += accept as u64;
                    accept
                });
                for c in 0..chains.len() {
                    batch.sweep_chain(compiled, chains, c, |r, delta| {
                        let accept = draws::accept(beta, delta, keys[r], t, (n + c) as u32);
                        chain_proposed += 1;
                        chain_accepted += accept as u64;
                        accept
                    });
                }
            }
            for r in 0..width {
                broken += (0..chains.len())
                    .filter(|&c| {
                        let members = chains.members(c);
                        members.iter().any(|&i| {
                            batch.spin(i as usize, r) != batch.spin(members[0] as usize, r)
                        })
                    })
                    .count();
            }
        }
        WindowRow {
            scalar,
            time,
            sweeps: bench.betas.len(),
            acceptance: accepted as f64 / proposed as f64,
            chain_acceptance: chain_accepted as f64 / chain_proposed as f64,
            chain_break_fraction: broken as f64
                / (Self::STAT_WINDOWS * width * chains.len()) as f64,
        }
    }
}

/// The small-width rows: windows of the 64-variable clique embedding
/// (1 088 qubits), the shape of a metro VPP precode, at the default
/// 40 sweeps, per spin proposal.
struct SmallWidthRow {
    width: usize,
    qubits: usize,
    sweeps: usize,
    scalar_ns: f64,
    dispatched_ns: f64,
}

impl SmallWidthRow {
    const WIDTHS: [usize; 2] = [1, 4];

    fn name(&self) -> String {
        format!("vpp_clique_{}q_r{}", self.qubits, self.width)
    }

    fn measure(samples: usize, rounds: usize, width: usize) -> Self {
        let bench = WindowBench::new(64, AnnealerConfig::default().sweeps_per_us, width);
        let name = format!("vpp_clique_r{width}");
        let (scalar, dispatched) = bench.time(samples, rounds, 130 + width as u64, &name);
        SmallWidthRow {
            width,
            qubits: bench.compiled.num_spins(),
            sweeps: bench.betas.len(),
            scalar_ns: scalar.min_ns / bench.proposals(),
            dispatched_ns: dispatched.min_ns / bench.proposals(),
        }
    }
}

impl Comparison {
    /// Speedup from the per-block *minimum* times: on a shared machine
    /// the minimum is the least contaminated by interference, so it is
    /// the fairest estimate of the kernels' intrinsic ratio.
    fn speedup(&self) -> f64 {
        self.naive.min_ns / self.compiled.min_ns
    }

    /// Replica ladder passes per second through the batched kernel
    /// (R replicas advance one full β ladder per measured op).
    fn replicas_per_second(&self, replicas: usize) -> f64 {
        replicas as f64 / (self.compiled.min_ns * 1e-9)
    }

    /// Asserts the row's speedup is at least `floor`.
    fn assert_speedup(&self, floor: f64, what: &str) {
        assert!(
            self.speedup() >= floor,
            "{}: {what} must be ≥ {floor}x faster than naive: {:.2}x",
            self.name,
            self.speedup()
        );
    }
}

fn main() {
    let quick = match std::env::args().skip(1).collect::<Vec<_>>().as_slice() {
        [] => false,
        [flag] if flag == "--quick" => true,
        _ => {
            eprintln!("usage: bench_kernel [--quick]");
            std::process::exit(2);
        }
    };
    let samples = if quick { 8 } else { 40 };
    let rounds = if quick { 2 } else { 6 };
    let betas = kb::schedule_betas();
    let mut results = Vec::new();

    let (embedded, _) = kb::embedded_bpsk(60, 1);
    let glass = kb::chimera_glass(2);
    for (name, problem) in [
        ("sa_embedded_960q", &embedded),
        ("sa_chimera_2031q", &glass),
    ] {
        let compiled = CompiledProblem::new(problem);
        let n = problem.num_spins();

        let mut spins = kb::random_spins(n, &mut StdRng::seed_from_u64(3));
        let mut rng_n = StdRng::seed_from_u64(4);
        let mut batch = ReplicaBatch::new();
        batch.reset_shared(&compiled, 1, 1);
        batch.init_replica(&compiled, 0, 0, &spins);
        let mut rng_c = [StdRng::seed_from_u64(4)];
        let (naive, fast) = interleave(
            samples,
            rounds,
            |k| {
                measure_each(k, || {
                    kb::naive_sa_ladder(
                        problem,
                        compiled.sweep_order(),
                        &mut spins,
                        &betas,
                        &mut rng_n,
                    );
                    black_box(spins[0])
                })
            },
            |k| {
                measure_each(k, || {
                    kb::batched_sa_ladder(&compiled, &mut batch, &betas, &mut rng_c);
                    black_box(batch.spin(0, 0))
                })
            },
        );

        results.push(Comparison {
            name: name.to_string(),
            replicas: None,
            naive,
            compiled: fast,
        });
    }

    {
        let compiled = CompiledProblem::new(&embedded);
        let n = embedded.num_spins();
        let slices = 8;

        let starts: Vec<Vec<i8>> = (0..slices)
            .map(|k| kb::random_spins(n, &mut StdRng::seed_from_u64(5 + k as u64)))
            .collect();
        let mut replicas = starts.clone();
        let mut rng_n = StdRng::seed_from_u64(6);
        let mut batch = ReplicaBatch::new();
        batch.reset_shared(&compiled, slices, 1);
        for (k, start) in starts.iter().enumerate() {
            batch.init_replica(&compiled, 0, k, start);
        }
        let mut rng_c = [StdRng::seed_from_u64(6)];
        let (naive, fast) = interleave(
            samples,
            rounds,
            |k| {
                measure_each(k, || {
                    kb::naive_sqa_ladder(&embedded, &mut replicas, slices, &mut rng_n);
                    black_box(replicas[0][0])
                })
            },
            |k| {
                measure_each(k, || {
                    kb::compiled_sqa_ladder(&compiled, &mut batch, &mut rng_c);
                    black_box(batch.spin(0, 0))
                })
            },
        );

        results.push(Comparison {
            name: "sqa_embedded_960q_8slice".to_string(),
            replicas: None,
            naive,
            compiled: fast,
        });
    }

    // Batched replica rows: R replicas of the full-chip glass through
    // one replica batch vs. R back-to-back naive ladders. Both sides do
    // identical work per measured op (R replica ladder passes), so the
    // min-time ratio is the replica-throughput speedup.
    {
        let compiled = CompiledProblem::new(&glass);
        let n = glass.num_spins();
        for width in [1usize, 4, 8] {
            let start = |r: usize| kb::random_spins(n, &mut StdRng::seed_from_u64(30 + r as u64));
            let streams = || -> Vec<StdRng> {
                (0..width)
                    .map(|r| StdRng::seed_from_u64(50 + r as u64))
                    .collect()
            };
            let mut naive_spins: Vec<Vec<i8>> = (0..width).map(start).collect();
            let mut naive_rngs = streams();

            let mut batch = ReplicaBatch::new();
            batch.reset_shared(&compiled, 1, width);
            for r in 0..width {
                batch.init_replica(&compiled, r, 0, &start(r));
            }
            let mut batch_rngs = streams();

            let (naive, batched) = interleave(
                samples,
                rounds,
                |k| {
                    measure_each(k, || {
                        for (spins, rng) in naive_spins.iter_mut().zip(naive_rngs.iter_mut()) {
                            kb::naive_sa_ladder(&glass, compiled.sweep_order(), spins, &betas, rng);
                        }
                        black_box(naive_spins[0][0])
                    })
                },
                |k| {
                    measure_each(k, || {
                        kb::batched_sa_ladder(&compiled, &mut batch, &betas, &mut batch_rngs);
                        black_box(batch.spin(0, 0))
                    })
                },
            );
            results.push(Comparison {
                name: format!("sa_glass_batched_r{width}"),
                replicas: Some(width),
                naive,
                compiled: batched,
            });
        }
    }

    // ICE bind row: both sides bind the same eight streams' refreezes,
    // and are called equally often, so they end on the same anneal.
    let ice_row = {
        let width = IceBindRow::WIDTH;
        let (embedded48, _) = kb::embedded_bpsk(48, 1);
        let compiled = CompiledProblem::new(&embedded48);
        let ice = IceModel::calibrated();
        let streams = || -> Vec<StdRng> {
            (0..width)
                .map(|r| StdRng::seed_from_u64(70 + r as u64))
                .collect()
        };
        let (mut reference, mut window) = (ReplicaBatch::new(), ReplicaBatch::new());
        reference.reset_per_replica(&compiled, 1, width);
        window.reset_per_replica(&compiled, 1, width);
        let mut scratch = compiled.clone();
        let (mut reference_rngs, mut window_rngs) = (streams(), streams());
        let problems = vec![&compiled; width];
        let (reference_time, window_time) = interleave(
            samples,
            IceBindRow::ROUNDS,
            |k| {
                measure_each(k, || {
                    for (r, rng) in reference_rngs.iter_mut().enumerate() {
                        ice.refreeze(&compiled, &mut scratch, rng);
                        reference.bind_replica(r, &scratch);
                    }
                    black_box(&reference);
                })
            },
            |k| {
                measure_each(k, || {
                    window.bind_window_ice(&problems, &ice, &mut window_rngs);
                    black_box(&window);
                })
            },
        );
        // Identical bound coefficients ⇔ identical fields and energies
        // from one shared state, bit for bit.
        let state = kb::random_spins(compiled.num_spins(), &mut StdRng::seed_from_u64(71));
        for r in 0..width {
            reference.init_replica(&compiled, r, 0, &state);
            window.init_replica(&compiled, r, 0, &state);
            assert_eq!(
                reference.energy(r, 0).to_bits(),
                window.energy(r, 0).to_bits(),
                "window ICE bind diverged from refreeze + bind (replica {r})"
            );
            for i in 0..compiled.num_spins() {
                assert_eq!(
                    reference.field(i, r).to_bits(),
                    window.field(i, r).to_bits(),
                    "window ICE bind diverged from refreeze + bind (replica {r}, spin {i})"
                );
            }
        }
        IceBindRow {
            normals: width * (compiled.num_spins() + compiled.num_couplings()),
            reference: reference_time,
            window: window_time,
        }
    };

    // ICE deviates: one replica's n + m draws per op, polar against
    // ziggurat.
    let (polar, ziggurat) = {
        let deviates = ice_row.normals / IceBindRow::WIDTH;
        let (mut polar_out, mut zig_out) = (vec![0.0; deviates], vec![0.0; deviates]);
        let (mut polar_rng, mut zig_rng) = (StdRng::seed_from_u64(80), StdRng::seed_from_u64(81));
        let zig = NormalZiggurat::get();
        interleave(
            samples,
            rounds,
            |k| {
                measure_each(k, || {
                    polar_out.fill_with(|| standard_normal(&mut polar_rng));
                    black_box(polar_out[0])
                })
            },
            |k| {
                measure_each(k, || {
                    zig_out.fill_with(|| zig.sample(&mut zig_rng));
                    black_box(zig_out[0])
                })
            },
        )
    };
    // Window setup: both sides set up windows from the same eight
    // streams, equally often, so they end on the same window.
    let setup_row = {
        let width = WindowSetupRow::WIDTH;
        let (embedded48, _) = kb::embedded_bpsk(48, 1);
        let compiled = CompiledProblem::new(&embedded48);
        let ice = IceModel::calibrated();
        let problems = vec![&compiled; width];
        let streams = || -> Vec<StdRng> {
            (0..width)
                .map(|r| StdRng::seed_from_u64(90 + r as u64))
                .collect()
        };
        let (mut reference, mut strips) = (ReplicaBatch::new(), ReplicaBatch::new());
        let (mut reference_rngs, mut strip_rngs) = (streams(), streams());
        let (reference_time, strips_time) = interleave(
            samples,
            rounds,
            |k| {
                measure_each(k, || {
                    reference.reset_per_replica(&compiled, 1, width);
                    reference.bind_window_ice(&problems, &ice, &mut reference_rngs);
                    for (r, rng) in reference_rngs.iter_mut().enumerate() {
                        reference.init_replica_random(&compiled, r, rng);
                    }
                    black_box(&reference);
                })
            },
            |k| {
                measure_each(k, || {
                    strips.reset_per_replica(&compiled, 1, width);
                    strips.bind_window_ice(&problems, &ice, &mut strip_rngs);
                    for (r, rng) in strip_rngs.iter_mut().enumerate() {
                        strips.draw_replica(r, rng);
                    }
                    strips.rebuild_fields(&compiled);
                    black_box(&strips);
                })
            },
        );
        for r in 0..width {
            for i in 0..compiled.num_spins() {
                assert_eq!(
                    reference.spin(i, r),
                    strips.spin(i, r),
                    "strip-wise window setup drew other spins (replica {r}, spin {i})"
                );
                assert_eq!(
                    reference.field(i, r).to_bits(),
                    strips.field(i, r).to_bits(),
                    "strip-wise window setup diverged (replica {r}, spin {i})"
                );
            }
            assert_eq!(
                rand::RngCore::next_u64(&mut reference_rngs[r]),
                rand::RngCore::next_u64(&mut strip_rngs[r]),
                "strip-wise window setup left stream {r} elsewhere"
            );
        }
        WindowSetupRow {
            reference: reference_time,
            strips: strips_time,
        }
    };

    let window_row = WindowRow::measure(samples, rounds);
    let small_rows: Vec<SmallWidthRow> = SmallWidthRow::WIDTHS
        .iter()
        .map(|&w| SmallWidthRow::measure(samples, rounds, w))
        .collect();

    let per_deviate = IceBindRow::WIDTH as f64 / ice_row.normals as f64;
    let (polar_ns, ziggurat_ns) = (polar.min_ns * per_deviate, ziggurat.min_ns * per_deviate);

    for r in &results {
        let rate = r
            .replicas
            .map(|w| format!("   ({:.0} replicas/s)", r.replicas_per_second(w)))
            .unwrap_or_default();
        println!(
            "{:<30} naive {:>12.0} ns   compiled {:>12.0} ns   speedup {:>5.2}x{rate}",
            r.name,
            r.naive.min_ns,
            r.compiled.min_ns,
            r.speedup()
        );
    }
    println!(
        "{:<30} ref   {:>12.0} ns   window   {:>12.0} ns   speedup {:>5.2}x   ({:.1} ns/normal window)",
        IceBindRow::NAME,
        ice_row.reference.min_ns,
        ice_row.window.min_ns,
        ice_row.speedup(),
        ice_row.window.min_ns / ice_row.normals as f64
    );
    println!(
        "{:<30} polar {:>12.2} ns   ziggurat {:>12.2} ns   speedup {:>5.2}x   (per deviate)",
        "ice_normals",
        polar_ns,
        ziggurat_ns,
        polar_ns / ziggurat_ns
    );

    println!(
        "{:<30} ref   {:>12.1} us   strips   {:>12.1} us   speedup {:>5.2}x   (per window)",
        WindowSetupRow::NAME,
        setup_row.reference.min_ns / 1e3,
        setup_row.strips.min_ns / 1e3,
        setup_row.speedup()
    );

    println!(
        "{:<30} scalar {:>11.1} us   {:<8} {:>10.1} us   speedup {:>5.2}x   (per window; lane acceptance {:.3}, chains {:.3}, chain breaks {:.3})",
        WindowRow::NAME,
        window_row.scalar.min_ns / 1e3,
        format!("{:?}", Isa::detect()),
        window_row.time.min_ns / 1e3,
        window_row.speedup(),
        window_row.acceptance,
        window_row.chain_acceptance,
        window_row.chain_break_fraction
    );
    for row in &small_rows {
        println!(
            "{:<30} scalar {:>11.2} ns   {:<8} {:>10.2} ns   speedup {:>5.2}x   (per spin proposal, {} sweeps)",
            row.name(),
            row.scalar_ns,
            format!("{:?}", Isa::detect()),
            row.dispatched_ns,
            row.scalar_ns / row.dispatched_ns,
            row.sweeps
        );
    }

    assert!(
        ice_row.speedup() >= 1.2,
        "the window ICE bind must beat refreeze + bind by ≥ 1.2x: {:.2}x",
        ice_row.speedup()
    );
    let row = |name: &str| results.iter().find(|r| r.name == name).expect("measured");
    row("sa_embedded_960q").assert_speedup(2.0, "the width-1 batch");
    row("sa_glass_batched_r8").assert_speedup(1.25, "the width-8 batch");

    let mut rows: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            let mut row = serde_json::json!({
                "bench": r.name.clone(),
                "naive_min_ns": r.naive.min_ns.round(),
                "naive_median_ns": r.naive.median_ns.round(),
                "compiled_min_ns": r.compiled.min_ns.round(),
                "compiled_median_ns": r.compiled.median_ns.round(),
                "speedup": (r.speedup() * 100.0).round() / 100.0,
            });
            if let (Some(w), serde_json::Value::Object(fields)) = (r.replicas, &mut row) {
                fields.push(("replicas".into(), w.into()));
                let rate = r.replicas_per_second(w).round();
                fields.push(("replicas_per_second".into(), rate.into()));
            }
            row
        })
        .collect();
    rows.push(serde_json::json!({
        "bench": IceBindRow::NAME,
        "replicas": IceBindRow::WIDTH,
        "normals": ice_row.normals,
        "reference_min_ns": ice_row.reference.min_ns.round(),
        "reference_median_ns": ice_row.reference.median_ns.round(),
        "window_min_ns": ice_row.window.min_ns.round(),
        "window_median_ns": ice_row.window.median_ns.round(),
        "speedup": (ice_row.speedup() * 100.0).round() / 100.0,
    }));
    let us = |ns: f64| (ns / 10.0).round() / 100.0;
    rows.push(serde_json::json!({
        "bench": WindowSetupRow::NAME,
        "replicas": WindowSetupRow::WIDTH,
        "reference_min_us": us(setup_row.reference.min_ns),
        "reference_median_us": us(setup_row.reference.median_ns),
        "strips_min_us": us(setup_row.strips.min_ns),
        "strips_median_us": us(setup_row.strips.median_ns),
        "speedup": (setup_row.speedup() * 100.0).round() / 100.0,
    }));
    rows.push(serde_json::json!({
        "bench": WindowRow::NAME,
        "replicas": WindowRow::WIDTH,
        "sweeps": window_row.sweeps,
        "isa": format!("{:?}", Isa::detect()),
        "scalar_min_us": us(window_row.scalar.min_ns),
        "scalar_median_us": us(window_row.scalar.median_ns),
        "window_min_us": us(window_row.time.min_ns),
        "window_median_us": us(window_row.time.median_ns),
        "speedup": (window_row.speedup() * 100.0).round() / 100.0,
        "lane_acceptance": (window_row.acceptance * 1e4).round() / 1e4,
        "chain_lane_acceptance": (window_row.chain_acceptance * 1e4).round() / 1e4,
        "chain_break_fraction": (window_row.chain_break_fraction * 1e4).round() / 1e4,
    }));
    for row in &small_rows {
        rows.push(serde_json::json!({
            "bench": row.name(),
            "replicas": row.width,
            "qubits": row.qubits,
            "sweeps": row.sweeps,
            "isa": format!("{:?}", Isa::detect()),
            "scalar_ns_per_proposal": (row.scalar_ns * 100.0).round() / 100.0,
            "dispatched_ns_per_proposal": (row.dispatched_ns * 100.0).round() / 100.0,
            "speedup": (row.scalar_ns / row.dispatched_ns * 100.0).round() / 100.0,
        }));
    }
    rows.push(serde_json::json!({
        "bench": "ice_normals",
        "deviates": ice_row.normals / IceBindRow::WIDTH,
        "polar_ns_per_deviate": (polar_ns * 100.0).round() / 100.0,
        "ziggurat_ns_per_deviate": (ziggurat_ns * 100.0).round() / 100.0,
        "speedup": (polar_ns / ziggurat_ns * 100.0).round() / 100.0,
    }));
    let doc = serde_json::json!({
        "name": "BENCH_kernel",
        "unit": "ns per sweep pass",
        "note": "naive = adjacency-list flip_delta per proposal; compiled = CSR + incremental local fields through a width-1 ReplicaBatch, one slice for SA and 8 Trotter slices for sqa_embedded_960q_8slice (asserted >= 2x on sa_embedded_960q); sa_glass_batched_rN = N replicas through one ReplicaBatch (one CSR row walk per proposed spin, amortized across replicas) vs N back-to-back naive ladders (asserted >= 1.25x at N = 8) — replicas_per_second counts full beta-ladder passes; ice_bind_embedded_624q_r8 = one 8-replica window's per-anneal ICE refreeze of the 48-user embedded problem, reference IceModel::refreeze + bind_replica per replica vs one bind_window_ice (ziggurat deviates from each replica's stream, then one entry-major pass writing each coefficient's 8-wide strip; asserted bit-identical and >= 1.2x), normals = deviates drawn per op; ice_normals = ns per standard-normal deviate over one replica's n + m = 2328 draws, polar standard_normal (channels, noise) vs the 256-layer NormalZiggurat (ICE), min-time per op divided by draws; window_setup_embedded_624q_r8 = microseconds per setup of one 8-replica window of the 48-user embedded problem (reset_per_replica + bind_window_ice + random initial spins and fields), reference init_replica_random per replica vs draw_replica per replica then one strip-wise rebuild_fields (asserted equal spins, field bits and next draw per stream; speedup reported, not asserted); window_embedded_624q_r8 = microseconds per full 8-replica window of the 48-user embedded problem at the uplink operating point (calibrated ICE bind, random initial spins, one key per replica and fields, the 8 sweeps of Ta = 1 us + 1 us pause at 4 sweeps/us with one move per chain after each), scalar = the one-proposal-at-a-time counter-based reference, window = the kernel dispatched to the host's widest instruction set (isa), asserted bit-identical (spins, field bits, next draws), speedup reported; lane_acceptance = accepted share of spin-pass (spin, replica) proposals, chain_lane_acceptance = the same for chain moves' (chain, replica) proposals, and chain_break_fraction = broken share of (chain, replica) pairs at the end of 32 untimed windows (reported, not asserted); vpp_clique_1088q_rN = the same scalar-vs-dispatched windows at a metro VPP precode's shape (64-variable clique embedding, 1088 qubits, 40 sweeps) at width N, in ns per spin proposal (asserted bit-identical); speedups computed from per-block minima, the statistic least contaminated by neighbors on a shared machine (ice_bind_embedded_624q_r8 over 48 interleaved rounds, the other rows over 6); a speedup compares kernels only within one interleaved run — between full runs on a shared host the same binary's speedups swing by about +/-0.4x",
        "rows": rows,
    });
    if !quick {
        std::fs::write(
            "BENCH_kernel.json",
            serde_json::to_string_pretty(&doc).expect("serializable"),
        )
        .expect("write BENCH_kernel.json");
    }

    if quick {
        println!("\n--quick: skipped BENCH_kernel.json write");
    } else {
        println!("\nwrote BENCH_kernel.json");
    }
}
