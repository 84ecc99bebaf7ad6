//! Records the sweep-kernel before/after comparison to
//! `BENCH_kernel.json` (run from the repo root:
//! `cargo run --release -p quamax-bench --bin bench_kernel`; pass
//! `--quick` for a CI smoke run — fewer samples, no JSON write, same
//! assertions; any other argument prints usage and exits 2).
//!
//! Each row times a reference arm against the kernel that replaced it.
//! The "compiled" side of the first three rows is a width-1
//! `ReplicaBatch`, the one sweep state of both samplers (one slice for
//! SA, `P` Trotter slices for SQA):
//!
//! * `sa_embedded_960q` — β-ladder SA sweeps, naive adjacency-list
//!   kernel against the CSR/local-field kernel, over the clique-embedded
//!   60-user BPSK problem (960 qubits), the headline decode. Gated ≥ 2×;
//! * `sa_chimera_2031q` — the same over a full-chip Chimera glass at
//!   the paper's 2,031 working qubits;
//! * `sqa_embedded_960q_8slice` — 8-slice SQA sweeps (local + global
//!   moves) over the embedded problem, laddered across the schedule;
//! * `sa_glass_batched_r{1,4,8}` — R replicas through one replica batch
//!   against R back-to-back naive ladders on the glass, one CSR row walk
//!   amortized over R replicas. Gated ≥ 1.25× at R = 8;
//! * `ice_bind_embedded_624q_r8` — one 8-replica window's per-anneal ICE
//!   refreeze on the embedded 48-user BPSK problem (624 qubits):
//!   `IceModel::refreeze` + `bind_replica` per replica against one
//!   entry-major `bind_window_ice` from the same streams. Asserted
//!   bit-identical and gated ≥ 1.2×, over 48 rounds where the others
//!   take 6;
//! * `ice_normals` — ns per standard-normal deviate, the polar method
//!   (channels, noise) against the ICE sampler's 256-layer ziggurat;
//! * `window_setup_embedded_624q_r8` — µs per setup of one 8-wide
//!   window (reset, ICE bind, random spins and fields):
//!   `init_replica_random` per replica against `draw_replica` per
//!   replica and one strip-wise `rebuild_fields`. Asserted identical;
//! * `window_embedded_624q_r8` — µs per full 8-wide window at the uplink
//!   operating point (calibrated ICE, random spins, one key per replica,
//!   the 8 sweeps of a 1 µs anneal with a 1 µs pause at 4 sweeps/µs,
//!   each followed by a move per chain): the scalar reference, one
//!   counter-based proposal at a time, against the kernel dispatched to
//!   the host's widest instruction set, eight at a time. Asserted
//!   identical; also reports lane acceptances and the chain-break
//!   fraction of untimed windows. A third arm, interleaved with the
//!   two, runs the dispatched window with no chains, and
//!   `chain_pass_share` = 1 − 1 / (the paired with-chains over
//!   no-chains ratio) is the chain moves' share of a window (reported,
//!   not gated);
//! * `window_embedded_{80,288}q_r{1,4,8}` — the same, with the same
//!   three arms, at the two shapes metro anneals: 16 BPSK variables on
//!   80 qubits (a 16-user uplink decode) and 32 on 288 qubits (a
//!   lattice-reduced 16-user VPP precode), 40 sweeps, at widths 1, 4
//!   and 8. Asserted identical; not gated.
//!
//! Every row times its arms with [`interleave`] and records each arm's
//! minimum and median call, `min_ratio` (the reference's minimum over
//! the kernel's, the statistic the gates read) and the paired per-round
//! median ratio with its bootstrap 95% interval. A ratio compares two
//! kernels only within one run: between runs on a shared host the same
//! binary's ratios move (`CHANGES.md` records their spread over 30
//! runs), so two `BENCH_kernel.json` files cannot rank kernels closer
//! than that.

use quamax_anneal::kernel::{CompiledChains, ReplicaBatch};
use quamax_anneal::schedule::curves;
use quamax_anneal::{draws, sa, AnnealerConfig, IceModel, Isa, WindowCoefficients};
use quamax_bench::kernelbench as kb;
use quamax_bench::measure::{interleave, Timing};
use quamax_bench::{Args, BenchRecord};
use quamax_core::DecoderConfig;
use quamax_ising::{CompiledProblem, IsingProblem};
use quamax_linalg::rng::{standard_normal, NormalZiggurat};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde_json::json;
use std::hint::black_box;

/// The gated rows and the floor of their per-arm-minimum ratio.
const GATES: [(&str, f64); 3] = [
    ("sa_embedded_960q", 2.0),
    ("sa_glass_batched_r8", 1.25),
    ("ice_bind_embedded_624q_r8", 1.2),
];

/// Interleaved rounds of the ICE-bind row in both modes. A round of this
/// cheap row lasts milliseconds, so a few rounds fit inside one burst of
/// a neighbor's load, and a burst that spares only the first reference
/// block read as a failed gate (about one full run in ten at six
/// rounds). Spreading the row over many short rounds gives each side
/// quiet blocks to take its minimum from.
const ICE_BIND_ROUNDS: usize = 48;

/// Replicas of the window rows on the 48-user problem.
const WIDTH: usize = 8;

/// The record under construction and the gates that failed.
struct Rows {
    record: BenchRecord,
    failed: Vec<String>,
}

impl Rows {
    /// Prints one row (arm 0 the reference, arm 1 the kernel under
    /// test, nanoseconds times `scale` in `unit`), records it after the
    /// `head` fields (which tag it with its `row` name) and checks its
    /// gate, if it has one.
    fn push(&mut self, timing: &Timing, scale: f64, unit: &str, head: serde_json::Value) {
        let name = head.get("row").and_then(|r| r.as_str()).expect("tagged");
        println!("{name:<30} {}", timing.pair_line((0, 1), scale, unit));
        let ratio = timing.min_ratio(0, 1);
        for (_, floor) in GATES.iter().filter(|(gate, _)| *gate == name) {
            if ratio < *floor {
                let failure = format!("{name} must be ≥ {floor}x: {ratio:.2}x");
                self.failed.push(failure);
            }
        }
        let row = timing.pair_json(head, (0, 1), scale, unit);
        self.record.rows.push(row);
    }
}

/// Asserts `a` and `b` hold the same spins and field bits in every
/// replica and their streams stand at the same next draw.
fn assert_same(
    what: &str,
    a: (&ReplicaBatch, &mut [StdRng]),
    b: (&ReplicaBatch, &mut [StdRng]),
    n: usize,
) {
    let ((a, rngs_a), (b, rngs_b)) = (a, b);
    for (r, (rng_a, rng_b)) in rngs_a.iter_mut().zip(rngs_b).enumerate() {
        for i in 0..n {
            let cell = |x: &ReplicaBatch| (x.spin(i, r), x.field(i, r).to_bits());
            assert_eq!(cell(a), cell(b), "{what}: replica {r}, spin {i}");
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{what}: stream {r}");
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
        let ice = IceModel::calibrated();
        WindowBench {
            compiled,
            chains,
            betas,
            ice,
            width,
        }
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

    /// One window through the dispatched kernel under `chains`.
    fn dispatch(&self, batch: &mut ReplicaBatch, chains: &CompiledChains, rngs: &mut [StdRng]) {
        let problems = vec![&self.compiled; self.width];
        let coefficients = WindowCoefficients::PerReplica {
            structure: &self.compiled,
            problems: &problems,
            ice: &self.ice,
        };
        batch.anneal_window(coefficients, |_| None, chains, &self.betas, rngs);
        black_box(batch.spin(0, 0));
    }

    /// Times the scalar reference against the dispatched kernel, and
    /// the dispatched kernel with no chains (the chain pass's share of
    /// a window), interleaved equally often; then asserts the first two,
    /// run over the same streams, ended on the same spins, field bits
    /// and next draws.
    fn time(&self, samples: usize, rounds: usize, seed: u64, name: &str) -> Timing {
        let (mut scalar, mut dispatched) = (ReplicaBatch::new(), ReplicaBatch::new());
        let (mut scalar_rngs, mut dispatched_rngs) =
            (streams(seed, self.width), streams(seed, self.width));
        let (mut bare, mut bare_rngs) = (ReplicaBatch::new(), streams(seed, self.width));
        let no_chains = CompiledChains::default();
        let timing = interleave(
            rounds,
            samples,
            &mut [
                ("scalar", &mut || {
                    let keys = self.set_up(&mut scalar, &mut scalar_rngs);
                    let (compiled, chains) = (&self.compiled, &self.chains);
                    sa::anneal_batch_reference(compiled, chains, &self.betas, &mut scalar, &keys);
                    black_box(scalar.spin(0, 0));
                }),
                ("dispatched", &mut || {
                    self.dispatch(&mut dispatched, &self.chains, &mut dispatched_rngs)
                }),
                ("no_chains", &mut || {
                    self.dispatch(&mut bare, &no_chains, &mut bare_rngs)
                }),
            ],
        );
        let what = format!(
            "{name}: the {:?} kernel vs the scalar reference",
            Isa::detect()
        );
        let (a, b) = (
            (&scalar, &mut scalar_rngs[..]),
            (&dispatched, &mut dispatched_rngs[..]),
        );
        assert_same(&what, a, b, self.compiled.num_spins());
        timing
    }

    /// Acceptance and chain breaks of `windows` untimed windows, the
    /// scalar reference's decisions counted: the spin pass's accepted
    /// share of (spin, replica) proposals, the chain moves' of (chain,
    /// replica) proposals, and the broken share of (chain, replica)
    /// pairs the windows end with.
    fn statistics(&self, windows: usize) -> [f64; 3] {
        let (compiled, chains) = (&self.compiled, &self.chains);
        let n = compiled.num_spins();
        let mut batch = ReplicaBatch::new();
        let mut rngs = streams(120, self.width);
        let (mut proposed, mut accepted, mut broken) = (0, 0, 0);
        let (mut chain_proposed, mut chain_accepted) = (0, 0);
        for _ in 0..windows {
            let keys = self.set_up(&mut batch, &mut rngs);
            for (t, &beta) in self.betas.iter().enumerate() {
                let t = t as u32;
                batch.sweep_spins(compiled, |i, r, delta| {
                    let accept = draws::accept(beta, delta, keys[r], t, i as u32);
                    proposed += 1;
                    accepted += accept as usize;
                    accept
                });
                for c in 0..chains.len() {
                    batch.sweep_chain(compiled, chains, c, |r, delta| {
                        let accept = draws::accept(beta, delta, keys[r], t, (n + c) as u32);
                        chain_proposed += 1;
                        chain_accepted += accept as usize;
                        accept
                    });
                }
            }
            for r in 0..self.width {
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
        let share = |part: usize, whole: usize| (part as f64 / whole as f64 * 1e4).round() / 1e4;
        [
            share(accepted, proposed),
            share(chain_accepted, chain_proposed),
            share(broken, windows * self.width * chains.len()),
        ]
    }
}

/// `width` replicas of `problem` through back-to-back naive β ladders
/// against one compiled replica batch, from random starts seeded
/// `seeds.0 + r` and streams seeded `seeds.1 + r` (replica `r`).
fn sa_ladders(
    problem: &IsingProblem,
    width: usize,
    seeds: (u64, u64),
    betas: &[f64],
    rounds: usize,
    samples: usize,
) -> Timing {
    let compiled = CompiledProblem::new(problem);
    let start = |r| kb::random_spins(problem.num_spins(), &mut StdRng::seed_from_u64(seeds.0 + r));
    let mut naive_spins: Vec<Vec<i8>> = (0..width as u64).map(start).collect();
    let mut naive_rngs = streams(seeds.1, width);
    let mut batch = ReplicaBatch::new();
    batch.reset_shared(&compiled, 1, width);
    for (r, spins) in naive_spins.iter().enumerate() {
        batch.init_replica(&compiled, r, 0, spins);
    }
    let mut batch_rngs = streams(seeds.1, width);
    interleave(
        rounds,
        samples,
        &mut [
            ("naive", &mut || {
                for (spins, rng) in naive_spins.iter_mut().zip(&mut naive_rngs) {
                    kb::naive_sa_ladder(problem, compiled.sweep_order(), spins, betas, rng);
                }
                black_box(naive_spins[0][0]);
            }),
            ("compiled", &mut || {
                kb::batched_sa_ladder(&compiled, &mut batch, betas, &mut batch_rngs);
                black_box(batch.spin(0, 0));
            }),
        ],
    )
}

/// The chain pass's share of a [`WindowBench::time`] window, `1 −
/// no-chains / with-chains` by the paired per-round ratio (a ratio of
/// two arms' minima can lose its sign on a shared host), to four
/// decimals.
fn chain_pass_share(timing: &Timing) -> f64 {
    ((1.0 - 1.0 / timing.paired(1, 2).median) * 1e4).round() / 1e4
}

/// The chain pass's share and the no-chains window, as one line.
fn chain_pass_line(timing: &Timing) -> String {
    let share = chain_pass_share(timing);
    let bare = timing.min_ns(2) * 1e-3;
    format!("chain pass share {share:.3} (no chains {bare:.1} us)")
}

/// `width` streams seeded `base`, `base + 1`, ….
fn streams(base: u64, width: usize) -> Vec<StdRng> {
    (0..width)
        .map(|r| StdRng::seed_from_u64(base + r as u64))
        .collect()
}

fn main() {
    let quick = Args::parse(&[], &["quick"]).has_flag("quick");
    let samples = if quick { 8 } else { 40 };
    let rounds = if quick { 2 } else { 6 };
    let isa = format!("{:?}", Isa::detect());
    let betas = kb::schedule_betas();
    let mut rows = Rows {
        record: BenchRecord::new("BENCH_kernel", "host"),
        failed: Vec::new(),
    };
    let ladder = "ns per ladder pass";

    let (embedded, _) = kb::embedded_bpsk(60, 1);
    let glass = kb::chimera_glass(2);
    let ladders =
        |problem, width, seeds| sa_ladders(problem, width, seeds, &betas, rounds, samples);
    let timing = ladders(&embedded, 1, (3, 4));
    rows.push(&timing, 1.0, ladder, json!({ "row": "sa_embedded_960q" }));
    let timing = ladders(&glass, 1, (3, 4));
    rows.push(&timing, 1.0, ladder, json!({ "row": "sa_chimera_2031q" }));

    {
        let compiled = CompiledProblem::new(&embedded);
        let (n, slices) = (compiled.num_spins(), 8);
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
        let timing = interleave(
            rounds,
            samples,
            &mut [
                ("naive", &mut || {
                    kb::naive_sqa_ladder(&embedded, &mut replicas, slices, &mut rng_n);
                    black_box(replicas[0][0]);
                }),
                ("compiled", &mut || {
                    kb::compiled_sqa_ladder(&compiled, &mut batch, &mut rng_c);
                    black_box(batch.spin(0, 0));
                }),
            ],
        );
        let head = json!({ "row": "sqa_embedded_960q_8slice" });
        rows.push(&timing, 1.0, ladder, head);
    }

    // Batched replica rows: R replicas of the full-chip glass through
    // one replica batch vs. R back-to-back naive ladders. Both sides do
    // identical work per measured op (R replica ladder passes), so the
    // min-time ratio is the replica-throughput speedup.
    for width in [1, 4, 8] {
        let timing = ladders(&glass, width, (30, 50));
        let head = json!({
            "row": format!("sa_glass_batched_r{width}"),
            "replicas": width,
            "replicas_per_second": (width as f64 / (timing.min_ns(1) * 1e-9)).round(),
        });
        rows.push(&timing, 1.0, ladder, head);
    }

    // ICE bind row: both sides bind the same eight streams' refreezes,
    // and are called equally often, so they end on the same anneal.
    let (embedded48, _) = kb::embedded_bpsk(48, 1);
    let compiled48 = CompiledProblem::new(&embedded48);
    let n = compiled48.num_spins();
    let ice = IceModel::calibrated();
    let problems = vec![&compiled48; WIDTH];
    let deviates = n + compiled48.num_couplings();
    {
        let (mut reference, mut window) = (ReplicaBatch::new(), ReplicaBatch::new());
        reference.reset_per_replica(&compiled48, 1, WIDTH);
        window.reset_per_replica(&compiled48, 1, WIDTH);
        let mut scratch = compiled48.clone();
        let (mut reference_rngs, mut window_rngs) = (streams(70, WIDTH), streams(70, WIDTH));
        let timing = interleave(
            ICE_BIND_ROUNDS,
            samples,
            &mut [
                ("reference", &mut || {
                    for (r, rng) in reference_rngs.iter_mut().enumerate() {
                        ice.refreeze(&compiled48, &mut scratch, rng);
                        reference.bind_replica(r, &scratch);
                    }
                    black_box(&reference);
                }),
                ("window", &mut || {
                    window.bind_window_ice(&problems, &ice, &mut window_rngs);
                    black_box(&window);
                }),
            ],
        );
        // Identical bound coefficients ⇔ identical fields and energies
        // from one shared state, bit for bit.
        let state = kb::random_spins(n, &mut StdRng::seed_from_u64(71));
        for r in 0..WIDTH {
            reference.init_replica(&compiled48, r, 0, &state);
            window.init_replica(&compiled48, r, 0, &state);
            let bits = |x: &ReplicaBatch| x.energy(r, 0).to_bits();
            assert_eq!(
                bits(&reference),
                bits(&window),
                "ICE bind energies (replica {r})"
            );
        }
        let (a, b) = (
            (&reference, &mut reference_rngs[..]),
            (&window, &mut window_rngs[..]),
        );
        assert_same("window ICE bind vs refreeze + bind", a, b, n);
        let head = json!({
            "row": "ice_bind_embedded_624q_r8",
            "replicas": WIDTH,
            "normals": WIDTH * deviates,
        });
        rows.push(&timing, 1.0, "ns per window bind", head);
    }

    // ICE deviates: one replica's n + m draws per op, polar against
    // ziggurat.
    {
        let (mut polar_out, mut zig_out) = (vec![0.0; deviates], vec![0.0; deviates]);
        let (mut polar_rng, mut zig_rng) = (StdRng::seed_from_u64(80), StdRng::seed_from_u64(81));
        let zig = NormalZiggurat::get();
        let timing = interleave(
            rounds,
            samples,
            &mut [
                ("polar", &mut || {
                    polar_out.fill_with(|| standard_normal(&mut polar_rng));
                    black_box(polar_out[0]);
                }),
                ("ziggurat", &mut || {
                    zig_out.fill_with(|| zig.sample(&mut zig_rng));
                    black_box(zig_out[0]);
                }),
            ],
        );
        let head = json!({ "row": "ice_normals", "deviates": deviates });
        rows.push(&timing, 1.0 / deviates as f64, "ns per deviate", head);
    }

    // Window setup: both sides set up windows from the same eight
    // streams, equally often, so they end on the same window.
    {
        let (mut reference, mut strips) = (ReplicaBatch::new(), ReplicaBatch::new());
        let (mut reference_rngs, mut strip_rngs) = (streams(90, WIDTH), streams(90, WIDTH));
        let timing = interleave(
            rounds,
            samples,
            &mut [
                ("reference", &mut || {
                    reference.reset_per_replica(&compiled48, 1, WIDTH);
                    reference.bind_window_ice(&problems, &ice, &mut reference_rngs);
                    for (r, rng) in reference_rngs.iter_mut().enumerate() {
                        reference.init_replica_random(&compiled48, r, rng);
                    }
                    black_box(&reference);
                }),
                ("strips", &mut || {
                    strips.reset_per_replica(&compiled48, 1, WIDTH);
                    strips.bind_window_ice(&problems, &ice, &mut strip_rngs);
                    for (r, rng) in strip_rngs.iter_mut().enumerate() {
                        strips.draw_replica(r, rng);
                    }
                    strips.rebuild_fields(&compiled48);
                    black_box(&strips);
                }),
            ],
        );
        let (a, b) = (
            (&reference, &mut reference_rngs[..]),
            (&strips, &mut strip_rngs[..]),
        );
        assert_same("strip-wise window setup", a, b, n);
        let head = json!({ "row": "window_setup_embedded_624q_r8", "replicas": WIDTH });
        rows.push(&timing, 1e-3, "us per window", head);
    }

    // Full windows at the uplink operating point (4 sweeps/µs), then at
    // the two shapes metro anneals, at every width a batch runs.
    let bench = WindowBench::new(48, 4.0, WIDTH);
    let timing = bench.time(samples, rounds, 110, "window_embedded_624q_r8");
    let [lanes, chain_lanes, breaks] = bench.statistics(32);
    let head = json!({
        "row": "window_embedded_624q_r8",
        "replicas": WIDTH,
        "sweeps": bench.betas.len(),
        "isa": isa.clone(),
        "lane_acceptance": lanes,
        "chain_lane_acceptance": chain_lanes,
        "chain_break_fraction": breaks,
        "chain_pass_share": chain_pass_share(&timing),
    });
    rows.push(&timing, 1e-3, "us per window", head);
    let stats =
        format!("lane acceptance {lanes:.3}, chains {chain_lanes:.3}, chain breaks {breaks:.3}");
    println!("{:<30} {isa}: {stats}, {}", "", chain_pass_line(&timing));
    for (variables, seed) in [(16, 130), (32, 140)] {
        for width in [1, 4, 8] {
            let bench = WindowBench::new(variables, AnnealerConfig::default().sweeps_per_us, width);
            let qubits = bench.compiled.num_spins();
            let name = format!("window_embedded_{qubits}q_r{width}");
            let timing = bench.time(samples, rounds, seed + width as u64, &name);
            let head = json!({
                "row": name,
                "variables": variables,
                "replicas": width,
                "sweeps": bench.betas.len(),
                "isa": isa.clone(),
                "chain_pass_share": chain_pass_share(&timing),
            });
            rows.push(&timing, 1e-3, "us per window", head);
            println!("{:<30} {}", "", chain_pass_line(&timing));
        }
    }

    assert!(rows.failed.is_empty(), "{}", rows.failed.join("; "));
    let mut record = rows.record;
    let gates =
        GATES.map(|(name, floor)| (format!("{name}_min_ratio_at_least_{floor}"), json!(true)));
    let mut asserts = vec![("bit_identical".to_string(), json!(true))];
    asserts.extend(gates);
    record.asserts = serde_json::Value::Object(asserts);
    record.workload = json!({
        "problems": "60-user BPSK clique-embedded on C16 (960 qubits), full-chip Chimera glass \
            (2031 working qubits), 48-user BPSK embedded (624 qubits), 16- and 32-variable \
            BPSK embedded (80 and 288 qubits, the 16-user uplink and lattice-reduced VPP \
            shapes metro anneals)",
        "samples": samples,
        "rounds": rounds,
        "ice_bind_rounds": ICE_BIND_ROUNDS,
        "isa": isa,
    });
    record.note = "each row times its reference arm (first) against the kernel under test \
        (second) with quamax_bench::measure::interleave: rounds of samples timed calls per arm, \
        the first arm alternating; min/median = per-call minimum/median in the row's unit; \
        min_ratio = reference minimum over kernel minimum, gated at >= 2 on sa_embedded_960q, \
        >= 1.25 on sa_glass_batched_r8 and >= 1.2 on ice_bind_embedded_624q_r8 (over \
        ice_bind_rounds); paired_median_ratio = median over rounds of the per-round median \
        ratio, with its fixed-seed bootstrap 95% interval over rounds (reported, not gated); \
        the ice_bind, window_setup and window rows assert both arms end bit for bit alike; chain_pass_share = 1 - no-chains minimum / dispatched minimum, from a third \
        arm in the same interleave; the bench_kernel binary's documentation describes every row"
        .to_string();
    if quick {
        println!("\n--quick: skipped BENCH_kernel.json write");
    } else {
        let path = record.write().expect("write BENCH_kernel.json");
        println!("\nwrote {}", path.display());
    }
}
