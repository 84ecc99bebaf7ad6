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
//! of the first three rows is a width-1 replica batch:
//!
//! * `sa_embedded_960q` — β-ladder SA sweeps over the clique-embedded
//!   60-user BPSK problem (960 physical qubits), the headline decode.
//!   The run asserts the compiled kernel is ≥ 2× faster here;
//! * `sa_chimera_2031q` — the same over a full-chip Chimera glass at
//!   the paper's 2,031 working qubits;
//! * `sqa_embedded_960q_8slice` — 8-slice SQA sweeps (local + global
//!   moves) over the embedded problem, laddered across the schedule
//!   like a real anneal;
//! * `sa_glass_batched_r{1,4,8}` — R replicas through one replica batch
//!   against R back-to-back naive ladders on the glass (the
//!   accept-dominated regime where the compiled kernel's win is
//!   smallest): one CSR row walk amortized over R replicas. The run
//!   asserts the width-8 batch is ≥ 1.25× faster;
//! * `ice_bind_embedded_624q_r8` — one window's per-anneal ICE refreeze
//!   on the clique-embedded 48-user BPSK problem (624 qubits), eight
//!   replicas: the reference `IceModel::refreeze` + `bind_replica`
//!   round trip against `bind_replica_ice`, which draws the same
//!   deviates through the bulk two-pass sampler and writes them
//!   straight into the strips. The run asserts both leave identical
//!   coefficients bound and that the fused bind is ≥ 1.2× faster.

use criterion::{measure_each, Summary};
use quamax_anneal::kernel::{ReplicaBatch, SqaReplicaBatch};
use quamax_anneal::IceModel;
use quamax_bench::kernelbench as kb;
use quamax_ising::CompiledProblem;
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// The ICE-bind row: reference refreeze + bind against the fused bind.
struct IceBindRow {
    /// Normal deviates drawn per measured op.
    normals: usize,
    reference: Summary,
    fused: Summary,
}

impl IceBindRow {
    const NAME: &'static str = "ice_bind_embedded_624q_r8";
    const WIDTH: usize = 8;

    fn speedup(&self) -> f64 {
        self.reference.min_ns / self.fused.min_ns
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
        batch.reset_shared(&compiled, 1);
        batch.init_replica(&compiled, 0, &spins);
        let mut rng_c = [StdRng::seed_from_u64(4)];
        let (naive, fast) = interleave(
            samples,
            rounds,
            |k| {
                measure_each(k, || {
                    kb::naive_sa_ladder(problem, &mut spins, &betas, &mut rng_n);
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
        let mut batch = SqaReplicaBatch::new();
        batch.reset_shared(&compiled, slices, 1);
        batch.init_replica(&compiled, 0, |k, i| starts[k][i]);
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
                    black_box(batch.spin(0, 0, 0))
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
            batch.reset_shared(&compiled, width);
            for r in 0..width {
                batch.init_replica(&compiled, r, &start(r));
            }
            let mut batch_rngs = streams();

            let (naive, batched) = interleave(
                samples,
                rounds,
                |k| {
                    measure_each(k, || {
                        for (spins, rng) in naive_spins.iter_mut().zip(naive_rngs.iter_mut()) {
                            kb::naive_sa_ladder(&glass, spins, &betas, rng);
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
        let (mut reference, mut fused) = (ReplicaBatch::new(), ReplicaBatch::new());
        reference.reset_per_replica(&compiled, width);
        fused.reset_per_replica(&compiled, width);
        let mut scratch = compiled.clone();
        let (mut reference_rngs, mut fused_rngs) = (streams(), streams());
        let (reference_time, fused_time) = interleave(
            samples,
            rounds,
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
                    for (r, rng) in fused_rngs.iter_mut().enumerate() {
                        fused.bind_replica_ice(r, &compiled, &ice, rng);
                    }
                    black_box(&fused);
                })
            },
        );
        // Identical bound coefficients ⇔ identical fields and energies
        // from one shared state, bit for bit.
        let state = kb::random_spins(compiled.num_spins(), &mut StdRng::seed_from_u64(71));
        for r in 0..width {
            reference.init_replica(&compiled, r, &state);
            fused.init_replica(&compiled, r, &state);
            assert_eq!(
                reference.energy(r).to_bits(),
                fused.energy(r).to_bits(),
                "fused ICE bind diverged from refreeze + bind (replica {r})"
            );
            for i in 0..compiled.num_spins() {
                assert_eq!(
                    reference.field(i, r).to_bits(),
                    fused.field(i, r).to_bits(),
                    "fused ICE bind diverged from refreeze + bind (replica {r}, spin {i})"
                );
            }
        }
        IceBindRow {
            normals: width * (compiled.num_spins() + compiled.num_couplings()),
            reference: reference_time,
            fused: fused_time,
        }
    };

    for r in &results {
        let rate = r
            .replicas
            .map(|w| format!("   ({:.0} replicas/s)", r.replicas_per_second(w)))
            .unwrap_or_default();
        println!(
            "{:<28} naive {:>12.0} ns   compiled {:>12.0} ns   speedup {:>5.2}x{rate}",
            r.name,
            r.naive.min_ns,
            r.compiled.min_ns,
            r.speedup()
        );
    }
    println!(
        "{:<28} ref   {:>12.0} ns   fused    {:>12.0} ns   speedup {:>5.2}x   ({:.1} ns/normal fused)",
        IceBindRow::NAME,
        ice_row.reference.min_ns,
        ice_row.fused.min_ns,
        ice_row.speedup(),
        ice_row.fused.min_ns / ice_row.normals as f64
    );

    assert!(
        ice_row.speedup() >= 1.2,
        "the fused ICE bind must beat refreeze + bind by ≥ 1.2x: {:.2}x",
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
        "fused_min_ns": ice_row.fused.min_ns.round(),
        "fused_median_ns": ice_row.fused.median_ns.round(),
        "speedup": (ice_row.speedup() * 100.0).round() / 100.0,
    }));
    let doc = serde_json::json!({
        "name": "BENCH_kernel",
        "unit": "ns per sweep pass",
        "note": "naive = adjacency-list flip_delta per proposal; compiled = CSR + incremental local fields through a width-1 ReplicaBatch/SqaReplicaBatch (asserted >= 2x on sa_embedded_960q); sa_glass_batched_rN = N replicas through one ReplicaBatch (one CSR row walk per proposed spin, amortized across replicas) vs N back-to-back naive ladders (asserted >= 1.25x at N = 8) — replicas_per_second counts full beta-ladder passes; ice_bind_embedded_624q_r8 = one 8-replica window's per-anneal ICE refreeze of the 48-user embedded problem, reference IceModel::refreeze + bind_replica vs bind_replica_ice (bulk two-pass normals written straight into the strips, asserted bit-identical), normals = deviates drawn per op; speedups computed from per-block minima, the statistic least contaminated by neighbors on a shared machine",
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
