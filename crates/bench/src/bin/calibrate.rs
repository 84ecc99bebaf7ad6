//! Calibration probe (not a paper figure): measures the simulator's
//! ground-state probability `P0` across problem sizes, modulations,
//! `|J_F|`, dynamic range, and pause settings, to pick the default
//! `sweeps_per_us` and check that the qualitative shapes the paper
//! reports emerge before running the figure experiments.
//!
//! Run: `cargo run --release -p quamax-bench --bin calibrate`

use quamax_anneal::{AnnealerConfig, IceModel, Schedule};
use quamax_bench::{run_instance, run_instances, Args, RunSpec};
use quamax_chimera::EmbedParams;
use quamax_core::{DecoderConfig, Instance, Scenario};
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(
        &["anneals", "instances", "sweeps-per-us", "seed", "ice-scale"],
        &["no-ice"],
    );
    let anneals = args.get_usize("anneals", 400);
    let instances = args.get_usize("instances", 3);
    let sweeps = args.get_f64("sweeps-per-us", 20.0);
    let seed = args.get_u64("seed", 1);
    let ice = if args.has_flag("no-ice") {
        IceModel::none()
    } else {
        IceModel::dw2q().scaled(args.get_f64("ice-scale", 1.0))
    };

    println!("== P0 vs problem class (Ta=1µs + pause, J_F=4, improved) ==");
    for (nt, m) in [
        (12usize, Modulation::Bpsk),
        (36, Modulation::Bpsk),
        (48, Modulation::Bpsk),
        (60, Modulation::Bpsk),
        (6, Modulation::Qpsk),
        (14, Modulation::Qpsk),
        (18, Modulation::Qpsk),
        (4, Modulation::Qam16),
        (9, Modulation::Qam16),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let insts: Vec<Instance> = (0..instances)
            .map(|_| Scenario::new(nt, nt, m).sample(&mut rng))
            .collect();
        // All instances of this class decode in parallel (per-seed
        // deterministic; see runner::run_instances).
        let work: Vec<(&Instance, RunSpec)> = insts
            .iter()
            .enumerate()
            .map(|(k, inst)| {
                (
                    inst,
                    RunSpec {
                        decoder: DecoderConfig {
                            embed: EmbedParams {
                                j_ferro: 4.0,
                                improved_range: true,
                            },
                            schedule: Schedule::with_pause(1.0, 0.35, 1.0),
                        },
                        annealer: AnnealerConfig {
                            sweeps_per_us: sweeps,
                            ice,
                            ..Default::default()
                        },
                        anneals,
                        seed: seed * 1000 + k as u64,
                    },
                )
            })
            .collect();
        let p0s: Vec<f64> = run_instances(&work)
            .iter()
            .map(|(stats, _)| stats.p0)
            .collect();
        let avg = p0s.iter().sum::<f64>() / p0s.len() as f64;
        println!(
            "  {:>2} x {:<6} (N={:>3}): P0 = {:?} avg {:.4}",
            nt,
            m.name(),
            nt * m.bits_per_symbol(),
            p0s,
            avg
        );
    }

    println!("== P0 vs J_F (18x18 QPSK, Ta=1µs, no pause) ==");
    // The whole (range × J_F) grid runs as one sharded work list over
    // the same instance; print in grid order afterwards.
    let jfs = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0];
    let mut rng = StdRng::seed_from_u64(seed + 99);
    let jf_inst = Scenario::new(18, 18, Modulation::Qpsk).sample(&mut rng);
    let jf_inst_ref = &jf_inst;
    let jf_work: Vec<(&Instance, RunSpec)> = [false, true]
        .iter()
        .flat_map(|&improved| {
            jfs.iter().map(move |&jf| {
                (
                    jf_inst_ref,
                    RunSpec {
                        decoder: DecoderConfig {
                            embed: EmbedParams {
                                j_ferro: jf,
                                improved_range: improved,
                            },
                            schedule: Schedule::standard(1.0),
                        },
                        annealer: AnnealerConfig {
                            sweeps_per_us: sweeps,
                            ice,
                            ..Default::default()
                        },
                        anneals,
                        seed: seed * 7 + jf as u64,
                    },
                )
            })
        })
        .collect();
    let jf_results = run_instances(&jf_work);
    for (row, improved) in [false, true].into_iter().enumerate() {
        print!("  improved={improved}: ");
        for (col, jf) in jfs.iter().enumerate() {
            let (stats, _) = &jf_results[row * jfs.len() + col];
            print!("JF={jf}: {:.4}  ", stats.p0);
        }
        println!();
    }

    println!("== pause effect (18x18 QPSK, J_F=4 improved) ==");
    let schedules = [
        ("Ta=1 no pause   ", Schedule::standard(1.0)),
        ("Ta=2 no pause   ", Schedule::standard(2.0)),
        ("Ta=1 + Tp=1@0.25", Schedule::with_pause(1.0, 0.25, 1.0)),
        ("Ta=1 + Tp=1@0.35", Schedule::with_pause(1.0, 0.35, 1.0)),
        ("Ta=1 + Tp=1@0.45", Schedule::with_pause(1.0, 0.45, 1.0)),
        ("Ta=1 + Tp=10@0.35", Schedule::with_pause(1.0, 0.35, 10.0)),
    ];
    let mut rng = StdRng::seed_from_u64(seed + 123);
    let pause_inst = Scenario::new(18, 18, Modulation::Qpsk).sample(&mut rng);
    let pause_work: Vec<(&Instance, RunSpec)> = schedules
        .iter()
        .map(|&(_, sched)| {
            (
                &pause_inst,
                RunSpec {
                    decoder: DecoderConfig {
                        embed: EmbedParams {
                            j_ferro: 4.0,
                            improved_range: true,
                        },
                        schedule: sched,
                    },
                    annealer: AnnealerConfig {
                        sweeps_per_us: sweeps,
                        ice,
                        ..Default::default()
                    },
                    anneals,
                    seed: seed + 5,
                },
            )
        })
        .collect();
    for ((label, _), (stats, _)) in schedules.iter().zip(run_instances(&pause_work)) {
        println!(
            "  {label}: P0={:.4}  TTS99={}",
            stats.p0,
            stats
                .tts99_us()
                .map_or("inf".into(), |t| format!("{t:.1}us"))
        );
    }

    println!("== anneal time (48x48 BPSK, J_F=4 improved, no pause) ==");
    for ta in [1.0, 10.0, 100.0] {
        let mut rng = StdRng::seed_from_u64(seed + 7);
        let inst = Scenario::new(48, 48, Modulation::Bpsk).sample(&mut rng);
        let spec = RunSpec {
            decoder: DecoderConfig {
                embed: EmbedParams {
                    j_ferro: 4.0,
                    improved_range: true,
                },
                schedule: Schedule::standard(ta),
            },
            annealer: AnnealerConfig {
                sweeps_per_us: sweeps,
                ice,
                ..Default::default()
            },
            anneals: anneals / 2,
            seed: seed + 11,
        };
        let t0 = std::time::Instant::now();
        let (stats, _) = run_instance(&inst, &spec);
        println!(
            "  Ta={ta:>5}: P0={:.4} TTB(1e-6)={} wall={:?}",
            stats.p0,
            stats
                .ttb_us(1e-6)
                .map_or("inf".into(), |t| format!("{t:.1}us")),
            t0.elapsed()
        );
    }
}
