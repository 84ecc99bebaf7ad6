//! The calibration probe and the ablations: what each modelling choice
//! of the reproduction costs or buys.

use super::{
    candidate, classes, default_decoder, draw, label, median, or_inf, p0s, preset, run_each,
    square, ttb, tts99, Entry, Preset, ALL, QUICK,
};
use crate::ground::ground_truth;
use crate::output::Report;
use crate::runner::{inner_threads_for, run_instance, run_instances, run_map};
use crate::workload::{default_params, spec_for};
use quamax_anneal::{Annealer, AnnealerConfig, Backend, IceModel, Schedule, SolutionDistribution};
use quamax_baselines::ZeroForcingDetector;
use quamax_chimera::{
    unembed_majority_vote, ChimeraGraph, CliqueEmbedding, EmbedParams, EmbeddedProblem,
};
use quamax_core::reduce::ising_from_ml;
use quamax_core::{DetectionInput, Instance, Scenario};
use quamax_ising::spins_to_bits;
use quamax_wireless::Modulation::{Bpsk, Qam16, Qpsk};
use quamax_wireless::{count_bit_errors, dft_pilots, estimate_channel, Snr};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

pub(super) static CALIBRATE: Entry = Entry {
    name: "calibrate",
    reproduces: "calibration probe (not a paper figure)",
    shapes: "P0 across problem classes, |J_F|, dynamic range and pause settings \
        under the paper's full ICE moments (1.0x) at 20 sweeps/us: the probe \
        behind the default sweep rate and the 0.2x ICE calibration \
        (`IceModel::calibrated`). Under the full moments P0 vanishes on every \
        class of 28 or more variables, so the J_F, pause and anneal-time probes \
        (18x18 QPSK, 48x48 BPSK) read 0 at every setting. This holds at the \
        quick preset; the small classes' P0 needs the full preset \
        (`repro calibrate`).",
    reads: ALL,
    full: preset(400, 3),
    quick: QUICK,
    run: calibrate,
};

fn calibrate(p: &Preset) -> Report {
    const SWEEPS_PER_US: f64 = 20.0;
    let params = json!({
        "anneals": p.anneals, "instances": p.instances, "seed": p.seed,
        "sweeps_per_us": SWEEPS_PER_US, "ice_scale": 1.0
    });
    let mut report = Report::new("calibrate", params);
    let annealer = AnnealerConfig {
        sweeps_per_us: SWEEPS_PER_US,
        ice: IceModel::dw2q(),
        ..Default::default()
    };
    // P0 per class at the default operating point.
    let sets = [
        (Bpsk, &[12, 36, 48, 60][..]),
        (Qpsk, &[6, 14, 18]),
        (Qam16, &[4, 9]),
    ];
    for (nt, m) in classes(&sets) {
        let insts = square(nt, m, p.instances, p.seed);
        let seeds = Preset {
            seed: p.seed * 1000,
            ..*p
        };
        let stats = run_each(&insts, default_params(), annealer, &seeds);
        let p0 = p0s(&stats);
        let mean = p0.iter().sum::<f64>() / p0.len() as f64;
        let logical = nt * m.bits_per_symbol();
        report.push(json!({"class": label(nt, m), "logical": logical, "p0": p0, "p0_mean": mean}));
    }
    // P0 vs J_F and range on one 18x18 QPSK instance, Ta = 1 us.
    let inst = &square(18, Qpsk, 1, p.seed + 99)[0];
    let grid: Vec<(bool, f64)> = ([false, true].into_iter())
        .flat_map(|improved| [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0].map(|jf| (improved, jf)))
        .collect();
    let work: Vec<_> = (grid.iter())
        .map(|&(improved, jf)| {
            let params = candidate(jf, improved, Schedule::standard(1.0));
            (
                inst,
                spec_for(params, annealer, p.anneals, p.seed * 7 + jf as u64),
            )
        })
        .collect();
    for ((improved, jf), (stats, _)) in grid.iter().zip(run_instances(&work)) {
        report.push(json!({
            "class": label(18, Qpsk), "improved_range": *improved, "j_ferro": *jf, "p0": stats.p0,
        }));
    }
    // The pause effect on another 18x18 QPSK instance.
    let with_pause = |sp, tp| Schedule::with_pause(1.0, sp, tp);
    let schedules = [
        ("Ta=1 no pause", Schedule::standard(1.0)),
        ("Ta=2 no pause", Schedule::standard(2.0)),
        ("Ta=1 + Tp=1@0.25", with_pause(0.25, 1.0)),
        ("Ta=1 + Tp=1@0.35", with_pause(0.35, 1.0)),
        ("Ta=1 + Tp=1@0.45", with_pause(0.45, 1.0)),
        ("Ta=1 + Tp=10@0.35", with_pause(0.35, 10.0)),
    ];
    let inst = &square(18, Qpsk, 1, p.seed + 123)[0];
    let work: Vec<_> = (schedules.iter())
        .map(|&(_, s)| {
            (
                inst,
                spec_for(candidate(4.0, true, s), annealer, p.anneals, p.seed + 5),
            )
        })
        .collect();
    for ((name, _), (stats, _)) in schedules.iter().zip(run_instances(&work)) {
        report.push(json!({
            "class": label(18, Qpsk), "schedule": *name, "p0": stats.p0,
            "tts99_us": or_inf(stats.tts99_us()),
        }));
    }
    // Anneal time on a 48x48 BPSK instance, no pause, half the anneals.
    let inst = &square(48, Bpsk, 1, p.seed + 7)[0];
    for ta in [1.0, 10.0, 100.0] {
        let params = candidate(4.0, true, Schedule::standard(ta));
        let (stats, _) = run_instance(
            inst,
            &spec_for(params, annealer, p.anneals / 2, p.seed + 11),
        );
        report.push(json!({
            "class": label(48, Bpsk), "ta_us": ta, "p0": stats.p0,
            "ttb_us": or_inf(stats.ttb_us(1e-6)),
        }));
    }
    report
}

pub(super) static BACKEND: Entry = Entry {
    name: "ablation_backend",
    reproduces: "ablation: simulated annealing vs simulated quantum annealing",
    shapes: "Do the reproduced effects (the pause benefit, the J_F response) \
        survive replacing Metropolis SA with path-integral SQA dynamics over 8 \
        Trotter slices? SQA costs about 8x more, so 12x12 QPSK at modest anneal \
        counts. P0 falls as J_F grows under both backends at the quick preset; \
        the pause benefit needs the full preset (`repro ablation_backend`).",
    reads: ALL,
    full: preset(300, 4),
    quick: preset(20, 1),
    run: backend,
};

fn backend(p: &Preset) -> Report {
    const SLICES: usize = 8;
    let params = json!({
        "anneals": p.anneals, "instances": p.instances, "slices": SLICES, "seed": p.seed
    });
    let mut report = Report::new("ablation_backend", params);
    let insts = square(12, Qpsk, p.instances, p.seed);
    for (name, backend) in [
        ("SA", Backend::Sa),
        ("SQA", Backend::Sqa { slices: SLICES }),
    ] {
        let annealer = AnnealerConfig {
            backend,
            ..Default::default()
        };
        let schedules = [
            ("no pause Ta=1", Schedule::standard(1.0)),
            ("pause @0.35", Schedule::with_pause(1.0, 0.35, 1.0)),
        ];
        for (setting, schedule) in schedules {
            for jf in [2.0, 4.0, 8.0] {
                let params = candidate(jf, true, schedule);
                let stats = run_each(&insts, params, annealer, p);
                report.push(json!({
                    "backend": name,
                    "setting": setting,
                    "j_ferro": jf,
                    "p0_median": median(&p0s(&stats)),
                    "tts_median_us": median(&tts99(&stats)),
                }));
            }
        }
    }
    report
}

pub(super) static CSI: Entry = Entry {
    name: "ablation_csi",
    reproduces: "ablation: imperfect channel state information (§2.1, footnote 2)",
    shapes: "The paper assumes perfect CSI. Here the receiver estimates H by least \
        squares from DFT pilots at 2 dB before the reduction; the pilot length Np \
        sets the estimation error (sigma^2/Np per entry). BER falls toward the \
        perfect-CSI BER as Np grows. Needs the full preset (`repro ablation_csi`).",
    reads: ALL,
    full: preset(300, 20),
    quick: QUICK,
    run: csi,
};

fn csi(p: &Preset) -> Report {
    let (snr, pilot_snr) = (Snr::from_db(14.0), Snr::from_db(2.0));
    let params = json!({
        "anneals": p.anneals, "instances": p.instances, "seed": p.seed,
        "snr_db": snr.db(), "pilot_snr_db": pilot_snr.db()
    });
    let mut report = Report::new("ablation_csi", params);
    let (nt, m) = (12, Qpsk);
    let pilot_sigma2 = pilot_snr.noise_variance(m);
    // Np = 0 is perfect CSI. One flat work list over (Np, instance):
    // every job derives its instance, pilot noise and decode from its
    // own seeds.
    let pilot_lengths = [0usize, 12, 24, 48, 96];
    let jobs: Vec<(usize, usize)> = (pilot_lengths.iter())
        .flat_map(|&np| (0..p.instances).map(move |i| (np, i)))
        .collect();
    let threads = inner_threads_for(jobs.len());
    let per_job: Vec<(usize, usize)> = run_map(&jobs, |&(np, i)| {
        let mut rng = StdRng::seed_from_u64(
            p.seed ^ (np as u64 + 1).wrapping_mul(0x9e37_79b9) ^ (i as u64) << 17,
        );
        let sc = Scenario::new(nt, nt, m).with_rayleigh().with_snr(snr);
        let inst = sc.sample(&mut rng);
        let h = match np {
            0 => inst.h().clone(),
            _ => estimate_channel(inst.h(), &dft_pilots(nt, np), pilot_sigma2, &mut rng),
        };
        let input = DetectionInput {
            h,
            y: inst.y().clone(),
            modulation: m,
        };
        let decoder = default_decoder(threads, default_params().schedule);
        let mut drng = StdRng::seed_from_u64(p.seed + 13 * i as u64);
        let run = decoder.decode(&input, p.anneals, &mut drng).unwrap();
        let tx = inst.tx_bits();
        (count_bit_errors(&run.best_bits(), tx), tx.len())
    });
    for (np, results) in pilot_lengths.iter().zip(per_job.chunks(p.instances)) {
        let errors: usize = results.iter().map(|r| r.0).sum();
        let bits: usize = results.iter().map(|r| r.1).sum();
        report.push(json!({"pilot_len": np, "ber": errors as f64 / bits as f64}));
    }
    report
}

pub(super) static EMBEDDING: Entry = Entry {
    name: "ablation_embedding",
    reproduces: "ablation: embedded physical vs logical-only annealing",
    shapes: "The same logical ML problems through the full pipeline (Chimera \
        embedding, chains, majority-vote unembedding) and directly on the \
        fully connected logical problem, a hypothetical all-to-all annealer. The \
        gap is the embedding's share of the hardness, the reason for the paper's \
        §8 interest in Pegasus. The logical problem's P0 is at least the embedded \
        one at the quick preset; the size of the gap needs the full preset \
        (`repro ablation_embedding`).",
    reads: ALL,
    full: preset(800, 5),
    quick: QUICK,
    run: embedding,
};

fn embedding(p: &Preset) -> Report {
    let params = json!({"anneals": p.anneals, "instances": p.instances, "seed": p.seed});
    let mut report = Report::new("ablation_embedding", params);
    let annealer = Annealer::new(AnnealerConfig::default());
    let schedule = Schedule::with_pause(1.0, 0.35, 1.0);
    for (nt, m) in [(36, Bpsk), (14, Qpsk), (18, Qpsk)] {
        let insts = square(nt, m, p.instances, p.seed + nt as u64);
        let stats = run_each(&insts, default_params(), Default::default(), p);
        // Logical only: the same schedule and ICE, no chains.
        let logical: Vec<f64> = (insts.iter().enumerate())
            .map(|(i, inst)| {
                let gt = ground_truth(inst);
                let (logical, _) = ising_from_ml(inst.h(), inst.y(), m);
                // The embedded pipeline's pre-normalization, so ICE hits
                // comparable coefficient scales.
                let max = logical.max_abs_coefficient();
                let programmed = logical.scaled(1.0 / max);
                let seed = p.seed + 77 * i as u64;
                let samples = annealer.run(&programmed, &schedule, p.anneals, seed);
                let dist = SolutionDistribution::from_samples(&programmed, &samples);
                let ground = gt.energy / max;
                dist.probability_of_energy(ground, 1e-6 * ground.abs().max(1.0))
            })
            .collect();
        let (emb, log) = (median(&p0s(&stats)), median(&logical));
        report.push(json!({
            "class": label(nt, m),
            "p0_embedded_median": emb,
            "p0_logical_median": log,
            "overhead_factor": if emb > 0.0 { log / emb } else { f64::INFINITY },
        }));
    }
    report
}

pub(super) static GRAY: Entry = Entry {
    name: "ablation_gray",
    reproduces: "ablation: the Fig. 2 bitwise post-translation",
    shapes: "A 16-QAM receiver that skips the QuAMax-to-Gray post-translation and \
        reads the QUBO bits as Gray bits keeps its symbol decisions, but 3 of 4 \
        bit columns disagree with the transmitter, so even correct symbols carry \
        bit errors. Skipping it raises the BER, which holds at the quick preset.",
    reads: ALL,
    full: preset(400, 20),
    quick: QUICK,
    run: gray,
};

fn gray(p: &Preset) -> Report {
    const SNR_DB: f64 = 16.0;
    let params = json!({
        "anneals": p.anneals, "instances": p.instances, "seed": p.seed, "snr_db": SNR_DB
    });
    let mut report = Report::new("ablation_gray", params);
    let (nt, m) = (4, Qam16);
    let sc = Scenario::new(nt, nt, m).with_snr(Snr::from_db(SNR_DB));
    let insts: Vec<(usize, Instance)> = draw(&sc, p.instances, p.seed)
        .into_iter()
        .enumerate()
        .collect();
    let threads = inner_threads_for(insts.len());
    let per_run: Vec<(usize, usize)> = run_map(&insts, |(i, inst)| {
        let decoder = default_decoder(threads, default_params().schedule);
        let mut drng = StdRng::seed_from_u64(p.seed + *i as u64);
        let run = decoder
            .decode(&inst.detection_input(), p.anneals, &mut drng)
            .unwrap();
        // Without the translation: the best solution's raw QUBO bits.
        let raw = spins_to_bits(&run.distribution().best_solution().unwrap().spins);
        let tx = inst.tx_bits();
        (
            count_bit_errors(&run.best_bits(), tx),
            count_bit_errors(&raw, tx),
        )
    });
    let bits = (p.instances * nt * m.bits_per_symbol()) as f64;
    let ber_with = per_run.iter().map(|r| r.0).sum::<usize>() as f64 / bits;
    let ber_without = per_run.iter().map(|r| r.1).sum::<usize>() as f64 / bits;
    report.push(json!({
        "ber_with_translation": ber_with,
        "ber_without_translation": ber_without,
        "penalty_factor": if ber_with > 0.0 { ber_without / ber_with } else { f64::INFINITY },
    }));
    report
}

pub(super) static ICE: Entry = Entry {
    name: "ablation_ice",
    reproduces: "ablation: the ICE noise floor",
    shapes: "The intrinsic-control-error scale from 0 (an ideal device) through \
        the paper's measured moments (1.0x) and beyond, at two sizes: the paper's \
        absolute moments extinguish P0 for N >= 28 under classical dynamics, the \
        reason the reproduction calibrates to 0.2x (`IceModel::calibrated`). P0 \
        falls as the scale grows and vanishes at 1.0x, which holds at the quick \
        preset.",
    reads: ALL,
    full: preset(800, 5),
    quick: QUICK,
    run: ice,
};

fn ice(p: &Preset) -> Report {
    let params = json!({"anneals": p.anneals, "instances": p.instances, "seed": p.seed});
    let mut report = Report::new("ablation_ice", params);
    for (nt, m) in [(48, Bpsk), (18, Qpsk)] {
        let insts = square(nt, m, p.instances, p.seed + nt as u64);
        for scale in [0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0] {
            let annealer = AnnealerConfig {
                ice: IceModel::dw2q().scaled(scale),
                ..Default::default()
            };
            let stats = run_each(&insts, default_params(), annealer, p);
            report.push(json!({
                "class": label(nt, m),
                "ice_scale": scale,
                "p0_median": median(&p0s(&stats)),
                "ttb_median_us": median(&ttb(&stats, 1e-6)),
            }));
        }
    }
    report
}

pub(super) static REVERSE: Entry = Entry {
    name: "ablation_reverse",
    reproduces: "ablation: reverse annealing from the zero-forcing decode (§8)",
    shapes: "Forward annealing searches from scratch; reverse annealing starts at \
        the ZF decode, ramps back to a reversal point s_r, holds and re-anneals: a \
        local refinement, at equal anneal budgets on 16x16 QPSK Rayleigh channels \
        at 14 dB. The deeper the reversal, the more of the candidate is forgotten \
        (s_r -> 0 is a forward anneal again); shallow reversal pays off when ZF is \
        already close. Needs the full preset (`repro ablation_reverse`).",
    reads: ALL,
    full: preset(500, 6),
    quick: QUICK,
    run: reverse,
};

fn reverse(p: &Preset) -> Report {
    let snr = Snr::from_db(14.0);
    let params = json!({
        "anneals": p.anneals, "instances": p.instances, "seed": p.seed, "snr_db": snr.db()
    });
    let mut report = Report::new("ablation_reverse", params);
    let sc = Scenario::new(16, 16, Qpsk).with_rayleigh().with_snr(snr);
    let insts = draw(&sc, p.instances, p.seed);
    let threads = inner_threads_for(insts.len());
    // The upper median P0 over the instances, each one self-seeded job;
    // `from` holds the reverse anneals' starting bits.
    let p0_median = |schedule: Schedule, from: Option<&[Vec<u8>]>| {
        let jobs: Vec<usize> = (0..insts.len()).collect();
        let mut p0s: Vec<f64> = run_map(&jobs, |&i| {
            let inst = &insts[i];
            let gt = ground_truth(inst);
            let decoder = default_decoder(threads, schedule);
            let mut drng = StdRng::seed_from_u64(p.seed + 7 * i as u64);
            let input = inst.detection_input();
            let run = match from {
                None => decoder.decode(&input, p.anneals, &mut drng),
                Some(bits) => decoder.decode_reverse(&input, p.anneals, &bits[i], &mut drng),
            };
            let tol = 1e-6 * gt.energy.abs().max(1.0);
            run.unwrap()
                .distribution()
                .probability_of_energy(gt.energy, tol)
        });
        p0s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        p0s[p0s.len() / 2]
    };
    let forward = p0_median(default_params().schedule, None);
    report.push(json!({"mode": "forward", "p0_median": forward}));
    let zf = ZeroForcingDetector::new(Qpsk);
    let zf_bits: Vec<Vec<u8>> = (insts.iter())
        .map(|inst| zf.decode(inst.h(), inst.y()).expect("non-degenerate"))
        .collect();
    for s_r in [0.2, 0.35, 0.5, 0.65, 0.8] {
        let p0 = p0_median(Schedule::reverse(1.0, s_r, 1.0), Some(&zf_bits));
        report.push(json!({"mode": "reverse_zf", "s_r": s_r, "p0_median": p0}));
    }
    report
}

pub(super) static UNEMBED: Entry = Entry {
    name: "ablation_unembed",
    reproduces: "ablation: majority-vote vs discard-on-break unembedding",
    shapes: "The paper unembeds broken chains by majority vote with random ties; \
        discarding every sample with a broken chain wastes anneals but keeps only \
        clean readouts. Per J_F on one 14x14 QPSK instance: the chain-break rate \
        and the ground-state probability per submitted anneal under each policy. \
        Breaks fall as J_F grows, which holds at the quick preset; the policies' \
        P0 comparison needs the full preset (`repro ablation_unembed`).",
    reads: &["anneals", "seed"],
    full: preset(1_000, 1),
    quick: QUICK,
    run: unembed,
};

fn unembed(p: &Preset) -> Report {
    let mut report = Report::new(
        "ablation_unembed",
        json!({"anneals": p.anneals, "seed": p.seed}),
    );
    let m = Qpsk;
    let inst = &square(14, m, 1, p.seed)[0];
    let gt = ground_truth(inst);
    let (logical, _) = ising_from_ml(inst.h(), inst.y(), m);
    let graph = ChimeraGraph::dw2q_ideal();
    let embedding = CliqueEmbedding::new(&graph, logical.num_spins()).unwrap();
    let schedule = Schedule::with_pause(1.0, 0.35, 1.0);
    // Each J_F setting is one self-contained job: its own embedding
    // compile, anneal batch and unembedding stream.
    let jf_values = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0];
    let annealer = Annealer::new(AnnealerConfig {
        threads: inner_threads_for(jf_values.len()),
        ..Default::default()
    });
    report.rows = run_map(&jf_values, |&jf| {
        let params = EmbedParams {
            j_ferro: jf,
            improved_range: true,
        };
        let embedded = EmbeddedProblem::compile(&graph, &embedding, &logical, params);
        let (problem, chains) = (embedded.problem(), embedded.chains());
        let samples =
            annealer.run_chained(problem, chains, &schedule, p.anneals, p.seed + jf as u64);
        let tol = 1e-6 * gt.energy.abs().max(1.0);
        let (mut breaks, mut majority, mut discard, mut kept) = (0, 0, 0, 0);
        let mut urng = StdRng::seed_from_u64(p.seed + 999);
        for s in &samples {
            let out = unembed_majority_vote(&embedded, s, &mut urng);
            breaks += out.broken_chains;
            let hit = (logical.energy(&out.logical) - gt.energy).abs() <= tol;
            majority += usize::from(hit);
            if out.broken_chains == 0 {
                kept += 1;
                discard += usize::from(hit);
            }
        }
        let n = samples.len() as f64;
        json!({
            "j_ferro": jf,
            "chain_break_rate": breaks as f64 / (logical.num_spins() as f64 * n),
            "p0_majority": majority as f64 / n,
            "p0_discard_per_submitted": discard as f64 / n,
            "clean_sample_fraction": kept as f64 / n,
        })
    });
    report
}
