//! Figures 4–15 of §5.

use super::{
    ber_at, candidate, classes, default_detector, label, mean_finite, median, or_inf, preset,
    run_each, square, ttb, tts99, Entry, Preset, ALL, QUICK,
};
use crate::ground::ground_truth;
use crate::output::Report;
use crate::runner::{inner_threads_for, run_map};
use crate::workload::{
    default_params, fix_for_class, optimize_instance, small_no_pause_grid, small_pause_grid,
};
use quamax_anneal::Schedule;
use quamax_baselines::timing::zf_time_us;
use quamax_baselines::ZeroForcingDetector;
use quamax_core::metrics::{percentile, BitErrorProfile};
use quamax_core::params::{jf_grid, sp_grid};
use quamax_core::{Detector, DetectorSession, Instance, RunStatistics, Scenario};
use quamax_wireless::frame::{FRAME_BYTES_ACK, FRAME_BYTES_MTU};
use quamax_wireless::Modulation::{self, Bpsk, Qam16, Qpsk};
use quamax_wireless::{count_bit_errors, Snr, TraceConfig, TraceGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

pub(super) static FIG4: Entry = Entry {
    name: "fig4",
    reproduces: "Figure 4: solution-rank anatomy of six 36-variable problems",
    shapes: "36x36 BPSK, 18x18 QPSK and 9x9 16-QAM, two channel uses each: \
        each distinct solution's frequency, relative energy gap and bit errors. \
        As the modulation order rises at fixed size, P0 falls and the relative \
        gaps shrink; low-energy solutions carry few bit errors. The fall in P0 \
        holds at the quick preset; the gap and bit-error shapes need the full \
        preset (`repro fig4`).",
    reads: &["anneals", "seed"],
    full: preset(5_000, 1), // paper: 50,000 anneals
    quick: QUICK,
    run: fig4,
};

fn fig4(p: &Preset) -> Report {
    const RANKS: usize = 8;
    let mut report = Report::new("fig4", json!({"anneals": p.anneals, "seed": p.seed}));
    for (nt, m) in [(36, Bpsk), (18, Qpsk), (9, Qam16)] {
        for channel_use in 0..2u64 {
            let inst = &square(nt, m, 1, p.seed * 100 + channel_use)[0];
            let gt = ground_truth(inst);
            let kind = default_detector(0, p.anneals);
            let input = inst.detection_input();
            let mut session = kind.compile(&input).expect("fits the chip");
            let detection = session
                .detect(&input.y, p.seed + channel_use)
                .expect("annealed decode");
            let run = detection
                .annealed_run()
                .expect("quamax kind attaches its run");
            let stats = RunStatistics::from_run(run, inst.tx_bits(), Some(gt.energy));
            let dist = run.distribution();
            let gaps = dist.relative_gaps();
            let ranks: Vec<_> = (0..dist.num_distinct().min(RANKS))
                .map(|r| {
                    let bits = run.bits_for_rank(r).expect("r < num_distinct");
                    json!({
                        "rank": r + 1,
                        "relative_gap": gaps[r],
                        "frequency": dist.entries()[r].count as f64 / dist.total_samples() as f64,
                        "bit_errors": count_bit_errors(&bits, inst.tx_bits()),
                    })
                })
                .collect();
            report.push(json!({
                "class": label(nt, m),
                "channel_use": channel_use,
                "p0": stats.p0,
                "distinct_solutions": dist.num_distinct(),
                "ground_energy": gt.energy,
                "floor_ber": BitErrorProfile::from_run(run, inst.tx_bits()).floor_ber(),
                "ranks": ranks,
            }));
        }
    }
    report
}

pub(super) static FIG5: Entry = Entry {
    name: "fig5",
    reproduces: "Figure 5: TTS(0.99) vs chain strength |J_F|, standard vs improved range",
    shapes: "BPSK and QPSK sizes at Ta = 1 us. Standard range has a size-dependent \
        optimum |J_F| with steep degradation on both sides; improved range is \
        flatter and reaches about the standard optimum over a wide |J_F| band. \
        Needs the full preset (`repro fig5`).",
    reads: ALL,
    full: preset(800, 6), // paper: 10 instances
    quick: QUICK,
    run: fig5,
};

fn fig5(p: &Preset) -> Report {
    const JF_STEP: usize = 2; // the paper's grid steps by 1 (0.5 in J_F)
    let params = json!({
        "anneals": p.anneals, "instances": p.instances, "jf_step": JF_STEP, "seed": p.seed
    });
    let mut report = Report::new("fig5", params);
    for (nt, m) in classes(&[(Bpsk, &[24, 36, 48]), (Qpsk, &[8, 14, 18])]) {
        // One instance set across every setting isolates the J_F effect.
        let insts = square(nt, m, p.instances, p.seed + nt as u64);
        for improved in [false, true] {
            for jf in jf_grid().into_iter().step_by(JF_STEP) {
                let params = candidate(jf, improved, Schedule::standard(1.0));
                let tts = tts99(&run_each(&insts, params, Default::default(), p));
                report.push(json!({
                    "class": label(nt, m),
                    "improved_range": improved,
                    "j_ferro": jf,
                    "tts_median_us": median(&tts),
                    "tts_p10_us": percentile(&tts, 10.0),
                    "tts_p90_us": percentile(&tts, 90.0),
                }));
            }
        }
    }
    report
}

pub(super) static FIG6: Entry = Entry {
    name: "fig6",
    reproduces: "Figure 6: TTS vs anneal time Ta in {1, 10, 100} us, QPSK",
    shapes: "With improved range the best TTS is at Ta = 1 us at every size (longer \
        anneals raise P0 too little to pay for their cycle time), and sensitivity \
        to J_F shrinks. The Ta = 1 us best holds at the quick preset; the J_F \
        sensitivity needs the full preset (`repro fig6`).",
    reads: ALL,
    full: preset(500, 5), // paper: 10 instances
    quick: QUICK,
    run: fig6,
};

fn fig6(p: &Preset) -> Report {
    let params = json!({"anneals": p.anneals, "instances": p.instances, "seed": p.seed});
    let mut report = Report::new("fig6", params);
    for nt in [8usize, 12, 14, 16, 18] {
        let insts = square(nt, Qpsk, p.instances, p.seed + nt as u64);
        for ta in [1.0, 10.0, 100.0] {
            let mut best = f64::INFINITY;
            for jf in [2.0, 3.0, 4.0, 6.0] {
                let params = candidate(jf, true, Schedule::standard(ta));
                let tts = tts99(&run_each(&insts, params, Default::default(), p));
                best = best.min(median(&tts));
                report.push(json!({
                    "users": nt, "ta_us": ta, "j_ferro": jf, "tts_median_us": median(&tts),
                }));
            }
            report.push(json!({"users": nt, "ta_us": ta, "best_tts_median_us": best}));
        }
    }
    report
}

pub(super) static FIG7: Entry = Entry {
    name: "fig7",
    reproduces: "Figure 7: TTS vs pause time Tp and position s_p, 18x18 QPSK",
    shapes: "Ta = 1 us, improved range. A sweet spot in s_p mid-schedule, where the \
        effective temperature crosses the ordering region; a longer Tp raises the \
        cycle cost faster than P0, so Tp = 1 us wins on TTS. The Tp = 1 us win \
        holds at the quick preset; the s_p sweet spot needs the full preset \
        (`repro fig7`).",
    reads: ALL,
    full: preset(400, 5), // paper: 10,000 anneals, 10 instances
    quick: QUICK,
    run: fig7,
};

fn fig7(p: &Preset) -> Report {
    const SP_STEP: usize = 2; // the paper's grid steps by 1 (0.02 in s_p)
    const JF: f64 = 4.0;
    let params = json!({
        "anneals": p.anneals, "instances": p.instances, "sp_step": SP_STEP, "jf": JF, "seed": p.seed
    });
    let mut report = Report::new("fig7", params);
    let insts = square(18, Qpsk, p.instances, p.seed);
    for tp in [1.0, 10.0, 100.0] {
        let mut best = (f64::INFINITY, 0.0);
        for sp in sp_grid().into_iter().step_by(SP_STEP) {
            let params = candidate(JF, true, Schedule::with_pause(1.0, sp, tp));
            let med = median(&tts99(&run_each(&insts, params, Default::default(), p)));
            if med < best.0 {
                best = (med, sp);
            }
            report.push(json!({"tp_us": tp, "sp": sp, "tts_median_us": med}));
        }
        report.push(json!({"tp_us": tp, "best_sp": best.1, "best_tts_median_us": best.0}));
    }
    report
}

pub(super) static FIG8: Entry = Entry {
    name: "fig8",
    reproduces: "Figure 8: expected BER vs anneals and wall clock, pause vs no pause",
    shapes: "18x18 QPSK under Fix (per class) and Opt (per-instance oracle). The \
        pausing schedule beats the non-pausing one in wall-clock BER although each \
        of its cycles costs twice as long (Ta + Tp = 2 us vs 1 us), under both \
        strategies. Needs the full preset (`repro fig8`).",
    reads: ALL,
    full: preset(800, 10), // paper: 20 instances
    quick: QUICK,
    run: fig8,
};

fn fig8(p: &Preset) -> Report {
    const WALL_US: f64 = 40.0;
    let params = json!({"anneals": p.anneals, "instances": p.instances, "seed": p.seed});
    let mut report = Report::new("fig8", params);
    let insts = square(18, Qpsk, p.instances, p.seed);
    let mut strategies: Vec<(String, Vec<RunStatistics>)> = Vec::new();
    for (name, grid) in [
        ("pause", small_pause_grid()),
        ("no-pause", small_no_pause_grid()),
    ] {
        let (fix, fix_stats) = fix_for_class(&insts, &grid, Default::default(), p.anneals, p.seed);
        strategies.push((format!("Fix {name}"), fix_stats));
        let opt = (insts.iter().enumerate())
            .map(|(i, inst)| {
                let seed = p.seed + 31 * i as u64;
                optimize_instance(inst, &grid, Default::default(), p.anneals, seed).1
            })
            .collect();
        strategies.push((format!("Opt {name}"), opt));
        report.push(json!({
            "strategy": format!("Fix {name}"),
            "j_ferro": fix.embed.j_ferro,
            "pause": fix.schedule.pause,
            "ta_us": fix.schedule.anneal_time_us,
        }));
    }
    for na in (0..17).map(|k| 1usize << k) {
        for (name, stats) in &strategies {
            let bers: Vec<f64> = stats.iter().map(|s| s.expected_ber(na)).collect();
            let times: Vec<f64> = stats.iter().map(|s| s.time_for_anneals_us(na)).collect();
            report.push(json!({
                "strategy": name,
                "na": na,
                "median_ber": median(&bers),
                "p15_ber": percentile(&bers, 15.0),
                "p85_ber": percentile(&bers, 85.0),
                "median_time_us": median(&times),
            }));
        }
    }
    // The headline: pause vs no pause under Fix at equal wall clock.
    let at = |k: usize| {
        let bers: Vec<f64> = strategies[k].1.iter().map(|s| ber_at(s, WALL_US)).collect();
        median(&bers)
    };
    report.push(json!({
        "wall_clock_us": WALL_US, "fix_pause_median_ber": at(0), "fix_no_pause_median_ber": at(2),
    }));
    report
}

pub(super) static FIG9: Entry = Entry {
    name: "fig9",
    reproduces: "Figure 9: time-to-BER trajectories, Opt vs Fix",
    shapes: "User counts and modulations at the edge of QuAMax's capability. TTB \
        degrades gracefully with users and steeply with modulation order; mean TTB \
        exceeds the median (long-tail outliers); Opt reaches BER 1e-6 within \
        1-100 us. Needs the full preset (`repro fig9`).",
    reads: ALL,
    full: preset(1_000, 10), // paper: 20 instances
    quick: QUICK,
    run: fig9,
};

fn fig9(p: &Preset) -> Report {
    let params = json!({"anneals": p.anneals, "instances": p.instances, "seed": p.seed});
    let mut report = Report::new("fig9", params);
    let sets = [
        (Bpsk, &[36, 48, 60][..]),
        (Qpsk, &[12, 15, 18]),
        (Qam16, &[4, 5, 6]),
    ];
    for (users, m) in classes(&sets) {
        let seed = p.seed + (users * m.bits_per_symbol()) as u64;
        let insts = square(users, m, p.instances, seed);
        // Fix runs the calibrated default operating point.
        let fix = run_each(&insts, default_params(), Default::default(), p);
        let opt = (insts.iter().enumerate())
            .map(|(i, inst)| {
                let seed = p.seed + 17 * i as u64;
                optimize_instance(
                    inst,
                    &small_pause_grid(),
                    Default::default(),
                    p.anneals,
                    seed,
                )
                .1
            })
            .collect();
        for (strategy, stats) in [("Fix", fix), ("Opt", opt)] {
            let ttbs = ttb(&stats, 1e-6);
            // The curve the paper plots: median E[BER] over wall clock.
            let times = [
                2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0, 5_000.0,
            ];
            let series: Vec<_> = (times.into_iter())
                .map(|t_us| {
                    let bers: Vec<f64> = stats.iter().map(|s| ber_at(s, t_us)).collect();
                    json!({
                        "time_us": t_us,
                        "median_ber": median(&bers),
                        "p10_ber": percentile(&bers, 10.0),
                        "p90_ber": percentile(&bers, 90.0),
                    })
                })
                .collect();
            report.push(json!({
                "class": label(users, m),
                "strategy": strategy,
                "ttb_median_us": median(&ttbs),
                "ttb_mean_us": mean_finite(&ttbs),
                "reached": ttbs.iter().filter(|t| t.is_finite()).count(),
                "series": series,
            }));
        }
    }
    report
}

pub(super) static FIG10: Entry = Entry {
    name: "fig10",
    reproduces: "Figure 10: per-instance TTB at BER 1e-6, box statistics",
    shapes: "Instances reaching the target within 10 ms, across modulations and user \
        counts. TTB grows with users within a modulation and jumps across \
        modulations; small problems floor at the amortized cycle time thanks to \
        on-chip parallelization. The growth with users holds at the quick \
        preset; the box statistics need the full preset (`repro fig10`).",
    reads: ALL,
    full: preset(1_200, 12), // paper: 20 instances
    quick: QUICK,
    run: fig10,
};

fn fig10(p: &Preset) -> Report {
    const DEADLINE_US: f64 = 10_000.0;
    let params = json!({"anneals": p.anneals, "instances": p.instances, "seed": p.seed});
    let mut report = Report::new("fig10", params);
    let sets = [
        (Bpsk, &[12, 24, 36, 48, 60][..]),
        (Qpsk, &[6, 10, 14, 18]),
        (Qam16, &[4, 6]),
    ];
    for (users, m) in classes(&sets) {
        let seed = p.seed + 7 * (users * m.bits_per_symbol()) as u64;
        let insts = square(users, m, p.instances, seed);
        let stats = run_each(&insts, default_params(), Default::default(), p);
        let ttbs = ttb(&stats, 1e-6);
        let within: Vec<f64> = ttbs.iter().copied().filter(|t| *t <= DEADLINE_US).collect();
        let q = |pct| match within.is_empty() {
            true => f64::INFINITY,
            false => percentile(&within, pct),
        };
        report.push(json!({
            "class": label(users, m),
            "ttb_us_all": ttbs,
            "within_deadline": within.len(),
            "p5": q(5.0), "p25": q(25.0), "median": q(50.0), "p75": q(75.0), "p95": q(95.0),
        }));
    }
    report
}

pub(super) static FIG11: Entry = Entry {
    name: "fig11",
    reproduces: "Figure 11: time-to-FER across users, modulations and frame sizes",
    shapes: "Frames from the 1,500-byte MTU down to the 50-byte TCP ACK. Tens of us \
        reach FER 1e-4 at 60-user BPSK, 18-user QPSK and 4-user 16-QAM, with low \
        sensitivity to frame size. Needs the full preset (`repro fig11`).",
    reads: ALL,
    full: preset(1_200, 10), // paper: 20 instances
    quick: QUICK,
    run: fig11,
};

fn fig11(p: &Preset) -> Report {
    const TARGET_FER: f64 = 1e-4;
    let params = json!({
        "anneals": p.anneals, "instances": p.instances, "seed": p.seed, "target_fer": TARGET_FER
    });
    let mut report = Report::new("fig11", params);
    for (users, m) in classes(&[(Bpsk, &[36, 48, 60]), (Qpsk, &[14, 18]), (Qam16, &[4])]) {
        let seed = p.seed + 13 * (users * m.bits_per_symbol()) as u64;
        let insts = square(users, m, p.instances, seed);
        let stats = run_each(&insts, default_params(), Default::default(), p);
        let ttf = |bytes| -> Vec<f64> {
            stats
                .iter()
                .map(|s| or_inf(s.ttf_us(TARGET_FER, bytes)))
                .collect()
        };
        let (mtu, ack) = (ttf(FRAME_BYTES_MTU), ttf(FRAME_BYTES_ACK));
        report.push(json!({
            "class": label(users, m),
            "ttf_mtu_median_us": median(&mtu),
            "ttf_mtu_mean_us": mean_finite(&mtu),
            "ttf_ack_median_us": median(&ack),
            "ttf_ack_mean_us": mean_finite(&ack),
        }));
    }
    report
}

pub(super) static FIG12: Entry = Entry {
    name: "fig12",
    reproduces: "Figure 12: rank anatomy under AWGN, one 18x18 QPSK channel",
    shapes: "One channel and bit string re-noised at six SNRs from 10 to 40 dB \
        (`instances` noise draws each). Rising SNR raises P0 and widens the \
        relative gap between the best and second-best solutions; at low SNR the \
        ground state itself carries bit errors. One compiled session serves every \
        SNR point and draw. Needs the full preset (`repro fig12`).",
    reads: ALL,
    full: preset(3_000, 10), // paper: 10 noise draws
    quick: QUICK,
    run: fig12,
};

fn fig12(p: &Preset) -> Report {
    let params = json!({"anneals": p.anneals, "noise_draws": p.instances, "seed": p.seed});
    let mut report = Report::new("fig12", params);
    let mut rng = StdRng::seed_from_u64(p.seed);
    let base = Scenario::new(18, 18, Qpsk).sample(&mut rng);
    let mut session = default_detector(0, p.anneals)
        .compile(&base.detection_input())
        .expect("18x18 QPSK fits the chip");
    for snr_db in [10.0, 15.0, 20.0, 25.0, 30.0, 40.0] {
        let (mut p0s, mut gaps2, mut ml_errors) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..p.instances {
            let inst = base.renoise(Snr::from_db(snr_db), &mut rng);
            let gt = ground_truth(&inst);
            let seed = p.seed + 1000 * k as u64;
            let detection = session.detect(inst.y(), seed).expect("annealed decode");
            let dist = detection.annealed_run().expect("quamax run").distribution();
            p0s.push(dist.probability_of_energy(gt.energy, 1e-6 * gt.energy.abs().max(1.0)));
            gaps2.extend(dist.relative_gaps().get(1));
            // The ML solution's own errors: channel noise, not annealer noise.
            ml_errors.push(count_bit_errors(&gt.ml_bits, inst.tx_bits()) as f64);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        report.push(json!({
            "snr_db": snr_db,
            "p0_mean": mean(&p0s),
            "rank2_gap_mean": mean(&gaps2),
            "ml_bit_errors_mean": mean(&ml_errors),
            "p0_draws": p0s,
        }));
    }
    report
}

pub(super) static FIG13: Entry = Entry {
    name: "fig13",
    reproduces: "Figure 13: TTB under AWGN vs users at 20 dB (left) and vs SNR (right)",
    shapes: "TTB degrades gracefully as users grow at fixed SNR, for every \
        modulation; at fixed users TTB improves with SNR, and Opt is nearly \
        SNR-insensitive (BER 1e-6 within 100 us). Each class's channels are drawn \
        once and re-noised per SNR point, one compiled session per channel. Opt \
        within 100 us at every SNR holds at the quick preset; the Fix shapes need \
        the full preset (`repro fig13`).",
    reads: ALL,
    full: preset(1_000, 8),
    quick: QUICK,
    run: fig13,
};

fn fig13(p: &Preset) -> Report {
    let params = json!({"anneals": p.anneals, "instances": p.instances, "seed": p.seed});
    let mut report = Report::new("fig13", params);
    let sets = [
        (Bpsk, &[12, 24, 36, 48][..]),
        (Qpsk, &[6, 10, 14, 18]),
        (Qam16, &[4, 6]),
    ];
    let sweep = [10.0, 15.0, 20.0, 25.0, 30.0, 40.0];
    let left = classes(&sets).into_iter().map(|c| ("left", c, &[20.0][..]));
    let right = [(48, Bpsk), (14, Qpsk)].map(|c| ("right", c, &sweep[..]));
    for (panel, (users, m), snrs) in left.chain(right) {
        for (snr_db, (fix_med, fix_mean, opt_med)) in snrs.iter().zip(evaluate(users, m, snrs, p)) {
            report.push(json!({
                "panel": panel, "class": label(users, m), "snr_db": *snr_db,
                "fix_ttb_mean_us": fix_mean,
                "fix_ttb_median_us": fix_med,
                "opt_ttb_median_us": opt_med,
            }));
        }
    }
    report
}

/// Per SNR point: the Fix median, the Fix mean of the finite values and
/// the Opt median of TTB(1e-6) in µs. The channels are fixed across the
/// sweep; each channel's Fix decodes stream through one compiled
/// session, one worker per channel.
fn evaluate(users: usize, m: Modulation, snrs: &[f64], p: &Preset) -> Vec<(f64, f64, f64)> {
    let seed = p.seed + 3 * (users * m.bits_per_symbol()) as u64;
    let bases = square(users, m, p.instances, seed);
    // noisy[instance][snr]: Fix and Opt decode the same received
    // vectors, so their gap is a paired comparison, not draw variance.
    let noisy: Vec<Vec<Instance>> = (bases.iter().enumerate())
        .map(|(i, base)| {
            let mut rng = StdRng::seed_from_u64(p.seed ^ (0x9e37_79b9 + i as u64));
            (snrs.iter())
                .map(|&db| base.renoise(Snr::from_db(db), &mut rng))
                .collect()
        })
        .collect();
    let indexed: Vec<(usize, &Instance)> = bases.iter().enumerate().collect();
    // One worker per channel: split the cores between them.
    let kind = default_detector(inner_threads_for(p.instances), p.anneals);
    let fix_ttb: Vec<Vec<f64>> = run_map(&indexed, |&(i, base)| {
        let mut session = kind
            .compile(&base.detection_input())
            .expect("fits the chip");
        (noisy[i].iter())
            .map(|inst| {
                let gt = ground_truth(inst);
                let detection = session.detect(inst.y(), p.seed + i as u64).expect("decode");
                let run = detection.annealed_run().expect("quamax run");
                let stats = RunStatistics::from_run(run, inst.tx_bits(), Some(gt.energy));
                or_inf(stats.ttb_us(1e-6))
            })
            .collect()
    });
    (0..snrs.len())
        .map(|s| {
            let fix: Vec<f64> = fix_ttb.iter().map(|per_snr| per_snr[s]).collect();
            // The oracle re-tunes per instance, so it compiles per
            // candidate, but it decodes the same received vectors.
            let opt: Vec<f64> = (noisy.iter().enumerate())
                .map(|(i, per_snr)| {
                    let seed = p.seed + 29 * i as u64;
                    let grid = small_pause_grid();
                    let (_, stats) =
                        optimize_instance(&per_snr[s], &grid, Default::default(), p.anneals, seed);
                    or_inf(stats.ttb_us(1e-6))
                })
                .collect();
            (median(&fix), mean_finite(&fix), median(&opt))
        })
        .collect()
}

pub(super) static FIG14: Entry = Entry {
    name: "fig14",
    reproduces: "Figure 14: QuAMax vs zero forcing at low SNR",
    shapes: "Rayleigh channels at 12 dB, Nt = Nr: the time QuAMax needs to match ZF's \
        BER against ZF's single-core time (BigStation cost model). ZF's BER is poor \
        and its time is tens to hundreds of us; QuAMax matches it 10-1000x faster \
        for 36/48/60-user BPSK and 12/14/16-user QPSK. A class whose ZF trials made \
        no bit error (`zf_errors` 0) measured no BER to match, and its time and \
        speedup are null. The 10-1000x speedup holds at the quick preset wherever \
        ZF erred; a ZF BER worth trusting needs the full preset's 400 trials \
        (`repro fig14`).",
    reads: ALL,
    full: Preset {
        zf_trials: 400,
        ..preset(1_000, 8)
    },
    quick: Preset {
        zf_trials: 10,
        ..QUICK
    },
    run: fig14,
};

fn fig14(p: &Preset) -> Report {
    let snr = Snr::from_db(12.0);
    let params = json!({
        "anneals": p.anneals, "instances": p.instances, "zf_trials": p.zf_trials,
        "seed": p.seed, "snr_db": snr.db()
    });
    let mut report = Report::new("fig14", params);
    for (users, m) in classes(&[(Bpsk, &[36, 48, 60]), (Qpsk, &[12, 14, 16])]) {
        // Rayleigh: the ill-conditioned Nt = Nr regime the paper targets.
        let mut rng = StdRng::seed_from_u64(p.seed + (users * m.bits_per_symbol()) as u64);
        let sc = Scenario::new(users, users, m).with_rayleigh().with_snr(snr);
        let zf = ZeroForcingDetector::new(m);
        let (mut errors, mut bits) = (0, 0);
        for _ in 0..p.zf_trials {
            let inst = sc.sample(&mut rng);
            let tx = inst.tx_bits();
            // A singular channel costs coin-flip bits.
            let decoded = zf.decode(inst.h(), inst.y());
            errors += decoded.map_or(tx.len() / 2, |bits| count_bit_errors(&bits, tx));
            bits += tx.len();
        }
        let zf_ber = errors as f64 / bits as f64;
        let zf_us = zf_time_us(users, users, 1);
        // QuAMax's instances continue the ZF stream.
        let insts: Vec<_> = (0..p.instances).map(|_| sc.sample(&mut rng)).collect();
        let stats = run_each(&insts, default_params(), Default::default(), p);
        // A ZF run without an error measured no BER to target.
        let t_match = (errors > 0).then(|| median(&ttb(&stats, zf_ber)));
        report.push(json!({
            "class": label(users, m),
            "zf_errors": errors,
            "zf_ber": zf_ber,
            "zf_time_us": zf_us,
            "quamax_time_to_zf_ber_us": t_match,
            "speedup": t_match.map(|t| zf_us / t),
        }));
    }
    report
}

pub(super) static FIG15: Entry = Entry {
    name: "fig15",
    reproduces: "Figure 15: trace-driven 8x8 MIMO, BPSK and QPSK",
    shapes: "Channels from the synthetic Argos-like trace (96-antenna base station, \
        8 static users, 8 antennas subsampled per use, SNR about 25-35 dB; \
        `instances` channel uses). BER 1e-6 and FER 1e-4 within about 10 us for \
        QPSK and an amortized 2 us for BPSK, whose 8- and 16-variable problems \
        tile the chip. The BPSK shape holds at the quick preset; QPSK needs the \
        full preset (`repro fig15`).",
    reads: ALL,
    full: preset(1_500, 25),
    quick: preset(30, 2),
    run: fig15,
};

fn fig15(p: &Preset) -> Report {
    let params = json!({"anneals": p.anneals, "uses": p.instances, "seed": p.seed});
    let mut report = Report::new("fig15", params);
    for m in [Bpsk, Qpsk] {
        let mut rng = StdRng::seed_from_u64(p.seed);
        let mut tracegen = TraceGenerator::new(TraceConfig::default(), &mut rng);
        let insts: Vec<Instance> = (0..p.instances)
            .map(|i| {
                let use_ = tracegen.next_use(&mut rng);
                let h = use_.subsample(8, &mut rng);
                // The channel comes from the trace; bits and noise are fresh.
                let mut irng = StdRng::seed_from_u64(p.seed + 101 * i as u64);
                let bits: Vec<u8> = (0..8 * m.bits_per_symbol())
                    .map(|_| irng.random_range(0..=1) as u8)
                    .collect();
                let snr = Some(Snr::from_db(use_.snr_db));
                Instance::transmit(h, bits, m, snr, &mut irng)
            })
            .collect();
        let stats = run_each(&insts, default_params(), Default::default(), p);
        let ttbs = ttb(&stats, 1e-6);
        let ttfs: Vec<f64> = stats
            .iter()
            .map(|s| or_inf(s.ttf_us(1e-4, 1_500)))
            .collect();
        report.push(json!({
            "modulation": m.name(),
            "ttb_median_us": median(&ttbs),
            "ttb_mean_us": mean_finite(&ttbs),
            "ttf_median_us": median(&ttfs),
            "ttf_mean_us": mean_finite(&ttfs),
            "reached_ttb": ttbs.iter().filter(|t| t.is_finite()).count(),
            "uses": p.instances,
            "cycle_us": stats.last().map_or(0.0, |s| s.cycle_us),
        }));
    }
    report
}
