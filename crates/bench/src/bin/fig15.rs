//! **Figure 15** — trace-driven performance: 8×8 MIMO channels drawn
//! from the synthetic Argos-like trace (96-antenna base station, 8
//! static users, 8 antennas subsampled per use, SNR ≈ 25–35 dB), for
//! BPSK and QPSK.
//!
//! Paper shapes: BER 1e-6 / FER 1e-4 within ~10 µs for QPSK and within
//! an amortized ~2 µs for BPSK (the 8/16-variable problems tile the
//! chip heavily).
//!
//! Run: `cargo run --release -p quamax-bench --bin fig15`

use quamax_bench::{default_params, run_instances, spec_for, Args, Report};
use quamax_core::metrics::percentile;
use quamax_core::{Instance, Scenario};
use quamax_wireless::{Modulation, Snr, TraceConfig, TraceGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["anneals", "uses", "seed"], &[]);
    let anneals = args.get_usize("anneals", 1_500);
    let uses = args.get_usize("uses", 25);
    let seed = args.get_u64("seed", 1);

    let mut report = Report::new(
        "fig15",
        serde_json::json!({"anneals": anneals, "uses": uses, "seed": seed}),
    );

    for m in [Modulation::Bpsk, Modulation::Qpsk] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tracegen = TraceGenerator::new(TraceConfig::default(), &mut rng);
        // The trace replays sequentially (channel uses are a stream);
        // the decodes shard across cores.
        let insts: Vec<Instance> = (0..uses)
            .map(|i| {
                let use_ = tracegen.next_use(&mut rng);
                let h = use_.subsample(8, &mut rng);
                let sc = Scenario::new(8, 8, m).with_snr(Snr::from_db(use_.snr_db));
                // Trace-driven: the channel comes from the trace, bits
                // and noise are fresh.
                let mut irng = StdRng::seed_from_u64(seed + 101 * i as u64);
                let q = m.bits_per_symbol();
                let bits: Vec<u8> = (0..8 * q)
                    .map(|_| rand::Rng::random_range(&mut irng, 0..=1) as u8)
                    .collect();
                Instance::transmit(h, bits, m, sc.snr, &mut irng)
            })
            .collect();
        let work: Vec<_> = insts
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                (
                    inst,
                    spec_for(
                        default_params(),
                        Default::default(),
                        anneals,
                        seed + i as u64,
                    ),
                )
            })
            .collect();
        let mut ttb = Vec::new();
        let mut ttf = Vec::new();
        let mut cycle_floor = 0.0f64;
        for (stats, _) in run_instances(&work) {
            ttb.push(stats.ttb_us(1e-6).unwrap_or(f64::INFINITY));
            ttf.push(stats.ttf_us(1e-4, 1_500).unwrap_or(f64::INFINITY));
            cycle_floor = stats.cycle_us;
        }
        let mean_of = |v: &[f64]| {
            let f: Vec<f64> = v.iter().copied().filter(|t| t.is_finite()).collect();
            if f.is_empty() {
                f64::INFINITY
            } else {
                f.iter().sum::<f64>() / f.len() as f64
            }
        };
        println!(
            "{:<5} 8x8 trace: TTB(1e-6) median {:>9} mean {:>9} | TTF(1e-4,1500B) median {:>9} mean {:>9} | cycle {:.1} µs",
            m.name(),
            fmt(percentile(&ttb, 50.0)),
            fmt(mean_of(&ttb)),
            fmt(percentile(&ttf, 50.0)),
            fmt(mean_of(&ttf)),
            cycle_floor,
        );
        report.push(serde_json::json!({
            "modulation": m.name(),
            "ttb_median_us": nullable(percentile(&ttb, 50.0)),
            "ttb_mean_us": nullable(mean_of(&ttb)),
            "ttf_median_us": nullable(percentile(&ttf, 50.0)),
            "ttf_mean_us": nullable(mean_of(&ttf)),
            "reached_ttb": ttb.iter().filter(|t| t.is_finite()).count(),
            "uses": uses,
        }));
    }
    let path = report.write().expect("write results");
    println!("\nwrote {}", path.display());
}

fn fmt(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.1}µs")
    } else {
        "∞".into()
    }
}

fn nullable(x: f64) -> serde_json::Value {
    if x.is_finite() {
        serde_json::json!(x)
    } else {
        serde_json::Value::Null
    }
}
