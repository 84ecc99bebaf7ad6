//! Records the compiled-filter before/after comparison for the
//! classical detector backends to `BENCH_detect.json` (run from the
//! repo root: `cargo run --release -p quamax-bench --bin bench_detect`).
//!
//! Workload: one coherence interval — a fixed 12-user QPSK Rayleigh
//! channel `H` with 64 received vectors — decoded two ways per
//! backend:
//!
//! * `direct` — the one-shot API (`decode(&H, &y)` per vector),
//!   re-factorizing `H` every call (ZF: pseudo-inverse LU; MMSE: LU of
//!   the regularized Gram; sphere: QR);
//! * `session` — the `Detector` trait path: `DetectorKind::compile`
//!   once, then `detect(&y, seed)` per vector against the cached
//!   factorization.
//!
//! The win is *asserted*, not inferred from wall clock: the
//! `quamax_linalg::factorization_count` tally must read exactly one
//! factorization for the whole session pass versus one per vector for
//! the direct pass, and both passes must agree bit for bit, before any
//! timing is reported.

use quamax_baselines::{MmseDetector, SphereDecoder, ZeroForcingDetector};
use quamax_bench::measure::interleave;
use quamax_bench::BenchRecord;
use quamax_core::{Detector, DetectorKind, DetectorSession, Scenario};
use quamax_linalg::{factorization_count, CVector};
use quamax_wireless::{Modulation, Snr};
use rand::rngs::StdRng;
use rand::SeedableRng;

const VECTORS: usize = 64;
const ROUNDS: usize = 5;

fn main() {
    let mut rng = StdRng::seed_from_u64(2020); // HotNets '20
    let m = Modulation::Qpsk;
    let snr = Snr::from_db(16.0);
    let scenario = Scenario::new(12, 12, m).with_rayleigh().with_snr(snr);
    let base = scenario.sample(&mut rng);
    let input = base.detection_input();
    let ys: Vec<CVector> = (0..VECTORS)
        .map(|_| base.renoise(snr, &mut rng).y().clone())
        .collect();
    let sigma2 = snr.noise_variance(m);

    let zf = ZeroForcingDetector::new(m);
    let mmse = MmseDetector::new(m, sigma2);
    let sphere = SphereDecoder::new(m);

    // Per backend: (direct bits, direct pass), (session bits, session
    // pass) — closures so the timing loop reruns the identical work.
    type Pass<'a> = Box<dyn FnMut() -> Vec<Vec<u8>> + 'a>;
    let backends: Vec<(&str, Pass, Pass)> = vec![
        (
            "zf",
            Box::new(|| ys.iter().map(|y| zf.decode(&input.h, y).unwrap()).collect()),
            Box::new(|| {
                let mut s = DetectorKind::zf().compile(&input).unwrap();
                ys.iter().map(|y| s.detect(y, 0).unwrap().bits).collect()
            }),
        ),
        (
            "mmse",
            Box::new(|| {
                ys.iter()
                    .map(|y| mmse.decode(&input.h, y).unwrap())
                    .collect()
            }),
            Box::new(|| {
                let mut s = DetectorKind::mmse(sigma2).compile(&input).unwrap();
                ys.iter().map(|y| s.detect(y, 0).unwrap().bits).collect()
            }),
        ),
        (
            "sphere",
            Box::new(|| {
                ys.iter()
                    .map(|y| sphere.decode(&input.h, y).unwrap().bits)
                    .collect()
            }),
            Box::new(|| {
                let mut s = DetectorKind::sphere().compile(&input).unwrap();
                ys.iter().map(|y| s.detect(y, 0).unwrap().bits).collect()
            }),
        ),
    ];

    let mut record = BenchRecord::new("BENCH_detect", "host");
    println!(
        "{VECTORS} received vectors over one 12x12 QPSK Rayleigh channel ({ROUNDS} rounds):\n"
    );
    for (name, mut direct, mut session) in backends {
        // --- Correctness + factorization-count gate. ---
        let before = factorization_count();
        let direct_bits = direct();
        let direct_factorizations = factorization_count() - before;
        let before = factorization_count();
        let session_bits = session();
        let session_factorizations = factorization_count() - before;
        assert_eq!(
            direct_bits, session_bits,
            "{name}: session diverged from direct decode"
        );
        assert_eq!(
            direct_factorizations, VECTORS as u64,
            "{name}: direct path should factor once per vector"
        );
        assert_eq!(
            session_factorizations, 1,
            "{name}: session should factor exactly once per interval"
        );

        // --- Throughput: the two passes interleaved over ROUNDS rounds. ---
        let timing = interleave(
            ROUNDS,
            1,
            &mut [
                ("direct", &mut || {
                    std::hint::black_box(direct());
                }),
                ("session", &mut || {
                    std::hint::black_box(session());
                }),
            ],
        );
        let per_decode = 1e-3 / VECTORS as f64;
        println!(
            "{name:<8} {} ({direct_factorizations} vs {session_factorizations} factorizations)",
            timing.pair_line((0, 1), per_decode, "us per decode")
        );
        let head = serde_json::json!({
            "row": "backend",
            "backend": name,
            "direct_factorizations": direct_factorizations,
            "session_factorizations": session_factorizations,
        });
        let row = timing.pair_json(head, (0, 1), per_decode, "us per decode");
        record.rows.push(row);
    }

    let workload = serde_json::json!({
        "class": "12x12 QPSK Rayleigh",
        "snr_db": 16.0,
        "vectors": VECTORS,
        "seed": 2020,
    });
    record.workload = workload;
    record.asserts = serde_json::json!({
        "bit_identical": true,
        "session_factorizes_once_direct_once_per_vector": true,
    });
    record.note = format!(
        "one coherence interval (fixed H), 64 received vectors; per backend the session pass \
         must count exactly 1 linalg factorization vs 64 for the direct pass and agree bit for \
         bit before timing; the direct and session passes interleaved over {ROUNDS} rounds, \
         one pass each per round, the first pass alternating; min/median = per-arm minimum and \
         median pass per decode, min_ratio = direct minimum over session minimum, \
         paired_median_ratio with its bootstrap 95% interval over rounds"
    );
    let path = record.write().expect("write BENCH_detect.json");
    println!("\nwrote {}", path.display());
}
