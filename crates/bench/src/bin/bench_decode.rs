//! Records the compile-once decode-session before/after comparison to
//! `BENCH_decode.json` (run from the repo root:
//! `cargo run --release -p quamax-bench --bin bench_decode`).
//!
//! Workload: one coherence interval — a fixed 12-user QPSK channel `H`
//! (24 logical variables) with 16 received vectors decoded at fixed
//! seeds. Three ways through the same decodes:
//!
//! * `one_shot` — the historical API: `QuamaxDecoder::decode` per
//!   `(H, y)`, compiling every call. A compile is the Gram, the
//!   couplings and a lookup of the chip structure the process built on
//!   its first compile of this shape, so this costs about what
//!   `session_serial` does;
//! * `session_serial` — `QuamaxDecoder::compile` once, then
//!   `DecodeSession::decode` per `y` (isolates the compile
//!   amortization from parallelism);
//! * `session_batch` — `DecodeSession::decode_batch` over the whole
//!   interval, sharded across cores with per-worker scratch.
//!
//! All three are bit-identical per item (asserted below before any
//! timing is reported); the comparison is pure throughput.

use quamax_anneal::{Annealer, AnnealerConfig};
use quamax_core::{DecoderConfig, QuamaxDecoder, Scenario};
use quamax_linalg::CVector;
use quamax_wireless::{Modulation, Snr};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

// One coherence interval of 16 decodes at the deadline-constrained
// anneal budget: frames on a radio deadline run few anneals per
// subcarrier (the C-RAN study uses 3–10), which is exactly the regime
// where per-decode programming overhead dominates and batching pays —
// the §7 argument in miniature.
const BATCH: usize = 16;
const ANNEALS: usize = 10;
const ROUNDS: usize = 24;

fn main() {
    let mut rng = StdRng::seed_from_u64(2019);
    let scenario = Scenario::new(12, 12, Modulation::Qpsk);
    let base = scenario.sample(&mut rng);
    // One coherence interval: same channel, fresh bits + noise per use.
    let uses: Vec<_> = (0..BATCH)
        .map(|_| base.renoise(Snr::from_db(22.0), &mut rng))
        .collect();
    let items: Vec<(CVector, u64)> = uses
        .iter()
        .enumerate()
        .map(|(k, inst)| (inst.y().clone(), 10_000 + k as u64))
        .collect();

    let decoder = QuamaxDecoder::new(
        Annealer::new(AnnealerConfig::default()),
        DecoderConfig::default(),
    );
    let interval_input = base.detection_input();

    // --- Correctness gate: all three paths must agree bit for bit. ---
    let reference: Vec<Vec<u8>> = uses
        .iter()
        .zip(&items)
        .map(|(inst, (_, seed))| {
            let mut r = StdRng::seed_from_u64(*seed);
            decoder
                .decode(&inst.detection_input(), ANNEALS, &mut r)
                .expect("12x12 QPSK fits the chip")
                .best_bits()
        })
        .collect();
    let mut session = decoder.compile(&interval_input).expect("fits");
    for ((y, seed), expect) in items.iter().zip(&reference) {
        assert_eq!(
            &session.decode(y, ANNEALS, *seed).best_bits(),
            expect,
            "session decode diverged from one-shot"
        );
    }
    let batch = session.decode_batch(&items, ANNEALS);
    for (run, expect) in batch.iter().zip(&reference) {
        assert_eq!(
            &run.best_bits(),
            expect,
            "batched decode diverged from one-shot"
        );
    }
    println!("bit-identical across one-shot / session / batch: ok\n");

    // --- Throughput: per-path minimum over ROUNDS interleaved rounds. ---
    // Each round times one pass of every path back to back, so a slow
    // phase of the host inflates all three paths or none, instead of
    // whichever path it happened to overlap.
    let mut one_shot = || {
        for (inst, (_, seed)) in uses.iter().zip(&items) {
            let mut r = StdRng::seed_from_u64(*seed);
            let run = decoder
                .decode(&inst.detection_input(), ANNEALS, &mut r)
                .expect("fits");
            std::hint::black_box(run.best_bits());
        }
    };
    let mut session_serial = || {
        let mut s = decoder.compile(&interval_input).expect("fits");
        for (y, seed) in &items {
            std::hint::black_box(s.decode(y, ANNEALS, *seed).best_bits());
        }
    };
    let mut session_batch = || {
        let s = decoder.compile(&interval_input).expect("fits");
        std::hint::black_box(s.decode_batch(&items, ANNEALS));
    };
    let mut paths: [&mut dyn FnMut(); 3] = [&mut one_shot, &mut session_serial, &mut session_batch];
    let mut best = [f64::INFINITY; 3];
    for _ in 0..ROUNDS {
        for (pass, best) in paths.iter_mut().zip(&mut best) {
            let t0 = Instant::now();
            pass();
            *best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    let [one_shot_s, session_serial_s, session_batch_s] = best;

    let rate = |s: f64| BATCH as f64 / s;
    let rows = [
        ("one_shot", one_shot_s),
        ("session_serial", session_serial_s),
        ("session_batch", session_batch_s),
    ];
    for (name, s) in rows {
        println!(
            "{name:<16} {:>9.1} decodes/s   ({:.2} ms per {BATCH}-decode interval)   speedup {:>5.2}x",
            rate(s),
            s * 1e3,
            one_shot_s / s,
        );
    }

    let workload = serde_json::json!({
        "class": "12x12 QPSK",
        "logical_vars": 24usize,
        "batch": BATCH,
        "anneals": ANNEALS,
        "snr_db": 22.0,
        "seeds": "10000..10016",
    });
    let json_rows: Vec<serde_json::Value> = rows
        .iter()
        .map(|&(name, s)| {
            serde_json::json!({
                "path": name,
                "decodes_per_sec": (rate(s) * 10.0).round() / 10.0,
                "interval_ms": (s * 1e5).round() / 100.0,
                "speedup": ((one_shot_s / s) * 100.0).round() / 100.0,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "name": "BENCH_decode",
        "workload": workload,
        "note": format!(
            "one coherence interval (fixed H), 16 received vectors at fixed seeds; \
             all paths assert bit-identical best_bits before timing; per-path minimum \
             wall clock over {ROUNDS} rounds, the three paths interleaved within each round"
        ),
        "bit_identical": true,
        "rows": json_rows,
    });
    std::fs::write(
        "BENCH_decode.json",
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .expect("write BENCH_decode.json");
    println!("\nwrote BENCH_decode.json");
}
