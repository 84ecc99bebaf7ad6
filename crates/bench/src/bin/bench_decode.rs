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
//!
//! The `compile` rows time one session compile at the two shapes the
//! serving benchmarks compile most: a 16-user BPSK lattice-reduced VPP
//! precoder (32 variables) and the 48-user BPSK uplink. Each interleaves
//! a compile of a channel never compiled before (`fresh_channel`) with
//! a recompile of one channel (`cached_channel`), after a first compile
//! of the shape: the chip structure is a function of the shape, so a
//! structure rebuilt per channel would show as the fresh arm's excess.
//! The VPP shape also times its model build alone (`VppModel::new`: ZF,
//! Gram, LLL, template; `stage: "model"`) in the same interleave, and a
//! `compile_split` row attributes each arm's minimum to the model build
//! and the rest (`core`: couplings and the structure lookup).

use quamax_anneal::{Annealer, AnnealerConfig};
use quamax_bench::measure::interleave;
use quamax_bench::BenchRecord;
use quamax_core::{
    DecoderConfig, DetectionInput, PrecodeInput, Precoder, QuamaxDecoder, Scenario, VppModel,
    VppPrecoder,
};
use quamax_linalg::{CMatrix, CVector};
use quamax_wireless::{rayleigh_channel, Modulation, Snr};
use rand::rngs::StdRng;
use rand::SeedableRng;

// One coherence interval of 16 decodes at the deadline-constrained
// anneal budget: frames on a radio deadline run few anneals per
// subcarrier (the C-RAN study uses 3–10), which is exactly the regime
// where per-decode programming overhead dominates and batching pays —
// the §7 argument in miniature.
const BATCH: usize = 16;
const ANNEALS: usize = 10;
const ROUNDS: usize = 24;
/// Rounds and timed calls per round of each compile row; every
/// fresh-channel call (a quarter more per round warm up) takes a new
/// channel.
const COMPILE_ROUNDS: usize = 8;
const COMPILE_SAMPLES: usize = 8;

/// One timed stage of a compile: its name and its call on a channel.
type Stage<'a> = (&'a str, &'a dyn Fn(&CMatrix));

/// Times a fresh-channel call of each stage against a call on one
/// cached channel, every arm in one interleave: `stages` are
/// `(stage, call)` pairs whose `call(h)` runs that stage for channel
/// `h` of the shape (the first, `session`, compiles a whole session),
/// and `channel(rng)` draws one. Returns a row per stage.
fn compile_rows(
    shape: &str,
    logical_vars: usize,
    mut channel: impl FnMut(&mut StdRng) -> CMatrix,
    stages: &[Stage<'_>],
) -> Vec<serde_json::Value> {
    let mut rng = StdRng::seed_from_u64(2021);
    let cached = channel(&mut rng);
    // The shape's first compile builds its chip structure.
    stages.iter().for_each(|(_, call)| call(&cached));
    let calls = COMPILE_ROUNDS * (COMPILE_SAMPLES + COMPILE_SAMPLES / 4);
    let fresh: Vec<Vec<CMatrix>> = stages
        .iter()
        .map(|_| (0..calls).map(|_| channel(&mut rng)).collect())
        .collect();
    let mut fresh: Vec<_> = fresh.iter().map(|channels| channels.iter()).collect();
    let mut calls: Vec<Box<dyn FnMut() + '_>> = Vec::new();
    for ((_, call), fresh) in stages.iter().zip(&mut fresh) {
        calls.push(Box::new(move || {
            call(fresh.next().expect("one channel per call"))
        }));
        calls.push(Box::new(|| call(&cached)));
    }
    let mut arms: Vec<(&str, &mut dyn FnMut())> = calls
        .iter_mut()
        .enumerate()
        .map(|(k, call)| {
            let name = ["fresh_channel", "cached_channel"][k % 2];
            (name, &mut **call as &mut dyn FnMut())
        })
        .collect();
    let timing = interleave(COMPILE_ROUNDS, COMPILE_SAMPLES, &mut arms);
    let mut rows: Vec<serde_json::Value> = stages
        .iter()
        .enumerate()
        .map(|(k, (stage, _))| {
            let pair = (2 * k, 2 * k + 1);
            println!(
                "{:<24} {}",
                format!("{shape} {stage}"),
                timing.pair_line(pair, 1e-3, "us per call")
            );
            let head = serde_json::json!({
                "row": "compile",
                "shape": shape,
                "logical_vars": logical_vars,
                "stage": *stage,
            });
            timing.pair_json(head, pair, 1e-3, "us per call")
        })
        .collect();
    if stages.len() > 1 {
        // The session's minimum, split into its model build and the rest.
        let us = |arm: usize| (timing.min_ns(arm) * 1e-2).round() / 10.0;
        let split = |arm: usize| {
            let (model, core) = (us(arm + 2), ((us(arm) - us(arm + 2)) * 10.0).round() / 10.0);
            println!(
                "{:<24} {}: model {model} + core {core} us (by minimum)",
                format!("{shape} split"),
                ["fresh_channel", "cached_channel"][arm]
            );
            serde_json::json!({ "model": model, "core": core })
        };
        rows.push(serde_json::json!({
            "row": "compile_split",
            "shape": shape,
            "unit": "us per compile, by minimum",
            "fresh_channel": split(0),
            "cached_channel": split(1),
        }));
    }
    rows
}

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

    // --- Throughput: the three paths interleaved over ROUNDS rounds. ---
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
    let paths = ["one_shot", "session_serial", "session_batch"];
    let timing = interleave(
        ROUNDS,
        1,
        &mut [
            (paths[0], &mut one_shot),
            (paths[1], &mut session_serial),
            (paths[2], &mut session_batch),
        ],
    );

    let vpp = VppPrecoder::new(
        Annealer::new(AnnealerConfig::default()),
        DecoderConfig::default(),
        ANNEALS,
        1,
    );
    let vpp_rows = compile_rows(
        "16u BPSK VPP",
        32,
        |rng| rayleigh_channel(16, 16, rng),
        &[
            ("session", &|h: &CMatrix| {
                let input = PrecodeInput {
                    h: h.clone(),
                    modulation: Modulation::Bpsk,
                };
                std::hint::black_box(vpp.compile(&input).expect("16-user VPP fits the chip"));
            }),
            ("model", &|h: &CMatrix| {
                std::hint::black_box(VppModel::new(h, Modulation::Bpsk, 1).expect("full rank"));
            }),
        ],
    );
    let uplink48 = Scenario::new(48, 48, Modulation::Bpsk).sample(&mut rng);
    let uplink_rows = compile_rows(
        "48u BPSK uplink",
        48,
        |rng| rayleigh_channel(48, 48, rng),
        &[("session", &|h: &CMatrix| {
            let input = DetectionInput {
                h: h.clone(),
                y: uplink48.y().clone(),
                modulation: Modulation::Bpsk,
            };
            std::hint::black_box(decoder.compile(&input).expect("48-user BPSK fits the chip"));
        })],
    );

    let mut record = BenchRecord::new("BENCH_decode", "host");
    let ms = |ns: f64| (ns * 1e-4).round() / 100.0;
    for (path, name) in paths.into_iter().enumerate() {
        let decodes_per_sec = (BATCH as f64 / (timing.min_ns(path) * 1e-9) * 10.0).round() / 10.0;
        println!(
            "{name:<16} {decodes_per_sec:>9.1} decodes/s   ({:.2} ms per {BATCH}-decode interval)",
            ms(timing.min_ns(path))
        );
        record.rows.push(serde_json::json!({
            "row": "path",
            "path": name,
            "decodes_per_sec": decodes_per_sec,
            "interval_min_ms": ms(timing.min_ns(path)),
            "interval_median_ms": ms(timing.median_ns(path)),
        }));
    }
    for pair in [(0, 1), (0, 2), (1, 2)] {
        println!("{}", timing.pair_line(pair, 1e-6, "ms per interval"));
        let head = serde_json::json!({ "row": "pair" });
        let row = timing.pair_json(head, pair, 1e-6, "ms per interval");
        record.rows.push(row);
    }
    record.rows.extend(vpp_rows.into_iter().chain(uplink_rows));
    record.workload = serde_json::json!({
        "class": "12x12 QPSK",
        "logical_vars": 24usize,
        "batch": BATCH,
        "anneals": ANNEALS,
        "snr_db": 22.0,
        "seeds": "10000..10016",
        "rounds": ROUNDS,
        "compile_shapes": "16u BPSK VPP (1 box bit per dimension); 48u BPSK uplink",
        "compile_rounds": COMPILE_ROUNDS,
        "compile_samples": COMPILE_SAMPLES,
    });
    record.asserts = serde_json::json!({ "bit_identical": true });
    record.note = format!(
        "one coherence interval (fixed H), 16 received vectors at fixed seeds; all paths \
         assert bit-identical best_bits before timing; the three paths interleaved over \
         {ROUNDS} rounds, one pass each per round, the first path rotating; path rows: \
         decodes_per_sec from the path's minimum interval; pair rows: min_ratio = first \
         path's minimum over the second's, paired_median_ratio = median over rounds of the \
         per-round ratio, with its bootstrap 95% interval over rounds; compile rows: one \
         session compile of a channel never compiled before against a recompile of one \
         channel, after the shape's first compile, interleaved over {COMPILE_ROUNDS} rounds \
         of {COMPILE_SAMPLES} timed calls; the VPP shape's model build (VppModel::new) runs in \
         the same interleave as its own stage, and compile_split attributes each arm's \
         session minimum to the model build and the core compile (the remainder)"
    );
    let path = record.write().expect("write BENCH_decode.json");
    println!("\nwrote {}", path.display());
}
