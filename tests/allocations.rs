//! Allocation oracle for the warm decode and precode paths: once a
//! shape is compiled and the annealer thread has run a window of it, a
//! compile is a structure lookup plus per-interval coefficients, and a
//! batch allocates nothing sized by the structure's replica windows.
//! The same holds for a warm SQA run, whose windows reuse the one
//! replica batch the thread's SA windows run in.
//!
//! This binary counts every allocation of the measuring thread through
//! its own `#[global_allocator]`, and runs the annealer on that thread
//! (one annealer thread), so the counts cover the whole call. It also
//! counts allocations the size of the frozen CSR structure's arrays: a
//! warm batch shares the structure and copies only coefficients.
//! `cargo test --release --test allocations -- --nocapture` prints them.

use quamax::anneal::{AnnealJob, CompiledChains};
use quamax::prelude::*;
use quamax_chimera::{ChimeraGraph, CliqueEmbedding, EmbedParams, EmbeddedProblem};
use quamax_core::{Instance, VppPrecoder};
use quamax_ising::{CompiledProblem, IsingProblem};
use quamax_wireless::rayleigh_channel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed while tracking.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static LARGEST: Cell<u64> = const { Cell::new(0) };
    /// Byte sizes counted into `WATCHED` (0 = none).
    static WATCH: Cell<[u64; 4]> = const { Cell::new([0; 4]) };
    static WATCHED: Cell<u64> = const { Cell::new(0) };
}

fn record(size: usize) {
    let _ = TRACKING.try_with(|tracking| {
        if tracking.get() {
            COUNT.with(|c| c.set(c.get() + 1));
            BYTES.with(|b| b.set(b.get() + size as u64));
            LIVE.with(|l| l.set(l.get() + size as i64));
            LARGEST.with(|l| l.set(l.get().max(size as u64)));
            if WATCH.with(Cell::get).contains(&(size as u64)) {
                WATCHED.with(|w| w.set(w.get() + 1));
            }
        }
    });
}

fn release(size: usize) {
    let _ = TRACKING.try_with(|tracking| {
        if tracking.get() {
            LIVE.with(|l| l.set(l.get() - size as i64));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; `record` touches
// only const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        release(layout.size());
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by one call on this thread.
struct Allocations {
    count: u64,
    bytes: u64,
    largest: u64,
    /// Allocations of a watched size.
    watched: u64,
    /// Bytes still allocated when the call returned (its result's
    /// heap included).
    live: i64,
}

impl std::fmt::Display for Allocations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} allocations, {} KiB, largest {} B",
            self.count,
            self.bytes / 1024,
            self.largest
        )
    }
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Allocations) {
    COUNT.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    LIVE.with(|l| l.set(0));
    LARGEST.with(|l| l.set(0));
    WATCHED.with(|w| w.set(0));
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    let counted = Allocations {
        count: COUNT.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        largest: LARGEST.with(Cell::get),
        watched: WATCHED.with(Cell::get),
        live: LIVE.with(Cell::get),
    };
    (out, counted)
}

/// A 48-user clique problem embedded on the ideal chip, the shape of
/// the 48-user BPSK headline decode.
fn embedded_48u() -> EmbeddedProblem {
    let graph = ChimeraGraph::dw2q_ideal();
    let mut logical = IsingProblem::new(48);
    for i in 0..48 {
        for j in i + 1..48 {
            logical.set_coupling(i, j, 0.5);
        }
    }
    let embedding = CliqueEmbedding::new(&graph, 48).expect("fits the chip");
    EmbeddedProblem::compile(&graph, &embedding, &logical, EmbedParams::default())
}

/// Byte sizes of the frozen CSR structure of the 48-user BPSK clique
/// embedding on the ideal chip: `offsets`, and `neighbors` (the twin
/// table is as long). Copying the structure allocates both.
fn structure_sizes_48u(num_physical: usize) -> [u64; 4] {
    let compiled = CompiledProblem::new(embedded_48u().problem());
    assert_eq!(compiled.num_spins(), num_physical, "another embedding");
    [
        ((num_physical + 1) * 4) as u64,
        (compiled.num_entries() * 4) as u64,
        0,
        0,
    ]
}

fn one_thread_annealer() -> Annealer {
    Annealer::new(AnnealerConfig {
        sweeps_per_us: 4.0,
        threads: 1,
        ..Default::default()
    })
}

/// One coherence interval of the 48-user BPSK headline shape: the
/// channel and four `(y, seed)` items.
fn interval(rng: &mut Rng) -> (DetectionInput, Vec<(CVector, u64)>) {
    let h = rayleigh_channel(48, 48, rng);
    let items: Vec<(CVector, u64)> = (0..4u64)
        .map(|k| {
            let bits: Vec<u8> = (0..48)
                .map(|_| rand::Rng::random_range(rng, 0..2u8))
                .collect();
            let inst = Instance::transmit(
                h.clone(),
                bits,
                Modulation::Bpsk,
                Some(Snr::from_db(20.0)),
                rng,
            );
            (inst.y().clone(), 40 + k)
        })
        .collect();
    let input = DetectionInput {
        h,
        y: items[0].0.clone(),
        modulation: Modulation::Bpsk,
    };
    (input, items)
}

/// Allocations a warm compile of a cached shape may make: a fifth of
/// the 1 571 that every compile of this shape made while each one
/// re-embedded and re-froze the chip structure.
const WARM_COMPILE_BUDGET: u64 = 1571 / 5;

/// Allocations a warm 4-item 48-user `decode_batch` may make: it made
/// 366 while every item copied the session's couplings into its own
/// adjacency-list problem.
const WARM_BATCH_BUDGET: u64 = 200;

#[test]
fn warm_decode_allocates_no_window_buffer() {
    let mut rng = Rng::seed_from_u64(0xA110C);
    let decoder = QuamaxDecoder::new(one_thread_annealer(), DecoderConfig::default());
    let (input, items) = interval(&mut rng);
    decoder.compile(&input).unwrap().decode_batch(&items, 10);

    let (input, items) = interval(&mut rng);
    let (session, compile) = measure(|| decoder.compile(&input).unwrap());
    WATCH.with(|w| w.set(structure_sizes_48u(session.num_physical())));
    let (runs, batch) = measure(|| session.decode_batch(&items, 10));
    WATCH.with(|w| w.set([0; 4]));
    assert_eq!(runs.len(), items.len());
    // The smallest buffer of an 8-wide replica window: one f64 per
    // replica per physical qubit (the fields or linear strips).
    let window_buffer = (8 * session.num_physical() * 8) as u64;
    eprintln!("48u BPSK warm compile: {compile}");
    eprintln!(
        "48u BPSK warm decode_batch (4 x 10): {batch}, {} of a CSR structure array's size; window buffer {window_buffer} B",
        batch.watched
    );
    assert!(
        compile.count <= WARM_COMPILE_BUDGET,
        "a warm compile made {} allocations (budget {WARM_COMPILE_BUDGET})",
        compile.count
    );
    assert!(
        batch.count <= WARM_BATCH_BUDGET,
        "a warm decode_batch made {} allocations (budget {WARM_BATCH_BUDGET})",
        batch.count
    );
    assert!(
        batch.largest < window_buffer,
        "a warm decode_batch allocated {} B at once, a replica window's worth ({window_buffer} B)",
        batch.largest
    );
    assert_eq!(
        batch.watched, 0,
        "a warm decode_batch made {} allocations the size of a CSR structure array",
        batch.watched
    );
}

#[test]
fn warm_precode_allocates_no_window_buffer() {
    let mut rng = Rng::seed_from_u64(0xA110D);
    let precoder = VppPrecoder::new(one_thread_annealer(), DecoderConfig::default(), 10, 1);
    let input = PrecodeInput {
        h: rayleigh_channel(8, 8, &mut rng),
        modulation: Modulation::Qpsk,
    };
    let items = |rng: &mut Rng| -> Vec<(CVector, u64)> {
        (0..4u64)
            .map(|k| {
                let bits: Vec<u8> = (0..input.num_bits())
                    .map(|_| rand::Rng::random_range(rng, 0..2u8))
                    .collect();
                (Modulation::Qpsk.map_gray_vector(&bits), 60 + k)
            })
            .collect()
    };
    let session = precoder.compile(&input).unwrap();
    session.precode_batch(&items(&mut rng));

    let warm = items(&mut rng);
    let (precodings, batch) = measure(|| session.precode_batch(&warm));
    assert_eq!(precodings.len(), warm.len());
    let window_buffer = (8 * session.num_physical() * 8) as u64;
    eprintln!("8u QPSK VPP warm precode_batch (4 items): {batch}; window buffer {window_buffer} B");
    assert!(
        batch.largest < window_buffer,
        "a warm precode_batch allocated {} B at once, a replica window's worth ({window_buffer} B)",
        batch.largest
    );
}

#[test]
fn warm_sqa_run_allocates_no_slice_strip() {
    let embedded = embedded_48u();
    let structure = CompiledProblem::new(embedded.problem());
    let chains = CompiledChains::compile(&structure, embedded.chains());
    let slices = 4;
    let annealer = Annealer::new(AnnealerConfig {
        backend: Backend::Sqa { slices },
        sweeps_per_us: 4.0,
        threads: 1,
        ..Default::default()
    });
    let schedule = Schedule::standard(1.0);
    // Twelve anneals run as an 8-wide and a 4-wide window.
    let run = |seed: u64| {
        let job = AnnealJob {
            problem: &structure,
            init: None,
            num_anneals: 12,
            seed,
        };
        annealer.run_jobs(&structure, &chains, &schedule, &[job])
    };
    run(1);

    // A slice strip of either window: P·n·W spins (1 B) or fields (8 B).
    let n = structure.num_spins();
    let strips = [8, 4].map(|width| (slices * n * width) as u64);
    WATCH.with(|w| w.set([strips[0], 8 * strips[0], strips[1], 8 * strips[1]]));
    let (samples, warm) = measure(|| run(2));
    WATCH.with(|w| w.set([0; 4]));
    assert_eq!(samples[0].len(), 12);
    eprintln!(
        "48u embedded SQA warm run_jobs (P = {slices}, 12 anneals): {warm}; smallest slice strip {} B",
        strips[1]
    );
    assert_eq!(
        warm.watched, 0,
        "a warm SQA run made {} allocations the size of a slice strip",
        warm.watched
    );
    assert!(
        warm.largest < strips[1],
        "a warm SQA run allocated {} B at once, a slice strip's worth ({} B)",
        warm.largest,
        strips[1]
    );
}

/// Live heap a 16-user lattice-reduced VPP session may hold: its model
/// (`P`, `W`, the LLL basis change and its inverse, the template's
/// diagonal) and the couplings, held once, with the chip structure
/// shared through the cache. It held 63 360 B while it also kept the
/// QUBO template and an adjacency-list copy of the couplings.
const VPP16_SESSION_BUDGET: i64 = 34 * 1024;

/// Live heap each session shape metro serves may hold once its chip
/// structure is cached: `(shape, users, modulation, budget)`. A decode
/// session holds `H` and the couplings; the budgets sit above what the
/// sessions held (9 408, 6 336 and 16 320 B) less their adjacency-list
/// copies of the couplings, and a VPP session's QUBO template.
const SESSION_BUDGETS: [(&str, usize, Modulation, i64); 4] = [
    ("16u BPSK decode", 16, Modulation::Bpsk, 6 * 1024),
    ("8u QPSK decode", 8, Modulation::Qpsk, 3 * 1024),
    ("16u BPSK VPP", 16, Modulation::Bpsk, VPP16_SESSION_BUDGET),
    ("8u QPSK VPP", 8, Modulation::Qpsk, 9 * 1024),
];

#[test]
fn held_sessions_fit_their_budgets() {
    let mut rng = Rng::seed_from_u64(0xA110F);
    let decoder = QuamaxDecoder::new(one_thread_annealer(), DecoderConfig::default());
    let precoder = VppPrecoder::new(one_thread_annealer(), DecoderConfig::default(), 10, 1);
    for (shape, users, modulation, budget) in SESSION_BUDGETS {
        let vpp = shape.ends_with("VPP");
        // The first compile of the shape builds and caches its chip
        // structure; the measured one compiles a fresh channel.
        let compile = |rng: &mut Rng| -> Allocations {
            let h = rayleigh_channel(users, users, rng);
            if vpp {
                let input = PrecodeInput { h, modulation };
                measure(|| precoder.compile(&input).unwrap()).1
            } else {
                let y = CVector::zeros(users);
                let input = DetectionInput { h, y, modulation };
                measure(|| decoder.compile(&input).unwrap()).1
            }
        };
        compile(&mut rng);
        let held = compile(&mut rng);
        eprintln!("{shape} session holds {} B (budget {budget} B)", held.live);
        assert!(
            held.live <= budget,
            "a {shape} session holds {} B (budget {budget} B)",
            held.live
        );
    }
}

#[test]
fn fresh_channel_vpp_compile_finds_the_shape_structure() {
    let mut rng = Rng::seed_from_u64(0xA110E);
    let precoder = VppPrecoder::new(one_thread_annealer(), DecoderConfig::default(), 10, 1);
    let input = |rng: &mut Rng| PrecodeInput {
        h: rayleigh_channel(16, 16, rng),
        modulation: Modulation::Bpsk,
    };
    let first = precoder.compile(&input(&mut rng)).unwrap();
    // The CSR structure of the 32-variable clique on the ideal chip.
    let graph = ChimeraGraph::dw2q_ideal();
    let mut logical = IsingProblem::new(32);
    for i in 0..32 {
        for j in i + 1..32 {
            logical.set_coupling(i, j, 0.5);
        }
    }
    let embedding = CliqueEmbedding::new(&graph, 32).expect("fits the chip");
    let compiled = CompiledProblem::new(
        EmbeddedProblem::compile(&graph, &embedding, &logical, EmbedParams::default()).problem(),
    );
    assert_eq!(
        compiled.num_spins(),
        first.num_physical(),
        "another embedding"
    );
    let sizes = [
        ((compiled.num_spins() + 1) * 4) as u64,
        (compiled.num_entries() * 4) as u64,
        0,
        0,
    ];
    drop(first);

    // Twenty channels never compiled before: each compile finds the
    // shape's structure, and together they leave the heap as they found
    // it — no structure per channel stays cached.
    let channels: Vec<PrecodeInput> = (0..20).map(|_| input(&mut rng)).collect();
    WATCH.with(|w| w.set(sizes));
    let (_, all) = measure(|| {
        for channel in &channels {
            let (session, compile) = measure_nested(|| precoder.compile(channel).unwrap());
            assert!(
                compile.count <= WARM_COMPILE_BUDGET,
                "a fresh-channel VPP compile made {} allocations (budget {WARM_COMPILE_BUDGET})",
                compile.count
            );
            assert_eq!(
                compile.watched, 0,
                "a fresh-channel VPP compile made {} allocations the size of a CSR structure array",
                compile.watched
            );
            assert!(
                compile.live <= VPP16_SESSION_BUDGET,
                "a 16-user VPP session holds {} B (budget {VPP16_SESSION_BUDGET} B)",
                compile.live
            );
            drop(session);
        }
    });
    WATCH.with(|w| w.set([0; 4]));
    let (session, one) = measure(|| precoder.compile(&channels[0]).unwrap());
    eprintln!(
        "16u VPP fresh-channel compile: {one}, session holds {} B",
        one.live
    );
    eprintln!(
        "20 fresh-channel 16u VPP compiles: {all}, {} B left live",
        all.live
    );
    drop(session);
    assert!(
        all.live < 16 * 1024,
        "20 fresh-channel compiles left {} B live: a structure per channel stayed cached",
        all.live
    );
}

/// [`measure`] inside an outer [`measure`]: counts `f` alone and then
/// adds its counts back to the outer totals.
fn measure_nested<T>(f: impl FnOnce() -> T) -> (T, Allocations) {
    let outer = (
        COUNT.with(Cell::get),
        BYTES.with(Cell::get),
        LIVE.with(Cell::get),
        LARGEST.with(Cell::get),
        WATCHED.with(Cell::get),
    );
    let (out, inner) = measure(f);
    TRACKING.with(|t| t.set(true));
    COUNT.with(|c| c.set(outer.0 + inner.count));
    BYTES.with(|b| b.set(outer.1 + inner.bytes));
    LIVE.with(|l| l.set(outer.2 + inner.live));
    LARGEST.with(|l| l.set(outer.3.max(inner.largest)));
    WATCHED.with(|w| w.set(outer.4 + inner.watched));
    (out, inner)
}
