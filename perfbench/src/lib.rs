//! Host-time benchmark of the QuAMax decode and C-RAN serving stack.
//!
//! Three workloads stress different layers (see `METRICS.md` beside
//! this crate for the metric list, their clocks and which layer metric
//! should move which end-to-end metric):
//!
//! * `uplink_48u_bpsk` — the paper's 48×48 BPSK headline shape; kernel
//!   bound, one coherence interval in flight;
//! * `metro_serve` — full-duplex metro traffic through the broker and
//!   batch scheduler, every dispatched batch then executed on the rung
//!   the scheduler chose; scheduler bound;
//! * `coded_idd_fastfade` — iterative detection–decoding over a fresh
//!   channel per use; one compile per received vector. It runs on
//!   request and lends its layers to traced runs of the other two, but
//!   `BENCHMARK.json` leaves it out of the measured set: its latency
//!   spread past the bound between runs of unchanged code.
//!
//! Every run first passes the workload's correctness gates; a failed
//! gate is an error and no number is reported. Timings are host
//! wall-clock, except `sched.deadline_rate`, which is simulated time.

mod coded;
mod compose;
mod metro;
mod trace;
mod uplink;

use quamax_core::{DetectionInput, Detector, DetectorKind};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Uplink48,
    MetroServe,
    CodedIdd,
}

impl Workload {
    /// Every workload; `BENCHMARK.json` lists the first two.
    pub const ALL: [Workload; 3] = [Workload::Uplink48, Workload::MetroServe, Workload::CodedIdd];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Uplink48 => "uplink_48u_bpsk",
            Workload::MetroServe => "metro_serve",
            Workload::CodedIdd => "coded_idd_fastfade",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a tiny one for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// A reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (sample counts, probe sources).
    pub notes: Vec<String>,
    /// The span log of a traced run, as JSON.
    pub trace_json: Option<String>,
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ber", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("load.generate_ms", "ms"),
    ("load.jobs", "count"),
    ("sched.run_ms", "ms"),
    ("sched.us_per_job", "us"),
    ("sched.dispatches", "count"),
    ("sched.fill_ratio", "ratio"),
    ("sched.deadline_rate", "ratio"),
    ("telemetry.overhead_ratio", "ratio"),
    ("compile.calls", "count/unit"),
    ("compile.us_p50", "us"),
    ("compile.share", "ratio"),
    ("reduce.us", "us"),
    ("embed.us", "us"),
    ("freeze.us", "us"),
    ("anneal.us_per_anneal", "us"),
    ("anneal.spin_updates", "count"),
    ("anneal.ns_per_spin_update", "ns"),
    ("anneal.share", "ratio"),
    ("anneal.p0", "ratio"),
    ("unembed.us", "us"),
    ("unembed.chain_break_fraction", "ratio"),
    ("rank.us", "us"),
    ("soft.detect_soft_us", "us"),
    ("coding.decode_soft_us", "us"),
    ("idd.mean_iters", "count"),
    ("precode.us_per_item", "us"),
    ("zf.us_per_item", "us"),
    ("cpu.model_gap", "ratio"),
    ("unembed.model_gap", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// The set-up is timed in slots: once before the timed phase and again
/// after every pass, so that its samples span the run as the units' do.
/// A slot repeats the set-up at least `SETUP_SLOT_REPS` times and until
/// `SETUP_SLOT_S` have passed, and keeps the median repetition;
/// `setup_s` is the fastest slot. A set-up of tens of milliseconds thus
/// runs three or four times a slot, one of tens of microseconds hundreds.
/// Timed once at the start of a run, the set-up of `metro_serve` read
/// 7.3 ms in some runs and 10–11 ms in others, as the host's slow phases
/// (see `METRICS.md`) fell.
const SETUP_SLOT_REPS: usize = 3;
const SETUP_SLOT_S: f64 = 0.05;

/// A run stops after the pass during which this many times `--seconds`
/// have passed, even if passes are left, so that a host much slower than
/// the one `Bench::PASS_S` was measured on still ends in time; the notes
/// then show fewer passes made than planned.
const OVERRUN_FACTOR: f64 = 1.4;

/// Annealer worker threads. One: on a two-vCPU host shared with other
/// tenants, two workers made every decode wait for the slower thread,
/// and the run-to-run spread of `items_per_s` on `uplink_48u_bpsk`
/// rose from 0.07 to 0.25.
pub const ANNEALER_THREADS: usize = 1;

/// One timed execution of a unit (interval, dispatched batch or frame),
/// or of a step units wait behind (a scheduling pass).
pub(crate) struct Sample {
    /// Identifies the unit; the same input has the same key on every
    /// pass.
    pub key: u64,
    pub secs: f64,
    /// Vectors completed (uplink detections plus downlink precodes).
    pub items: u64,
    /// Latency samples the unit contributes: one per job waiting for it
    /// (0 for a scheduling pass).
    pub jobs: u64,
}

/// The timed phase's outcome, shared by every workload.
pub(crate) struct Timed {
    pub samples: Vec<Sample>,
    /// Host seconds the timed phase took.
    pub elapsed_s: f64,
    pub bit_errors: u64,
    pub bits: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Passes made over the inputs.
    pub passes: usize,
}

/// Per-layer values a traced run measured, by metric name.
pub(crate) type Layers = BTreeMap<&'static str, f64>;

/// Runs one invocation: gates, then the timed (or traced) phase.
pub fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload {
        Workload::Uplink48 => drive::<uplink::Uplink>(cfg),
        Workload::MetroServe => drive::<metro::MetroSet>(cfg),
        Workload::CodedIdd => drive::<coded::Coded>(cfg),
    }
}

/// What each workload implements.
pub(crate) trait Bench: Sized {
    /// Host seconds of one untraced pass over the full-size inputs on a
    /// two-vCPU virtual machine. A run makes `--seconds / PASS_S` passes
    /// (at least two), a number fixed by the workload and `--seconds`
    /// alone: each unit's floor is then the minimum over the same count
    /// of executions however fast the code is, and faster code does not
    /// get a lower floor merely by fitting in more passes.
    const PASS_S: f64;
    /// Generates the inputs and builds decoders and graphs.
    fn setup(seed: u64, scale: Scale) -> Result<Self, String>;
    /// Correctness gates that need no timed phase.
    fn gates(&self) -> Result<(), String>;
    /// The timed phase; checks its own outputs.
    fn timed(&self, passes: &Passes) -> Result<Timed, String>;
    /// The traced phase: per-layer values and the span log.
    fn traced(&self, passes: &Passes, tracer: &mut Tracer) -> Result<Layers, String>;
}

/// How many passes over its inputs a phase makes.
pub(crate) struct Passes<'a> {
    pub count: usize,
    /// Stop after the pass during which this many host seconds passed.
    pub limit_s: f64,
    /// Set-up slots to time after every pass, if any.
    setup: Option<&'a SetupSlots<'a>>,
}

impl<'a> Passes<'a> {
    /// `seconds / pass_s` passes, at least `min`.
    fn new(seconds: f64, pass_s: f64, min: usize) -> Self {
        Passes {
            count: ((seconds / pass_s).round() as usize).max(min),
            limit_s: seconds * OVERRUN_FACTOR,
            setup: None,
        }
    }

    /// Calls `unit(pass, i)` for `i` in `0..units`, pass after pass.
    /// Returns the elapsed host seconds and the passes made.
    pub(crate) fn run(
        &self,
        units: usize,
        mut unit: impl FnMut(usize, usize) -> Result<(), String>,
    ) -> Result<(f64, usize), String> {
        let start = Instant::now();
        for pass in 0..self.count {
            for i in 0..units {
                unit(pass, i)?;
            }
            if let Some(setup) = self.setup {
                setup.slot()?;
            }
            if start.elapsed().as_secs_f64() >= self.limit_s {
                return Ok((start.elapsed().as_secs_f64(), pass + 1));
            }
        }
        Ok((start.elapsed().as_secs_f64(), self.count))
    }
}

/// Timed set-up slots: each the median of its repetitions.
struct SetupSlots<'a> {
    setup: &'a dyn Fn() -> Result<(), String>,
    medians: RefCell<Vec<f64>>,
    reps: Cell<usize>,
}

impl<'a> SetupSlots<'a> {
    fn new(setup: &'a dyn Fn() -> Result<(), String>) -> Self {
        SetupSlots {
            setup,
            medians: RefCell::new(Vec::new()),
            reps: Cell::new(0),
        }
    }

    /// Times one slot of set-up repetitions.
    fn slot(&self) -> Result<(), String> {
        let mut secs = Vec::new();
        let start = Instant::now();
        while secs.len() < SETUP_SLOT_REPS || start.elapsed().as_secs_f64() < SETUP_SLOT_S {
            secs.push(timed_call(self.setup)?.0);
        }
        self.reps.set(self.reps.get() + secs.len());
        self.medians.borrow_mut().push(median(&secs));
        Ok(())
    }
}

fn drive<B: Bench>(cfg: &Config) -> Result<Report, String> {
    let setup_once = || B::setup(cfg.seed, cfg.scale).map(drop);
    let setup = SetupSlots::new(&setup_once);
    setup.slot()?;
    let state = B::setup(cfg.seed, cfg.scale)?;
    state.gates()?;

    if !cfg.trace {
        let passes = Passes {
            setup: Some(&setup),
            ..Passes::new(cfg.seconds, B::PASS_S, 2)
        };
        let timed = state.timed(&passes)?;
        let setup_s = setup.medians.borrow();
        if 2 * timed.bit_errors >= timed.bits {
            return Err(format!(
                "BER {}/{} is no better than guessing",
                timed.bit_errors, timed.bits
            ));
        }
        // Each unit's time is its minimum over the passes: the host's
        // noise floor for that input. Other tenants' bursts only add
        // time, and their share of a run moved run-level medians by
        // more than a quarter between runs on unchanged code.
        let mut floors: BTreeMap<u64, (f64, u64, u64)> = BTreeMap::new();
        for s in &timed.samples {
            let e = floors
                .entry(s.key)
                .or_insert((f64::INFINITY, s.items, s.jobs));
            e.0 = e.0.min(s.secs);
        }
        let floor_s: f64 = floors.values().map(|f| f.0).sum();
        let floor_items: u64 = floors.values().map(|f| f.1).sum();
        let lat_ms: Vec<f64> = floors
            .values()
            .flat_map(|&(secs, _, jobs)| std::iter::repeat_n(secs * 1e3, jobs as usize))
            .collect();
        let beyond_p90 = lat_ms.len() - (lat_ms.len() as f64 * 0.9).ceil() as usize;
        let raw_items: u64 = timed.samples.iter().map(|s| s.items).sum();
        let values = [
            floor_items as f64 / floor_s,
            quantile(&lat_ms, 0.5),
            quantile(&lat_ms, 0.9),
            timed.bit_errors as f64 / timed.bits.max(1) as f64,
            peak_rss_mb()?,
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect();
        return Ok(Report {
            attempted: timed.attempted,
            failed: timed.failed,
            metrics,
            notes: vec![
                format!(
                    "latency over {} samples ({beyond_p90} beyond p90) of {} units' floors \
                     from {} executions in {} of {} passes",
                    lat_ms.len(),
                    floors.len(),
                    timed.samples.len(),
                    timed.passes,
                    passes.count
                ),
                format!(
                    "setup_s: fastest of {} slot medians over {} repetitions \
                     (median slot {:.6} s)",
                    setup_s.len(),
                    setup.reps.get(),
                    median(&setup_s)
                ),
                format!(
                    "raw throughput: {raw_items} items in {:.3} s = {:.3}/s",
                    timed.elapsed_s,
                    raw_items as f64 / timed.elapsed_s
                ),
                format!(
                    "ber: {} errors / {} bits; {ANNEALER_THREADS} annealer thread(s)",
                    timed.bit_errors, timed.bits
                ),
            ],
            trace_json: None,
        });
    }

    let mut tracer = Tracer::new(true);
    // Every traced pass runs each unit twice, untraced and traced.
    let passes = Passes::new(cfg.seconds, 2.0 * B::PASS_S, 1);
    let mut layers = state.traced(&passes, &mut tracer)?;
    let attempted = tracer.durations_ns("unit").len() as u64;
    // Layers this workload never calls are measured by a short traced
    // pass of the workload that does.
    let mut probed = Vec::new();
    for other in Workload::ALL {
        if other == cfg.workload || PER_LAYER.iter().all(|(n, _)| layers.contains_key(n)) {
            continue;
        }
        let filled = match other {
            Workload::Uplink48 => probe_layers::<uplink::Uplink>(cfg.seed)?,
            Workload::MetroServe => probe_layers::<metro::MetroSet>(cfg.seed)?,
            Workload::CodedIdd => probe_layers::<coded::Coded>(cfg.seed)?,
        };
        for (name, value) in filled {
            if !layers.contains_key(name) {
                layers.insert(name, value);
                probed.push(format!("{name}<-{}", other.name()));
            }
        }
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            layers
                .get(name)
                .map(|&value| Metric { name, value, unit })
                .ok_or_else(|| format!("traced run did not measure {name}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut notes = vec![format!(
        "layers measured by a tiny probe of another workload: {}",
        if probed.is_empty() {
            "none".to_string()
        } else {
            probed.join(", ")
        }
    )];
    for (name, value) in &layers {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            notes.push(format!("also measured: {name} = {value}"));
        }
    }
    Ok(Report {
        attempted: attempted.max(1),
        failed: 0,
        metrics,
        notes,
        trace_json: Some(tracer.to_json()),
    })
}

/// One traced pass of workload `B` at the tiny size.
fn probe_layers<B: Bench>(seed: u64) -> Result<Layers, String> {
    let state = B::setup(seed, Scale::Tiny)?;
    state.gates()?;
    let one = Passes {
        count: 1,
        limit_s: f64::INFINITY,
        setup: None,
    };
    state.traced(&one, &mut Tracer::new(true))
}

/// Linear-interpolated `q`-quantile (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set (VmHWM), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status for VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in the process status".to_string())
}

/// Runs `a` and `b` once each, `a` first when `a_first`, so that
/// neither side always pays the other's warm-up; returns both results.
pub(crate) fn alternate<A, B>(
    a_first: bool,
    a: impl FnOnce() -> Result<A, String>,
    b: impl FnOnce() -> Result<B, String>,
) -> Result<(A, B), String> {
    if a_first {
        let a = a()?;
        Ok((a, b()?))
    } else {
        let b = b()?;
        Ok((a()?, b))
    }
}

/// Calls `f` and returns its host time in seconds with its result.
pub(crate) fn timed_call<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(f64, T), String> {
    let t = Instant::now();
    let out = f()?;
    Ok((t.elapsed().as_secs_f64(), out))
}

/// One ZF floor sample: compile a ZF session for `input` and detect its
/// `y`; returns `(µs, users)` for [`zf_layers`].
pub(crate) fn zf_sample(input: &DetectionInput, seed: u64) -> Result<(f64, usize), String> {
    let (secs, ()) = timed_call(|| {
        let mut session = DetectorKind::zf()
            .compile(input)
            .map_err(|e| format!("ZF compile failed: {e}"))?;
        session
            .detect(&input.y, seed)
            .map(|_| ())
            .map_err(|e| format!("ZF detect failed: {e}"))
    })?;
    Ok((secs * 1e6, input.nt()))
}

/// Ratio of summed traced to summed untraced unit times, where every
/// unit ran both ways.
pub(crate) fn paired_ratio(untraced_s: &[f64], traced_s: &[f64]) -> f64 {
    traced_s.iter().sum::<f64>() / untraced_s.iter().sum::<f64>().max(f64::MIN_POSITIVE)
}

/// Share of the unit spans' wall time not covered by any layer span.
pub(crate) fn unattributed_share(tracer: &Tracer) -> f64 {
    let wall = tracer.root_total_ns("unit");
    let own = tracer.self_time_ns().get("unit").copied().unwrap_or(0.0);
    own / wall.max(1.0)
}

/// Layer values read off the unit spans: compile time and share, and
/// the trace's own overhead.
pub(crate) fn unit_layers(
    layers: &mut Layers,
    tracer: &Tracer,
    untraced_s: &[f64],
    traced_s: &[f64],
    compile_calls_per_unit: f64,
) {
    let compile_ns = tracer.durations_ns("compile");
    let self_ns = tracer.self_time_ns();
    let wall = tracer.root_total_ns("unit");
    layers.insert("compile.calls", compile_calls_per_unit);
    layers.insert("compile.us_p50", median(&compile_ns) / 1e3);
    layers.insert(
        "compile.share",
        self_ns.get("compile").copied().unwrap_or(0.0) / wall.max(1.0),
    );
    layers.insert("trace.overhead_ratio", paired_ratio(untraced_s, traced_s));
    layers.insert("trace.unattributed_share", unattributed_share(tracer));
}

/// Layer values of the composed-layer decodes (medians over samples).
pub(crate) fn composed_layers(layers: &mut Layers, composed: &[compose::Composed]) {
    let med =
        |f: &dyn Fn(&compose::Composed) -> f64| median(&composed.iter().map(f).collect::<Vec<_>>());
    layers.insert("reduce.us", med(&|c| c.reduce_ns / 1e3));
    layers.insert("embed.us", med(&|c| c.embed_ns / 1e3));
    layers.insert("freeze.us", med(&|c| c.freeze_ns / 1e3));
    layers.insert(
        "anneal.us_per_anneal",
        med(&|c| c.anneal_ns / 1e3 / c.anneals as f64),
    );
    layers.insert("anneal.spin_updates", med(&|c| c.spin_updates));
    layers.insert(
        "anneal.ns_per_spin_update",
        med(&|c| c.anneal_ns / c.spin_updates),
    );
    layers.insert("anneal.share", med(&|c| c.anneal_ns / c.wall_ns));
    layers.insert("anneal.p0", med(&|c| c.distribution.probability(0)));
    layers.insert("unembed.us", med(&|c| c.unembed_ns / 1e3));
    layers.insert(
        "unembed.chain_break_fraction",
        med(&|c| c.chain_break_fraction),
    );
    layers.insert("rank.us", med(&|c| c.rank_ns / 1e3));
}

/// ZF floor per item (`(measured µs, users)` samples) and the CPU
/// pool's priced per-problem time against it.
pub(crate) fn zf_layers(layers: &mut Layers, samples: &[(f64, usize)]) {
    let pool = quamax_ran::CpuPool::new(
        1,
        quamax_ran::CpuPolicy::ZeroForcing {
            vectors_per_channel: 1,
        },
    );
    let measured: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let gaps: Vec<f64> = samples
        .iter()
        .map(|&(us, users)| pool.per_problem_us(users) / us.max(f64::MIN_POSITIVE))
        .collect();
    layers.insert("zf.us_per_item", median(&measured));
    layers.insert("cpu.model_gap", median(&gaps));
}

/// Renders the result object the benchmark prints last.
pub fn result_json(correct: bool, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}
