//! `metro_serve`: full-duplex metro traffic (four cells, 0.012 jobs/µs,
//! 100 ms of simulated time) through `Broker` + `BatchScheduler` over a
//! two-worker `ResilientServer` with telemetry on, as an operator would
//! run it. Every dispatched batch is then executed on the rung the
//! scheduler chose:
//!
//! * QPU uplink — one `DecodeSession` compile per coherence block, then
//!   `decode_batch` at the anneal count the `QpuServer` prices;
//! * QPU downlink — one `VppSession` per block, then `precode_batch`;
//! * classical floor — a ZF detector or ZF precoder session.
//!
//! `DispatchRecord` carries no member list, so batches are recovered
//! from the outcomes (submission order) grouped by
//! `(cell, channel_hash, done_us)`.
//!
//! The workload is scheduler bound: many small 16-variable problems,
//! with the scheduler's event loop costing more host time per job than
//! the decode. The downlink share stays small (5%) so the simulated
//! deadline rate stays above 0.99.

use crate::compose::{Composed, Composer};
use crate::trace::Tracer;
use crate::{
    alternate, composed_layers, median, timed_call, unit_layers, zf_layers, zf_sample, Bench,
    Layers, Passes, Sample, Scale, Timed, ANNEALER_THREADS,
};
use quamax_anneal::{Annealer, AnnealerConfig};
use quamax_core::{
    fold_mod_tau, DecodeSession, DecoderConfig, DetectionInput, Detector, DetectorKind, Instance,
    PrecodeInput, Precoder, PrecoderSession, VppPrecoder, VppSession, ZfPrecoder,
};
use quamax_linalg::{CMatrix, CVector};
use quamax_ran::{
    BatchScheduler, Broker, CpuPolicy, CpuPool, FaultPlan, Guardrails, JobDirection, JobId,
    JobState, LoadGen, Policy, QpuOverheads, QpuServer, ResilientServer, SchedConfig,
    ScheduleReport, ServeRung, UserJob,
};
use quamax_telemetry::Telemetry;
use quamax_wireless::{apply_awgn, count_bit_errors, rayleigh_channel, Modulation, Snr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

const CELLS: usize = 4;
/// Offered load across all cells, jobs/µs.
const RATE_TOTAL: f64 = 0.012;
const DOWNLINK_FRACTION: f64 = 0.05;
const MAX_BATCH: usize = 24;
/// Anneals per problem, as the `QpuServer` prices them.
const QPU_ANNEALS: usize = 5;
const SNR_DB: f64 = -4.0;
/// Every `COMPOSE_EVERY`-th QPU uplink batch's first member also runs
/// the composed-layer decode in a traced run.
const COMPOSE_EVERY: usize = 8;

/// One coherence block's channel: uplink `H` is antennas × users,
/// downlink `H` users × antennas (both square here).
struct Block {
    h: CMatrix,
    modulation: Modulation,
}

/// One job's payload: transmitted bits, the uplink received vector or
/// the downlink symbol vector, and its seed.
struct JobData {
    bits: Vec<u8>,
    signal: CVector,
    seed: u64,
}

type BlockKey = (usize, u64);

pub(crate) struct Metro {
    arrivals: Vec<UserJob>,
    jobs: Vec<JobData>,
    blocks: HashMap<BlockKey, Block>,
    load_generate_s: f64,
    traffic_seed: u64,
    composer: Composer,
    vpp: VppPrecoder,
}

/// One recovered batch: its members (indices into `arrivals`) and rung.
struct Batch {
    key: BlockKey,
    direction: JobDirection,
    rung: ServeRung,
    members: Vec<usize>,
}

/// What executing one pass's batches produced.
#[derive(Default)]
struct Executed {
    unit_s: Vec<f64>,
    /// Best bits (uplink) or demapped bits (downlink) per job.
    decoded: BTreeMap<usize, Vec<u8>>,
    composed: Vec<Composed>,
    /// `(ZF µs, users)` per sampled item.
    zf: Vec<(f64, usize)>,
    precode_ns: f64,
    precode_items: usize,
}

fn qpu() -> QpuServer {
    let overheads = QpuOverheads {
        preprocessing_us: 0.0,
        programming_us: 200.0,
        readout_per_anneal_us: 25.0,
    };
    QpuServer::new(overheads, 2.0, QPU_ANNEALS).with_session_cache(10_000.0)
}

fn generator(seed: u64) -> LoadGen {
    LoadGen::full_duplex(seed, CELLS, RATE_TOTAL / CELLS as f64, DOWNLINK_FRACTION)
}

impl Metro {
    fn input(&self, j: usize) -> DetectionInput {
        let job = &self.arrivals[j];
        let block = &self.blocks[&(job.cell, job.channel_hash)];
        DetectionInput {
            h: block.h.clone(),
            y: self.jobs[j].signal.clone(),
            modulation: block.modulation,
        }
    }

    /// One scheduling pass over the arrivals; checks the broker and the
    /// ledger afterwards.
    fn schedule(&self, telemetry: &Telemetry) -> Result<ScheduleReport, String> {
        let mut srv = ResilientServer::new(
            vec![qpu(), qpu()],
            CpuPool::new(
                8,
                CpuPolicy::ZeroForcing {
                    vectors_per_channel: 1,
                },
            ),
            FaultPlan::quiet(self.traffic_seed),
            Guardrails::on(),
        )
        .with_telemetry(telemetry.clone());
        let mut broker = Broker::new();
        let mut sched = BatchScheduler::new(SchedConfig::new(Policy::DeadlineBatch, MAX_BATCH))
            .with_telemetry(telemetry.clone());
        let report = sched.run(&mut srv, &mut broker, self.arrivals.clone());
        srv.publish_telemetry();
        broker.publish_telemetry(telemetry);
        let census = broker.census();
        if !broker.drained() || !census.conserved() {
            return Err(format!("broker not drained and conserved: {census:?}"));
        }
        let ledger = srv.ledger();
        if !ledger.conserved() || ledger.in_flight() != 0 {
            return Err(format!(
                "server ledger not drained and conserved: {ledger:?}"
            ));
        }
        if report.outcomes.len() != self.arrivals.len()
            || report
                .outcomes
                .iter()
                .enumerate()
                .any(|(i, o)| o.id != JobId(i as u64) || broker.job(o.id) != &self.arrivals[i])
        {
            return Err("outcomes are not the arrivals in submission order".into());
        }
        Ok(report)
    }

    /// Recovers the dispatched batches of completed jobs, in completion
    /// order.
    fn batches(&self, report: &ScheduleReport) -> Result<Vec<Batch>, String> {
        let mut groups: BTreeMap<(u64, usize, u64), Batch> = BTreeMap::new();
        for (i, o) in report.outcomes.iter().enumerate() {
            if o.state != JobState::Completed {
                continue;
            }
            let job = &self.arrivals[i];
            let rung = o.rung.ok_or("a completed job has no rung")?;
            let b = groups
                .entry((o.done_us.to_bits(), job.cell, job.channel_hash))
                .or_insert_with(|| Batch {
                    key: (job.cell, job.channel_hash),
                    direction: job.direction,
                    rung,
                    members: Vec::new(),
                });
            if b.rung != rung {
                return Err("members of one batch were served on different rungs".into());
            }
            b.members.push(i);
        }
        let dispatched: usize = report.dispatches.iter().map(|d| d.occupancy).sum();
        let served: usize = groups.values().map(|b| b.members.len()).sum();
        if groups.len() != report.dispatches.len() || served != dispatched {
            return Err(format!(
                "recovered {} batches of {served} jobs, the dispatch log has {} of {dispatched}",
                groups.len(),
                report.dispatches.len()
            ));
        }
        Ok(groups.into_values().collect())
    }

    /// Executes every batch of one pass; `compose` samples the
    /// composed-layer decode and the ZF floor.
    fn execute(
        &self,
        batches: &[Batch],
        tracer: &mut Tracer,
        first_unit: u64,
        compose: bool,
    ) -> Result<Executed, String> {
        let mut out = Executed::default();
        let mut decode_sessions: HashMap<BlockKey, DecodeSession> = HashMap::new();
        let mut vpp_sessions: HashMap<BlockKey, VppSession> = HashMap::new();
        let mut qpu_uplink_batches = 0usize;
        for (u, batch) in batches.iter().enumerate() {
            let unit = first_unit + u as u64;
            let t = Instant::now();
            let root = tracer.begin("unit", unit, None);
            let first = batch.members[0];
            let block = &self.blocks[&batch.key];
            let items: Vec<(CVector, u64)> = batch
                .members
                .iter()
                .map(|&j| (self.jobs[j].signal.clone(), self.jobs[j].seed))
                .collect();
            match (batch.direction, batch.rung) {
                (JobDirection::Uplink, ServeRung::Qpu) => {
                    let session = match decode_sessions.entry(batch.key) {
                        Entry::Occupied(e) => e.into_mut(),
                        Entry::Vacant(e) => {
                            let input = self.input(first);
                            e.insert(
                                tracer
                                    .wrap("compile", unit, root, || {
                                        self.composer.decoder().compile(&input)
                                    })
                                    .map_err(|e| format!("session compile failed: {e}"))?,
                            )
                        }
                    };
                    let runs = tracer.wrap("decode_batch", unit, root, || {
                        session.decode_batch(&items, QPU_ANNEALS)
                    });
                    for (&j, run) in batch.members.iter().zip(&runs) {
                        out.decoded.insert(j, run.best_bits());
                    }
                    qpu_uplink_batches += 1;
                }
                (JobDirection::Uplink, ServeRung::Classical) => {
                    let mut session = tracer
                        .wrap("zf_compile", unit, root, || {
                            DetectorKind::zf().compile(&self.input(first))
                        })
                        .map_err(|e| format!("ZF compile failed: {e}"))?;
                    for (&j, (y, seed)) in batch.members.iter().zip(&items) {
                        let d = tracer
                            .wrap("zf_detect", unit, root, || session.detect(y, *seed))
                            .map_err(|e| format!("ZF detect failed: {e}"))?;
                        out.decoded.insert(j, d.bits);
                    }
                }
                (JobDirection::Downlink, rung @ (ServeRung::Qpu | ServeRung::Classical)) => {
                    let input = PrecodeInput {
                        h: block.h.clone(),
                        modulation: block.modulation,
                    };
                    let precodings = if rung == ServeRung::Qpu {
                        let session = match vpp_sessions.entry(batch.key) {
                            Entry::Occupied(e) => e.into_mut(),
                            Entry::Vacant(e) => e.insert(
                                tracer
                                    .wrap("precode_compile", unit, root, || {
                                        self.vpp.compile(&input)
                                    })
                                    .map_err(|e| format!("VPP compile failed: {e}"))?,
                            ),
                        };
                        let t = Instant::now();
                        let p =
                            tracer.wrap("precode", unit, root, || session.precode_batch(&items));
                        out.precode_ns += t.elapsed().as_nanos() as f64;
                        out.precode_items += items.len();
                        p.into_iter()
                            .map(|p| (p, session.tau()))
                            .collect::<Vec<_>>()
                    } else {
                        let mut session = tracer
                            .wrap("zf_compile", unit, root, || ZfPrecoder.compile(&input))
                            .map_err(|e| format!("ZF precoder compile failed: {e}"))?;
                        let tau = session.tau();
                        items
                            .iter()
                            .map(|(u, seed)| {
                                tracer
                                    .wrap("zf_precode", unit, root, || session.precode(u, *seed))
                                    .map(|p| (p, tau))
                                    .map_err(|e| format!("ZF precode failed: {e}"))
                            })
                            .collect::<Result<Vec<_>, _>>()?
                    };
                    for (&j, (p, tau)) in batch.members.iter().zip(&precodings) {
                        out.decoded
                            .insert(j, self.receive_downlink(j, block.modulation, p, *tau));
                    }
                }
                (_, ServeRung::Hybrid) => {
                    return Err("the hybrid rung is not configured but served a batch".into())
                }
            }
            tracer.end(root);
            out.unit_s.push(t.elapsed().as_secs_f64());

            let sample = batch.direction == JobDirection::Uplink
                && batch.rung == ServeRung::Qpu
                && qpu_uplink_batches % COMPOSE_EVERY == 1;
            if compose && sample {
                let input = self.input(first);
                let seed = self.jobs[first].seed;
                out.composed.push(
                    self.composer
                        .decode(&input, QPU_ANNEALS, seed, tracer, unit)?,
                );
                out.zf.push(zf_sample(&input, seed)?);
            }
        }
        if out.decoded.len() != batches.iter().map(|b| b.members.len()).sum::<usize>() {
            return Err("a served job has no executed result".into());
        }
        Ok(out)
    }

    /// The downlink receiver: the power-normalized transmit `u + τv`
    /// plus noise at the workload SNR, folded mod τ and demapped.
    fn receive_downlink(
        &self,
        j: usize,
        modulation: Modulation,
        p: &quamax_core::Precoding,
        tau: f64,
    ) -> Vec<u8> {
        let u = &self.jobs[j].signal;
        let e_tx = u.len() as f64 * modulation.mean_symbol_energy();
        let g = (e_tx / p.power.max(1e-12)).sqrt();
        let clean = CVector::from_vec(
            u.as_slice()
                .iter()
                .zip(p.perturbation.as_slice())
                .map(|(&ui, &vi)| ui + vi * tau)
                .collect(),
        );
        let sigma2 = Snr::from_db(SNR_DB).noise_variance(modulation);
        let mut noise_rng = StdRng::seed_from_u64(self.jobs[j].seed ^ 0xD0D0);
        let received = apply_awgn(&clean, sigma2 / (g * g), &mut noise_rng);
        modulation.demap_gray_vector(&fold_mod_tau(&received, tau))
    }

    /// One untraced pass, as an operator runs it: schedule with
    /// telemetry on, then execute every batch. Returns the scheduling
    /// time and the batches' member counts too.
    fn pass(&self) -> Result<(ScheduleReport, f64, Vec<usize>, Executed), String> {
        let (sched_s, report) = timed_call(|| self.schedule(&Telemetry::enabled()))?;
        let batches = self.batches(&report)?;
        let executed = self.execute(&batches, &mut Tracer::new(false), 0, false)?;
        let members = batches.iter().map(|b| b.members.len()).collect();
        Ok((report, sched_s, members, executed))
    }

    fn bit_errors(&self, executed: &Executed) -> (u64, u64) {
        executed.decoded.iter().fold((0, 0), |(e, n), (&j, bits)| {
            let tx = &self.jobs[j].bits;
            (e + count_bit_errors(bits, tx) as u64, n + tx.len() as u64)
        })
    }

    /// Generates one traffic trace from `traffic_seed`, and its
    /// channels and payloads from `seed`.
    fn build(seed: u64, traffic_seed: u64, scale: Scale) -> Result<Self, String> {
        let horizon_us = match scale {
            Scale::Full => 100_000.0,
            Scale::Tiny => 5_000.0,
        };
        let gen = generator(traffic_seed);
        let t = Instant::now();
        let arrivals = gen.generate(horizon_us);
        let load_generate_s = t.elapsed().as_secs_f64();
        let snr = Snr::from_db(SNR_DB);
        let mut blocks: HashMap<BlockKey, Block> = HashMap::new();
        let mut jobs = Vec::with_capacity(arrivals.len());
        for (i, job) in arrivals.iter().enumerate() {
            let modulation = gen
                .classes
                .iter()
                .find(|c| c.users == job.users && c.direction == job.direction)
                .map(|c| c.modulation)
                .ok_or("a job matches no traffic class")?;
            let block = blocks
                .entry((job.cell, job.channel_hash))
                .or_insert_with(|| {
                    let mut rng = StdRng::seed_from_u64(seed ^ job.channel_hash ^ job.cell as u64);
                    Block {
                        h: rayleigh_channel(job.users, job.users, &mut rng),
                        modulation,
                    }
                });
            let mut rng =
                StdRng::seed_from_u64(seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let n_bits = job.users * modulation.bits_per_symbol();
            let bits: Vec<u8> = (0..n_bits).map(|_| rng.random_range(0..2)).collect();
            let signal = match job.direction {
                JobDirection::Uplink => Instance::transmit(
                    block.h.clone(),
                    bits.clone(),
                    modulation,
                    Some(snr),
                    &mut rng,
                )
                .y()
                .clone(),
                JobDirection::Downlink => modulation.map_gray_vector(&bits),
            };
            jobs.push(JobData {
                bits,
                signal,
                seed: rng.random(),
            });
        }
        let annealer = Annealer::new(AnnealerConfig {
            threads: ANNEALER_THREADS,
            ..Default::default()
        });
        let config = DecoderConfig::default();
        let composer = Composer::new(annealer.clone(), config);
        Ok(Metro {
            arrivals,
            jobs,
            blocks,
            load_generate_s,
            traffic_seed,
            vpp: VppPrecoder::with_graph(
                annealer,
                composer.graph().clone(),
                config,
                QPU_ANNEALS,
                1,
            ),
            composer,
        })
    }

    /// `decode_batch` ≡ per-item `DecodeSession::decode`, and the
    /// composed-layer decode ≡ the session.
    fn gates(&self) -> Result<(), String> {
        // On the uplink block with the most jobs.
        let mut by_block: BTreeMap<BlockKey, Vec<usize>> = BTreeMap::new();
        for (j, job) in self.arrivals.iter().enumerate() {
            if job.direction == JobDirection::Uplink {
                by_block
                    .entry((job.cell, job.channel_hash))
                    .or_default()
                    .push(j);
            }
        }
        let members = by_block
            .values()
            .max_by_key(|m| m.len())
            .ok_or("no uplink jobs")?;
        let input = self.input(members[0]);
        let mut session = self
            .composer
            .decoder()
            .compile(&input)
            .map_err(|e| format!("compile failed: {e}"))?;
        let items: Vec<(CVector, u64)> = members
            .iter()
            .take(3)
            .map(|&j| (self.jobs[j].signal.clone(), self.jobs[j].seed))
            .collect();
        let batch = session.decode_batch(&items, QPU_ANNEALS);
        for ((y, seed), run) in items.iter().zip(&batch) {
            if session.decode(y, QPU_ANNEALS, *seed).distribution() != run.distribution() {
                return Err("decode_batch differs from per-item DecodeSession::decode".into());
            }
        }
        let seed = self.jobs[members[0]].seed;
        self.composer
            .decode(&input, QPU_ANNEALS, seed, &mut Tracer::new(false), 0)
            .map(|_| ())
    }
}

/// Traffic traces per run: two 100 ms traces of the `bench_observe`
/// operating point, whose channels and payloads come from `--seed`.
/// Two traces hold enough coherence blocks that `ber` moves little
/// with the seed. One trace per pass allowed twice the passes, but over
/// five seeds `latency_p90_ms` spread 0.33 (0.09 with two traces) and
/// `items_per_s` 0.19 (0.13).
const TRACES: usize = 2;

/// The traffic itself is fixed: trace `k` uses load-generator seed
/// `TRAFFIC_SEED + k` (`bench_observe` uses 2019). One 100 ms trace
/// holds only a few Markov bursts, and the scheduler's host time per
/// job grows with the burst load, so seeded traffic moved
/// `items_per_s` by 35% between seeds (spread 0.30 over five seeds)
/// while the code stayed the same.
const TRAFFIC_SEED: u64 = 2019;

pub(crate) struct MetroSet {
    traces: Vec<Metro>,
}

impl Bench for MetroSet {
    const PASS_S: f64 = 6.0;

    fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let n = match scale {
            Scale::Full => TRACES,
            Scale::Tiny => 1,
        };
        let traces = (0..n as u64)
            .map(|k| {
                Metro::build(
                    seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    TRAFFIC_SEED + k,
                    scale,
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(MetroSet { traces })
    }

    fn gates(&self) -> Result<(), String> {
        self.traces.iter().try_for_each(Metro::gates)
    }

    fn timed(&self, passes: &Passes) -> Result<Timed, String> {
        let mut samples = Vec::new();
        let mut attempted = 0u64;
        let mut failed = 0u64;
        let mut first = Vec::new();
        let (mut bit_errors, mut bits) = (0, 0);
        let (elapsed_s, passes) = passes.run(self.traces.len(), |pass, t| {
            let trace = &self.traces[t];
            let (report, sched_s, members, executed) = trace.pass()?;
            attempted += report.outcomes.len() as u64;
            failed += (report.shed() + report.failed()) as u64;
            // Keys: trace in the high half, batch (or the scheduling
            // pass, u32::MAX) in the low half. Every member job waits
            // for its whole batch: one latency sample per job.
            let key = (t as u64) << 32;
            samples.push(Sample {
                key: key | u64::from(u32::MAX),
                secs: sched_s,
                items: 0,
                jobs: 0,
            });
            for (b, (&secs, &n)) in executed.unit_s.iter().zip(&members).enumerate() {
                samples.push(Sample {
                    key: key | b as u64,
                    secs,
                    items: n as u64,
                    jobs: n as u64,
                });
            }
            if pass == 0 {
                let (e, n) = trace.bit_errors(&executed);
                bit_errors += e;
                bits += n;
                first.push(executed.decoded);
            } else if executed.decoded != first[t] {
                return Err(format!("trace {t} decoded differently on pass {pass}"));
            }
            Ok(())
        })?;
        Ok(Timed {
            samples,
            elapsed_s,
            bit_errors,
            bits,
            attempted,
            failed,
            passes,
        })
    }

    fn traced(&self, passes: &Passes, tracer: &mut Tracer) -> Result<Layers, String> {
        let mut off = Tracer::new(false);
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let (mut sched_on, mut sched_off) = (Vec::new(), Vec::new());
        let mut composed = Vec::new();
        let mut zf = Vec::new();
        let (mut precode_ns, mut precode_items) = (0.0, 0usize);
        let (mut jobs, mut dispatches, mut occupancy, mut met) = (0usize, 0usize, 0usize, 0usize);
        // The unembedding time the QPU model records over every QPU
        // enqueue, uplink and downlink, and the problems it covers.
        let (mut unembed_model_us, mut qpu_problems) = (0.0, 0usize);
        let mut next_unit = 0u64;
        // One unmeasured scheduling pass first, so neither side of the
        // telemetry comparison pays the process's cold start.
        self.traces[0].schedule(&Telemetry::disabled())?;
        passes.run(self.traces.len(), |pass, t| {
            let trace = &self.traces[t];
            // Telemetry off vs on over the same scheduling pass.
            let off_first = (pass + t) % 2 == 0;
            let on = Telemetry::enabled();
            let ((off_s, off_report), (on_s, report)) = alternate(
                off_first,
                || timed_call(|| trace.schedule(&Telemetry::disabled())),
                || timed_call(|| trace.schedule(&on)),
            )?;
            if off_report != report {
                return Err("telemetry-on schedule differs from telemetry-off".into());
            }
            sched_off.push(off_s);
            sched_on.push(on_s);
            let batches = trace.batches(&report)?;
            // The batches execute untraced and traced; the decodes must
            // agree.
            let sample = pass == 0;
            let (x, y) = alternate(
                off_first,
                || trace.execute(&batches, &mut off, 0, false),
                || trace.execute(&batches, tracer, next_unit, sample),
            )?;
            if x.decoded != y.decoded {
                return Err("traced execution differs from untraced".into());
            }
            next_unit += batches.len() as u64;
            untraced.extend_from_slice(&x.unit_s);
            traced.extend_from_slice(&y.unit_s);
            precode_ns += y.precode_ns;
            precode_items += y.precode_items;
            if pass == 0 {
                composed.extend(y.composed);
                zf.extend(y.zf);
                jobs += report.outcomes.len();
                dispatches += report.dispatches.len();
                occupancy += report.dispatches.iter().map(|d| d.occupancy).sum::<usize>();
                met += report.outcomes.iter().filter(|o| o.met_deadline).count();
                unembed_model_us += on
                    .merged_histogram("quamax_qpu_unembed_us")
                    .map_or(0.0, |h| h.sum());
                qpu_problems += report
                    .outcomes
                    .iter()
                    .zip(&trace.arrivals)
                    .filter(|(o, _)| o.rung == Some(ServeRung::Qpu))
                    .map(|(_, job)| job.problems)
                    .sum::<usize>();
            }
            Ok(())
        })?;
        let traces = self.traces.len() as f64;
        let generate_s: f64 = self.traces.iter().map(|t| t.load_generate_s).sum();
        let mut layers = Layers::new();
        layers.insert("load.generate_ms", generate_s * 1e3 / traces);
        layers.insert("load.jobs", jobs as f64 / traces);
        let sched_ms = median(&sched_on) * 1e3;
        layers.insert("sched.run_ms", sched_ms);
        layers.insert(
            "sched.us_per_job",
            sched_ms * 1e3 * traces / jobs.max(1) as f64,
        );
        layers.insert("sched.dispatches", dispatches as f64 / traces);
        layers.insert(
            "sched.fill_ratio",
            occupancy as f64 / dispatches.max(1) as f64 / MAX_BATCH as f64,
        );
        layers.insert("sched.deadline_rate", met as f64 / jobs.max(1) as f64);
        layers.insert(
            "telemetry.overhead_ratio",
            sched_on.iter().sum::<f64>() / sched_off.iter().sum::<f64>(),
        );
        let compile_calls = tracer.durations_ns("compile").len() as f64;
        let unit_count = tracer.durations_ns("unit").len().max(1) as f64;
        unit_layers(
            &mut layers,
            tracer,
            &untraced,
            &traced,
            compile_calls / unit_count,
        );
        // The model's per-problem unembedding charge against one
        // measured majority-vote unembed of one received vector.
        let model_us = unembed_model_us / qpu_problems.max(1) as f64;
        layers.insert("qpu.unembed_model_us_per_problem", model_us);
        if !composed.is_empty() {
            composed_layers(&mut layers, &composed);
            let measured = layers["unembed.us"];
            layers.insert(
                "unembed.model_gap",
                model_us / measured.max(f64::MIN_POSITIVE),
            );
        }
        if !zf.is_empty() {
            zf_layers(&mut layers, &zf);
        }
        if precode_items > 0 {
            layers.insert(
                "precode.us_per_item",
                precode_ns / 1e3 / precode_items as f64,
            );
        }
        Ok(layers)
    }
}
