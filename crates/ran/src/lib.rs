//! Centralized RAN substrate (§1, §7).
//!
//! QuAMax's deployment story is a C-RAN: access points forward uplink
//! samples over low-latency fronthaul to a data center where physical-
//! layer processing is aggregated — and where a QPU sits next to the
//! CPU pool. This crate models that system far enough to ask the
//! paper's §7 question quantitatively: *with which overheads does QA
//! decoding meet wireless deadlines?*
//!
//! * [`topology`] — APs, their load (users, modulation, subcarriers),
//!   fronthaul latency, and the radio-technology deadlines the paper
//!   quotes (tens of µs for Wi-Fi ACKs, 3 ms LTE HARQ, 10 ms WCDMA);
//! * [`qpu`] — a QPU server with the paper's measured overhead stack
//!   (≈40 ms preprocessing, ≈7 ms programming, 0.125 ms readout per
//!   anneal) that can be toggled off to model the paper's envisioned
//!   integrated system;
//! * [`cpu`] — a multi-core CPU pool running the classical baselines
//!   (ZF or Sphere-Decoder service times from `baselines::timing`);
//! * [`hybrid`] — the classical-first rung of the HotNets '20
//!   follow-on structure: the CPU pool decodes everything, the QPU
//!   re-decodes only the residual-flagged fallback fraction per AP;
//! * [`sim`] — a deterministic discrete-event simulation feeding
//!   periodic AP frames through the broker and batch scheduler onto
//!   one serving pool ([`ResilientServer`]) and scoring each frame
//!   against its AP's deadline. A plain QPU
//!   ([`ResilientServer::plain_qpu`]), a CPU pool and the hybrid
//!   ([`ResilientServer::without_qpu`], optionally
//!   [`ResilientServer::with_hybrid`]) are pool configurations, not
//!   separate server types;
//! * [`coded`] — the join of the timing world and the BER world:
//!   every simulated frame is also decoded through the soft-output
//!   coded pipeline (`quamax_core::coded`), and the report is **coded
//!   goodput** — payload that arrived both on time and error-free,
//!   hard-input vs soft-input Viterbi side by side.
//!
//! Programming amortization is modeled two ways on the QPU server:
//! frame-counted coherence ([`QpuServer::with_coherence`]) and a
//! per-AP *session cache keyed by channel hash*
//! ([`QpuServer::with_session_cache`] + [`qpu::channel_hash`]), which
//! evicts on coherence expiry and reprograms exactly when an AP's
//! channel actually changes.
//!
//! # DESIGN §Resilience
//!
//! A deployed annealer-backed BBU pool degrades in ways the fair-
//! weather pipeline above never sees: chains decohere in storms, the
//! analog control drifts off calibration, programming cycles fail,
//! hosts stall, workers crash.
//! The resilience subsystem spans four modules, device layer to
//! serving layer:
//!
//! * [`fault`] — a seeded, deterministic [`FaultPlan`]: one SplitMix64
//!   draw per `(worker, job, attempt)` triple classified against per-
//!   class rates, so degraded runs are bit-reproducible and the
//!   guarded-vs-unguarded comparison is fair (first attempts see the
//!   same faults either way). Faults are priced in time only: a fired
//!   [`FaultClass`] costs the attempt's device time or a stall and
//!   decides whether the retry is warm, but never alters an anneal's
//!   samples. The [`ServeError`] taxonomy classifies every failure as transient or
//!   permanent so callers decide instead of panicking.
//! * [`retry`] — deadline-aware [`RetryPolicy`]: exponential backoff
//!   with deterministic seeded jitter, *funded by deadline slack* (the
//!   PR-5 `IddBudget` pattern — a retry that cannot land before the
//!   frame's deadline is never scheduled). QuAMax retries after a
//!   storm/drift are **warm**: the failed attempt's best candidate
//!   seeds a `decode_reverse_from` reverse anneal at
//!   [`RetryPolicy::warm_fraction`] of a cold job's anneal bill.
//! * [`breaker`] — a per-worker [`CircuitBreaker`] (closed → open
//!   after K consecutive failures → half-open probe), which turns
//!   per-job fault handling into per-worker degradation handling.
//! * [`serve`] — the [`ResilientServer`]: validation, recorded
//!   priority-class load shedding ([`ShedPolicy`], never a silent
//!   drop), least-loaded healthy-worker routing, the retry loop, and
//!   the escalation ladder QPU → hybrid → classical. The [`Ledger`]
//!   conserves `submitted == completed + shed + failed`, and with a
//!   quiet plan one worker under [`Guardrails::on`] is *bit-identical*
//!   to the plain QPU ([`Guardrails::off`]) — guardrails price zero in
//!   fair weather.
//!
//! [`Simulation`] drives it end to end; frame fates are recorded per
//! frame as [`sim::FrameOutcome`] and the `bench_resilience` binary
//! sweeps fault rate × guardrails.
//!
//! # DESIGN §Scheduling
//!
//! PR 6's serving layer still took jobs one frame at a time: no queue,
//! no batching, no notion of what a decode costs. The scheduling
//! subsystem adds the C-RAN brain in four modules, split so that
//! *bookkeeping*, *policy*, *workload*, and *economics* never mix:
//!
//! * [`broker`] — the front door: per-cell FIFO queues and the job
//!   lifecycle `Submitted → Queued → Batched → Running → {Completed,
//!   Shed, Failed}` with a conserved per-state [`broker::Census`]. The
//!   broker holds no policy — it guarantees only that every job is in
//!   exactly one state and every transition is legal.
//! * [`sched`] — the policy: [`BatchScheduler`] coalesces jobs sharing
//!   `(cell, channel-hash, problem shape)` into batches that tile one
//!   chip ([`quamax_chimera::parallelization`] ≈ 24 for 16-variable
//!   problems), **closing a batch when it is full or when the earliest
//!   member deadline's slack minus the projected service time (reserved-
//!   worker queue wait + anneal waves) hits zero**. Projections are
//!   conservative — measured wait only drains with time — so a rule-
//!   closed batch never projects past its earliest deadline while
//!   slack was available (tested property). Open batches *reserve*
//!   their projected service on a preferred worker so shedding,
//!   placement, and other batches see load that is about to exist
//!   (the shared estimate of [`ResilientServer::queue_depth_us`]);
//!   placement is session-cache-aware. Policies: `Fifo` (batch-of-1,
//!   bit-identical to unbrokered [`ResilientServer::submit`] — tested),
//!   `DeadlineBatch`, and `CostAware` (routes slack-rich batches to
//!   the classical floor when cheaper under the deadline).
//! * [`load`] — seeded deterministic synthetic traffic: per-cell
//!   nonhomogeneous Poisson (diurnal sinusoid × Markov-modulated
//!   bursts) over a heterogeneous [`load::MixClass`] user mix, with
//!   counted SplitMix64 streams per cell so traces are bit-identical
//!   across runs and cells are independent (both tested).
//! * [`cost`] — the Kasi et al. (arXiv:2109.01465) NextG price book:
//!   amortized capex + wall power per rung-microsecond, $/decode and
//!   W/decode, and the annealers-per-datacenter sizing rule. The
//!   parameter table lives in the [`cost`] module docs.
//!
//! [`Simulation`] runs every frame through this stack (`Fifo` for the
//! plain-server configurations); the `bench_serve` binary sweeps
//! offered load × policy and writes `BENCH_serve.json`.
//!
//! # DESIGN §Full duplex
//!
//! One QPU pool serves *both* air-interface directions: uplink frames
//! need ML detection (`quamax_core::detect`), downlink frames need VPP
//! precoding (`quamax_core::precode`) — different programmed problems
//! compiled from the *same* per-cell channel. The
//! [`qpu::JobDirection`] dimension threads through every layer:
//!
//! * **Session keying** — [`qpu::channel_hash_directed`] folds the
//!   direction into the channel hash ([`qpu::JobDirection::rekey`]:
//!   uplink is the identity, downlink XORs a fixed tag), so an uplink
//!   `DetectorSession` and a downlink `PrecoderSession` compiled from
//!   the same channel estimate never alias in a [`SessionCache`].
//! * **Batching** — [`UserJob`]/[`Job`] carry their direction and the
//!   [`BatchScheduler`] refuses to coalesce across it: a batch tiles
//!   one programmed problem, and detection and precoding are never the
//!   same problem (tested: `batches_never_mix_directions`).
//! * **Shape** — a downlink [`AccessPoint`]/[`MixClass`] sizes its
//!   problems as `4·Nu` logical variables (2·Nu real perturbation
//!   dimensions × 1 magnitude + 1 sign bit), vs `Nu·log₂|O|` uplink.
//! * **Workload** — [`LoadGen::full_duplex`] splits each metro class
//!   into an uplink and a downlink stream by a per-cell ratio (bit-
//!   identical to `metro` at ratio 0), and a full-duplex cell in
//!   [`sim`] is two `AccessPoint`s sharing an id with opposite
//!   directions. The `bench_vpp` binary closes the loop: BER-vs-SNR
//!   for annealed VPP vs ZF/THP, and scheduler deadline rates under
//!   the mixed load, written to `BENCH_vpp.json`.
//!
//! # DESIGN §Observability
//!
//! Every layer above records into the `quamax_telemetry` registry —
//! a [`Telemetry`] handle that is a one-branch no-op when disabled
//! and, crucially, **keyed on simulated time only**: recording reads
//! no wall clock and draws no randomness, so every bit-identity
//! contract in this crate (Fifo replay, zero-fault identity, seeded
//! determinism) holds with telemetry on (tested: contract 8 in
//! `tests/properties.rs`). The naming scheme, label-cardinality
//! rules, histogram mechanics, and exporter formats are documented in
//! the `quamax_telemetry` crate; attach a handle with
//! [`Simulation::with_telemetry`] (it fans out through the serving
//! stack) or per component via `with_telemetry`/`set_telemetry`.
//!
//! Metrics emitted by this crate:
//!
//! | series | type | labels | recorded |
//! |---|---|---|---|
//! | `quamax_qpu_program_us` | histogram | `cell` | per enqueue ([`qpu::StageBreakdown`]) |
//! | `quamax_qpu_anneal_us` | histogram | `cell` | per enqueue |
//! | `quamax_qpu_readout_us` | histogram | `cell` | per enqueue |
//! | `quamax_qpu_unembed_us` | histogram | `cell` | per enqueue (reported-only, never charged) |
//! | `quamax_qpu_queue_wait_us` | histogram | `cell` | span: arrival → service start |
//! | `quamax_qpu_warm_retry_us` | histogram | — | warm reverse-anneal restarts |
//! | `quamax_qpu_occupancy_us` | histogram | — | stall/occupancy charges |
//! | `quamax_qpu_jobs_total` | counter | `cell` | per enqueue |
//! | `quamax_qpu_programs_total` | counter | `cell`, `kind`=`cold`\|`cached` | session-cache outcome |
//! | `quamax_cache_{hits,misses,evictions}_total`, `quamax_cache_entries` | counter/gauge | caller labels | snapshot: [`SessionCache::publish_telemetry`] |
//! | `quamax_serve_submitted_total` | counter | `direction`, `priority` | per submit/admit |
//! | `quamax_serve_shed_total` | counter | `priority` | per shed decision |
//! | `quamax_serve_served_total` | counter | `rung` | per completed serve |
//! | `quamax_serve_retries_total` | counter | `outcome`=`funded`\|`denied` | per retry-funding decision |
//! | `quamax_serve_restarts_total` | counter | `kind`=`warm`\|`cold` | per funded retry |
//! | `quamax_serve_attempts` | histogram | — | per completed serve |
//! | `quamax_serve_ledger_total`, `quamax_serve_in_flight` | counter/gauge | `state` | snapshot: [`ResilientServer::publish_telemetry`] |
//! | `quamax_serve_faults_total` | counter | `class` | snapshot (fault-plan census) |
//! | `quamax_breaker_transitions_total` | counter | `to`=`open` | closed→open trips, event-time |
//! | `quamax_breaker_trips_total` | counter | `worker` | snapshot, per worker |
//! | `quamax_sched_batches_total` | counter | `trigger`=`full`\|`slack`\|`drain` | per dispatch |
//! | `quamax_sched_batch_occupancy` | histogram | — | per dispatch |
//! | `quamax_sched_slack_at_close_us` | histogram | — | per dispatch |
//! | `quamax_sched_reservation_us` | histogram | — | per reservation grow |
//! | `quamax_sched_open_batches` | histogram | — | per ingest |
//! | `quamax_broker_census_total`, `quamax_broker_in_flight` | counter/gauge | `state` | snapshot: [`Broker::publish_telemetry`] |
//! | `quamax_sim_frames_total` | counter | `outcome` | end of run |
//! | `quamax_sim_frame_latency_us` | histogram | `cell` | end of run, served frames |
//! | `quamax_sim_deadline_rate` | gauge | — | end of run |
//!
//! (`quamax_core_*` pipeline counters — reduce, embed, CSR freeze,
//! field refresh, anneals, unembed — live in `quamax_core::decoder`.)
//!
//! [`Telemetry`]: quamax_telemetry::Telemetry

pub mod breaker;
pub mod broker;
pub mod coded;
pub mod cost;
pub mod cpu;
pub mod fault;
pub mod hybrid;
pub mod load;
pub mod qpu;
pub mod retry;
pub mod sched;
pub mod serve;
pub mod sim;
pub mod topology;

pub use breaker::{BreakerState, CircuitBreaker};
pub use broker::{Broker, Census, JobId, JobState, UserJob};
pub use coded::{CodedIddReport, CodedUplink, CodedUplinkReport, IddBudget};
pub use cost::{CostModel, DecodeCost};
pub use cpu::{CpuPolicy, CpuPool};
pub use fault::{FaultClass, FaultCounters, FaultPlan, FaultRates, ServeError};
pub use hybrid::HybridServer;
pub use load::{BurstModel, CellProfile, DiurnalCurve, LoadGen, MixClass};
pub use qpu::{
    channel_hash, channel_hash_directed, CacheStats, JobDirection, QpuOverheads, QpuServer,
    SessionCache,
};
pub use retry::RetryPolicy;
pub use sched::{
    BatchScheduler, CloseTrigger, DispatchRecord, JobOutcome, Policy, SchedConfig, ScheduleReport,
};
pub use serve::{
    Guardrails, Job, Ledger, Priority, ResilientServer, ServeRung, Served, ShedPolicy,
};
pub use sim::{synthetic_channel_hash, FrameOutcome, FrameRecord, SimReport, Simulation};
pub use topology::{AccessPoint, Deadline, FronthaulConfig};
