//! The data-center QPU as a queueing server.
//!
//! Service time for one frame's worth of subcarrier problems:
//!
//! ```text
//! t = preprocessing + programming
//!   + ⌈problems / P_f⌉ · (Na·(Ta+Tp) + Na·readout)
//! ```
//!
//! where `P_f` is the geometric parallelization factor of the problem
//! size on the chip. The three overhead terms are the §7 numbers
//! (≈30–50 ms preprocessing, 6–8 ms programming, 0.125 ms readout per
//! anneal) — "well beyond the processing time available for wireless
//! technologies" today, but "not of a fundamental nature". Toggling
//! [`QpuOverheads::integrated`] models the engineering-integrated
//! device the paper envisions.

use quamax_chimera::parallelization;
use quamax_linalg::CMatrix;
use quamax_telemetry::Telemetry;

/// A stable 64-bit fingerprint of a channel estimate — the key a
/// compiled decode session is cached under. Two frames whose estimated
/// `H` hashes equal can share one programmed problem (the couplings
/// depend only on `H`); a changed hash means the coherence interval
/// ended and the chip must be reprogrammed.
///
/// FNV-1a over the raw `f64` bit patterns: deterministic across runs
/// and platforms with IEEE-754 doubles.
pub fn channel_hash(h: &CMatrix) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut acc = OFFSET;
    let mut eat = |v: u64| {
        for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
            acc ^= (v >> shift) & 0xff;
            acc = acc.wrapping_mul(PRIME);
        }
    };
    eat(h.rows() as u64);
    eat(h.cols() as u64);
    for z in h.as_slice() {
        eat(z.re.to_bits());
        eat(z.im.to_bits());
    }
    acc
}

/// Which way a job flows through the C-RAN: uplink frames are
/// *detected* (`quamax_core::detect`), downlink frames are *precoded*
/// (`quamax_core::precode`). The two workloads compile **different**
/// programmed problems from the **same** channel estimate `H` — an
/// uplink `DetectorSession` and a downlink `PrecoderSession` must
/// never alias in a [`SessionCache`] or coalesce into one anneal
/// batch, so the direction participates in every session/batch key
/// via [`JobDirection::rekey`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum JobDirection {
    /// Uplink detection (the original workload).
    #[default]
    Uplink,
    /// Downlink vector-perturbation precoding.
    Downlink,
}

impl JobDirection {
    /// Folds this direction into a channel hash. Uplink is the
    /// identity — every pre-existing uplink-only key, cache entry, and
    /// bit-identity contract is unchanged — while downlink XORs a
    /// fixed tag (the ASCII bytes of `"DOWNLINK"`), so the same `H`
    /// yields two distinct, deterministic session keys.
    pub fn rekey(self, hash: u64) -> u64 {
        match self {
            JobDirection::Uplink => hash,
            JobDirection::Downlink => hash ^ 0x444F_574E_4C49_4E4B,
        }
    }

    /// A short lowercase label for reports.
    pub fn name(self) -> &'static str {
        match self {
            JobDirection::Uplink => "uplink",
            JobDirection::Downlink => "downlink",
        }
    }
}

/// [`channel_hash`] with the job direction folded in — the key a
/// direction-aware serving layer caches compiled sessions under.
pub fn channel_hash_directed(h: &CMatrix, direction: JobDirection) -> u64 {
    direction.rekey(channel_hash(h))
}

/// Hit/miss/eviction counters of a [`SessionCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served without reprogramming.
    pub hits: u64,
    /// Lookups that (re)programmed the chip.
    pub misses: u64,
    /// Live entries evicted under *capacity pressure* (oldest first).
    /// Coherence-expiry removals are not counted here — an expired
    /// session is physically dead, not a victim of a small cache.
    pub evictions: u64,
}

/// A per-source cache of compiled (programmed) decode sessions, keyed
/// by channel hash, with eviction on coherence expiry — and a hard
/// capacity cap with oldest-entry eviction.
///
/// Models the data-center front of §7 under the PR-2 compile-once
/// sessions: each access point's current channel owns at most one
/// programmed problem on the QPU; a frame whose channel hash is still
/// cached (and fresh) skips host preprocessing and chip programming.
/// Entries are evicted once they outlive the coherence time — the
/// channel has physically changed, so the programmed problem is stale
/// even if an identical hash were to reappear. The capacity cap bounds
/// the cache under *short* coherence windows with *many* live sources:
/// without it, every source seen within one window holds an entry,
/// which on a metro-scale AP population grows without limit.
#[derive(Clone, Debug)]
pub struct SessionCache {
    /// Maximum age of a cached session, µs (the coherence time).
    coherence_us: f64,
    /// Maximum live entries; exceeding it evicts the oldest entry.
    capacity: usize,
    /// `(source key, channel hash, programmed-at clock)` per source.
    entries: Vec<(usize, u64, f64)>,
    stats: CacheStats,
}

/// Default [`SessionCache`] capacity: roomy enough that a metro-scale
/// AP pool per QPU never evicts in the workloads this crate models,
/// but a hard bound nonetheless.
pub const DEFAULT_SESSION_CAPACITY: usize = 1024;

impl SessionCache {
    /// A cache whose sessions live `coherence_us` before eviction,
    /// holding at most [`DEFAULT_SESSION_CAPACITY`] entries.
    ///
    /// # Panics
    /// Panics when `coherence_us` is not positive.
    pub fn new(coherence_us: f64) -> Self {
        assert!(coherence_us > 0.0, "coherence time must be positive");
        SessionCache {
            coherence_us,
            capacity: DEFAULT_SESSION_CAPACITY,
            entries: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Caps the cache at `capacity` live entries; inserting past the
    /// cap evicts the oldest entry (earliest programmed-at time) and
    /// counts it in [`CacheStats::evictions`].
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "a cache holds at least one session");
        self.capacity = capacity;
        self
    }

    /// The configured capacity cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `(key, hash)` at time `now_us`, inserting/refreshing on
    /// miss. Returns `true` on a hit (the frame skips programming).
    ///
    /// Expired entries — of *any* source — are evicted first, so the
    /// cache never reports stale sessions; a miss that would grow the
    /// cache past its capacity evicts the oldest live entry.
    pub fn lookup(&mut self, now_us: f64, key: usize, hash: u64) -> bool {
        let ttl = self.coherence_us;
        self.entries.retain(|&(_, _, at)| now_us - at <= ttl);
        match self.entries.iter().find(|&&(k, _, _)| k == key) {
            Some(&(_, cached_hash, _)) if cached_hash == hash => {
                self.stats.hits += 1;
                true
            }
            _ => {
                // New channel for this source: the old programmed
                // problem (if any) is dead — replace it.
                self.entries.retain(|&(k, _, _)| k != key);
                while self.entries.len() >= self.capacity {
                    // Oldest entry loses its slot. Entries are pushed
                    // in programming order, so index 0 of the minimum
                    // programmed-at is the deterministic victim.
                    let victim = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1 .2.partial_cmp(&b.1 .2).expect("finite clock"))
                        .map(|(i, _)| i)
                        .expect("capacity > 0 so a victim exists");
                    self.entries.remove(victim);
                    self.stats.evictions += 1;
                }
                self.entries.push((key, hash, now_us));
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Whether `(key, hash)` is cached and fresh at `now_us`, without
    /// touching entries or statistics — the scheduler's placement
    /// probe ([`lookup`] is the dispatch-time decision and mutates).
    ///
    /// [`lookup`]: SessionCache::lookup
    pub fn contains(&self, now_us: f64, key: usize, hash: u64) -> bool {
        self.entries
            .iter()
            .any(|&(k, h, at)| k == key && h == hash && now_us - at <= self.coherence_us)
    }

    /// The configured coherence time, µs.
    pub fn coherence_us(&self) -> f64 {
        self.coherence_us
    }

    /// Hit/miss/eviction counters since construction or the last
    /// [`reset`].
    ///
    /// [`reset`]: SessionCache::reset
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Publishes the cache counters into a metrics registry under the
    /// given labels (snapshot-time collection; [`stats`] stays the
    /// programmatic accessor).
    ///
    /// [`stats`]: SessionCache::stats
    pub fn publish_telemetry(&self, t: &Telemetry, labels: &[(&str, &str)]) {
        t.counter_store("quamax_cache_hits_total", labels, self.stats.hits);
        t.counter_store("quamax_cache_misses_total", labels, self.stats.misses);
        t.counter_store("quamax_cache_evictions_total", labels, self.stats.evictions);
        t.gauge_set("quamax_cache_entries", labels, self.entries.len() as f64);
    }

    /// Live cached sessions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clears entries and counters.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.stats = CacheStats::default();
    }
}

/// The non-compute overhead stack of a QA job (§7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QpuOverheads {
    /// Host-side preprocessing per job, µs.
    pub preprocessing_us: f64,
    /// Chip programming per job, µs.
    pub programming_us: f64,
    /// Readout per anneal, µs.
    pub readout_per_anneal_us: f64,
}

impl QpuOverheads {
    /// Today's DW2Q overheads (midpoints of the §7 ranges).
    pub fn current_dw2q() -> Self {
        QpuOverheads {
            preprocessing_us: 40_000.0,
            programming_us: 7_000.0,
            readout_per_anneal_us: 125.0,
        }
    }

    /// The integrated future system: overheads engineered away.
    pub fn integrated() -> Self {
        QpuOverheads {
            preprocessing_us: 0.0,
            programming_us: 0.0,
            readout_per_anneal_us: 0.0,
        }
    }
}

/// Nominal host-side unembedding cost per subcarrier problem, µs —
/// *reported only*. Majority-vote unembedding is pipelined on the host
/// while the chip anneals the next wave, so the paper's service-time
/// model (and [`QpuServer::amortized_service_time_us`]) never charges
/// it; the telemetry breakdown still reports it so the stage table is
/// complete.
pub const NOMINAL_UNEMBED_US_PER_PROBLEM: f64 = 0.05;

/// The per-stage decomposition of one frame's modeled service time —
/// what the telemetry spans record per enqueue.
///
/// `program_us + anneal_us + readout_us` reproduces
/// [`QpuServer::amortized_service_time_us`] up to floating-point
/// association (the service-time formula itself is unchanged and stays
/// the single source of truth for the simulation clock); `unembed_us`
/// is reported only and never enters any latency (see
/// [`NOMINAL_UNEMBED_US_PER_PROBLEM`]).
#[derive(Clone, Copy, Debug, PartialEq)]
struct StageBreakdown {
    /// Host preprocessing + chip programming (zero on a cached frame).
    program_us: f64,
    /// On-chip anneal cycles across all batches.
    anneal_us: f64,
    /// Per-anneal readout across all batches.
    readout_us: f64,
    /// Pipelined host unembedding (reported only, never charged).
    unembed_us: f64,
}

/// A QPU serving decode jobs FIFO.
///
/// With [`QpuServer::with_coherence`], the server models the
/// *compile-once decode session*: the channel `H` (and hence the
/// embedded, programmed problem structure) is constant over a
/// coherence interval, so host preprocessing and chip programming are
/// paid once per interval per access point, while every frame still
/// pays its own anneal cycles and per-anneal readout. This is the §7
/// overhead stack under the batching the hybrid-structures follow-up
/// work identifies as the crux of meeting wireless deadlines.
#[derive(Clone, Debug)]
pub struct QpuServer {
    overheads: QpuOverheads,
    /// Per-anneal cycle time `Ta + Tp`, µs.
    cycle_us: f64,
    /// Anneals per problem.
    anneals: usize,
    /// Frames per compiled session (per source key); 1 = reprogram
    /// every frame (the historical per-job model).
    coherence_frames: usize,
    /// Frames served so far per source key (to know which frames fall
    /// on a session boundary and pay the programming overhead).
    frames_served: Vec<(usize, usize)>,
    /// Channel-hash-keyed session cache (the time-based alternative to
    /// frame-counted coherence); `None` = uncached.
    cache: Option<SessionCache>,
    /// Time at which the server frees up (simulation clock, µs).
    busy_until_us: f64,
    /// Metrics handle (disabled by default; recording never feeds back
    /// into service times, so enabling it cannot perturb the clock).
    telemetry: Telemetry,
}

impl QpuServer {
    /// A server with the given schedule cost and anneal budget,
    /// reprogramming on every frame.
    pub fn new(overheads: QpuOverheads, cycle_us: f64, anneals: usize) -> Self {
        assert!(
            cycle_us > 0.0 && anneals > 0,
            "need positive cycle and anneal count"
        );
        QpuServer {
            overheads,
            cycle_us,
            anneals,
            coherence_frames: 1,
            frames_served: Vec::new(),
            cache: None,
            busy_until_us: 0.0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a metrics handle; enqueues record per-stage spans
    /// (queue wait, program, anneal, readout, unembed) into it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Replaces the metrics handle in place (how a serving pool
    /// propagates one registry across its workers).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached metrics handle (disabled unless configured).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Amortizes preprocessing + programming over `frames` consecutive
    /// frames per source (the coherence-interval session length, in
    /// frames).
    ///
    /// # Panics
    /// Panics when `frames` is zero.
    pub fn with_coherence(mut self, frames: usize) -> Self {
        assert!(frames > 0, "a session covers at least one frame");
        self.coherence_frames = frames;
        self
    }

    /// Attaches a per-source session cache keyed by *channel hash* with
    /// eviction after `coherence_us` — the time-based refinement of
    /// [`QpuServer::with_coherence`]: instead of assuming a fixed frame
    /// count per session, frames name their channel (the
    /// `channel_hash` of [`QpuServer::enqueue`]) and programming is skipped
    /// exactly while the hash is cached and fresh.
    ///
    /// # Panics
    /// Panics when `coherence_us` is not positive.
    pub fn with_session_cache(mut self, coherence_us: f64) -> Self {
        self.cache = Some(SessionCache::new(coherence_us));
        self
    }

    /// The attached session cache, if any (for hit/miss statistics).
    pub fn session_cache(&self) -> Option<&SessionCache> {
        self.cache.as_ref()
    }

    /// Whether this server's chip already holds a fresh programmed
    /// session for `(key, hash)` at `now_us` — a read-only placement
    /// probe (no entry refresh, no stats). `false` when no session
    /// cache is attached.
    pub fn has_cached_session(&self, now_us: f64, key: usize, hash: u64) -> bool {
        self.cache
            .as_ref()
            .is_some_and(|c| c.contains(now_us, key, hash))
    }

    /// Service time for one frame: `problems` subcarrier decodes of
    /// `logical_vars` variables each, including the full per-job
    /// overhead stack (the first frame of a session).
    pub fn service_time_us(&self, problems: usize, logical_vars: usize) -> f64 {
        self.amortized_service_time_us(problems, logical_vars, true)
    }

    /// Service time for one frame, charging preprocessing + programming
    /// only when `program` is set (the session-boundary frame); later
    /// frames of a compiled session pay anneals and readout only.
    pub fn amortized_service_time_us(
        &self,
        problems: usize,
        logical_vars: usize,
        program: bool,
    ) -> f64 {
        let pf = parallelization(logical_vars).max(1);
        let batches = problems.div_ceil(pf) as f64;
        let per_batch =
            self.anneals as f64 * (self.cycle_us + self.overheads.readout_per_anneal_us);
        let overhead = if program {
            self.overheads.preprocessing_us + self.overheads.programming_us
        } else {
            0.0
        };
        overhead + batches * per_batch
    }

    /// Decomposes one frame's modeled service into telemetry stages
    /// (see [`StageBreakdown`] for the relationship to
    /// [`QpuServer::amortized_service_time_us`]).
    fn stage_breakdown(
        &self,
        problems: usize,
        logical_vars: usize,
        program: bool,
    ) -> StageBreakdown {
        let pf = parallelization(logical_vars).max(1);
        let batches = problems.div_ceil(pf) as f64;
        StageBreakdown {
            program_us: if program {
                self.overheads.preprocessing_us + self.overheads.programming_us
            } else {
                0.0
            },
            anneal_us: batches * self.anneals as f64 * self.cycle_us,
            readout_us: batches * self.anneals as f64 * self.overheads.readout_per_anneal_us,
            unembed_us: problems as f64 * NOMINAL_UNEMBED_US_PER_PROBLEM,
        }
    }

    /// Records one enqueue's queue wait and stage spans. Purely
    /// observational: called after the clock already advanced.
    fn record_enqueue(
        &self,
        now_us: f64,
        start_us: f64,
        key: usize,
        problems: usize,
        logical_vars: usize,
        program: bool,
    ) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let t = &self.telemetry;
        let cell = key.to_string();
        let labels = [("cell", cell.as_str())];
        t.span_us("quamax_qpu_queue_wait_us", &labels, now_us, start_us);
        let b = self.stage_breakdown(problems, logical_vars, program);
        t.observe("quamax_qpu_program_us", &labels, b.program_us);
        t.observe("quamax_qpu_anneal_us", &labels, b.anneal_us);
        t.observe("quamax_qpu_readout_us", &labels, b.readout_us);
        t.observe("quamax_qpu_unembed_us", &labels, b.unembed_us);
        t.counter_inc("quamax_qpu_jobs_total", &labels);
        t.counter_inc(
            "quamax_qpu_programs_total",
            &[
                ("cell", cell.as_str()),
                ("kind", if program { "cold" } else { "cached" }),
            ],
        );
    }

    /// Enqueues a frame from source `key` (e.g. an access-point id)
    /// arriving at `now_us`; returns its completion time. FIFO: the job
    /// starts when the server frees up.
    ///
    /// Programming is paid per source, since different sources see
    /// different channels. With a session cache
    /// ([`QpuServer::with_session_cache`]) and a `channel_hash` (see
    /// [`channel_hash`]), it is paid only when the hash misses the
    /// cache — first sight of this channel, a channel change, or
    /// coherence expiry. Otherwise it is paid on the source's
    /// frame-counted coherence boundaries ([`QpuServer::with_coherence`]).
    pub fn enqueue(
        &mut self,
        now_us: f64,
        key: usize,
        channel_hash: Option<u64>,
        problems: usize,
        logical_vars: usize,
    ) -> f64 {
        let program = match (self.cache.as_mut(), channel_hash) {
            (Some(cache), Some(hash)) => !cache.lookup(now_us, key, hash),
            _ => {
                let served = match self.frames_served.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, n)) => {
                        *n += 1;
                        *n - 1
                    }
                    None => {
                        self.frames_served.push((key, 1));
                        0
                    }
                };
                served % self.coherence_frames == 0
            }
        };
        let start = now_us.max(self.busy_until_us);
        let done = start + self.amortized_service_time_us(problems, logical_vars, program);
        self.busy_until_us = done;
        self.record_enqueue(now_us, start, key, problems, logical_vars, program);
        done
    }

    /// Service time of a *warm retry*: the chip is still programmed
    /// with the failed attempt's problem (no preprocessing, no
    /// programming) and the retry reverse-anneals from that attempt's
    /// best candidate (`DecodeSession::decode_reverse_from`), so the
    /// anneal bill shrinks to `warm_fraction` of a cold batch's.
    ///
    /// # Panics
    /// Panics unless `warm_fraction ∈ (0, 1]`.
    pub fn warm_retry_time_us(
        &self,
        problems: usize,
        logical_vars: usize,
        warm_fraction: f64,
    ) -> f64 {
        assert!(
            warm_fraction > 0.0 && warm_fraction <= 1.0,
            "warm fraction must be in (0, 1]"
        );
        self.amortized_service_time_us(problems, logical_vars, false) * warm_fraction
    }

    /// Enqueues a warm retry (see [`QpuServer::warm_retry_time_us`]);
    /// returns its completion time.
    pub fn enqueue_warm_retry(
        &mut self,
        now_us: f64,
        problems: usize,
        logical_vars: usize,
        warm_fraction: f64,
    ) -> f64 {
        let start = now_us.max(self.busy_until_us);
        let done = start + self.warm_retry_time_us(problems, logical_vars, warm_fraction);
        self.busy_until_us = done;
        if self.telemetry.is_enabled() {
            self.telemetry
                .span_us("quamax_qpu_queue_wait_us", &[], now_us, start);
            self.telemetry
                .observe("quamax_qpu_warm_retry_us", &[], done - start);
        }
        done
    }

    /// The time at which this server's FIFO queue drains, µs (0 when
    /// idle) — what admission control projects queue waits from.
    pub fn busy_until_us(&self) -> f64 {
        self.busy_until_us
    }

    /// Charges `duration_us` of non-decode occupancy (a failed
    /// programming cycle, a stall) starting no earlier than `now_us`;
    /// returns the time the charge ends.
    pub fn occupy_us(&mut self, now_us: f64, duration_us: f64) -> f64 {
        assert!(duration_us >= 0.0, "occupancy cannot be negative");
        let start = now_us.max(self.busy_until_us);
        let done = start + duration_us;
        self.busy_until_us = done;
        self.telemetry
            .observe("quamax_qpu_occupancy_us", &[], duration_us);
        done
    }

    /// This server's configured overheads.
    pub fn overheads(&self) -> &QpuOverheads {
        &self.overheads
    }

    /// Resets the server clock and session state (new simulation).
    pub fn reset(&mut self) {
        self.busy_until_us = 0.0;
        self.frames_served.clear();
        if let Some(cache) = self.cache.as_mut() {
            cache.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrated_service_is_pure_compute() {
        // 16-var problems tile > 20× (paper §4): 50 subcarriers fit in
        // ⌈50/24⌉ = 3 batches… use the actual factor.
        let srv = QpuServer::new(QpuOverheads::integrated(), 2.0, 50);
        let pf = parallelization(16).max(1);
        let batches = 50usize.div_ceil(pf) as f64;
        let t = srv.service_time_us(50, 16);
        assert!((t - batches * 50.0 * 2.0).abs() < 1e-9, "t={t}");
    }

    #[test]
    fn current_overheads_dominate() {
        let srv = QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 50);
        let t = srv.service_time_us(50, 16);
        // ≥ 47 ms of fixed overhead plus 6.25 ms readout per batch:
        // today's stack busts every wireless deadline (§7's point).
        assert!(t > 40_000.0, "t={t}");
        let integrated =
            QpuServer::new(QpuOverheads::integrated(), 2.0, 50).service_time_us(50, 16);
        assert!(t > 100.0 * integrated);
    }

    #[test]
    fn fifo_queueing() {
        let mut srv = QpuServer::new(QpuOverheads::integrated(), 1.0, 10);
        let t1 = srv.enqueue(0.0, 0, None, 1, 16); // 10 µs of anneals
        let t2 = srv.enqueue(0.0, 0, None, 1, 16); // queued behind job 1
        assert!((t1 - 10.0).abs() < 1e-9);
        assert!((t2 - 20.0).abs() < 1e-9);
        // A job arriving after the queue drains starts immediately.
        let t3 = srv.enqueue(100.0, 0, None, 1, 16);
        assert!((t3 - 110.0).abs() < 1e-9);
        srv.reset();
        assert!((srv.enqueue(0.0, 0, None, 1, 16) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn coherence_sessions_amortize_programming() {
        // 4-frame sessions: frames 0 and 4 pay the overhead stack,
        // frames 1–3 pay anneals + readout only.
        let mut srv = QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 10).with_coherence(4);
        let full = srv.amortized_service_time_us(50, 16, true);
        let amortized = srv.amortized_service_time_us(50, 16, false);
        assert!((full - amortized - 47_000.0).abs() < 1e-9);

        let mut last = 0.0;
        let mut costs = Vec::new();
        for _ in 0..5 {
            let done = srv.enqueue(last, 0, None, 50, 16);
            costs.push(done - last);
            last = done;
        }
        assert!((costs[0] - full).abs() < 1e-9, "first frame programs");
        for c in &costs[1..4] {
            assert!(
                (c - amortized).abs() < 1e-9,
                "mid-session frame reprogrammed"
            );
        }
        assert!((costs[4] - full).abs() < 1e-9, "new interval reprograms");
    }

    #[test]
    fn coherence_boundaries_are_per_source() {
        // Two APs interleaved: each pays programming on its own first
        // frame, not on the other's.
        let mut srv = QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 10).with_coherence(100);
        let full = srv.amortized_service_time_us(50, 16, true);
        let amortized = srv.amortized_service_time_us(50, 16, false);
        let t1 = srv.enqueue(0.0, 7, None, 50, 16);
        let t2 = srv.enqueue(0.0, 8, None, 50, 16);
        let t3 = srv.enqueue(0.0, 7, None, 50, 16);
        assert!((t1 - full).abs() < 1e-9);
        assert!((t2 - t1 - full).abs() < 1e-9, "AP 8's first frame programs");
        assert!(
            (t3 - t2 - amortized).abs() < 1e-9,
            "AP 7's session continues"
        );
        srv.reset();
        assert!((srv.enqueue(0.0, 7, None, 50, 16) - full).abs() < 1e-9);
    }

    #[test]
    fn session_cache_amortizes_until_channel_or_coherence_changes() {
        // 30 ms coherence on a partly-integrated device (80 µs
        // programming, so frames finish well inside the interval):
        // frames with the same channel hash pay anneals only; a hash
        // change or expiry reprograms.
        let overheads = QpuOverheads {
            preprocessing_us: 0.0,
            programming_us: 80.0,
            readout_per_anneal_us: 0.0,
        };
        let mut srv = QpuServer::new(overheads, 2.0, 10).with_session_cache(30_000.0);
        let full = srv.amortized_service_time_us(50, 16, true);
        let amortized = srv.amortized_service_time_us(50, 16, false);

        let mut last = 0.0;
        let mut cost = |srv: &mut QpuServer, at: f64, hash: u64| {
            let done = srv.enqueue(at.max(last), 7, Some(hash), 50, 16);
            let c = done - at.max(last);
            last = done;
            c
        };
        assert!(
            (cost(&mut srv, 0.0, 0xAA) - full).abs() < 1e-9,
            "first sight programs"
        );
        assert!(
            (cost(&mut srv, 0.0, 0xAA) - amortized).abs() < 1e-9,
            "cached hash skips"
        );
        assert!(
            (cost(&mut srv, 0.0, 0xBB) - full).abs() < 1e-9,
            "channel change reprograms"
        );
        assert!((cost(&mut srv, 0.0, 0xBB) - amortized).abs() < 1e-9);
        // Past the coherence time the entry is evicted even for the
        // same hash — the physical channel moved on.
        assert!(
            (cost(&mut srv, 100_000.0, 0xBB) - full).abs() < 1e-9,
            "expired session reprograms"
        );
        let stats = srv.session_cache().unwrap().stats();
        assert_eq!(
            stats,
            CacheStats {
                hits: 2,
                misses: 3,
                evictions: 0
            }
        );
        srv.reset();
        assert_eq!(srv.session_cache().unwrap().stats(), CacheStats::default());
        assert!(srv.session_cache().unwrap().is_empty());
    }

    #[test]
    fn session_cache_evicts_oldest_past_capacity() {
        let mut cache = SessionCache::new(1e9).with_capacity(3);
        assert_eq!(cache.capacity(), 3);
        // Fill past capacity: five distinct sources, one per µs.
        for key in 0..5usize {
            assert!(!cache.lookup(key as f64, key, 0xE0 + key as u64));
        }
        assert_eq!(cache.len(), 3, "capacity bounds the live set");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 5,
                evictions: 2
            }
        );
        // Sources 0 and 1 (the oldest) were evicted; 2–4 survive.
        assert!(!cache.lookup(6.0, 0, 0xE0), "oldest entry was evicted");
        for key in 3..5usize {
            assert!(cache.lookup(6.0, key, 0xE0 + key as u64), "key {key} kept");
        }
        // That re-lookup of source 0 itself evicted the then-oldest.
        assert_eq!(cache.stats().evictions, 3);
        // A same-source channel change replaces in place: no eviction.
        let mut replace = SessionCache::new(1e9).with_capacity(1);
        assert!(!replace.lookup(0.0, 9, 0x1));
        assert!(!replace.lookup(1.0, 9, 0x2));
        assert_eq!(replace.stats().evictions, 0, "replacement is not eviction");
        assert_eq!(replace.len(), 1);
    }

    #[test]
    fn warm_retry_is_cheaper_than_cold() {
        let mut srv = QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 10);
        let cold = srv.service_time_us(50, 16);
        let amortized = srv.amortized_service_time_us(50, 16, false);
        let warm = srv.warm_retry_time_us(50, 16, 0.5);
        assert!((warm - amortized * 0.5).abs() < 1e-9);
        assert!(warm < amortized, "reverse anneal beats a cold batch");
        assert!(warm < cold, "and certainly beats programming + batch");
        // Enqueue occupies the FIFO like any job.
        let done = srv.enqueue_warm_retry(100.0, 50, 16, 0.5);
        assert!((done - 100.0 - warm).abs() < 1e-9);
        assert_eq!(srv.busy_until_us(), done);
    }

    #[test]
    #[should_panic(expected = "warm fraction")]
    fn warm_fraction_above_one_panics() {
        QpuServer::new(QpuOverheads::integrated(), 1.0, 10).warm_retry_time_us(1, 16, 1.5);
    }

    #[test]
    fn occupy_charges_non_decode_time() {
        let mut srv = QpuServer::new(QpuOverheads::integrated(), 1.0, 10);
        let t = srv.occupy_us(5.0, 100.0);
        assert!((t - 105.0).abs() < 1e-9);
        // FIFO: the next job starts after the occupancy.
        let done = srv.enqueue(0.0, 0, None, 1, 16);
        assert!((done - 115.0).abs() < 1e-9);
    }

    #[test]
    fn session_cache_is_per_source() {
        let mut srv = QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 10).with_session_cache(1e9);
        let full = srv.amortized_service_time_us(50, 16, true);
        let amortized = srv.amortized_service_time_us(50, 16, false);
        let t1 = srv.enqueue(0.0, 1, Some(0xCC), 50, 16);
        let t2 = srv.enqueue(0.0, 2, Some(0xCC), 50, 16);
        let t3 = srv.enqueue(0.0, 1, Some(0xCC), 50, 16);
        assert!((t1 - full).abs() < 1e-9);
        assert!(
            (t2 - t1 - full).abs() < 1e-9,
            "source 2 programs its own session even at an equal hash"
        );
        assert!((t3 - t2 - amortized).abs() < 1e-9);
        assert_eq!(srv.session_cache().unwrap().len(), 2);
    }

    #[test]
    fn channel_hash_is_stable_and_sensitive() {
        use quamax_linalg::Complex;
        let h = CMatrix::from_fn(3, 2, |r, c| Complex::new(r as f64, c as f64));
        assert_eq!(channel_hash(&h), channel_hash(&h.clone()));
        let mut h2 = h.clone();
        h2[(1, 1)] += Complex::real(1e-12);
        assert_ne!(
            channel_hash(&h),
            channel_hash(&h2),
            "any tap change re-keys"
        );
        // Shape participates: a 2×3 of the same data is a different key.
        let wide = CMatrix::from_fn(2, 3, |r, c| Complex::new(r as f64, c as f64));
        assert_ne!(channel_hash(&h), channel_hash(&wide));
    }

    #[test]
    fn directions_never_alias_in_the_session_cache() {
        use quamax_linalg::Complex;
        // Regression: an uplink DetectorSession and a downlink
        // PrecoderSession compiled from the *same* channel estimate
        // must key differently, or a cache hit would hand the decoder
        // a precoding program (and vice versa).
        let h = CMatrix::from_fn(4, 4, |r, c| Complex::new(r as f64 + 1.0, c as f64));
        let up = channel_hash_directed(&h, JobDirection::Uplink);
        let down = channel_hash_directed(&h, JobDirection::Downlink);
        assert_ne!(up, down, "directions must not alias");
        assert_eq!(
            up,
            channel_hash(&h),
            "uplink rekey is the identity (legacy keys unchanged)"
        );
        assert_eq!(down, JobDirection::Downlink.rekey(channel_hash(&h)));
        // Through a real cache: the downlink lookup after an uplink
        // program is a miss, never a hit.
        let mut cache = SessionCache::new(1e9);
        assert!(!cache.lookup(0.0, 7, up), "first sight programs");
        assert!(cache.lookup(0.0, 7, up), "same direction hits");
        assert!(
            !cache.lookup(0.0, 7, down),
            "opposite direction on the same H must reprogram"
        );
        assert_eq!(JobDirection::default(), JobDirection::Uplink);
        assert_eq!(JobDirection::Uplink.name(), "uplink");
        assert_eq!(JobDirection::Downlink.name(), "downlink");
    }

    #[test]
    fn channel_hash_without_cache_degrades_to_frame_counting() {
        let mut hashed = QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 10).with_coherence(4);
        let mut counted = hashed.clone();
        for at in [0.0, 10.0, 20.0, 30.0, 40.0] {
            let a = hashed.enqueue(at, 3, Some(0xDD), 50, 16);
            let b = counted.enqueue(at, 3, None, 50, 16);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn stage_breakdown_sums_to_service_time_and_never_charges_unembed() {
        let srv = QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 10);
        for (problems, vars, program) in [(50, 16, true), (50, 16, false), (1, 60, true)] {
            let b = srv.stage_breakdown(problems, vars, program);
            let service = srv.amortized_service_time_us(problems, vars, program);
            assert!(
                (b.program_us + b.anneal_us + b.readout_us - service).abs() < 1e-6,
                "charged stages must reproduce the service model"
            );
            assert!(b.unembed_us > 0.0, "unembed is reported");
        }
        assert_eq!(srv.stage_breakdown(50, 16, false).program_us, 0.0);
    }

    #[test]
    fn telemetry_records_stages_without_touching_the_clock() {
        let t = Telemetry::enabled();
        let mut plain = QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 10).with_coherence(4);
        let mut observed = plain.clone().with_telemetry(t.clone());
        for at in [0.0, 10.0, 20.0] {
            let a = plain.enqueue(at, 3, None, 50, 16);
            let b = observed.enqueue(at, 3, None, 50, 16);
            assert_eq!(a, b, "recording must not perturb completion times");
        }
        let snap = t.snapshot();
        assert_eq!(snap.counter_total("quamax_qpu_jobs_total"), 3);
        assert_eq!(
            snap.counter(
                "quamax_qpu_programs_total",
                &[("cell", "3"), ("kind", "cold")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter(
                "quamax_qpu_programs_total",
                &[("cell", "3"), ("kind", "cached")]
            ),
            Some(2)
        );
        let queue = snap
            .histogram("quamax_qpu_queue_wait_us", &[("cell", "3")])
            .unwrap();
        assert_eq!(queue.count, 3);
        assert!(queue.max > 0.0, "later frames queue behind the first");
    }

    #[test]
    fn bigger_problems_tile_less_and_cost_more() {
        let srv = QpuServer::new(QpuOverheads::integrated(), 2.0, 10);
        let small = srv.service_time_us(50, 16);
        let large = srv.service_time_us(50, 60);
        assert!(large > small);
    }
}
