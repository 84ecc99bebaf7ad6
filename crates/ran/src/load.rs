//! Seeded, deterministic synthetic traffic for the C-RAN serving
//! layer — per-cell Poisson arrivals modulated by a diurnal curve and
//! a two-state Markov burst process, over a heterogeneous user mix.
//!
//! The generator answers the scaling question the paper's §7 poses:
//! what does a centralized annealer pool face when it serves not two
//! benchmark APs but a metro's worth of cells? Each cell emits
//! per-user detection jobs as a *nonhomogeneous* Poisson process with
//! instantaneous rate
//!
//! ```text
//! λ_c(t) = base_rate · diurnal(t; phase_c) · burst_c(t)
//! ```
//!
//! where `diurnal` is a sinusoid (busy-hour peaks, night troughs)
//! phase-shifted per cell (cells do not peak together), and `burst_c`
//! is a Markov-modulated multiplier (an On/Off process with
//! exponential holding times — flash crowds, stadium events).
//! Arrivals are drawn by thinning against the rate ceiling, so the
//! draw count per cell is itself deterministic. Every random draw is a
//! counted SplitMix64 stream keyed by `(seed, cell)`: the same
//! [`LoadGen`] produces the same `Vec<UserJob>` bit for bit on every
//! run and platform (a tested contract), and cells are generated
//! independently — a two-cell trace embeds the one-cell trace.
//!
//! Heterogeneity comes from [`MixClass`]es: each arrival draws a
//! weighted class (user count × modulation × priority × deadline), so
//! the pool sees 8-user BPSK Wi-Fi jobs interleaved with 32-user QPSK
//! LTE jobs. A class re-keys the channel hash, so jobs of different
//! problem shapes never coalesce into one batch.
//!
//! Channel hashes follow [`synthetic_channel_hash`]'s coherence
//! blocks: all of a cell's jobs within one coherence interval share a
//! hash — exactly the coalescing opportunity the
//! [`sched::BatchScheduler`] exploits.
//!
//! **Scale.** A metro C-RAN is ~10³ cells × ~10³–10⁴ subscribers;
//! [`LoadGen::metro`] documents that scaling. The generator is O(jobs)
//! with O(1) state per cell, so million-user horizons are a matter of
//! patience, not memory; benches use minutes-of-load at tens of cells.
//!
//! [`sched::BatchScheduler`]: crate::sched::BatchScheduler

use crate::broker::UserJob;
use crate::qpu::JobDirection;
use crate::serve::Priority;
use crate::sim::synthetic_channel_hash;
use crate::topology::Deadline;
use quamax_wireless::Modulation;

/// One weighted traffic class of the heterogeneous user mix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MixClass {
    /// Relative weight (need not be normalized).
    pub weight: f64,
    /// Concurrent users in the problem (Nt).
    pub users: usize,
    /// Modulation (sets bits/symbol, hence Ising variables).
    pub modulation: Modulation,
    /// Uplink detection or downlink precoding. The direction rides the
    /// class — no extra random draw — so adding downlink classes never
    /// perturbs the uplink stream positions.
    pub direction: JobDirection,
    /// Admission-control class.
    pub priority: Priority,
    /// Radio deadline the job decodes against.
    pub deadline: Deadline,
}

impl MixClass {
    /// Logical Ising variables per problem: `users × bits/symbol` for
    /// uplink detection, `4 × users` for downlink VPP. The downlink
    /// price is the unreduced `t = 1` two's-complement search over
    /// `2·users` real dimensions; the precoder now anneals a
    /// lattice-reduced box of `2 × users` variables. The price is kept
    /// so that no recorded simulation moves (see ROADMAP, "Price from
    /// measurement").
    pub fn logical_vars(&self) -> usize {
        match self.direction {
            JobDirection::Uplink => self.users * self.modulation.bits_per_symbol(),
            JobDirection::Downlink => 4 * self.users,
        }
    }
}

/// The diurnal rate envelope: `1 + depth · sin(2π t / period + φ_c)`,
/// clamped at zero.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiurnalCurve {
    /// Cycle length, µs (a day, scaled to whatever horizon a run
    /// actually simulates).
    pub period_us: f64,
    /// Peak-to-mean amplitude in `[0, 1]`.
    pub depth: f64,
}

impl DiurnalCurve {
    /// A flat curve (no diurnal modulation).
    pub fn flat() -> Self {
        DiurnalCurve {
            period_us: 1.0,
            depth: 0.0,
        }
    }

    /// The multiplier at `t_us` for a cell phase-shifted by `phase`
    /// radians.
    pub fn multiplier(&self, t_us: f64, phase: f64) -> f64 {
        (1.0 + self.depth * (std::f64::consts::TAU * t_us / self.period_us + phase).sin()).max(0.0)
    }

    /// The envelope's ceiling (thinning bound).
    fn max_multiplier(&self) -> f64 {
        1.0 + self.depth
    }
}

/// The Markov-modulated burst process: Off (multiplier 1) / On
/// (multiplier `on_multiplier`) with exponential holding times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstModel {
    /// Rate multiplier while bursting (≥ 1).
    pub on_multiplier: f64,
    /// Mean quiet-state holding time, µs.
    pub mean_off_us: f64,
    /// Mean burst holding time, µs.
    pub mean_on_us: f64,
}

impl BurstModel {
    /// No bursts.
    pub fn none() -> Self {
        BurstModel {
            on_multiplier: 1.0,
            mean_off_us: 1.0,
            mean_on_us: 1.0,
        }
    }
}

/// One cell's traffic profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellProfile {
    /// Cell / access-point id (the serving layer's session key).
    pub cell: usize,
    /// Baseline job arrival rate, jobs/µs, before modulation.
    pub base_rate_per_us: f64,
    /// Channel coherence time, µs — jobs within one coherence block
    /// share a channel hash (the batching opportunity).
    pub coherence_us: f64,
}

/// The seeded synthetic load generator.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadGen {
    /// Master seed: every cell stream derives from it.
    pub seed: u64,
    /// Cells.
    pub cells: Vec<CellProfile>,
    /// Shared diurnal envelope (phase-shifted per cell).
    pub diurnal: DiurnalCurve,
    /// Shared burst model (independent state per cell).
    pub burst: BurstModel,
    /// The heterogeneous user mix (weights need not sum to 1).
    pub classes: Vec<MixClass>,
}

/// SplitMix64 of `(seed, k)` — the generator's counted stream.
fn splitmix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counted uniform stream over one cell: draw `k` of cell `c` never
/// collides with any other `(cell, draw)` pair.
struct CellStream {
    seed: u64,
    counter: u64,
}

impl CellStream {
    fn new(master_seed: u64, cell: usize) -> Self {
        CellStream {
            seed: splitmix(
                master_seed,
                0xCE11 ^ (cell as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
            ),
            counter: 0,
        }
    }

    /// Uniform in `[0, 1)` (53-bit mantissa, the repo-wide idiom).
    fn unit(&mut self) -> f64 {
        let z = splitmix(self.seed, self.counter);
        self.counter += 1;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with mean `mean`.
    fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

impl LoadGen {
    /// A metro-scale template: `num_cells` identical cells at
    /// `base_rate_per_us`, a one-minute diurnal cycle (compressed from
    /// a day so short horizons still sweep the envelope), 3× bursts,
    /// and a two-class BPSK/QPSK mix. At the paper's scale this shape
    /// extends to ~1 000 cells × ~1 000 active subscribers: ~10⁶ users
    /// feeding one annealer pool.
    pub fn metro(seed: u64, num_cells: usize, base_rate_per_us: f64) -> Self {
        assert!(num_cells > 0, "need at least one cell");
        LoadGen {
            seed,
            cells: (0..num_cells)
                .map(|cell| CellProfile {
                    cell,
                    base_rate_per_us,
                    coherence_us: 10_000.0,
                })
                .collect(),
            diurnal: DiurnalCurve {
                period_us: 60_000_000.0 / 1_440.0, // a "day" per 41.7 s
                depth: 0.5,
            },
            burst: BurstModel {
                on_multiplier: 3.0,
                mean_off_us: 20_000.0,
                mean_on_us: 5_000.0,
            },
            classes: vec![
                MixClass {
                    weight: 0.7,
                    users: 16,
                    modulation: Modulation::Bpsk,
                    direction: JobDirection::Uplink,
                    priority: Priority::Normal,
                    deadline: Deadline::Lte,
                },
                MixClass {
                    weight: 0.3,
                    users: 8,
                    modulation: Modulation::Qpsk,
                    direction: JobDirection::Uplink,
                    priority: Priority::Low,
                    deadline: Deadline::Wcdma,
                },
            ],
        }
    }

    /// The full-duplex variant of [`LoadGen::metro`]: each cell emits
    /// both uplink detection jobs and downlink VPP precoding jobs,
    /// with `downlink_fraction` of the arrival mass re-weighted onto
    /// downlink twins of the metro classes. The direction rides the
    /// class draw (no extra randomness), and every downlink job's
    /// channel hash is direction-rekeyed ([`JobDirection::rekey`]), so
    /// the two directions of one cell never coalesce even inside the
    /// same coherence block. `downlink_fraction = 0` is bit-identical
    /// to `metro` (tested).
    ///
    /// # Panics
    /// Panics unless `downlink_fraction ∈ [0, 1]`.
    pub fn full_duplex(
        seed: u64,
        num_cells: usize,
        base_rate_per_us: f64,
        downlink_fraction: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&downlink_fraction),
            "downlink fraction must be in [0, 1]"
        );
        let mut gen = Self::metro(seed, num_cells, base_rate_per_us);
        let uplink = gen.classes.clone();
        for class in &mut gen.classes {
            class.weight *= 1.0 - downlink_fraction;
        }
        // Zero-weight classes are kept (weights enter the cumulative
        // class draw, so dropping them would shift every class index
        // and re-key unrelated streams).
        gen.classes.extend(uplink.into_iter().map(|c| MixClass {
            weight: c.weight * downlink_fraction,
            direction: JobDirection::Downlink,
            ..c
        }));
        gen
    }

    /// A flash-crowd preset: a flat baseline (no diurnal sweep)
    /// punctuated by rare, violent bursts — a stadium letting out, 8×
    /// the rate for ~8 ms at a time — over a single high-priority LTE
    /// class. The stress test for shedding and deadline-aware closing.
    pub fn flash_crowd(seed: u64, num_cells: usize, base_rate_per_us: f64) -> Self {
        assert!(num_cells > 0, "need at least one cell");
        LoadGen {
            seed,
            cells: (0..num_cells)
                .map(|cell| CellProfile {
                    cell,
                    base_rate_per_us,
                    coherence_us: 10_000.0,
                })
                .collect(),
            diurnal: DiurnalCurve::flat(),
            burst: BurstModel {
                on_multiplier: 8.0,
                mean_off_us: 40_000.0,
                mean_on_us: 8_000.0,
            },
            classes: vec![MixClass {
                weight: 1.0,
                users: 16,
                modulation: Modulation::Bpsk,
                direction: JobDirection::Uplink,
                priority: Priority::High,
                deadline: Deadline::Lte,
            }],
        }
    }

    /// Generates all arrivals in `[0, horizon_us]`, sorted by arrival
    /// time (ties broken by cell id) — bit-identical across runs for
    /// the same generator.
    pub fn generate(&self, horizon_us: f64) -> Vec<UserJob> {
        assert!(horizon_us > 0.0, "empty horizon");
        assert!(!self.classes.is_empty(), "need at least one mix class");
        let total_weight: f64 = self.classes.iter().map(|c| c.weight).sum();
        assert!(total_weight > 0.0, "mix weights must sum positive");

        let mut jobs: Vec<UserJob> = Vec::new();
        for profile in &self.cells {
            self.generate_cell(profile, horizon_us, total_weight, &mut jobs);
        }
        jobs.sort_by(|a, b| {
            a.arrival_us
                .total_cmp(&b.arrival_us)
                .then(a.cell.cmp(&b.cell))
        });
        jobs
    }

    /// One cell's independent thinned-Poisson stream.
    fn generate_cell(
        &self,
        profile: &CellProfile,
        horizon_us: f64,
        total_weight: f64,
        out: &mut Vec<UserJob>,
    ) {
        let phase = profile.cell as f64 * 2.399_963_229_728_653; // golden angle
        let ceiling = profile.base_rate_per_us
            * self.diurnal.max_multiplier()
            * self.burst.on_multiplier.max(1.0);
        if ceiling <= 0.0 {
            return;
        }
        let mut stream = CellStream::new(self.seed, profile.cell);

        // Markov burst state, advanced lazily: `burst_until` is the
        // next state flip.
        let mut bursting = false;
        let mut burst_until = stream.exp(self.burst.mean_off_us);

        let mut t = 0.0_f64;
        loop {
            t += stream.exp(1.0 / ceiling);
            if t > horizon_us {
                break;
            }
            while burst_until < t {
                bursting = !bursting;
                burst_until += stream.exp(if bursting {
                    self.burst.mean_on_us
                } else {
                    self.burst.mean_off_us
                });
            }
            let burst_mult = if bursting {
                self.burst.on_multiplier
            } else {
                1.0
            };
            let rate = profile.base_rate_per_us * self.diurnal.multiplier(t, phase) * burst_mult;
            // Thinning: accept with probability λ(t)/ceiling. The draw
            // happens unconditionally so the stream position depends
            // only on the candidate count, never on acceptance.
            let accept = stream.unit() < rate / ceiling;
            let class_draw = stream.unit() * total_weight;
            if !accept {
                continue;
            }
            let mut acc = 0.0;
            let class = self
                .classes
                .iter()
                .enumerate()
                .find(|(_, c)| {
                    acc += c.weight;
                    class_draw < acc
                })
                .map(|(i, c)| (i, *c))
                .unwrap_or((self.classes.len() - 1, self.classes[self.classes.len() - 1]));
            let (class_idx, class) = class;
            // Re-key the hash per class and per direction: different
            // problem shapes — and different directions over the same
            // channel — are different compiled problems and must not
            // coalesce.
            let hash = class.direction.rekey(
                synthetic_channel_hash(profile.cell, t, profile.coherence_us)
                    ^ (class_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            out.push(UserJob {
                arrival_us: t,
                cell: profile.cell,
                direction: class.direction,
                channel_hash: hash,
                problems: 1,
                logical_vars: class.logical_vars(),
                users: class.users,
                deadline_us: class.deadline.budget_us(),
                priority: class.priority,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_seed_is_bit_identical() {
        let gen = LoadGen::metro(42, 4, 0.002);
        let a = gen.generate(200_000.0);
        let b = gen.generate(200_000.0);
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed, same trace — bit for bit");
    }

    #[test]
    fn different_seeds_differ() {
        let a = LoadGen::metro(1, 2, 0.002).generate(200_000.0);
        let b = LoadGen::metro(2, 2, 0.002).generate(200_000.0);
        assert_ne!(a, b);
    }

    #[test]
    fn cells_are_independent_streams() {
        // Adding a cell must not perturb existing cells' arrivals.
        let one = LoadGen::metro(7, 1, 0.002).generate(100_000.0);
        let two = LoadGen::metro(7, 2, 0.002).generate(100_000.0);
        let cell0: Vec<_> = two.iter().filter(|j| j.cell == 0).cloned().collect();
        assert_eq!(one, cell0);
    }

    #[test]
    fn arrivals_are_sorted_and_in_horizon() {
        let jobs = LoadGen::metro(9, 3, 0.003).generate(150_000.0);
        assert!(jobs.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
        assert!(jobs
            .iter()
            .all(|j| j.arrival_us > 0.0 && j.arrival_us <= 150_000.0));
    }

    #[test]
    fn rate_scales_with_base_rate() {
        let slow = LoadGen::metro(11, 2, 0.001).generate(300_000.0).len();
        let fast = LoadGen::metro(11, 2, 0.004).generate(300_000.0).len();
        assert!(
            fast as f64 > 2.5 * slow as f64,
            "4× the base rate must produce roughly 4× the jobs: {slow} vs {fast}"
        );
    }

    #[test]
    fn mix_produces_heterogeneous_shapes() {
        let jobs = LoadGen::metro(13, 2, 0.004).generate(300_000.0);
        let shapes: std::collections::BTreeSet<(usize, u64)> = jobs
            .iter()
            .map(|j| (j.users, j.deadline_us.to_bits()))
            .collect();
        assert!(shapes.len() >= 2, "both mix classes must appear");
    }

    #[test]
    fn coherence_blocks_share_hashes() {
        // Within one coherence block of one cell, one class ⇒ one hash.
        let gen = LoadGen {
            seed: 5,
            cells: vec![CellProfile {
                cell: 0,
                base_rate_per_us: 0.01,
                coherence_us: 10_000.0,
            }],
            diurnal: DiurnalCurve::flat(),
            burst: BurstModel::none(),
            classes: vec![MixClass {
                weight: 1.0,
                users: 16,
                modulation: Modulation::Bpsk,
                direction: JobDirection::Uplink,
                priority: Priority::Normal,
                deadline: Deadline::Lte,
            }],
        };
        let jobs = gen.generate(9_999.0);
        assert!(jobs.len() > 10);
        let first = jobs[0].channel_hash;
        assert!(jobs.iter().all(|j| j.channel_hash == first));
    }

    #[test]
    fn full_duplex_is_bit_identical_per_seed() {
        let gen = LoadGen::full_duplex(21, 3, 0.003, 0.4);
        let a = gen.generate(200_000.0);
        let b = gen.generate(200_000.0);
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed, same full-duplex trace");
    }

    #[test]
    fn full_duplex_zero_fraction_matches_metro() {
        // The downlink classes are present but weightless, and weights
        // enter only the cumulative threshold — so the trace is the
        // metro trace, job for job.
        let metro = LoadGen::metro(33, 3, 0.003).generate(200_000.0);
        let duplex = LoadGen::full_duplex(33, 3, 0.003, 0.0).generate(200_000.0);
        assert_eq!(metro, duplex);
    }

    #[test]
    fn full_duplex_emits_both_directions_with_distinct_hashes() {
        let jobs = LoadGen::full_duplex(5, 2, 0.004, 0.5).generate(300_000.0);
        let up: Vec<_> = jobs
            .iter()
            .filter(|j| j.direction == JobDirection::Uplink)
            .collect();
        let down: Vec<_> = jobs
            .iter()
            .filter(|j| j.direction == JobDirection::Downlink)
            .collect();
        assert!(!up.is_empty() && !down.is_empty(), "both directions flow");
        // A 50/50 split lands near half-and-half.
        let f = down.len() as f64 / jobs.len() as f64;
        assert!((0.35..=0.65).contains(&f), "downlink fraction {f}");
        // No downlink hash ever equals an uplink hash — the session
        // cache cannot alias directions.
        let up_hashes: std::collections::BTreeSet<u64> =
            up.iter().map(|j| j.channel_hash).collect();
        assert!(down.iter().all(|j| !up_hashes.contains(&j.channel_hash)));
        // Downlink problems carry the VPP shape.
        assert!(down.iter().all(|j| j.logical_vars == 4 * j.users));
    }

    #[test]
    fn flash_crowd_is_bit_identical_and_bursty() {
        let gen = LoadGen::flash_crowd(17, 2, 0.002);
        let a = gen.generate(400_000.0);
        let b = gen.generate(400_000.0);
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed, same flash-crowd trace");
        assert!(a.iter().all(|j| j.priority == Priority::High));
        // Burstiness: the busiest 10 ms window must far exceed the
        // mean window's load (flat diurnal, so only bursts do this).
        let window = 10_000.0;
        let windows = (400_000.0 / window) as usize;
        let mut counts = vec![0usize; windows];
        for j in &a {
            counts[((j.arrival_us / window) as usize).min(windows - 1)] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let mean = a.len() as f64 / windows as f64;
        assert!(
            max > 2.0 * mean,
            "flash crowds must spike: max {max} vs mean {mean}"
        );
    }
}
