//! Coded goodput: the BER world and the queueing world, joined — and
//! the deadline-aware purchase of **IDD iterations**.
//!
//! The timing simulation ([`crate::sim`]) answers *"did the frame come
//! back before its deadline?"*; the soft-output coded pipeline
//! (`quamax_core::coded`) answers *"did the frame decode cleanly?"*.
//! The NextG feasibility framing (Kasi et al., arXiv:2109.01465) says
//! the deployment question is the conjunction — **coded goodput**:
//! payload bits per second that arrive both on time and error-free.
//! This module runs the two simulations over the same frame sequence
//! and reports exactly that, for the hard-input and soft-input decode
//! paths side by side.
//!
//! [`CodedUplink::run_idd`] extends the join to the iterative engine:
//! every detection–decoding iteration beyond the first costs real
//! anneal (reverse-anneal) wall-clock time, so iterations are *bought*
//! per frame out of whatever slack the frame's base latency leaves
//! under its deadline — a frame that arrives with room for two
//! refinement rounds runs them; a frame already at the wire decodes
//! once and ships.

use crate::sim::{SimReport, Simulation};
use quamax_core::coded::IddSpec;
use quamax_core::detect::{DetectorKind, Error};
use quamax_core::{CodedFrame, SoftSpec};
use quamax_wireless::Snr;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The decode-level half of a coded-uplink study: what each simulated
/// frame carries and how it is detected.
#[derive(Clone)]
pub struct CodedUplink {
    /// Frame geometry (payload, interleaver, channel uses).
    pub frame: CodedFrame,
    /// Detector backend decoding every channel use.
    pub kind: DetectorKind,
    /// Soft-output parameters (LLR scaling and clamp).
    pub spec: SoftSpec,
    /// Operating SNR of the radio link.
    pub snr: Snr,
    /// Seed deriving every frame's payload, channels, and noise.
    pub seed: u64,
}

impl CodedUplink {
    /// Runs the timing simulation for `horizon_us` and decodes every
    /// simulated frame through the coded pipeline, combining deadline
    /// compliance with decode success.
    pub fn run(&self, sim: &mut Simulation, horizon_us: f64) -> Result<CodedUplinkReport, Error> {
        let timing = sim.run(horizon_us);
        let mut report = CodedUplinkReport {
            payload_bits_per_frame: self.frame.payload_len(),
            horizon_us,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        for (i, record) in timing.frames.iter().enumerate() {
            let payload = self.frame.random_payload(&mut rng);
            let out = self.frame.run(
                &self.kind,
                self.spec,
                self.snr,
                &payload,
                self.seed ^ ((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            )?;
            report.frames += 1;
            report.hard_bit_errors += out.hard_errors;
            report.soft_bit_errors += out.soft_errors;
            if out.hard_ok() {
                report.hard_clean_frames += 1;
                if record.met_deadline {
                    report.hard_goodput_frames += 1;
                }
            }
            if out.soft_ok() {
                report.soft_clean_frames += 1;
                if record.met_deadline {
                    report.soft_goodput_frames += 1;
                }
            }
        }
        report.timing = timing;
        Ok(report)
    }

    /// Runs the timing simulation and decodes every simulated frame
    /// through the *iterative* detection–decoding engine, buying each
    /// frame as many iterations as its deadline slack affords
    /// ([`IddBudget::affordable_iters`]) and charging the bought
    /// iterations back onto the frame's latency. The same frame
    /// sequence, payload draws, and per-frame seeds as
    /// [`CodedUplink::run`] under the same `seed`.
    pub fn run_idd(
        &self,
        sim: &mut Simulation,
        horizon_us: f64,
        budget: &IddBudget,
    ) -> Result<CodedIddReport, Error> {
        let timing = sim.run(horizon_us);
        let mut report = CodedIddReport {
            payload_bits_per_frame: self.frame.payload_len(),
            horizon_us,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        for (i, record) in timing.frames.iter().enumerate() {
            let payload = self.frame.random_payload(&mut rng);
            let granted = budget.affordable_iters(record.latency_us);
            let spec = IddSpec {
                max_iters: granted,
                ..budget.idd
            };
            let out = self.frame.run_idd(
                &self.kind,
                self.spec,
                spec,
                self.snr,
                &payload,
                self.seed ^ ((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            )?;
            let used = out.iters_run();
            let latency = record.latency_us + (used as f64 - 1.0) * budget.iteration_cost_us;
            let on_time = latency <= budget.deadline_us;
            report.frames += 1;
            report.iterations_granted += granted;
            report.iterations_used += used;
            report.first_pass_bit_errors += out.payload_errors_at(0);
            report.final_bit_errors += out.last().payload_errors;
            if out.payload_errors_at(0) == 0 {
                report.first_pass_clean_frames += 1;
            }
            if out.ok() {
                report.clean_frames += 1;
                if on_time {
                    report.goodput_frames += 1;
                }
            }
            if on_time {
                report.on_time_frames += 1;
            }
        }
        report.timing = timing;
        Ok(report)
    }
}

/// How a [`CodedUplink::run_idd`] buys detection–decoding iterations
/// against the radio deadline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IddBudget {
    /// The iteration engine's parameters; `idd.max_iters` caps what
    /// any frame may buy regardless of slack.
    pub idd: IddSpec,
    /// Wall-clock cost of one extra iteration for one frame, µs:
    /// every channel use re-detected once. For the annealed backend
    /// this is `⌈uses / P_f⌉ · Na · (reverse-anneal cycle + readout)` —
    /// see [`IddBudget::annealed_iteration_cost_us`].
    pub iteration_cost_us: f64,
    /// The radio deadline the slack is measured against, µs (the
    /// simulated APs' own budget; the timing sim scores base latency
    /// against the same number).
    pub deadline_us: f64,
}

impl IddBudget {
    /// A budget buying up to `idd.max_iters` iterations at
    /// `iteration_cost_us` each under `deadline_us`.
    ///
    /// # Panics
    /// Panics unless the cost and deadline are positive.
    pub fn new(idd: IddSpec, iteration_cost_us: f64, deadline_us: f64) -> Self {
        assert!(iteration_cost_us > 0.0, "an iteration costs time");
        assert!(deadline_us > 0.0, "need a positive deadline");
        IddBudget {
            idd,
            iteration_cost_us,
            deadline_us,
        }
    }

    /// The annealed per-frame iteration cost: one reverse-anneal batch
    /// of `anneals` cycles (`cycle_us` wall-clock each, plus per-anneal
    /// `readout_us`) for every on-chip batch of the frame's channel
    /// uses at parallelization factor `parallel_factor`.
    pub fn annealed_iteration_cost_us(
        uses: usize,
        parallel_factor: usize,
        anneals: usize,
        cycle_us: f64,
        readout_us: f64,
    ) -> f64 {
        let batches = uses.div_ceil(parallel_factor.max(1)) as f64;
        batches * anneals as f64 * (cycle_us + readout_us)
    }

    /// Iterations a frame whose base latency is `latency_us` can
    /// afford (≥ 1, ≤ `idd.max_iters`): the first detection pass is
    /// already part of the base latency; each *extra* iteration buys
    /// `iteration_cost_us` out of the remaining slack. A frame that
    /// already missed its deadline gets exactly one pass — more
    /// iterations cannot un-miss it.
    pub fn affordable_iters(&self, latency_us: f64) -> usize {
        let slack = self.deadline_us - latency_us;
        if slack <= 0.0 {
            return 1;
        }
        let extra = (slack / self.iteration_cost_us).floor() as usize;
        (1 + extra).min(self.idd.max_iters).max(1)
    }
}

/// Joint timing × decoding results of one coded-uplink run.
#[derive(Clone, Debug, Default)]
pub struct CodedUplinkReport {
    /// The underlying timing simulation's per-frame records.
    pub timing: SimReport,
    /// Frames simulated (and decoded).
    pub frames: usize,
    /// Payload bits per frame.
    pub payload_bits_per_frame: usize,
    /// Simulated horizon, µs.
    pub horizon_us: f64,
    /// Residual payload bit errors, hard-input Viterbi.
    pub hard_bit_errors: usize,
    /// Residual payload bit errors, soft-input Viterbi.
    pub soft_bit_errors: usize,
    /// Frames the hard path decoded error-free.
    pub hard_clean_frames: usize,
    /// Frames the soft path decoded error-free.
    pub soft_clean_frames: usize,
    /// Frames error-free under the hard path *and* on time.
    pub hard_goodput_frames: usize,
    /// Frames error-free under the soft path *and* on time.
    pub soft_goodput_frames: usize,
}

impl CodedUplinkReport {
    fn ber(&self, errors: usize) -> f64 {
        let bits = self.frames * self.payload_bits_per_frame;
        errors as f64 / bits.max(1) as f64
    }

    /// Residual coded BER of the hard-input path.
    pub fn hard_ber(&self) -> f64 {
        self.ber(self.hard_bit_errors)
    }

    /// Residual coded BER of the soft-input path.
    pub fn soft_ber(&self) -> f64 {
        self.ber(self.soft_bit_errors)
    }

    fn goodput_mbps(&self, frames: usize) -> f64 {
        // bits / µs = Mbit/s.
        (frames * self.payload_bits_per_frame) as f64 / self.horizon_us.max(f64::MIN_POSITIVE)
    }

    /// On-time error-free payload throughput, hard path, Mbit/s.
    pub fn hard_goodput_mbps(&self) -> f64 {
        self.goodput_mbps(self.hard_goodput_frames)
    }

    /// On-time error-free payload throughput, soft path, Mbit/s.
    pub fn soft_goodput_mbps(&self) -> f64 {
        self.goodput_mbps(self.soft_goodput_frames)
    }
}

/// Joint timing × iterative-decoding results of one
/// [`CodedUplink::run_idd`].
#[derive(Clone, Debug, Default)]
pub struct CodedIddReport {
    /// The underlying timing simulation's per-frame records (base
    /// latency, before bought iterations are charged).
    pub timing: SimReport,
    /// Frames simulated (and decoded).
    pub frames: usize,
    /// Payload bits per frame.
    pub payload_bits_per_frame: usize,
    /// Simulated horizon, µs.
    pub horizon_us: f64,
    /// Iterations the deadline slack granted, summed over frames.
    pub iterations_granted: usize,
    /// Iterations actually executed (early exits return unused grant).
    pub iterations_used: usize,
    /// Payload bit errors after iteration 1 (the no-feedback decode).
    pub first_pass_bit_errors: usize,
    /// Payload bit errors after the final bought iteration.
    pub final_bit_errors: usize,
    /// Frames error-free already at iteration 1.
    pub first_pass_clean_frames: usize,
    /// Frames error-free after their final iteration.
    pub clean_frames: usize,
    /// Frames on time once bought iterations are charged.
    pub on_time_frames: usize,
    /// Frames error-free *and* on time — the IDD goodput.
    pub goodput_frames: usize,
}

impl CodedIddReport {
    fn ber(&self, errors: usize) -> f64 {
        let bits = self.frames * self.payload_bits_per_frame;
        errors as f64 / bits.max(1) as f64
    }

    /// Coded BER of the first (no-feedback) pass.
    pub fn first_pass_ber(&self) -> f64 {
        self.ber(self.first_pass_bit_errors)
    }

    /// Coded BER after the bought iterations.
    pub fn final_ber(&self) -> f64 {
        self.ber(self.final_bit_errors)
    }

    /// Mean iterations executed per frame.
    pub fn mean_iterations(&self) -> f64 {
        self.iterations_used as f64 / self.frames.max(1) as f64
    }

    /// On-time error-free payload throughput, Mbit/s.
    pub fn goodput_mbps(&self) -> f64 {
        (self.goodput_frames * self.payload_bits_per_frame) as f64
            / self.horizon_us.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CpuPolicy, CpuPool};
    use crate::qpu::JobDirection;
    use crate::sched::{Policy, SchedConfig};
    use crate::serve::ResilientServer;
    use crate::topology::{AccessPoint, Deadline, FronthaulConfig};
    use quamax_wireless::Modulation;

    fn uplink(snr_db: f64) -> CodedUplink {
        let snr = Snr::from_db(snr_db);
        let spec = SoftSpec::noise_matched(snr, Modulation::Qpsk);
        CodedUplink {
            frame: CodedFrame::new(4, Modulation::Qpsk, 60),
            kind: DetectorKind::mmse(spec.noise_variance),
            spec,
            snr,
            seed: 11,
        }
    }

    fn sim() -> Simulation {
        Simulation::new(
            vec![AccessPoint {
                id: 0,
                users: 4,
                modulation: Modulation::Qpsk,
                direction: JobDirection::Uplink,
                subcarriers: 17,
                frame_interval_us: 2_000.0,
                deadline: Deadline::Lte,
            }],
            FronthaulConfig::default(),
            ResilientServer::without_qpu(CpuPool::new(
                8,
                CpuPolicy::ZeroForcing {
                    vectors_per_channel: 1,
                },
            )),
            SchedConfig::new(Policy::Fifo, 1),
        )
    }

    #[test]
    fn goodput_joins_deadlines_and_decoding() {
        // Easy radio (18 dB) + easy deadlines: everything is goodput,
        // both paths.
        let report = uplink(18.0).run(&mut sim(), 20_000.0).unwrap();
        assert_eq!(report.frames, 10);
        assert_eq!(report.timing.deadline_rate(), 1.0);
        assert_eq!(report.soft_goodput_frames, report.frames);
        assert_eq!(report.hard_goodput_frames, report.frames);
        assert_eq!(report.soft_ber(), 0.0);
        // 10 frames × 60 bits over 20 ms = 0.03 Mbit/s.
        assert!((report.soft_goodput_mbps() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn affordable_iters_follows_the_slack() {
        let budget = IddBudget::new(IddSpec::new(4), 100.0, 1_000.0);
        // No slack (or negative): one pass, no matter the cap.
        assert_eq!(budget.affordable_iters(1_000.0), 1);
        assert_eq!(budget.affordable_iters(5_000.0), 1);
        // 250 µs of slack: two extra iterations fit.
        assert_eq!(budget.affordable_iters(750.0), 3);
        // Plenty of slack: capped by the spec.
        assert_eq!(budget.affordable_iters(10.0), 4);
        // The annealed cost model: 30 uses at P_f=24 = 2 batches of
        // 6 anneals × (2 + 0.5) µs.
        let cost = IddBudget::annealed_iteration_cost_us(30, 24, 6, 2.0, 0.5);
        assert!((cost - 2.0 * 6.0 * 2.5).abs() < 1e-12);
    }

    #[test]
    fn tight_deadline_buys_no_iterations() {
        // An iteration costing more than any frame's slack: every
        // frame runs exactly one pass, and the report degenerates to
        // the first-pass numbers.
        let uplink = uplink(0.0);
        let budget = IddBudget::new(IddSpec::new(4), 1e9, 3_000.0);
        let report = uplink.run_idd(&mut sim(), 40_000.0, &budget).unwrap();
        assert!(report.frames >= 20);
        assert_eq!(report.iterations_granted, report.frames);
        assert_eq!(report.iterations_used, report.frames);
        assert!((report.mean_iterations() - 1.0).abs() < 1e-12);
        assert_eq!(report.final_bit_errors, report.first_pass_bit_errors);
        assert!(report.first_pass_bit_errors > 0, "0 dB must leave errors");
    }

    #[test]
    fn slack_buys_iterations_that_fix_frames() {
        // A starved annealed detector at low SNR with a roomy deadline:
        // the slack grants refinement rounds, the reverse-anneal warm
        // starts fix payload bits, and goodput beats the single pass.
        use quamax_anneal::{Annealer, AnnealerConfig, Schedule};
        let snr = Snr::from_db(2.0);
        let spec = SoftSpec::noise_matched(snr, Modulation::Qpsk);
        let uplink = CodedUplink {
            frame: CodedFrame::new(8, Modulation::Qpsk, 114),
            kind: DetectorKind::quamax(
                Annealer::new(AnnealerConfig {
                    sweeps_per_us: 2.0,
                    threads: 1,
                    ..Default::default()
                }),
                quamax_core::DecoderConfig {
                    schedule: Schedule::standard(1.0),
                    ..Default::default()
                },
                6,
            ),
            spec,
            snr,
            seed: 11,
        };
        let mut timing = Simulation::new(
            vec![AccessPoint {
                id: 0,
                users: 8,
                modulation: Modulation::Qpsk,
                direction: JobDirection::Uplink,
                subcarriers: 15,
                frame_interval_us: 4_000.0,
                deadline: Deadline::Lte,
            }],
            FronthaulConfig::default(),
            ResilientServer::without_qpu(CpuPool::new(
                8,
                CpuPolicy::ZeroForcing {
                    vectors_per_channel: 1,
                },
            )),
            SchedConfig::new(Policy::Fifo, 1),
        );
        // 100 µs per extra iteration against a 3 ms HARQ budget: room
        // for the full cap on every frame.
        let budget = IddBudget::new(IddSpec::new(3), 100.0, 3_000.0);
        let report = uplink.run_idd(&mut timing, 32_000.0, &budget).unwrap();
        assert!(report.frames >= 8);
        assert!(
            report.mean_iterations() > 1.0,
            "slack should buy iterations: {}",
            report.mean_iterations()
        );
        assert!(
            report.first_pass_bit_errors > 0,
            "the starved detector must leave first-pass errors"
        );
        assert!(
            report.final_bit_errors < report.first_pass_bit_errors,
            "bought iterations should fix bits: {} vs {}",
            report.final_bit_errors,
            report.first_pass_bit_errors
        );
        assert!(report.clean_frames >= report.first_pass_clean_frames);
        assert!(report.goodput_frames <= report.on_time_frames);
    }

    #[test]
    fn soft_decoding_buys_goodput_at_low_snr() {
        // Same arrivals, same deadlines, harsher radio: frames now die
        // to residual bit errors, and the soft path keeps strictly
        // more of them than the hard path — the coded-throughput gap
        // that motivates soft output.
        let report = uplink(0.0).run(&mut sim(), 40_000.0).unwrap();
        assert!(report.frames >= 20);
        assert!(
            report.soft_goodput_frames > report.hard_goodput_frames,
            "soft {} vs hard {} goodput frames",
            report.soft_goodput_frames,
            report.hard_goodput_frames
        );
        assert!(report.soft_ber() < report.hard_ber());
    }
}
