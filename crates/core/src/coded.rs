//! The coded uplink pipeline: FEC above soft-output MIMO detection,
//! and the **iterative detection–decoding (IDD) engine** on top of it.
//!
//! §5.3.3's layering, end to end: a payload is convolutionally encoded
//! (rate-1/2 K=7), block-interleaved, and transmitted across many MIMO
//! channel uses; the receiver detects each use with a soft-output
//! session ([`DetectorKind::compile_soft`]), deinterleaves the *LLRs*,
//! and Viterbi-decodes — soft-input by default, with the hard-decision
//! path kept for comparison. The NextG feasibility line of work (Kasi
//! et al.) argues coded throughput, not raw BER, is the metric that
//! decides whether annealing-based detection is viable; this module is
//! where that metric is computed.
//!
//! ```text
//! payload ─encode─ coded ─interleave─ tx stream ─┬─ channel use 0 ─┐
//!                                                ├─ channel use 1 ─┤ detect_soft
//!                                                └─ …             ─┘   per use
//! LLR stream ─deinterleave─ soft Viterbi ─→ payload (soft path)
//! bit stream ─deinterleave─ hard Viterbi ─→ payload (hard path)
//! ```
//!
//! [`CodedFrame::run_idd`] closes the loop: the SISO decoder's
//! extrinsic output travels back through the interleaver as detector
//! priors, the detector re-detects every channel use prior-aware
//! (QuAMax: a reverse anneal warm-started from the decoder's current
//! decision — the hybrid classical–quantum iteration structure of the
//! HotNets '20 follow-on), and the exchange repeats until the decision
//! reaches a fixed point or the iteration budget runs out:
//!
//! ```text
//!        ┌────────────── priors (interleaved, damped) ─────────────┐
//!        ▼                                                         │
//! detect_soft_with_priors ─ extrinsic ─deinterleave─ decode_siso ──┴─→ payload
//!   per channel use          (posterior − prior)      (extrinsic out)
//! ```

use crate::detect::{DetectorKind, Error};
use crate::scenario::Instance;
use crate::soft::{SoftDetectorSession, SoftSpec};
use quamax_wireless::coding::BlockInterleaver;
use quamax_wireless::{count_bit_errors, rayleigh_channel, ConvolutionalCode, Modulation, Snr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The geometry of one coded frame: how a payload maps onto channel
/// uses. Construction picks the interleaver so each MIMO channel use
/// is exactly one interleaver column group — a detection failure (one
/// bad channel use) lands as *scattered* code-domain errors, which is
/// what a convolutional code can fix.
#[derive(Clone, Copy, Debug)]
pub struct CodedFrame {
    code: ConvolutionalCode,
    interleaver: BlockInterleaver,
    users: usize,
    modulation: Modulation,
    payload_len: usize,
    uses: usize,
}

impl CodedFrame {
    /// A frame of `payload_len` data bits over `users` single-antenna
    /// users at `modulation`, padded up to a whole number of channel
    /// uses.
    ///
    /// # Panics
    /// Panics when `payload_len` or `users` is zero.
    pub fn new(users: usize, modulation: Modulation, payload_len: usize) -> Self {
        assert!(users > 0, "need at least one user");
        assert!(payload_len > 0, "empty payload");
        let code = ConvolutionalCode;
        let per_use = users * modulation.bits_per_symbol();
        let uses = code.coded_len(payload_len).div_ceil(per_use);
        CodedFrame {
            code,
            interleaver: BlockInterleaver::new(per_use, uses),
            users,
            modulation,
            payload_len,
            uses,
        }
    }

    /// Data bits per frame.
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// MIMO channel uses per frame.
    pub fn uses(&self) -> usize {
        self.uses
    }

    /// Users per channel use.
    pub fn users(&self) -> usize {
        self.users
    }

    /// Modulation in use.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// Coded + padded bits per frame (= `uses × bits_per_use`).
    pub fn coded_len(&self) -> usize {
        self.interleaver.len()
    }

    /// Payload bits carried per channel use (code rate × padding
    /// accounted), for throughput bookkeeping.
    pub fn bits_per_use(&self) -> usize {
        self.users * self.modulation.bits_per_symbol()
    }

    /// A random payload of the right length.
    pub fn random_payload<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u8> {
        (0..self.payload_len)
            .map(|_| rng.random_range(0..=1) as u8)
            .collect()
    }

    /// Encodes and interleaves `payload` into the transmitted bit
    /// stream (`coded_len` bits, consumed `bits_per_use` at a time).
    ///
    /// # Panics
    /// Panics unless `payload.len()` equals [`CodedFrame::payload_len`].
    pub fn tx_stream(&self, payload: &[u8]) -> Vec<u8> {
        assert_eq!(payload.len(), self.payload_len, "payload length mismatch");
        let mut coded = self.code.encode(payload);
        coded.resize(self.coded_len(), 0);
        self.interleaver.interleave(&coded)
    }

    /// Hard path: deinterleaves detected bits and Viterbi-decodes.
    pub fn decode_hard(&self, rx_bits: &[u8]) -> Vec<u8> {
        let de = self.interleaver.deinterleave(rx_bits);
        self.code
            .decode(&de[..self.code.coded_len(self.payload_len)])
    }

    /// Soft path: deinterleaves the detector's LLRs (reliabilities ride
    /// the same permutation as the bits they annotate) and soft-input
    /// Viterbi-decodes.
    pub fn decode_soft(&self, llrs: &[f64]) -> Vec<u8> {
        let de = self.interleaver.deinterleave(llrs);
        self.code
            .decode_soft(&de[..self.code.coded_len(self.payload_len)])
    }

    /// Transmits one frame of `payload` over per-use i.i.d. Rayleigh
    /// channels with AWGN at `snr`, detects each use with a fresh
    /// soft session of `kind`, and decodes both ways. Deterministic in
    /// `seed` (channels, noise, and per-use detection seeds all derive
    /// from it).
    pub fn run(
        &self,
        kind: &DetectorKind,
        spec: SoftSpec,
        snr: Snr,
        payload: &[u8],
        seed: u64,
    ) -> Result<CodedFrameOutcome, Error> {
        let mut rng = StdRng::seed_from_u64(seed);
        let tx = self.tx_stream(payload);
        let mut rx_bits = Vec::with_capacity(tx.len());
        let mut rx_llrs = Vec::with_capacity(tx.len());
        let mut raw_errors = 0usize;
        for chunk in tx.chunks(self.bits_per_use()) {
            let h = rayleigh_channel(self.users, self.users, &mut rng);
            let inst = Instance::transmit(h, chunk.to_vec(), self.modulation, Some(snr), &mut rng);
            let input = inst.detection_input();
            let mut session = kind.compile_soft(&input, spec)?;
            let soft = session.detect_soft(&input.y, rng.random())?;
            raw_errors += count_bit_errors(&soft.bits, chunk);
            rx_bits.extend_from_slice(&soft.bits);
            rx_llrs.extend_from_slice(&soft.llrs);
        }
        let hard_payload = self.decode_hard(&rx_bits);
        let soft_payload = self.decode_soft(&rx_llrs);
        Ok(CodedFrameOutcome {
            raw_errors,
            raw_bits: tx.len(),
            hard_errors: count_bit_errors(&hard_payload, payload),
            soft_errors: count_bit_errors(&soft_payload, payload),
            payload_len: self.payload_len,
            hard_payload,
            soft_payload,
            detected_bits: rx_bits,
            detected_llrs: rx_llrs,
        })
    }
}

/// Scale applied to the decoder's extrinsic LLRs before they become
/// detector priors in an IDD run. Full-strength extrinsic feedback
/// (1.0) can oscillate under the max-log approximation; the customary
/// 0.7–0.8 damps the exchange.
pub const IDD_DAMPING: f64 = 0.75;

/// Parameters of an iterative detection–decoding run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IddSpec {
    /// Maximum detection–decoding iterations (≥ 1; 1 = the plain
    /// soft pipeline, no feedback).
    pub max_iters: usize,
    /// Stop as soon as the decoded payload repeats the previous
    /// iteration's (a decision fixed point — the CRC-free convergence
    /// test): further iterations would re-derive the same priors.
    pub early_exit: bool,
}

impl IddSpec {
    /// An IDD run of up to `max_iters` iterations with early exit on.
    ///
    /// # Panics
    /// Panics when `max_iters` is zero.
    pub fn new(max_iters: usize) -> Self {
        assert!(max_iters > 0, "IDD needs at least one iteration");
        IddSpec {
            max_iters,
            early_exit: true,
        }
    }

    /// The degenerate single-pass spec: bit-identical to
    /// [`CodedFrame::run`]'s soft path.
    pub fn single() -> Self {
        IddSpec::new(1)
    }
}

/// One iteration's worth of an [`IddOutcome`] trajectory.
#[derive(Clone, Debug)]
pub struct IddIteration {
    /// Detector (pre-FEC) bit errors over the coded stream at this
    /// iteration's detections.
    pub raw_errors: usize,
    /// Payload bit errors after this iteration's SISO decode.
    pub payload_errors: usize,
    /// Summed ML objectives `Σ‖y − Hv̂‖²` of this iteration's
    /// detections — the annealer-facing convergence signal (priors
    /// pulling detections toward the codeword shrink it).
    pub objective: f64,
    /// The payload this iteration decoded to.
    pub payload: Vec<u8>,
}

/// What an iterative detection–decoding run produced: the per-
/// iteration trajectory plus the final decision.
#[derive(Clone, Debug)]
pub struct IddOutcome {
    /// Per-iteration records, iteration 1 first. Never empty.
    pub iterations: Vec<IddIteration>,
    /// Coded bits transmitted per frame.
    pub raw_bits: usize,
    /// Payload bits per frame.
    pub payload_len: usize,
    /// Whether the run stopped on a decision fixed point before
    /// exhausting `max_iters`.
    pub early_exited: bool,
}

impl IddOutcome {
    /// The last executed iteration (the run's decision).
    pub fn last(&self) -> &IddIteration {
        self.iterations.last().expect("at least one iteration runs")
    }

    /// The final decoded payload.
    pub fn payload(&self) -> &[u8] {
        &self.last().payload
    }

    /// Iterations actually executed.
    pub fn iters_run(&self) -> usize {
        self.iterations.len()
    }

    /// Payload bit errors at iteration `i` (0-based), carrying the
    /// final value forward past an early exit — the per-iteration
    /// trajectory a BER-vs-iterations table plots.
    pub fn payload_errors_at(&self, i: usize) -> usize {
        self.iterations
            .get(i)
            .unwrap_or_else(|| self.last())
            .payload_errors
    }

    /// Whether the final payload came out error-free.
    pub fn ok(&self) -> bool {
        self.last().payload_errors == 0
    }
}

impl CodedFrame {
    /// Runs the iterative detection–decoding loop over one frame:
    /// the same channels, noise, and detection seeds as
    /// [`CodedFrame::run`] under the same `seed` (iteration 1 is
    /// bit-identical to the plain soft pipeline), then up to
    /// `idd.max_iters − 1` extrinsic-exchange rounds. Each round:
    ///
    /// 1. the SISO decoder's per-coded-bit extrinsic LLRs are damped
    ///    ([`IDD_DAMPING`]), clamped to `spec.max_llr`, and interleaved
    ///    back into detection order — pad bits (known zeros) are
    ///    pinned to `−max_llr`;
    /// 2. every channel use is re-detected through its *compiled*
    ///    session with [`SoftDetectorSession::detect_soft_with_priors`]
    ///    (QuAMax reverse-anneals from the decoder's current
    ///    decision);
    /// 3. the detector's extrinsic (`posterior − prior`) is
    ///    deinterleaved and SISO-decoded again.
    ///
    /// Deterministic in `seed`; later iterations decorrelate their
    /// anneal streams by mixing the iteration index into each use's
    /// detection seed.
    pub fn run_idd(
        &self,
        kind: &DetectorKind,
        spec: SoftSpec,
        idd: IddSpec,
        snr: Snr,
        payload: &[u8],
        seed: u64,
    ) -> Result<IddOutcome, Error> {
        assert!(idd.max_iters > 0, "IDD needs at least one iteration");
        let mut rng = StdRng::seed_from_u64(seed);
        let tx = self.tx_stream(payload);
        let bpu = self.bits_per_use();
        // Materialize the frame's channel uses with exactly the RNG
        // discipline of `run` (channel, transmit noise, detection
        // seed — in that order per use), compiling each use's soft
        // session once for all iterations.
        let mut uses: Vec<(
            crate::scenario::DetectionInput,
            Box<dyn SoftDetectorSession>,
            u64,
        )> = Vec::with_capacity(self.uses);
        for chunk in tx.chunks(bpu) {
            let h = rayleigh_channel(self.users, self.users, &mut rng);
            let inst = Instance::transmit(h, chunk.to_vec(), self.modulation, Some(snr), &mut rng);
            let input = inst.detection_input();
            let session = kind.compile_soft(&input, spec)?;
            let det_seed = rng.random();
            uses.push((input, session, det_seed));
        }

        let code_len = self.code.coded_len(self.payload_len);
        // Detector priors in *detection* (interleaved) order.
        let mut priors = vec![0.0f64; self.coded_len()];
        let mut iterations: Vec<IddIteration> = Vec::with_capacity(idd.max_iters);
        let mut early_exited = false;
        for iter in 0..idd.max_iters {
            let mut detector_extrinsic = Vec::with_capacity(self.coded_len());
            let mut raw_errors = 0usize;
            let mut objective = 0.0f64;
            for (u, (input, session, base_seed)) in uses.iter_mut().enumerate() {
                let prior_slice = &priors[u * bpu..(u + 1) * bpu];
                // iter 0 mixes to the base seed itself: identity with
                // the plain pipeline.
                let det_seed = *base_seed ^ (iter as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let soft = session.detect_soft_with_priors(&input.y, prior_slice, det_seed)?;
                raw_errors += count_bit_errors(&soft.bits, &tx[u * bpu..(u + 1) * bpu]);
                objective += soft.objective.unwrap_or(0.0);
                // The session computes its extrinsic from the
                // *unclamped* posterior — saturation cannot erase the
                // detection's evidence.
                detector_extrinsic.extend_from_slice(&soft.extrinsic);
            }
            let de = self.interleaver.deinterleave(&detector_extrinsic);
            let siso = self.code.decode_siso(&de[..code_len]);
            let payload_errors = count_bit_errors(&siso.data, payload);
            let fixed_point = iterations
                .last()
                .is_some_and(|prev: &IddIteration| prev.payload == siso.data);
            iterations.push(IddIteration {
                raw_errors,
                payload_errors,
                objective,
                payload: siso.data,
            });
            if iter + 1 == idd.max_iters {
                break;
            }
            if idd.early_exit && fixed_point {
                early_exited = true;
                break;
            }
            // Decoder extrinsic → damped, clamped detector priors; the
            // padding bits beyond the codeword are known zeros and say
            // so at full confidence.
            let mut code_priors = vec![-spec.max_llr; self.coded_len()];
            for (slot, &e) in code_priors.iter_mut().zip(&siso.extrinsic) {
                *slot = (IDD_DAMPING * e).clamp(-spec.max_llr, spec.max_llr);
            }
            priors = self.interleaver.interleave(&code_priors);
        }

        Ok(IddOutcome {
            iterations,
            raw_bits: tx.len(),
            payload_len: self.payload_len,
            early_exited,
        })
    }
}

/// What one coded frame's decode produced, both ways.
#[derive(Clone, Debug)]
pub struct CodedFrameOutcome {
    /// Detector (pre-FEC) bit errors over the frame's coded stream.
    pub raw_errors: usize,
    /// Coded bits transmitted.
    pub raw_bits: usize,
    /// Payload bit errors after hard-input Viterbi.
    pub hard_errors: usize,
    /// Payload bit errors after soft-input Viterbi.
    pub soft_errors: usize,
    /// Payload bits per frame.
    pub payload_len: usize,
    /// The hard path's decoded payload.
    pub hard_payload: Vec<u8>,
    /// The soft path's decoded payload.
    pub soft_payload: Vec<u8>,
    /// The detected (pre-deinterleave) bit stream, channel-use order.
    pub detected_bits: Vec<u8>,
    /// The detected LLR stream, same order as `detected_bits`.
    pub detected_llrs: Vec<f64>,
}

impl CodedFrameOutcome {
    /// Detector (uncoded) BER of this frame.
    pub fn raw_ber(&self) -> f64 {
        self.raw_errors as f64 / self.raw_bits.max(1) as f64
    }

    /// Whether the hard path delivered the frame error-free.
    pub fn hard_ok(&self) -> bool {
        self.hard_errors == 0
    }

    /// Whether the soft path delivered the frame error-free.
    pub fn soft_ok(&self) -> bool {
        self.soft_errors == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn geometry_covers_the_codeword() {
        let f = CodedFrame::new(8, Modulation::Qpsk, 114);
        assert_eq!(f.bits_per_use(), 16);
        // 2·(114+6) = 240 coded bits = exactly 15 uses of 16.
        assert_eq!(f.uses(), 15);
        assert_eq!(f.coded_len(), 240);
        let g = CodedFrame::new(3, Modulation::Qam16, 100);
        assert!(g.coded_len() >= ConvolutionalCode.coded_len(100));
        assert_eq!(g.coded_len() % g.bits_per_use(), 0);
    }

    #[test]
    fn stream_round_trips_without_channel_errors() {
        let f = CodedFrame::new(4, Modulation::Qam16, 130);
        let mut rng = StdRng::seed_from_u64(1);
        let payload = f.random_payload(&mut rng);
        let tx = f.tx_stream(&payload);
        assert_eq!(tx.len(), f.coded_len());
        assert_eq!(f.decode_hard(&tx), payload);
        // Saturated LLRs straight from the clean bits.
        let llrs: Vec<f64> = tx
            .iter()
            .map(|&b| if b == 0 { -9.0 } else { 9.0 })
            .collect();
        assert_eq!(f.decode_soft(&llrs), payload);
    }

    #[test]
    fn pipeline_decodes_cleanly_at_high_snr() {
        let f = CodedFrame::new(4, Modulation::Qpsk, 60);
        let snr = Snr::from_db(26.0);
        let spec = SoftSpec::noise_matched(snr, Modulation::Qpsk);
        let payload: Vec<u8> = (0..60).map(|k| (k % 2) as u8).collect();
        let out = f.run(&DetectorKind::zf(), spec, snr, &payload, 7).unwrap();
        assert_eq!(out.soft_payload, payload);
        assert_eq!(out.hard_payload, payload);
        assert!(out.soft_ok() && out.hard_ok());
    }

    #[test]
    fn soft_path_beats_hard_path_at_low_snr() {
        // The acceptance-shaped statement at unit-test scale: over a
        // batch of noisy frames, soft-input decoding leaves strictly
        // fewer payload errors than hard-input, same detections.
        let f = CodedFrame::new(4, Modulation::Qpsk, 60);
        let snr = Snr::from_db(1.0);
        let spec = SoftSpec::noise_matched(snr, Modulation::Qpsk);
        let kind = DetectorKind::mmse(spec.noise_variance);
        let mut rng = StdRng::seed_from_u64(2);
        let mut hard = 0usize;
        let mut soft = 0usize;
        for i in 0..24 {
            let payload = f.random_payload(&mut rng);
            let out = f.run(&kind, spec, snr, &payload, 1_000 + i).unwrap();
            hard += out.hard_errors;
            soft += out.soft_errors;
        }
        assert!(
            soft < hard,
            "soft-input Viterbi should beat hard-input: {soft} vs {hard}"
        );
    }

    #[test]
    fn single_iteration_idd_equals_the_plain_pipeline() {
        // The IddSpec::single() contract: same channels, same noise,
        // same detections, same decode — iteration 1 IS the existing
        // soft pipeline (the proptest sweep lives in
        // tests/properties.rs).
        let f = CodedFrame::new(4, Modulation::Qpsk, 60);
        let snr = Snr::from_db(3.0);
        let spec = SoftSpec::noise_matched(snr, Modulation::Qpsk);
        let kind = DetectorKind::mmse(spec.noise_variance);
        let mut rng = StdRng::seed_from_u64(41);
        for k in 0..4 {
            let payload = f.random_payload(&mut rng);
            let plain = f.run(&kind, spec, snr, &payload, 900 + k).unwrap();
            let idd = f
                .run_idd(&kind, spec, IddSpec::single(), snr, &payload, 900 + k)
                .unwrap();
            assert_eq!(idd.iters_run(), 1);
            assert!(!idd.early_exited);
            assert_eq!(idd.payload(), plain.soft_payload.as_slice());
            assert_eq!(idd.last().payload_errors, plain.soft_errors);
            assert_eq!(idd.last().raw_errors, plain.raw_errors);
            assert_eq!(idd.raw_bits, plain.raw_bits);
        }
    }

    #[test]
    fn idd_is_deterministic_and_exits_on_a_fixed_point() {
        let f = CodedFrame::new(4, Modulation::Qpsk, 60);
        let snr = Snr::from_db(14.0); // clean: decision fixes immediately
        let spec = SoftSpec::noise_matched(snr, Modulation::Qpsk);
        let kind = DetectorKind::mmse(spec.noise_variance);
        let payload: Vec<u8> = (0..60).map(|k| (k % 2) as u8).collect();
        let idd_spec = IddSpec::new(4);
        let a = f.run_idd(&kind, spec, idd_spec, snr, &payload, 7).unwrap();
        let b = f.run_idd(&kind, spec, idd_spec, snr, &payload, 7).unwrap();
        assert_eq!(a.payload(), b.payload());
        assert_eq!(a.iters_run(), b.iters_run());
        let objectives = |o: &IddOutcome| {
            o.iterations
                .iter()
                .map(|it| it.objective)
                .collect::<Vec<_>>()
        };
        assert_eq!(objectives(&a), objectives(&b));
        // A clean frame converges long before the budget.
        assert!(a.early_exited, "clean decode should reach a fixed point");
        assert!(a.iters_run() < 4);
        assert!(a.ok());
        // Disabling early exit runs the full budget.
        let full = f
            .run_idd(
                &kind,
                spec,
                IddSpec {
                    early_exit: false,
                    ..idd_spec
                },
                snr,
                &payload,
                7,
            )
            .unwrap();
        assert_eq!(full.iters_run(), 4);
        assert!(!full.early_exited);
    }

    #[test]
    fn quamax_iteration_two_fixes_payload_errors() {
        // The tentpole claim at unit-test scale: a deadline-starved
        // annealed detector leaves payload errors after one pass;
        // feeding the decoder's extrinsic back as reverse-anneal
        // warm-started priors strictly reduces them (the bench asserts
        // the same at full scale). About a third of first passes fail
        // at this operating point, so 24 frames leave payload errors
        // with probability > 99.9% under any sampler stream.
        use quamax_anneal::{Annealer, AnnealerConfig, Schedule};
        let f = CodedFrame::new(8, Modulation::Qpsk, 114);
        let snr = Snr::from_db(2.0);
        let spec = SoftSpec::noise_matched(snr, Modulation::Qpsk);
        let kind = DetectorKind::quamax(
            Annealer::new(AnnealerConfig {
                sweeps_per_us: 2.0,
                threads: 1,
                ..Default::default()
            }),
            crate::decoder::DecoderConfig {
                schedule: Schedule::standard(1.0),
                ..Default::default()
            },
            6,
        );
        let mut rng = StdRng::seed_from_u64(42);
        let (mut first, mut second) = (0usize, 0usize);
        for k in 0..24u64 {
            let payload = f.random_payload(&mut rng);
            let out = f
                .run_idd(&kind, spec, IddSpec::new(2), snr, &payload, 600 + k)
                .unwrap();
            first += out.payload_errors_at(0);
            second += out.payload_errors_at(1);
        }
        assert!(first > 0, "the starved pass must leave payload errors");
        assert!(
            second < first,
            "iteration 2 should fix payload bits: {second} vs {first}"
        );
    }

    #[test]
    fn deterministic_in_the_seed() {
        let f = CodedFrame::new(3, Modulation::Qpsk, 40);
        let snr = Snr::from_db(10.0);
        let spec = SoftSpec::noise_matched(snr, Modulation::Qpsk);
        let payload: Vec<u8> = (0..40).map(|k| ((k * 7) % 2) as u8).collect();
        let a = f
            .run(&DetectorKind::sphere(), spec, snr, &payload, 99)
            .unwrap();
        let b = f
            .run(&DetectorKind::sphere(), spec, snr, &payload, 99)
            .unwrap();
        assert_eq!(a.soft_payload, b.soft_payload);
        assert_eq!(a.hard_payload, b.hard_payload);
        assert_eq!(a.raw_errors, b.raw_errors);
    }
}
