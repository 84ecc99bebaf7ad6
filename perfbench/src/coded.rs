//! `coded_idd_fastfade`: `CodedFrame::run_idd` with QuAMax soft
//! detection on 8-user QPSK, a fresh Rayleigh channel on every channel
//! use.
//!
//! Closed loop, one frame in flight. Every received vector compiles its
//! own session, so reduce, embed and freeze are paid per use; later
//! iterations reverse-anneal from the decoder's decision, and the soft
//! list demapper and SISO Viterbi sit on the blocking path. At −5 dB the
//! post-FEC payload still carries errors for `ber` to count.

use crate::compose::Composer;
use crate::trace::Tracer;
use crate::{
    alternate, composed_layers, median, timed_call, unit_layers, zf_layers, zf_sample, Bench,
    Layers, Passes, Sample, Scale, Timed, ANNEALER_THREADS,
};
use quamax_anneal::{Annealer, AnnealerConfig, Schedule};
use quamax_core::coded::IddSpec;
use quamax_core::{CodedFrame, DecoderConfig, DetectionInput, DetectorKind, Instance, SoftSpec};
use quamax_wireless::{rayleigh_channel, Modulation, Snr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const USERS: usize = 8;
const MODULATION: Modulation = Modulation::Qpsk;
/// 240 coded bits: exactly 15 channel uses of 16 bits.
const PAYLOAD: usize = 114;
const SNR_DB: f64 = -5.0;
const SWEEPS_PER_US: f64 = 3.0;
const ANNEALS: usize = 6;
const MAX_ITERS: usize = 3;
/// Every `COMPOSE_EVERY`-th frame is also composed from the layer
/// functions in a traced run.
const COMPOSE_EVERY: usize = 16;

pub(crate) struct Coded {
    frame: CodedFrame,
    /// `(payload, frame seed)` per frame.
    frames: Vec<(Vec<u8>, u64)>,
    /// The first `timed_frames` frames run on every pass; the rest are
    /// decoded once after the passes, for `ber` only. Post-FEC errors
    /// come a frame at a time, so 128 frames left `ber` spreading 0.17
    /// between seeds; six times as many bring it near 0.07.
    timed_frames: usize,
    kind: DetectorKind,
    composer: Composer,
}

fn spec() -> SoftSpec {
    SoftSpec::noise_matched(Snr::from_db(SNR_DB), MODULATION)
}

/// Iteration 1 of a frame composed from the public pieces, with the
/// RNG discipline of `CodedFrame::run`; returns the decoded payload and
/// the channel uses it detected.
struct FrameIter1 {
    payload: Vec<u8>,
    uses: Vec<(DetectionInput, u64)>,
    compile_ns: f64,
    soft_ns: Vec<f64>,
    coding_ns: f64,
}

impl Coded {
    fn idd(&self, f: usize) -> Result<quamax_core::IddOutcome, String> {
        let (payload, seed) = &self.frames[f];
        self.frame
            .run_idd(
                &self.kind,
                spec(),
                IddSpec::new(MAX_ITERS),
                Snr::from_db(SNR_DB),
                payload,
                *seed,
            )
            .map_err(|e| format!("frame {f}: run_idd failed: {e}"))
    }

    fn traced_idd(&self, f: usize, tracer: &mut Tracer) -> Result<quamax_core::IddOutcome, String> {
        let root = tracer.begin("unit", f as u64, None);
        let out = tracer.wrap("run_idd", f as u64, root, || self.idd(f));
        tracer.end(root);
        out
    }

    fn iter1(&self, f: usize, tracer: &mut Tracer) -> Result<FrameIter1, String> {
        let (payload, seed) = &self.frames[f];
        let unit = f as u64;
        let root = tracer.begin("frame_iter1", unit, None);
        let mut rng = StdRng::seed_from_u64(*seed);
        let tx = self.frame.tx_stream(payload);
        let mut llrs = Vec::with_capacity(tx.len());
        let mut uses = Vec::new();
        let mut compile_ns = 0.0;
        let mut soft_ns = Vec::new();
        for chunk in tx.chunks(self.frame.bits_per_use()) {
            let h = rayleigh_channel(USERS, USERS, &mut rng);
            let inst = Instance::transmit(
                h,
                chunk.to_vec(),
                MODULATION,
                Some(Snr::from_db(SNR_DB)),
                &mut rng,
            );
            let input = inst.detection_input();
            let t = Instant::now();
            let mut session = tracer
                .wrap("compile", unit, root, || {
                    self.kind.compile_soft(&input, spec())
                })
                .map_err(|e| format!("frame {f}: compile_soft failed: {e}"))?;
            compile_ns += t.elapsed().as_nanos() as f64;
            let det_seed: u64 = rng.random();
            let t = Instant::now();
            let soft = tracer
                .wrap("soft", unit, root, || {
                    session.detect_soft(&input.y, det_seed)
                })
                .map_err(|e| format!("frame {f}: detect_soft failed: {e}"))?;
            soft_ns.push(t.elapsed().as_nanos() as f64);
            llrs.extend_from_slice(&soft.llrs);
            uses.push((input, det_seed));
        }
        let t = Instant::now();
        let decoded = tracer.wrap("coding", unit, root, || self.frame.decode_soft(&llrs));
        let coding_ns = t.elapsed().as_nanos() as f64;
        tracer.end(root);
        Ok(FrameIter1 {
            payload: decoded,
            uses,
            compile_ns,
            soft_ns,
            coding_ns,
        })
    }
}

impl Bench for Coded {
    const PASS_S: f64 = 1.5;

    fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let (timed_frames, n_frames) = match scale {
            Scale::Full => (128, 768),
            Scale::Tiny => (2, 3),
        };
        let frame = CodedFrame::new(USERS, MODULATION, PAYLOAD);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let frames = (0..n_frames)
            .map(|_| (frame.random_payload(&mut rng), rng.random()))
            .collect();
        let annealer = Annealer::new(AnnealerConfig {
            sweeps_per_us: SWEEPS_PER_US,
            threads: ANNEALER_THREADS,
            ..Default::default()
        });
        let config = DecoderConfig {
            schedule: Schedule::standard(1.0),
            ..Default::default()
        };
        Ok(Coded {
            frame,
            frames,
            timed_frames,
            kind: DetectorKind::quamax(annealer.clone(), config, ANNEALS),
            composer: Composer::new(annealer, config),
        })
    }

    fn gates(&self) -> Result<(), String> {
        // Iteration 1 composed from compile_soft / detect_soft /
        // decode_soft ≡ run_idd's first iteration.
        let mut off = Tracer::new(false);
        let iter1 = self.iter1(0, &mut off)?;
        let idd = self.idd(0)?;
        if iter1.payload != idd.iterations[0].payload {
            return Err("composed iteration 1 differs from run_idd's first iteration".into());
        }
        // The composed-layer decode of one use ≡ the session.
        let (input, seed) = &iter1.uses[0];
        self.composer
            .decode(input, ANNEALS, *seed, &mut off, 0)
            .map(|_| ())
    }

    fn timed(&self, passes: &Passes) -> Result<Timed, String> {
        let mut samples = Vec::new();
        let mut first: Vec<Vec<u8>> = Vec::new();
        let mut bit_errors = 0u64;
        let mut frames = 0u64;
        let (elapsed_s, passes) = passes.run(self.timed_frames, |pass, f| {
            let (secs, out) = timed_call(|| self.idd(f))?;
            samples.push(Sample {
                key: f as u64,
                secs,
                items: self.frame.uses() as u64,
                jobs: 1,
            });
            frames += 1;
            if pass == 0 {
                bit_errors += out.last().payload_errors as u64;
                first.push(out.payload().to_vec());
            } else if out.payload() != first[f].as_slice() {
                return Err(format!("frame {f} decoded differently on pass {pass}"));
            }
            Ok(())
        })?;
        for f in self.timed_frames..self.frames.len() {
            bit_errors += self.idd(f)?.last().payload_errors as u64;
            frames += 1;
        }
        Ok(Timed {
            samples,
            elapsed_s,
            bit_errors,
            bits: (self.frames.len() * PAYLOAD) as u64,
            attempted: frames,
            failed: 0,
            passes,
        })
    }

    fn traced(&self, passes: &Passes, tracer: &mut Tracer) -> Result<Layers, String> {
        let mut off = Tracer::new(false);
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        let mut iters = Vec::new();
        let mut composed = Vec::new();
        let mut compile_share = Vec::new();
        let mut soft_ns = Vec::new();
        let mut coding_ns = Vec::new();
        let mut zf_us = Vec::new();
        passes.run(self.timed_frames, |pass, f| {
            let ((a, out_a), (b, out_b)) = alternate(
                (pass + f) % 2 == 0,
                || timed_call(|| self.traced_idd(f, &mut off)),
                || timed_call(|| self.traced_idd(f, tracer)),
            )?;
            if out_a.payload() != out_b.payload() {
                return Err(format!("frame {f}: traced decode differs from untraced"));
            }
            untraced.push(a);
            traced.push(b);
            if pass == 0 {
                iters.push(out_a.iters_run() as f64);
            }
            if pass == 0 && f % COMPOSE_EVERY == 0 {
                let it = self.iter1(f, tracer)?;
                compile_share.push(it.compile_ns / (b * 1e9));
                soft_ns.extend(it.soft_ns.iter().copied());
                coding_ns.push(it.coding_ns);
                let (input, seed) = &it.uses[0];
                composed.push(
                    self.composer
                        .decode(input, ANNEALS, *seed, tracer, f as u64)?,
                );
                zf_us.push(zf_sample(input, *seed)?);
            }
            Ok(())
        })?;
        let mut layers = Layers::new();
        unit_layers(
            &mut layers,
            tracer,
            &untraced,
            &traced,
            self.frame.uses() as f64,
        );
        // run_idd is one call, so the compile share is measured on the
        // composed first iteration against the frame's run_idd time.
        layers.insert("compile.share", median(&compile_share));
        composed_layers(&mut layers, &composed);
        zf_layers(&mut layers, &zf_us);
        layers.insert("soft.detect_soft_us", median(&soft_ns) / 1e3);
        layers.insert("coding.decode_soft_us", median(&coding_ns) / 1e3);
        layers.insert(
            "idd.mean_iters",
            iters.iter().sum::<f64>() / iters.len().max(1) as f64,
        );
        Ok(layers)
    }
}
