//! `uplink_48u_bpsk`: the paper's headline shape, 48 users × 48 AP
//! antennas, BPSK over Rayleigh fading at 20 dB.
//!
//! Closed loop, one coherence interval in flight: each interval
//! compiles one `DecodeSession` and decodes its received vectors with
//! `decode_batch`. The operating point (4 sweeps/µs, 10 anneals) is the
//! paper's "BER at fixed compute" framing: it leaves hundreds of bit
//! errors per pass, so `ber` moves when the decode's quality does.

use crate::compose::Composer;
use crate::trace::Tracer;
use crate::{
    alternate, composed_layers, timed_call, unit_layers, zf_layers, zf_sample, Bench, Layers,
    Passes, Sample, Scale, Timed, ANNEALER_THREADS,
};
use quamax_anneal::{Annealer, AnnealerConfig};
use quamax_core::{DecoderConfig, DetectionInput, Instance};
use quamax_linalg::{CMatrix, CVector};
use quamax_wireless::{count_bit_errors, rayleigh_channel, Modulation, Snr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const USERS: usize = 48;
const MODULATION: Modulation = Modulation::Bpsk;
const SNR_DB: f64 = 20.0;
const SWEEPS_PER_US: f64 = 4.0;
const ANNEALS: usize = 10;
/// Every `COMPOSE_EVERY`-th interval's first vector also runs the
/// composed-layer decode in a traced run.
const COMPOSE_EVERY: usize = 4;

struct Interval {
    h: CMatrix,
    /// `(y, decode seed)` per received vector.
    items: Vec<(CVector, u64)>,
    tx: Vec<Vec<u8>>,
}

pub(crate) struct Uplink {
    intervals: Vec<Interval>,
    composer: Composer,
}

impl Uplink {
    fn input(&self, i: usize, v: usize) -> DetectionInput {
        let iv = &self.intervals[i];
        DetectionInput {
            h: iv.h.clone(),
            y: iv.items[v].0.clone(),
            modulation: MODULATION,
        }
    }

    /// One unit: compile the interval's session once, decode its batch.
    fn decode_interval(&self, i: usize, tracer: &mut Tracer) -> Result<Vec<Vec<u8>>, String> {
        let root = tracer.begin("unit", i as u64, None);
        let session = tracer
            .wrap("compile", i as u64, root, || {
                self.composer.decoder().compile(&self.input(i, 0))
            })
            .map_err(|e| format!("interval {i}: compile failed: {e}"))?;
        let runs = tracer.wrap("decode_batch", i as u64, root, || {
            session.decode_batch(&self.intervals[i].items, ANNEALS)
        });
        tracer.end(root);
        Ok(runs.iter().map(|r| r.best_bits()).collect())
    }
}

impl Bench for Uplink {
    const PASS_S: f64 = 1.6;

    fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let (n_intervals, vectors) = match scale {
            Scale::Full => (128, 4),
            Scale::Tiny => (2, 2),
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x48B5);
        let snr = Snr::from_db(SNR_DB);
        let intervals = (0..n_intervals)
            .map(|_| {
                let h = rayleigh_channel(USERS, USERS, &mut rng);
                let mut items = Vec::with_capacity(vectors);
                let mut tx = Vec::with_capacity(vectors);
                for _ in 0..vectors {
                    let bits: Vec<u8> = (0..USERS).map(|_| rng.random_range(0..2)).collect();
                    let inst = Instance::transmit(
                        h.clone(),
                        bits.clone(),
                        MODULATION,
                        Some(snr),
                        &mut rng,
                    );
                    items.push((inst.y().clone(), rng.random()));
                    tx.push(bits);
                }
                Interval { h, items, tx }
            })
            .collect();
        let annealer = Annealer::new(AnnealerConfig {
            sweeps_per_us: SWEEPS_PER_US,
            threads: ANNEALER_THREADS,
            ..Default::default()
        });
        Ok(Uplink {
            intervals,
            composer: Composer::new(annealer, DecoderConfig::default()),
        })
    }

    fn gates(&self) -> Result<(), String> {
        // decode_batch ≡ per-item DecodeSession::decode, on interval 0.
        let mut session = self
            .composer
            .decoder()
            .compile(&self.input(0, 0))
            .map_err(|e| format!("compile failed: {e}"))?;
        let items = &self.intervals[0].items;
        let sample = &items[..items.len().min(2)];
        let batch = session.decode_batch(sample, ANNEALS);
        for ((y, seed), run) in sample.iter().zip(&batch) {
            let one = session.decode(y, ANNEALS, *seed);
            if one.distribution() != run.distribution() {
                return Err("decode_batch differs from per-item DecodeSession::decode".into());
            }
        }
        // The composed-layer decode ≡ the session.
        let input = self.input(0, 0);
        let seed = items[0].1;
        self.composer
            .decode(&input, ANNEALS, seed, &mut Tracer::new(false), 0)
            .map(|_| ())
    }

    fn timed(&self, passes: &Passes) -> Result<Timed, String> {
        let mut samples = Vec::new();
        let mut first: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut bit_errors = 0u64;
        let mut bits = 0u64;
        let mut off = Tracer::new(false);
        let (elapsed_s, passes) = passes.run(self.intervals.len(), |pass, i| {
            let (secs, decoded) = timed_call(|| self.decode_interval(i, &mut off))?;
            samples.push(Sample {
                key: i as u64,
                secs,
                items: decoded.len() as u64,
                jobs: 1,
            });
            if pass == 0 {
                for (d, tx) in decoded.iter().zip(&self.intervals[i].tx) {
                    bit_errors += count_bit_errors(d, tx) as u64;
                    bits += tx.len() as u64;
                }
                first.push(decoded);
            } else if decoded != first[i] {
                return Err(format!("interval {i} decoded differently on pass {pass}"));
            }
            Ok(())
        })?;
        Ok(Timed {
            attempted: samples.iter().map(|s| s.items).sum(),
            samples,
            elapsed_s,
            bit_errors,
            bits,
            failed: 0,
            passes,
        })
    }

    fn traced(&self, passes: &Passes, tracer: &mut Tracer) -> Result<Layers, String> {
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        let mut off = Tracer::new(false);
        let mut composed = Vec::new();
        let mut zf_us = Vec::new();
        passes.run(self.intervals.len(), |pass, i| {
            // Each unit runs untraced and traced; the outputs must agree.
            let ((a, out_a), (b, out_b)) = alternate(
                (pass + i) % 2 == 0,
                || timed_call(|| self.decode_interval(i, &mut off)),
                || timed_call(|| self.decode_interval(i, tracer)),
            )?;
            if out_a != out_b {
                return Err(format!("interval {i}: traced decode differs from untraced"));
            }
            untraced.push(a);
            traced.push(b);
            if pass == 0 && i % COMPOSE_EVERY == 0 {
                let input = self.input(i, 0);
                let seed = self.intervals[i].items[0].1;
                composed.push(
                    self.composer
                        .decode(&input, ANNEALS, seed, tracer, i as u64)?,
                );
                zf_us.push(zf_sample(&input, seed)?);
            }
            Ok(())
        })?;
        let mut layers = Layers::new();
        unit_layers(&mut layers, tracer, &untraced, &traced, 1.0);
        composed_layers(&mut layers, &composed);
        zf_layers(&mut layers, &zf_us);
        Ok(layers)
    }
}
