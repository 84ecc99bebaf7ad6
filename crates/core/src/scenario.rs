//! Evaluation scenario and instance generation.
//!
//! The paper evaluates over *instances*: a channel use with a specific
//! channel matrix, transmitted bit string, and (optionally) AWGN at a
//! target SNR (§5.2.2, "Generalizing to multiple channel uses"). This
//! module generates them for the three channel families used across
//! §5.3–§5.5 and packages what the detector sees as a
//! [`DetectionInput`].

use quamax_linalg::{CMatrix, CVector};
use quamax_wireless::{
    apply_awgn, rayleigh_channel, unit_gain_random_phase_channel, Modulation, Snr,
};
use rand::Rng;

/// What the receiver's detector gets to see: the estimated channel, the
/// received vector, and the agreed modulation.
#[derive(Clone, Debug)]
pub struct DetectionInput {
    /// Channel estimate `H ∈ C^{Nr×Nt}` for this subcarrier.
    pub h: CMatrix,
    /// Received signal `y = Hv̄ + n`.
    pub y: CVector,
    /// Modulation in use.
    pub modulation: Modulation,
}

impl DetectionInput {
    /// Number of users.
    pub fn nt(&self) -> usize {
        self.h.cols()
    }

    /// Number of AP antennas.
    pub fn nr(&self) -> usize {
        self.h.rows()
    }

    /// Total payload bits carried by one channel use.
    pub fn num_bits(&self) -> usize {
        self.nt() * self.modulation.bits_per_symbol()
    }
}

/// Channel family for instance generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelKind {
    /// Unit-gain random-phase taps — the paper's §5.3 setup isolating
    /// annealer noise from amplitude fading.
    RandomPhase,
    /// i.i.d. Rayleigh fading (§5.4, Table 1).
    Rayleigh,
}

/// A problem-class description: size, modulation, channel family, SNR.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Number of single-antenna users `Nt`.
    pub nt: usize,
    /// Number of AP antennas `Nr` (the paper evaluates `Nr = Nt`).
    pub nr: usize,
    /// Modulation.
    pub modulation: Modulation,
    /// Channel family.
    pub channel: ChannelKind,
    /// AWGN level; `None` = noise-free (§5.3).
    pub snr: Option<Snr>,
}

impl Scenario {
    /// A noise-free random-phase scenario (the §5.3 default).
    pub fn new(nt: usize, nr: usize, modulation: Modulation) -> Self {
        assert!(nt > 0 && nr >= nt, "need Nr >= Nt >= 1");
        Scenario {
            nt,
            nr,
            modulation,
            channel: ChannelKind::RandomPhase,
            snr: None,
        }
    }

    /// Switches to i.i.d. Rayleigh fading.
    pub fn with_rayleigh(mut self) -> Self {
        self.channel = ChannelKind::Rayleigh;
        self
    }

    /// Adds AWGN at the given SNR.
    pub fn with_snr(mut self, snr: Snr) -> Self {
        self.snr = Some(snr);
        self
    }

    /// Draws one instance: fresh channel, fresh Gray-coded bits, fresh
    /// noise.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Instance {
        let h = match self.channel {
            ChannelKind::RandomPhase => unit_gain_random_phase_channel(self.nr, self.nt, rng),
            ChannelKind::Rayleigh => rayleigh_channel(self.nr, self.nt, rng),
        };
        self.sample_with_channel(h, rng)
    }

    /// Alias of [`Scenario::sample`] that reads better at call sites
    /// when `snr` is `None`.
    pub fn sample_noiseless<R: Rng + ?Sized>(&self, rng: &mut R) -> Instance {
        self.sample(rng)
    }

    /// Draws an instance over a *given* channel (trace-driven runs, and
    /// the fixed-channel AWGN sweeps of §5.4).
    fn sample_with_channel<R: Rng + ?Sized>(&self, h: CMatrix, rng: &mut R) -> Instance {
        assert_eq!(h.cols(), self.nt, "channel user count mismatch");
        assert_eq!(h.rows(), self.nr, "channel antenna count mismatch");
        let q = self.modulation.bits_per_symbol();
        let tx_bits: Vec<u8> = (0..self.nt * q)
            .map(|_| rng.random_range(0..=1) as u8)
            .collect();
        Instance::transmit(h, tx_bits, self.modulation, self.snr, rng)
    }
}

/// One channel use: ground truth plus what the receiver observes.
#[derive(Clone, Debug)]
pub struct Instance {
    h: CMatrix,
    y: CVector,
    tx_bits: Vec<u8>,
    modulation: Modulation,
    snr: Option<Snr>,
}

impl Instance {
    /// Builds an instance by "transmitting" `tx_bits` (Gray-mapped)
    /// through `h`, adding AWGN when `snr` is set.
    pub fn transmit<R: Rng + ?Sized>(
        h: CMatrix,
        tx_bits: Vec<u8>,
        modulation: Modulation,
        snr: Option<Snr>,
        rng: &mut R,
    ) -> Instance {
        let q = modulation.bits_per_symbol();
        assert_eq!(tx_bits.len(), h.cols() * q, "bit count must be Nt·Q");
        let v = modulation.map_gray_vector(&tx_bits);
        let clean = h.mul_vec(&v);
        let y = match snr {
            None => clean,
            Some(s) => apply_awgn(&clean, s.noise_variance(modulation), rng),
        };
        Instance {
            h,
            y,
            tx_bits,
            modulation,
            snr,
        }
    }

    /// Re-noises the same channel and bits with a fresh AWGN draw at
    /// `snr` — the §5.4 protocol (fixed channel/bits, ten noise
    /// instances).
    pub fn renoise<R: Rng + ?Sized>(&self, snr: Snr, rng: &mut R) -> Instance {
        Instance::transmit(
            self.h.clone(),
            self.tx_bits.clone(),
            self.modulation,
            Some(snr),
            rng,
        )
    }

    /// The detector-visible part.
    pub fn detection_input(&self) -> DetectionInput {
        DetectionInput {
            h: self.h.clone(),
            y: self.y.clone(),
            modulation: self.modulation,
        }
    }

    /// Ground-truth transmitted (Gray) bits.
    pub fn tx_bits(&self) -> &[u8] {
        &self.tx_bits
    }

    /// The channel.
    pub fn h(&self) -> &CMatrix {
        &self.h
    }

    /// The received vector.
    pub fn y(&self) -> &CVector {
        &self.y
    }

    /// Modulation of this instance.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// SNR the instance was generated at (`None` = noise-free).
    pub fn snr(&self) -> Option<Snr> {
        self.snr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_instance_is_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let sc = Scenario::new(4, 4, Modulation::Qpsk);
        let inst = sc.sample(&mut rng);
        let v = inst.modulation().map_gray_vector(inst.tx_bits());
        let clean = inst.h().mul_vec(&v);
        assert_eq!(inst.y(), &clean);
        assert_eq!(inst.tx_bits().len(), 8);
    }

    #[test]
    fn noisy_instance_perturbs_y() {
        let mut rng = StdRng::seed_from_u64(2);
        let sc = Scenario::new(4, 4, Modulation::Bpsk).with_snr(Snr::from_db(20.0));
        let inst = sc.sample(&mut rng);
        let v = inst.modulation().map_gray_vector(inst.tx_bits());
        let clean = inst.h().mul_vec(&v);
        let noise_power = (inst.y() - &clean).norm_sqr() / 4.0;
        assert!(noise_power > 0.0);
        // σ² = 0.01 at 20 dB BPSK: 4-antenna average within wide bounds.
        assert!(noise_power < 0.1, "noise power {noise_power}");
    }

    #[test]
    fn renoise_keeps_channel_and_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        let sc = Scenario::new(3, 3, Modulation::Qpsk).with_snr(Snr::from_db(15.0));
        let a = sc.sample(&mut rng);
        let b = a.renoise(Snr::from_db(15.0), &mut rng);
        assert_eq!(a.h(), b.h());
        assert_eq!(a.tx_bits(), b.tx_bits());
        assert_ne!(a.y(), b.y(), "fresh noise expected");
    }

    #[test]
    fn rayleigh_scenario_draws_fading_channel() {
        let mut rng = StdRng::seed_from_u64(4);
        let sc = Scenario::new(8, 8, Modulation::Bpsk).with_rayleigh();
        let inst = sc.sample(&mut rng);
        // Rayleigh taps are not unit-modulus.
        let any_non_unit = inst
            .h()
            .as_slice()
            .iter()
            .any(|z| (z.abs() - 1.0).abs() > 0.01);
        assert!(any_non_unit);
    }

    #[test]
    fn detection_input_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let sc = Scenario::new(2, 6, Modulation::Qam16);
        let input = sc.sample(&mut rng).detection_input();
        assert_eq!(input.nt(), 2);
        assert_eq!(input.nr(), 6);
        assert_eq!(input.num_bits(), 8);
    }

    #[test]
    #[should_panic(expected = "Nr >= Nt")]
    fn undersized_ap_panics() {
        let _ = Scenario::new(4, 2, Modulation::Bpsk);
    }
}
