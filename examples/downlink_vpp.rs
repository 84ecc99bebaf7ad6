//! Downlink vector-perturbation precoding through the registry API.
//!
//! The uplink story inverts: the data center now *transmits*. Zero-
//! forcing pre-inverts the channel (`x = Pu`), but on an
//! ill-conditioned `H` that inversion amplifies transmit power — the
//! downlink twin of ZF's noise amplification. VPP (Hochwald et al.)
//! searches a perturbation `v ∈ ℤ²` per user, sending `x = P(u + τv)`
//! so receivers recover `u` with a cheap modulo fold; minimizing
//! `‖P(u + τv)‖²` over the integer lattice is NP-hard — and maps onto
//! the same annealer QuAMax uses for detection (`quamax_core::precode`
//! mirrors `detect`: compile once per coherence interval, precode per
//! symbol vector, reverse-anneal to refine from a classical seed).
//!
//! Run: `cargo run --release --example downlink_vpp`

use quamax::anneal::IceModel;
use quamax::prelude::*;
use quamax::wireless::rayleigh_channel;

fn main() {
    let users = 4usize;
    let modulation = Modulation::Qpsk;
    let mut rng = Rng::seed_from_u64(2_019);

    // One coherence interval: a 4x4 Rayleigh channel. Square draws are
    // routinely ill-conditioned — exactly where perturbation pays.
    let input = PrecodeInput {
        h: rayleigh_channel(users, users, &mut rng),
        modulation,
    };

    // The registry, mirroring DetectorKind: classical baselines and
    // the annealed backend behind one trait.
    let annealer = Annealer::new(AnnealerConfig {
        ice: IceModel::none(),
        sweeps_per_us: 50.0,
        ..Default::default()
    });
    let vpp = PrecoderKind::vpp(
        annealer,
        DecoderConfig {
            schedule: Schedule::standard(10.0),
            ..Default::default()
        },
        20,
        1, // t = 1: one box bit per real dimension of the reduced lattice
    );
    let kinds = [
        PrecoderKind::zf(),
        PrecoderKind::thp(),
        vpp.clone(),
        // Residual-gated router: annealed VPP answers, ZF only if the
        // perturbed power somehow exceeds the per-antenna budget.
        PrecoderKind::hybrid(vpp, PrecoderKind::zf(), RoutePolicy::new(50.0)),
    ];

    // The same symbol stream through every backend: precoding power is
    // the figure of merit — it scales the transmitter's effective
    // noise, so lower power is lower BER at the receivers.
    let symbols: Vec<CVector> = (0..6)
        .map(|_| {
            let bits: Vec<u8> = (0..input.num_bits())
                .map(|_| rand::Rng::random_range(&mut rng, 0..2))
                .collect();
            modulation.map_gray_vector(&bits)
        })
        .collect();

    println!("downlink {users}x{users} QPSK, one coherence interval, 6 symbol vectors:\n");
    println!("{:<10} {:>14} {:>22}", "backend", "mean power", "vs ZF");
    let mut zf_power = None;
    for kind in &kinds {
        let mut session = kind.compile(&input).expect("well-conditioned draw");
        let mean: f64 = symbols
            .iter()
            .enumerate()
            .map(|(k, u)| session.precode(u, k as u64).expect("precodes").power)
            .sum::<f64>()
            / symbols.len() as f64;
        let vs = match zf_power {
            None => {
                zf_power = Some(mean);
                "1.000x (baseline)".to_string()
            }
            Some(zf) => format!("{:.3}x", mean / zf),
        };
        println!("{:<10} {:>14.3} {:>22}", kind.name(), mean, vs);
    }

    println!(
        "\nEvery backend sends a vector the receivers fold mod τ = {} back\n\
         to the constellation; only the transmit power differs. The\n\
         annealed search never does worse than ZF (v = 0 is always a\n\
         candidate), and on ill-conditioned intervals the integer\n\
         perturbation collapses the inversion blow-up — the downlink\n\
         counterpart of Fig. 10's detection gains, riding the same\n\
         compile-once session, batch, and reverse-anneal machinery.",
        tau_for(modulation),
    );
}
