//! C-RAN topology: access points, fronthaul, radio deadlines.

use crate::qpu::JobDirection;
use quamax_wireless::Modulation;

/// Physical-layer feedback deadlines by radio technology (§1):
/// the receiver must finish decoding before the sender expects its
/// ACK / incremental-redundancy feedback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deadline {
    /// Wi-Fi: data-to-ACK spacing, tens of µs.
    WifiAck,
    /// 4G LTE HARQ: 3 ms.
    Lte,
    /// WCDMA: 10 ms.
    Wcdma,
}

impl Deadline {
    /// The budget in microseconds.
    pub fn budget_us(self) -> f64 {
        match self {
            // SIFS-scale: the paper says "on the order of tens of µs".
            Deadline::WifiAck => 30.0,
            Deadline::Lte => 3_000.0,
            Deadline::Wcdma => 10_000.0,
        }
    }
}

/// One access point's frame stream in one direction: uplink frames
/// need detection, downlink frames need precoding. A full-duplex cell
/// is modeled as two `AccessPoint`s sharing an `id` with opposite
/// `direction`s.
#[derive(Clone, Debug)]
pub struct AccessPoint {
    /// Identifier (unique per cell within a simulation; an uplink and
    /// a downlink stream of the same cell share it).
    pub id: usize,
    /// Concurrent single-antenna users (= AP antennas, `Nr = Nt`).
    pub users: usize,
    /// Modulation in use.
    pub modulation: Modulation,
    /// Uplink detection (the default) or downlink precoding.
    pub direction: JobDirection,
    /// OFDM subcarriers per frame — each needs its own ML decode (§3.2)
    /// or VPP precode.
    pub subcarriers: usize,
    /// Frame inter-arrival time at this AP, µs.
    pub frame_interval_us: f64,
    /// The radio technology's processing deadline.
    pub deadline: Deadline,
}

impl AccessPoint {
    /// Logical Ising variables per subcarrier problem.
    ///
    /// Uplink detection reduces to `Nt·log₂|O|` variables. Downlink
    /// is priced at `4·Nu`: the unreduced `t = 1` two's-complement
    /// search (1 magnitude bit + 1 sign bit per real perturbation
    /// dimension). The precoder now anneals a lattice-reduced box of
    /// `2·Nu` variables; the price is kept so that no recorded
    /// simulation moves (see ROADMAP, "Price from measurement").
    pub fn logical_vars(&self) -> usize {
        match self.direction {
            JobDirection::Uplink => self.users * self.modulation.bits_per_symbol(),
            JobDirection::Downlink => 4 * self.users,
        }
    }

    /// Problems per frame (one per subcarrier), either direction.
    pub fn problems_per_frame(&self) -> usize {
        self.subcarriers
    }
}

/// Fronthaul link model: AP ↔ data-center latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FronthaulConfig {
    /// One-way latency, µs. The paper argues this is small over fiber
    /// or mm-wave at metro scale (§7); 5 µs ≈ 1 km of fiber.
    pub one_way_latency_us: f64,
}

impl Default for FronthaulConfig {
    fn default() -> Self {
        FronthaulConfig {
            one_way_latency_us: 5.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlines_match_paper() {
        assert!(Deadline::WifiAck.budget_us() < 100.0);
        assert_eq!(Deadline::Lte.budget_us(), 3_000.0);
        assert_eq!(Deadline::Wcdma.budget_us(), 10_000.0);
    }

    #[test]
    fn ap_arithmetic() {
        let ap = AccessPoint {
            id: 0,
            users: 14,
            modulation: Modulation::Qpsk,
            direction: JobDirection::Uplink,
            subcarriers: 50,
            frame_interval_us: 1_000.0,
            deadline: Deadline::Lte,
        };
        assert_eq!(ap.logical_vars(), 28);
        assert_eq!(ap.problems_per_frame(), 50);
        // The downlink twin precodes 2·14 real dims × 2 bits each.
        let down = AccessPoint {
            direction: JobDirection::Downlink,
            ..ap
        };
        assert_eq!(down.logical_vars(), 56);
        assert_eq!(down.problems_per_frame(), 50);
    }

    #[test]
    fn default_fronthaul_is_metro_scale() {
        assert!(FronthaulConfig::default().one_way_latency_us <= 10.0);
    }
}
