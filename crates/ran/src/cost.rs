//! The NextG cost/power model: what a decode costs in dollars and
//! joules on each rung of the serving ladder.
//!
//! Follows the feasibility accounting of Kasi, Singh, Vook & Kim,
//! *"A Cost and Power Feasibility Analysis of Quantum Annealing for
//! NextG Cellular Wireless Networks"* (arXiv:2109.01465): a quantum
//! annealer is priced as amortized capital (machine cost over service
//! lifetime) plus wall power (a dilution refrigerator draws its ~25 kW
//! almost independently of duty cycle), a classical server likewise at
//! commodity prices. Dividing the resulting $/µs and W by achieved
//! decode throughput yields the paper's headline metrics — $/decode
//! and W/decode — and inverting utilization yields the
//! annealers-per-datacenter sizing rule.
//!
//! Default parameters ([`CostModel::nextg_baseline`]):
//!
//! | parameter | value | source (arXiv:2109.01465) |
//! |---|---|---|
//! | QA machine capex | $15 M | §III quoted system price |
//! | QA service lifetime | 5 years | §III amortization window |
//! | QA wall power | 25 kW | §IV cryostat + control draw |
//! | CPU server capex | $10 k | §III commodity server |
//! | CPU service lifetime | 5 years | §III amortization window |
//! | CPU wall power | 700 W | §IV loaded server draw |
//! | energy price | $0.12 / kWh | §III industrial tariff |
//!
//! The numbers are model inputs, not measurements — the struct is
//! plain-old-data precisely so sensitivity sweeps can replace any of
//! them. What the scheduler consumes is only the *ratio* structure:
//! QPU microseconds are orders of magnitude more expensive than CPU
//! microseconds today, so a cost-aware policy routes slack-rich
//! batches to the classical floor and spends annealer time on the
//! deadline-tight tail.

use crate::serve::ServeRung;

const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;
const US_PER_HOUR: f64 = 3600.0 * 1e6;

/// What one decode (or one batch) cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DecodeCost {
    /// Dollars: amortized capex + energy.
    pub usd: f64,
    /// Energy, joules (wall power × service time).
    pub joules: f64,
}

impl DecodeCost {
    /// Element-wise sum (accumulating a run's total bill).
    pub fn plus(self, other: DecodeCost) -> DecodeCost {
        DecodeCost {
            usd: self.usd + other.usd,
            joules: self.joules + other.joules,
        }
    }
}

/// The datacenter price book.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Quantum annealer machine cost, $.
    pub qpu_capex_usd: f64,
    /// Annealer amortization window, years.
    pub qpu_lifetime_years: f64,
    /// Annealer wall power (cryostat + control), W — drawn whether or
    /// not the chip is annealing.
    pub qpu_power_w: f64,
    /// Classical server cost, $.
    pub cpu_capex_usd: f64,
    /// Server amortization window, years.
    pub cpu_lifetime_years: f64,
    /// Loaded server wall power, W.
    pub cpu_power_w: f64,
    /// Electricity price, $/kWh.
    pub energy_usd_per_kwh: f64,
}

impl CostModel {
    /// The Kasi et al. baseline (table in the module docs).
    pub fn nextg_baseline() -> Self {
        CostModel {
            qpu_capex_usd: 15_000_000.0,
            qpu_lifetime_years: 5.0,
            qpu_power_w: 25_000.0,
            cpu_capex_usd: 10_000.0,
            cpu_lifetime_years: 5.0,
            cpu_power_w: 700.0,
            energy_usd_per_kwh: 0.12,
        }
    }

    /// Amortized + energy price of one QPU microsecond, $.
    fn qpu_usd_per_us(&self) -> f64 {
        let capex_per_us = self.qpu_capex_usd / (self.qpu_lifetime_years * SECONDS_PER_YEAR * 1e6);
        let energy_per_us = self.qpu_power_w / 1_000.0 * self.energy_usd_per_kwh / US_PER_HOUR;
        capex_per_us + energy_per_us
    }

    /// Amortized + energy price of one CPU-server microsecond, $.
    fn cpu_usd_per_us(&self) -> f64 {
        let capex_per_us = self.cpu_capex_usd / (self.cpu_lifetime_years * SECONDS_PER_YEAR * 1e6);
        let energy_per_us = self.cpu_power_w / 1_000.0 * self.energy_usd_per_kwh / US_PER_HOUR;
        capex_per_us + energy_per_us
    }

    /// Wall power of the rung that served a job, W. The hybrid rung is
    /// classical-first by construction, so it is billed at server
    /// prices — its quantum fallback shows up as [`ServeRung::Qpu`]
    /// service elsewhere in the ledger, never double-billed here.
    fn rung_power_w(&self, rung: ServeRung) -> f64 {
        match rung {
            ServeRung::Qpu => self.qpu_power_w,
            ServeRung::Hybrid | ServeRung::Classical => self.cpu_power_w,
        }
    }

    /// Price of `service_us` of busy time on `rung`.
    pub fn rung_cost(&self, rung: ServeRung, service_us: f64) -> DecodeCost {
        let usd_per_us = match rung {
            ServeRung::Qpu => self.qpu_usd_per_us(),
            ServeRung::Hybrid | ServeRung::Classical => self.cpu_usd_per_us(),
        };
        DecodeCost {
            usd: usd_per_us * service_us,
            joules: self.rung_power_w(rung) * service_us / 1e6,
        }
    }

    /// Annealers a datacenter needs to carry `offered_qpu_us_per_s`
    /// microseconds of annealer busy-time per wall-clock second at
    /// `utilization_target` (0 < target ≤ 1): Kasi et al.'s sizing
    /// rule, `ceil(offered utilization / target)`. Always at least 1 —
    /// a datacenter in this model owns an annealer even when lightly
    /// loaded.
    ///
    /// # Panics
    /// Panics when the target is outside `(0, 1]`.
    pub fn annealers_per_datacenter(
        &self,
        offered_qpu_us_per_s: f64,
        utilization_target: f64,
    ) -> usize {
        assert!(
            utilization_target > 0.0 && utilization_target <= 1.0,
            "utilization target must be in (0, 1]"
        );
        let busy_fraction = offered_qpu_us_per_s / 1e6;
        ((busy_fraction / utilization_target).ceil() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qpu_microseconds_cost_orders_of_magnitude_more_than_cpu() {
        let m = CostModel::nextg_baseline();
        let ratio = m.qpu_usd_per_us() / m.cpu_usd_per_us();
        assert!(
            ratio > 100.0,
            "the whole cost-aware policy rests on this gap: ratio {ratio}"
        );
    }

    #[test]
    fn rung_cost_scales_linearly_and_bills_hybrid_as_classical() {
        let m = CostModel::nextg_baseline();
        let one = m.rung_cost(ServeRung::Qpu, 100.0);
        let two = m.rung_cost(ServeRung::Qpu, 200.0);
        assert!((two.usd - 2.0 * one.usd).abs() < 1e-12);
        assert!((two.joules - 2.0 * one.joules).abs() < 1e-12);
        assert_eq!(
            m.rung_cost(ServeRung::Hybrid, 50.0),
            m.rung_cost(ServeRung::Classical, 50.0)
        );
    }

    #[test]
    fn qpu_energy_matches_hand_calculation() {
        let m = CostModel::nextg_baseline();
        // 25 kW for 1 s of service = 25 kJ.
        let c = m.rung_cost(ServeRung::Qpu, 1e6);
        assert!((c.joules - 25_000.0).abs() < 1e-6);
    }

    #[test]
    fn datacenter_sizing_rounds_up_and_floors_at_one() {
        let m = CostModel::nextg_baseline();
        // 1.5 s of annealer busy time per second at 80% target → 2.
        assert_eq!(m.annealers_per_datacenter(1.5e6, 0.8), 2);
        // A trickle still owns one machine.
        assert_eq!(m.annealers_per_datacenter(10.0, 0.8), 1);
        // Exactly at target: no rounding up.
        assert_eq!(m.annealers_per_datacenter(0.8e6, 0.8), 1);
    }
}
