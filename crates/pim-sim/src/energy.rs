//! Energy and cost-efficiency models.
//!
//! The paper compares architectures by QPS per watt (Figure 12b) and QPS per
//! dollar (§5.2), both computed from the peak-power / list-price figures in
//! Table 1. This module provides that arithmetic for any device; the CPU and
//! GPU rows of Table 1 are `baselines::hardware::HardwareSpec::{cpu, gpu}`,
//! whose `energy_model()` is the model of those platforms.

use crate::config::PimConfig;

/// Peak-power + price description of a device, sufficient for the paper's
/// efficiency comparisons.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Human-readable device name.
    pub name: String,
    /// Peak power draw in watts.
    pub peak_watts: f64,
    /// Approximate list price in USD.
    pub price_usd: f64,
}

impl EnergyModel {
    /// Creates an energy model from explicit numbers.
    pub fn new(name: impl Into<String>, peak_watts: f64, price_usd: f64) -> Self {
        assert!(peak_watts > 0.0, "peak power must be positive");
        Self {
            name: name.into(),
            peak_watts,
            price_usd,
        }
    }

    /// Model for a PIM deployment (power and price scale with DIMM count).
    pub fn pim(config: &PimConfig) -> Self {
        Self::new(
            format!("UPMEM PIM x{} DPUs", config.num_dpus),
            config.peak_watts(),
            config.price_usd(),
        )
    }

    /// Energy consumed over `seconds` of runtime under the peak-power
    /// approximation, in joules.
    pub fn energy_joules(&self, seconds: f64) -> f64 {
        self.peak_watts * seconds
    }

    /// Queries per second per watt given an achieved QPS.
    pub fn qps_per_watt(&self, qps: f64) -> f64 {
        qps / self.peak_watts
    }

    /// Queries per second per dollar of hardware given an achieved QPS.
    pub fn qps_per_dollar(&self, qps: f64) -> f64 {
        if self.price_usd <= 0.0 {
            0.0
        } else {
            qps / self.price_usd
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_math() {
        let gpu = EnergyModel::new("gpu", 300.0, 20_000.0);
        assert!((gpu.energy_joules(2.0) - 600.0).abs() < 1e-9);
        assert!((gpu.qps_per_watt(3000.0) - 10.0).abs() < 1e-9);
        assert!((gpu.qps_per_dollar(20_000.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "peak power")]
    fn zero_power_is_rejected() {
        let _ = EnergyModel::new("bogus", 0.0, 1.0);
    }
}
