//! Hardware specifications of the three evaluated platforms (Table 1).
//!
//! The CPU and GPU rows take their bandwidth (and the GPU its capacity) from
//! the roofline constants the engines are timed with, so each Table 1 number
//! is written down once.

use crate::{cpu, gpu};
use pim_sim::config::PimConfig;
use pim_sim::energy::EnergyModel;

/// One row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareSpec {
    /// Platform name ("CPU", "GPU", "PIM").
    pub name: &'static str,
    /// Hardware description string.
    pub description: String,
    /// Approximate price in USD.
    pub price_usd: f64,
    /// Memory capacity in bytes.
    pub memory_bytes: u64,
    /// Peak power in watts.
    pub peak_watts: f64,
    /// Memory bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
}

impl HardwareSpec {
    /// The paper's CPU platform: 2× Intel Xeon Silver 4110 with 4× DDR4.
    pub(crate) fn cpu() -> Self {
        Self {
            name: "CPU",
            description: "2x Intel Xeon Silver 4110 @ 2.10GHz, 4x DDR4 DRAM".to_string(),
            price_usd: 1_400.0,
            memory_bytes: 128 * 1024 * 1024 * 1024,
            peak_watts: 190.0,
            bandwidth_bytes_per_s: cpu::DRAM_BANDWIDTH,
        }
    }

    /// The paper's GPU platform: NVIDIA A100 PCIe 80 GB.
    pub fn gpu() -> Self {
        Self {
            name: "GPU",
            description: "NVIDIA A100 PCI-e 80GB".to_string(),
            price_usd: 20_000.0,
            memory_bytes: gpu::MEMORY_BYTES,
            peak_watts: 300.0,
            bandwidth_bytes_per_s: gpu::HBM_BANDWIDTH,
        }
    }

    /// The paper's PIM platform: 7 UPMEM DIMMs (896 DPUs).
    pub(crate) fn pim() -> Self {
        Self::pim_with_config(&PimConfig::paper_seven_dimms())
    }

    /// A PIM platform with an arbitrary DPU count (for the scalability study).
    pub(crate) fn pim_with_config(config: &PimConfig) -> Self {
        // 612.5 GB/s for 7 DIMMs in Table 1 → 87.5 GB/s per DIMM.
        let per_dimm_bw = 612.5e9 / 7.0;
        Self {
            name: "PIM",
            description: format!(
                "{}x UPMEM PIM DIMM ({} DPUs)",
                config.num_dimms(),
                config.num_dpus
            ),
            price_usd: config.price_usd(),
            memory_bytes: config.total_mram_bytes() as u64,
            peak_watts: config.peak_watts(),
            bandwidth_bytes_per_s: per_dimm_bw * config.num_dimms() as f64,
        }
    }

    /// The corresponding energy model.
    pub fn energy_model(&self) -> EnergyModel {
        EnergyModel::new(self.description.clone(), self.peak_watts, self.price_usd)
    }

    /// Memory capacity in gibibytes.
    pub fn memory_gib(&self) -> f64 {
        self.memory_bytes as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Bandwidth in GB/s (decimal).
    pub fn bandwidth_gb_s(&self) -> f64 {
        self.bandwidth_bytes_per_s / 1e9
    }
}

/// All three Table 1 rows in paper order (CPU, GPU, PIM).
pub fn hardware_table() -> Vec<HardwareSpec> {
    vec![
        HardwareSpec::cpu(),
        HardwareSpec::gpu(),
        HardwareSpec::pim(),
    ]
}

/// Renders the hardware table as markdown (used by the `figures tab1`
/// harness target).
pub fn hardware_table_markdown() -> String {
    let mut out = String::from(
        "| Hardware | Specification | Approx. Price | Memory capacity | Peak Power | Bandwidth |\n|---|---|---|---|---|---|\n",
    );
    for spec in hardware_table() {
        out.push_str(&format!(
            "| {} | {} | {:.0} USD | {:.0} GB | {:.0} W | {:.1} GB/s |\n",
            spec.name,
            spec.description,
            spec.price_usd,
            spec.memory_gib(),
            spec.peak_watts,
            spec.bandwidth_gb_s(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::energy::EnergyModel;

    #[test]
    fn table1_values_match_paper() {
        let cpu = HardwareSpec::cpu();
        let gpu = HardwareSpec::gpu();
        let pim = HardwareSpec::pim();

        assert_eq!(cpu.price_usd, 1_400.0);
        assert_eq!(cpu.peak_watts, 190.0);
        assert!((cpu.bandwidth_gb_s() - 85.3).abs() < 0.1);
        assert!((cpu.memory_gib() - 128.0).abs() < 0.1);

        assert_eq!(gpu.price_usd, 20_000.0);
        assert_eq!(gpu.peak_watts, 300.0);
        assert!((gpu.bandwidth_gb_s() - 1935.0).abs() < 1.0);
        assert!((gpu.memory_gib() - 80.0).abs() < 0.1);

        assert!(pim.price_usd <= 2_800.0);
        assert!((pim.peak_watts - 162.5).abs() < 1.0);
        assert!((pim.bandwidth_gb_s() - 612.5).abs() < 1.0);
        assert!((pim.memory_gib() - 56.0).abs() < 0.1);
    }

    #[test]
    fn paper_devices_match_table1() {
        // The energy models of the three platforms carry Table 1's power
        // and price; the PIM engines' own model is the PIM row's.
        let cpu = HardwareSpec::cpu().energy_model();
        let gpu = HardwareSpec::gpu().energy_model();
        let pim = EnergyModel::pim(&PimConfig::paper_seven_dimms());
        assert_eq!(cpu.peak_watts, 190.0);
        assert_eq!(gpu.peak_watts, 300.0);
        assert!((pim.peak_watts - 162.5).abs() < 1.0);
        assert!(pim.price_usd <= 2_800.0);
        assert!(gpu.price_usd > 7.0 * pim.price_usd.max(1.0) / 2.0);
        let pim_row = HardwareSpec::pim().energy_model();
        assert_eq!(pim.peak_watts, pim_row.peak_watts);
        assert_eq!(pim.price_usd, pim_row.price_usd);
    }

    #[test]
    fn same_qps_pim_wins_efficiency() {
        // At equal QPS, the 7-DIMM PIM system should beat the A100 on both
        // QPS/W and QPS/$ — the premise of the paper's efficiency claims.
        let pim = HardwareSpec::pim().energy_model();
        let gpu = HardwareSpec::gpu().energy_model();
        let qps = 1_000.0;
        assert!(pim.qps_per_watt(qps) > gpu.qps_per_watt(qps));
        assert!(pim.qps_per_dollar(qps) > gpu.qps_per_dollar(qps));
    }

    #[test]
    fn scaled_pim_has_proportional_bandwidth() {
        let twenty = HardwareSpec::pim_with_config(&PimConfig::with_dpus(2560));
        assert!((twenty.bandwidth_gb_s() - 20.0 * 612.5 / 7.0).abs() < 1.0);
        assert!(twenty.peak_watts > 400.0);
    }

    #[test]
    fn markdown_table_mentions_all_rows() {
        let md = hardware_table_markdown();
        assert!(md.contains("| CPU |"));
        assert!(md.contains("| GPU |"));
        assert!(md.contains("| PIM |"));
        assert!(md.contains("A100"));
        assert_eq!(hardware_table().len(), 3);
    }

    #[test]
    fn energy_models_are_consistent() {
        for spec in hardware_table() {
            let em = spec.energy_model();
            assert_eq!(em.peak_watts, spec.peak_watts);
            assert_eq!(em.price_usd, spec.price_usd);
        }
    }
}
