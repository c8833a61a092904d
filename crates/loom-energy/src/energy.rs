//! Energy model: activity-driven energy of a simulated network execution.
//!
//! The energy of one layer has three parts:
//!
//! 1. **datapath + front end** — the engine's switching power integrated over
//!    the layer's compute cycles (power is data-activity driven in the paper;
//!    here the per-engine average activity is folded into the calibrated power
//!    constants),
//! 2. **on-chip memory** — every bit read from / written to the eDRAM AM/WM
//!    and moved through the ABin/ABout buffers, and
//! 3. **off-chip memory** — every bit that crosses the LPDDR4 interface.
//!
//! Because Loom stores data packed at the profile precisions, parts 2 and 3
//! shrink with precision in addition to part 1 shrinking with cycle count.

use crate::area::variant_index;
use crate::constants::*;
use loom_sim::counts::NetworkSim;
use loom_sim::engine::AcceleratorKind;
use loom_sim::EquivalentConfig;

/// Energy breakdown of a network execution, in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Datapath plus front-end energy.
    pub compute_nj: f64,
    /// On-chip memory (eDRAM + SRAM buffer) energy.
    pub onchip_memory_nj: f64,
    /// Off-chip DRAM transfer energy.
    pub offchip_memory_nj: f64,
}

impl EnergyBreakdown {
    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.compute_nj + self.onchip_memory_nj + self.offchip_memory_nj
    }
}

/// The energy model for one design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    config: EquivalentConfig,
}

impl EnergyModel {
    /// Creates a model for the given design point.
    pub fn new(config: EquivalentConfig) -> Self {
        EnergyModel { config }
    }

    /// The paper's headline 128-MAC configuration.
    pub fn baseline_128() -> Self {
        EnergyModel {
            config: EquivalentConfig::BASELINE_128,
        }
    }

    /// Average power (mW) the engine draws while computing.
    pub fn engine_power_mw(&self, kind: AcceleratorKind) -> f64 {
        let scale = self.config.macs_per_cycle() as f64 / 128.0;
        let datapath = match kind {
            AcceleratorKind::Dpnn => DPNN_COMPUTE_POWER_MW,
            AcceleratorKind::Stripes | AcceleratorKind::DStripes => {
                DPNN_COMPUTE_POWER_MW * STRIPES_COMPUTE_POWER_FACTOR
            }
            AcceleratorKind::Loom(v) => {
                DPNN_COMPUTE_POWER_MW * LOOM_COMPUTE_POWER_FACTOR[variant_index(v)]
            }
        };
        datapath * scale + FRONTEND_POWER_MW
    }

    /// Energy of a simulated network execution. `offchip_bits` is the number of
    /// bits that crossed the off-chip interface (from the memory hierarchy
    /// model); pass the total weight traffic if no explicit hierarchy is being
    /// modelled (the §4.3 setting where weights stream from off chip).
    pub fn network_energy(
        &self,
        kind: AcceleratorKind,
        sim: &NetworkSim,
        offchip_bits: u64,
    ) -> EnergyBreakdown {
        let cycles = sim.total_cycles() as f64;
        // mW × cycles at 1 GHz = mW × ns = pJ; convert to nJ.
        let compute_nj = self.engine_power_mw(kind) * cycles / 1000.0;
        let traffic = sim.total_traffic();
        let onchip_bits = traffic.total_bits() as f64;
        let onchip_memory_nj =
            onchip_bits * (EDRAM_ENERGY_PJ_PER_BIT + SRAM_ENERGY_PJ_PER_BIT) / 1000.0;
        let offchip_memory_nj = offchip_bits as f64 * DRAM_ENERGY_PJ_PER_BIT / 1000.0;
        EnergyBreakdown {
            compute_nj,
            onchip_memory_nj,
            offchip_memory_nj,
        }
    }

    /// Energy efficiency of `candidate` relative to `baseline` (total baseline
    /// energy divided by total candidate energy, > 1 means the candidate is
    /// more efficient).
    pub fn efficiency(
        &self,
        baseline_kind: AcceleratorKind,
        baseline: &NetworkSim,
        baseline_offchip_bits: u64,
        candidate_kind: AcceleratorKind,
        candidate: &NetworkSim,
        candidate_offchip_bits: u64,
    ) -> f64 {
        let b = self
            .network_energy(baseline_kind, baseline, baseline_offchip_bits)
            .total_nj();
        let c = self
            .network_energy(candidate_kind, candidate, candidate_offchip_bits)
            .total_nj();
        if c == 0.0 {
            f64::INFINITY
        } else {
            b / c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_model::zoo;
    use loom_precision::{table1, AccuracyTarget};
    use loom_sim::accelerator::build;
    use loom_sim::engine::assignment_from_profile;
    use loom_sim::LoomVariant;

    fn simulate(kind: AcceleratorKind) -> NetworkSim {
        let net = zoo::alexnet();
        let profile = table1::profile("AlexNet", AccuracyTarget::Lossless).unwrap();
        let fraction = loom_precision::trace::dynamic_activation_fraction("AlexNet");
        let assignment = assignment_from_profile(&net, &profile, Some(fraction), None);
        build(kind, EquivalentConfig::BASELINE_128).simulate_network(&net, &assignment)
    }

    #[test]
    fn loom_power_is_higher_but_energy_is_lower() {
        let model = EnergyModel::baseline_128();
        let dpnn_sim = simulate(AcceleratorKind::Dpnn);
        let lm_sim = simulate(AcceleratorKind::Loom(LoomVariant::Lm1b));
        // The 1-bit Loom draws more power than the baseline...
        assert!(
            model.engine_power_mw(AcceleratorKind::Loom(LoomVariant::Lm1b))
                > model.engine_power_mw(AcceleratorKind::Dpnn)
        );
        // ...but finishes so much earlier that it uses less energy.
        let dpnn_e = model
            .network_energy(
                AcceleratorKind::Dpnn,
                &dpnn_sim,
                dpnn_sim.total_traffic().weight_bits,
            )
            .total_nj();
        let lm_e = model
            .network_energy(
                AcceleratorKind::Loom(LoomVariant::Lm1b),
                &lm_sim,
                lm_sim.total_traffic().weight_bits,
            )
            .total_nj();
        assert!(lm_e < dpnn_e);
    }

    #[test]
    fn efficiency_to_speedup_ratio_follows_table2_pattern() {
        // Table 2 pattern (off-chip energy excluded, as in the paper's §4.3
        // setting): LM1b trades some efficiency for speed (eff/perf well below
        // 1) while LM4b's ratio is distinctly higher, approaching or exceeding
        // parity.
        let model = EnergyModel::baseline_128();
        let dpnn_sim = simulate(AcceleratorKind::Dpnn);
        let mut ratios = Vec::new();
        for variant in [LoomVariant::Lm1b, LoomVariant::Lm4b] {
            let kind = AcceleratorKind::Loom(variant);
            let lm_sim = simulate(kind);
            let speedup = lm_sim.speedup_vs(&dpnn_sim);
            let eff = model.efficiency(AcceleratorKind::Dpnn, &dpnn_sim, 0, kind, &lm_sim, 0);
            ratios.push(eff / speedup);
        }
        assert!(
            (0.6..1.0).contains(&ratios[0]),
            "LM1b eff/perf {}",
            ratios[0]
        );
        assert!(
            ratios[1] > ratios[0] + 0.05,
            "LM4b {} vs LM1b {}",
            ratios[1],
            ratios[0]
        );
    }

    #[test]
    fn power_scales_with_configuration_size() {
        let small = EnergyModel::new(EquivalentConfig::new(32).unwrap());
        let large = EnergyModel::new(EquivalentConfig::new(512).unwrap());
        assert!(
            large.engine_power_mw(AcceleratorKind::Dpnn)
                > 4.0 * small.engine_power_mw(AcceleratorKind::Dpnn)
        );
    }

    #[test]
    fn offchip_bits_dominate_when_large() {
        let model = EnergyModel::baseline_128();
        let sim = simulate(AcceleratorKind::Dpnn);
        let without = model.network_energy(AcceleratorKind::Dpnn, &sim, 0);
        let with = model.network_energy(AcceleratorKind::Dpnn, &sim, 10_000_000_000);
        assert!(with.total_nj() > 2.0 * without.total_nj());
        assert_eq!(with.compute_nj, without.compute_nj);
    }
}
