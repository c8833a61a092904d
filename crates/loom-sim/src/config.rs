//! Accelerator configurations and geometries.
//!
//! Every design point is characterised by its *equivalent peak compute
//! bandwidth*: the number of 16b×16b multiply-accumulate operations per cycle
//! an equally-provisioned bit-parallel engine would perform (the x-axis of
//! Figure 5; the headline configuration is 128). From that single number the
//! geometries of the baseline and of Loom follow:
//!
//! * **DPNN** — `N = 16` activation lanes broadcast to `k = macs/16` inner
//!   product units (16 lanes × 8 filters for the "128" configuration).
//! * **Loom** — `macs` filter rows × `16/b` window columns of SIPs, each SIP
//!   multiplying 16 one-bit activations by 16 one-bit weights per cycle, where
//!   `b` is the number of activation bits processed per cycle (1, 2 or 4 for
//!   the LM1b/LM2b/LM4b variants).

use std::fmt;

/// The number of activation bits Loom processes per cycle: the LM1b, LM2b and
/// LM4b variants of §3.2 ("Tuning the Performance, Area and Energy Trade-off").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoomVariant {
    /// One activation bit per cycle: best performance, largest area.
    Lm1b,
    /// Two activation bits per cycle: 8 SIP columns.
    Lm2b,
    /// Four activation bits per cycle: 4 SIP columns, best energy efficiency.
    Lm4b,
}

impl LoomVariant {
    /// Activation bits processed per cycle.
    pub fn bits_per_cycle(self) -> u8 {
        match self {
            LoomVariant::Lm1b => 1,
            LoomVariant::Lm2b => 2,
            LoomVariant::Lm4b => 4,
        }
    }

    /// All variants, in the order the paper's tables list them.
    pub fn all() -> [LoomVariant; 3] {
        [LoomVariant::Lm1b, LoomVariant::Lm2b, LoomVariant::Lm4b]
    }
}

impl fmt::Display for LoomVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoomVariant::Lm1b => write!(f, "Loom 1-bit"),
            LoomVariant::Lm2b => write!(f, "Loom 2-bit"),
            LoomVariant::Lm4b => write!(f, "Loom 4-bit"),
        }
    }
}

/// Error for invalid configuration parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    detail: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.detail)
    }
}

impl std::error::Error for ConfigError {}

/// A design point: equivalent peak compute bandwidth in 16b×16b MACs/cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EquivalentConfig {
    macs_per_cycle: usize,
}

impl EquivalentConfig {
    /// The paper's headline configuration: 128 MAC-equivalents per cycle.
    pub const BASELINE_128: EquivalentConfig = EquivalentConfig {
        macs_per_cycle: 128,
    };

    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error unless `macs_per_cycle` is a multiple of 16 and at
    /// least 16 (DPNN needs whole 16-lane inner-product units).
    pub fn new(macs_per_cycle: usize) -> Result<Self, ConfigError> {
        if macs_per_cycle < 16 || !macs_per_cycle.is_multiple_of(16) {
            return Err(ConfigError {
                detail: format!(
                    "equivalent MACs/cycle must be a positive multiple of 16, got {macs_per_cycle}"
                ),
            });
        }
        Ok(EquivalentConfig { macs_per_cycle })
    }

    /// The design points of the Figure 5 scaling study.
    pub fn scaling_sweep() -> Vec<EquivalentConfig> {
        [32, 64, 128, 256, 512]
            .into_iter()
            .map(|m| EquivalentConfig::new(m).expect("sweep points are valid"))
            .collect()
    }

    /// Equivalent MACs per cycle.
    pub fn macs_per_cycle(&self) -> usize {
        self.macs_per_cycle
    }

    /// The DPNN geometry at this design point.
    pub fn dpnn(&self) -> DpnnGeometry {
        DpnnGeometry {
            lanes: 16,
            filters: self.macs_per_cycle / 16,
        }
    }

    /// The Loom geometry at this design point for a given variant.
    pub fn loom(&self, variant: LoomVariant) -> LoomGeometry {
        LoomGeometry {
            filter_rows: self.macs_per_cycle,
            window_columns: 16 / variant.bits_per_cycle() as usize,
            sip_lanes: 16,
            act_bits_per_cycle: variant.bits_per_cycle(),
        }
    }
}

impl fmt::Display for EquivalentConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.macs_per_cycle)
    }
}

/// Geometry of the bit-parallel baseline tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DpnnGeometry {
    /// Activation lanes broadcast to every inner-product unit (N).
    pub lanes: usize,
    /// Inner-product units, one filter each (k).
    pub filters: usize,
}

impl DpnnGeometry {
    /// Peak MACs per cycle.
    pub fn macs_per_cycle(&self) -> usize {
        self.lanes * self.filters
    }
}

/// Geometry of the Loom SIP grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoomGeometry {
    /// SIP rows; each row processes one filter (CVLs) or one output group
    /// (FCLs) and shares a 16-bit weight bus.
    pub filter_rows: usize,
    /// SIP columns; each column processes one window (CVLs) or one slice of
    /// outputs (FCLs) and shares a 16-bit activation bus.
    pub window_columns: usize,
    /// One-bit multiplications per SIP per cycle (weight registers per SIP).
    pub sip_lanes: usize,
    /// Activation bits processed per cycle (1, 2 or 4).
    pub act_bits_per_cycle: u8,
}

impl LoomGeometry {
    /// Total number of SIPs in the grid.
    pub fn total_sips(&self) -> usize {
        self.filter_rows * self.window_columns
    }

    /// Peak 1-bit products per cycle.
    pub fn bit_products_per_cycle(&self) -> usize {
        self.total_sips() * self.sip_lanes * self.act_bits_per_cycle as usize
    }

    /// Output activations processed concurrently in fully-connected mode (one
    /// per SIP).
    pub fn concurrent_fc_outputs(&self) -> usize {
        self.total_sips()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_config_matches_paper_geometry() {
        let cfg = EquivalentConfig::BASELINE_128;
        let dpnn = cfg.dpnn();
        assert_eq!(dpnn.lanes, 16);
        assert_eq!(dpnn.filters, 8);
        assert_eq!(dpnn.macs_per_cycle(), 128);
        let lm = cfg.loom(LoomVariant::Lm1b);
        assert_eq!(lm.filter_rows, 128);
        assert_eq!(lm.window_columns, 16);
        assert_eq!(lm.total_sips(), 2048);
        // 2048 SIPs × 16 lanes = 32768 1b products/cycle = 128 MACs × 256 bits
        // over 256 cycles: compute bandwidth matches DPNN (§3.2).
        assert_eq!(lm.bit_products_per_cycle(), 128 * 256);
    }

    #[test]
    fn variants_shrink_the_column_count() {
        let cfg = EquivalentConfig::BASELINE_128;
        assert_eq!(cfg.loom(LoomVariant::Lm2b).window_columns, 8);
        assert_eq!(cfg.loom(LoomVariant::Lm4b).window_columns, 4);
        // Peak bit bandwidth is identical across variants.
        for v in LoomVariant::all() {
            assert_eq!(cfg.loom(v).bit_products_per_cycle(), 128 * 256, "{v}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(EquivalentConfig::new(0).is_err());
        assert!(EquivalentConfig::new(8).is_err());
        assert!(EquivalentConfig::new(100).is_err());
        assert!(EquivalentConfig::new(512).is_ok());
    }

    #[test]
    fn scaling_sweep_matches_figure5_x_axis() {
        let sweep: Vec<usize> = EquivalentConfig::scaling_sweep()
            .iter()
            .map(|c| c.macs_per_cycle())
            .collect();
        assert_eq!(sweep, vec![32, 64, 128, 256, 512]);
    }

    #[test]
    fn variant_display_and_bits() {
        assert_eq!(LoomVariant::Lm1b.bits_per_cycle(), 1);
        assert_eq!(LoomVariant::Lm4b.to_string(), "Loom 4-bit");
        assert_eq!(LoomVariant::all().len(), 3);
    }
}
