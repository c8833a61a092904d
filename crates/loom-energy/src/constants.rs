//! Calibration constants of the analytical energy / power / area model.
//!
//! The paper obtains its energy and area numbers from synthesised layouts
//! (Synopsys DC + Cadence Innovus, TSMC 65 nm), CACTI (SRAM buffers) and
//! Destiny (eDRAM). Those tools and libraries are not available here, so this
//! module substitutes an analytical model whose constants are calibrated to the
//! paper's published *relative* results — the post-layout area ratios of §4.4
//! (LM1b 1.34×, LM2b 1.25×, LM4b 1.16× of DPNN) and the efficiency-to-speedup
//! ratios implied by Table 2. All downstream results are computed from activity
//! counts produced by the cycle simulators; only these constants are fitted.
//! See `DESIGN.md` §2 for the substitution rationale.

/// Nominal clock frequency of every design (§4.1): 1 GHz.
pub const CLOCK_HZ: f64 = 1.0e9;

// ------------------------------------------------------------------- area ---

/// Core (datapath + pipeline registers) area of the 128-MAC DPNN tile, mm².
pub const DPNN_CORE_AREA_MM2: f64 = 0.77;

/// Area of the shared front end (ABin/ABout SRAM buffers, dispatch, control)
/// present in every accelerator, mm².
pub const FRONTEND_AREA_MM2: f64 = 0.90;

/// Extra front-end area Loom needs (transposer, per-column dispatchers,
/// precision detectors), mm².
pub const LOOM_FRONTEND_EXTRA_MM2: f64 = 0.10;

/// Area of one 1-bit-per-cycle SIP (16 WRs, 16 AND gates, 16-input 1-bit adder
/// tree, two shift-accumulators, cascade mux, max comparator), mm².
pub const SIP_AREA_MM2: f64 = 0.000603;

/// Relative per-SIP area of the multi-bit variants (a SIP that consumes `b`
/// activation bits per cycle needs `b` adder trees and wider accumulators).
/// Index by `b.trailing_zeros()`: `[1b, 2b, 4b]`. Calibrated so the §4.4 area
/// ratios (1.34×, 1.25×, 1.16×) are reproduced at the 128 configuration.
pub const SIP_VARIANT_AREA_FACTOR: [f64; 3] = [1.0, 1.76, 3.03];

/// eDRAM area per megabyte, mm² (Destiny-style density at 65 nm).
pub const EDRAM_AREA_MM2_PER_MB: f64 = 1.10;

// ----------------------------------------------------------------- power ----

/// Average switching power of the 128-MAC DPNN datapath at full activity, mW.
pub const DPNN_COMPUTE_POWER_MW: f64 = 310.0;

/// Power of the shared front end (buffers, dispatch, control), mW.
pub const FRONTEND_POWER_MW: f64 = 45.0;

/// Loom datapath power relative to the DPNN datapath for the `[1b, 2b, 4b]`
/// variants: the 1-bit design toggles 2048 SIPs plus the dynamic-precision
/// detectors every cycle and draws more power than the bit-parallel datapath;
/// the wider variants amortise registers over fewer SIPs.
pub const LOOM_COMPUTE_POWER_FACTOR: [f64; 3] = [1.30, 1.09, 0.95];

/// Stripes datapath power relative to DPNN (bit-serial activations only).
pub const STRIPES_COMPUTE_POWER_FACTOR: f64 = 1.17;

// ---------------------------------------------------------------- energy ----

/// Energy per bit read from or written to the on-chip eDRAM (AM / WM), pJ.
pub const EDRAM_ENERGY_PJ_PER_BIT: f64 = 0.9;

/// Energy per bit moved through the ABin/ABout SRAM buffers, pJ.
pub const SRAM_ENERGY_PJ_PER_BIT: f64 = 0.12;

/// Energy per bit transferred over the off-chip LPDDR4 interface, pJ ("today
/// [off-chip accesses] require at least two orders of magnitude more energy",
/// §4.5).
pub const DRAM_ENERGY_PJ_PER_BIT: f64 = 15.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offchip_energy_dominates_onchip_by_orders_of_magnitude() {
        const { assert!(DRAM_ENERGY_PJ_PER_BIT / SRAM_ENERGY_PJ_PER_BIT > 100.0) };
        const { assert!(DRAM_ENERGY_PJ_PER_BIT / EDRAM_ENERGY_PJ_PER_BIT > 10.0) };
    }

    #[test]
    fn variant_factors_are_monotone() {
        const { assert!(SIP_VARIANT_AREA_FACTOR[0] < SIP_VARIANT_AREA_FACTOR[1]) };
        const { assert!(SIP_VARIANT_AREA_FACTOR[1] < SIP_VARIANT_AREA_FACTOR[2]) };
        const { assert!(LOOM_COMPUTE_POWER_FACTOR[0] > LOOM_COMPUTE_POWER_FACTOR[1]) };
        const { assert!(LOOM_COMPUTE_POWER_FACTOR[1] > LOOM_COMPUTE_POWER_FACTOR[2]) };
    }
}
