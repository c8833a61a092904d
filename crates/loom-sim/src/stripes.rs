//! The Stripes comparator (§4, \[7\] and \[5\] in the paper) and its dynamic
//! variant.
//!
//! Stripes processes *activations* bit-serially while keeping weights
//! bit-parallel, so its convolutional-layer execution time scales with the
//! per-layer activation precision (`16 / Pa` ideal speedup) but it gains
//! nothing on fully-connected layers. Dynamic Stripes (DStripes) is the same
//! tile with runtime per-group activation precision detection switched on,
//! exactly like Loom's: [`conv_cycles_dynamic`] prices it with the layer's
//! detected group precisions, and static Stripes is the
//! [`GroupPrecisionSource::Nominal`] case of the same formula. The
//! [`crate::accelerator::Stripes`] model picks the source by its detection
//! switch.
//!
//! The tile matches DPNN's peak compute bandwidth: it processes 16 windows
//! concurrently (compensating for bit-serial activations with window
//! parallelism), `k` filters and 16-long weight chunks per step, each step
//! taking `Pa` cycles.
//!
//! These are the *analytic* cycle models; the value-computing counterpart
//! ([`crate::datapath::FunctionalStripes`], built by `new` or `dynamic`)
//! executes the same schedule on real tensors, bit-exact against the golden
//! reference, and reports cycle counts that equal these formulas by
//! construction.

use crate::config::DpnnGeometry;
use loom_model::layer::{ConvSpec, FcSpec};
use loom_model::Precision;
use loom_precision::trace::GroupPrecisionSource;

/// Number of windows a Stripes tile processes concurrently.
pub const STRIPES_WINDOW_PARALLELISM: u64 = 16;

/// Compute cycles Stripes spends on a convolutional layer with per-layer
/// (static) activation precision `pa`.
pub fn conv_cycles_static(geometry: &DpnnGeometry, spec: &ConvSpec, pa: Precision) -> u64 {
    conv_cycles_dynamic(geometry, spec, pa, &GroupPrecisionSource::Nominal)
}

/// Compute cycles with a runtime per-group activation precision source
/// (DStripes). Each step processes one group of `16 windows × 16 activations`,
/// and its cost is that group's detected precision.
pub fn conv_cycles_dynamic(
    geometry: &DpnnGeometry,
    spec: &ConvSpec,
    pa: Precision,
    dynamic: &GroupPrecisionSource,
) -> u64 {
    let window_groups = (spec.windows() as u64).div_ceil(STRIPES_WINDOW_PARALLELISM);
    let filter_groups = (spec.filters as u64).div_ceil(geometry.filters as u64);
    let weight_chunks = (spec.weights_per_filter() as u64).div_ceil(geometry.lanes as u64);
    let mut cycles = 0.0f64;
    let mut group_index = 0usize;
    for _w in 0..window_groups {
        for _c in 0..weight_chunks {
            let eff = dynamic.effective_bits(pa, group_index);
            group_index += 1;
            cycles += eff * filter_groups as f64;
        }
    }
    cycles.ceil() as u64
}

/// Compute cycles Stripes/DStripes spend on a fully-connected layer: identical
/// to the bit-parallel baseline, because without weight reuse there is no time
/// to feed activations bit-serially without losing throughput (Table 2 shows
/// Stripes FCL performance of 1.00× and efficiency of 0.88×).
pub fn fc_cycles(geometry: &DpnnGeometry, spec: &FcSpec) -> u64 {
    crate::dpnn::fc_cycles(geometry, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquivalentConfig;
    use crate::dpnn;

    fn geo() -> DpnnGeometry {
        EquivalentConfig::BASELINE_128.dpnn()
    }

    fn square_conv(pa_independent: bool) -> ConvSpec {
        let _ = pa_independent;
        ConvSpec {
            in_channels: 64,
            in_height: 18,
            in_width: 18,
            filters: 128,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        }
    }

    #[test]
    fn sixteen_bit_activations_match_dpnn() {
        let spec = square_conv(true);
        let stripes = conv_cycles_static(&geo(), &spec, Precision::FULL);
        let baseline = dpnn::conv_cycles(&geo(), &spec);
        // Equality up to the rounding of windows into groups of 16.
        let ratio = stripes as f64 / baseline as f64;
        assert!((0.99..=1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn speedup_tracks_activation_precision() {
        let spec = square_conv(true);
        let baseline = conv_cycles_static(&geo(), &spec, Precision::FULL);
        let at8 = conv_cycles_static(&geo(), &spec, Precision::new(8).unwrap());
        let speedup = baseline as f64 / at8 as f64;
        assert!((1.9..=2.1).contains(&speedup), "got {speedup}");
    }

    #[test]
    fn dynamic_reduction_improves_on_static() {
        let spec = square_conv(true);
        let pa = Precision::new(10).unwrap();
        let static_cycles = conv_cycles_static(&geo(), &spec, pa);
        let dynamic_cycles = conv_cycles_dynamic(
            &geo(),
            &spec,
            pa,
            &GroupPrecisionSource::Scaled { fraction: 0.8 },
        );
        assert!(dynamic_cycles < static_cycles);
        assert!(dynamic_cycles as f64 >= static_cycles as f64 * 0.75);
    }

    #[test]
    fn fc_gets_no_benefit() {
        let spec = FcSpec::new(4096, 4096);
        assert_eq!(fc_cycles(&geo(), &spec), dpnn::fc_cycles(&geo(), &spec));
    }

    #[test]
    fn explicit_group_precisions_are_respected() {
        let spec = ConvSpec {
            in_channels: 16,
            in_height: 8,
            in_width: 8,
            filters: 8,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            padding: 0,
            groups: 1,
        };
        // 64 windows -> 4 window groups, 1 chunk, 1 filter group.
        let groups = GroupPrecisionSource::Explicit(vec![
            Precision::new(2).unwrap(),
            Precision::new(4).unwrap(),
            Precision::new(6).unwrap(),
            Precision::new(8).unwrap(),
        ]);
        let cycles = conv_cycles_dynamic(&geo(), &spec, Precision::new(8).unwrap(), &groups);
        assert_eq!(cycles, 2 + 4 + 6 + 8);
    }
}
