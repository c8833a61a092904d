//! Functional Dynamic Stripes datapath: Stripes plus runtime per-group
//! activation precision detection.
//!
//! DStripes shares the Stripes tile but watches the activations it is about
//! to feed: before each (window group × weight chunk) step, an OR tree over
//! the 16 windows × 16 lanes activation block measures how many bits the
//! block actually needs, and the serial feed stops there. The functional
//! engine (`conv_serial_activations`, shared with the Stripes backend)
//! performs exactly that measurement, truncates its operands to the detected
//! width (a no-op when detection is correct — and a loud conformance failure
//! when it is not), and reports the measured per-group precisions so tests
//! can replay them through the analytic
//! [`crate::stripes::conv_cycles_dynamic`] and demand exact cycle agreement.

use crate::config::DpnnGeometry;
use crate::datapath::dpnn::fc_bit_parallel;
use crate::datapath::stripes::{conv_serial_activations, StripesConvRun};
use crate::datapath::FunctionalDatapath;
use crate::loom::functional::FunctionalRun;
use loom_model::layer::{ConvSpec, FcSpec};
use loom_model::tensor::{Tensor3, Tensor4};

/// The functional Dynamic Stripes datapath: activation-serial convolutions
/// with runtime per-group precision detection, bit-parallel FCLs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalDStripes {
    geometry: DpnnGeometry,
}

impl FunctionalDStripes {
    /// Creates a DStripes datapath over the bit-parallel tile geometry.
    pub fn new(geometry: DpnnGeometry) -> Self {
        FunctionalDStripes { geometry }
    }

    /// Runs a convolutional layer with runtime per-group activation
    /// precision detection. The returned
    /// [`StripesConvRun::group_precisions`] are the widths the detector
    /// measured, in the analytic model's group order.
    pub fn run_conv(&self, spec: &ConvSpec, input: &Tensor3, weights: &Tensor4) -> StripesConvRun {
        conv_serial_activations(&self.geometry, spec, input, weights, true)
    }

    /// Runs a fully-connected layer, bit-parallel like DPNN (detection buys
    /// nothing without weight reuse).
    pub fn run_fc(&self, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun {
        fc_bit_parallel(&self.geometry, spec, input, weights)
    }
}

impl FunctionalDatapath for FunctionalDStripes {
    fn conv(&self, _: &str, spec: &ConvSpec, input: &Tensor3, weights: &Tensor4) -> FunctionalRun {
        self.run_conv(spec, input, weights).run
    }

    fn fc(&self, _: &str, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun {
        self.run_fc(spec, input, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquivalentConfig;
    use crate::stripes;
    use loom_model::fixed::required_precision;
    use loom_model::reference::conv_forward;
    use loom_model::synthetic::{synthetic_weights, ValueDistribution};
    use loom_model::Precision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geo() -> DpnnGeometry {
        EquivalentConfig::BASELINE_128.dpnn()
    }

    #[test]
    fn detection_reduces_cycles_and_replays_through_the_analytic_model() {
        // A 1×1 conv whose activations are tiny everywhere except one planted
        // 8-magnitude-bit value: the layer precision is 9 bits but nearly
        // every 16-window × 16-lane group detects far fewer.
        let spec = ConvSpec::simple(16, 12, 12, 8, 1);
        let mut rng = StdRng::seed_from_u64(42);
        let mut values: Vec<i32> = (0..spec.input_shape().len() as i32)
            .map(|i| i % 4)
            .collect();
        values[0] = 255;
        let input = Tensor3::from_vec(spec.input_shape(), values).unwrap();
        let weights = Tensor4::from_vec(
            spec.weight_shape(),
            synthetic_weights(
                &mut rng,
                spec.weight_shape().len(),
                Precision::new(8).unwrap(),
                ValueDistribution::weights(),
            ),
        )
        .unwrap();

        let run = FunctionalDStripes::new(geo()).run_conv(&spec, &input, &weights);
        // Bit-exact despite truncating to detected widths.
        assert_eq!(run.run.outputs, conv_forward(&spec, &input, &weights));
        // Synthetic sparse data must trigger reduction below static Stripes.
        let pa = required_precision(input.as_slice());
        let static_cycles = stripes::conv_cycles_static(&geo(), &spec, pa);
        assert!(run.run.cycles < static_cycles);
        assert!(run.run.reduced_groups > 0);
        // The measured group precisions replayed through the analytic model
        // reproduce the functional cycle count exactly.
        let replayed = stripes::conv_cycles_dynamic(&geo(), &spec, pa, &run.explicit_source());
        assert_eq!(run.run.cycles, replayed);
        assert_eq!(run.nominal_activation, pa);
    }
}
