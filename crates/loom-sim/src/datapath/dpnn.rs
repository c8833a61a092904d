//! Functional DPNN datapath: the fixed-precision bit-parallel baseline.
//!
//! DPNN (the DaDianNao-style tile of §3.1) multiplies 16-bit operands in
//! parallel: each cycle broadcasts one 16-long activation chunk to `k`
//! inner-product units, one filter each. Precision never changes its
//! schedule, so its cycle count is exactly the analytic
//! [`crate::dpnn::conv_cycles`] / [`crate::dpnn::fc_cycles`] tile-loop count
//! — the functional path iterates the very same tiles and accumulates wide
//! (i64), making it bit-exact against the golden model by construction. It is
//! still worth running differentially: it anchors the conformance harness's
//! cross-backend agreement (every serial datapath must land on the same
//! numbers the parallel one does).

use crate::config::DpnnGeometry;
use crate::datapath::FunctionalDatapath;
use crate::dpnn;
use crate::loom::functional::FunctionalRun;
use loom_model::im2col::window_patch_into;
use loom_model::layer::{ConvSpec, FcSpec};
use loom_model::tensor::{Tensor3, Tensor4};

/// The functional DPNN datapath: bit-parallel 16-lane chunks, `k` filters per
/// cycle, precision-independent scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalDpnn {
    geometry: DpnnGeometry,
}

impl FunctionalDpnn {
    /// Creates a DPNN datapath over the bit-parallel tile geometry.
    pub fn new(geometry: DpnnGeometry) -> Self {
        FunctionalDpnn { geometry }
    }

    /// Runs a convolutional layer: per window, each filter's weights stream
    /// through 16-lane chunks against the window's im2col patch.
    pub fn run_conv(&self, spec: &ConvSpec, input: &Tensor3, weights: &Tensor4) -> FunctionalRun {
        assert_eq!(input.shape(), spec.input_shape(), "input shape mismatch");
        assert_eq!(
            weights.shape(),
            spec.weight_shape(),
            "weight shape mismatch"
        );
        let windows = spec.windows();
        let out_w = spec.out_width();
        let wpf = spec.weights_per_filter();
        let lanes = self.geometry.lanes;
        let chunks = wpf.div_ceil(lanes);
        let group_in = spec.in_channels / spec.groups;
        let group_out = spec.filters / spec.groups;

        let mut outputs = vec![0i64; spec.filters * windows];
        let mut patch = Vec::new();
        for w in 0..windows {
            let (oy, ox) = (w / out_w, w % out_w);
            for g in 0..spec.groups {
                patch.clear();
                window_patch_into(spec, input, oy, ox, g * group_in, group_in, &mut patch);
                for k in g * group_out..(g + 1) * group_out {
                    let filter = weights.filter(k);
                    let mut acc = 0i64;
                    for chunk in 0..chunks {
                        let base = chunk * lanes;
                        let count = lanes.min(wpf - base);
                        acc += chunk_dot(&filter[base..base + count], &patch[base..base + count]);
                    }
                    outputs[k * windows + w] = acc;
                }
            }
        }
        FunctionalRun {
            outputs,
            cycles: dpnn::conv_cycles(&self.geometry, spec),
            reduced_groups: 0,
        }
    }

    /// Runs a fully-connected layer through the same bit-parallel tiles.
    pub fn run_fc(&self, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun {
        fc_bit_parallel(&self.geometry, spec, input, weights)
    }
}

impl FunctionalDatapath for FunctionalDpnn {
    fn conv(&self, _: &str, spec: &ConvSpec, input: &Tensor3, weights: &Tensor4) -> FunctionalRun {
        self.run_conv(spec, input, weights)
    }

    fn fc(&self, _: &str, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun {
        self.run_fc(spec, input, weights)
    }
}

/// The shared bit-parallel fully-connected path: every comparator (DPNN,
/// Stripes, DStripes) runs FCLs this way, because without weight reuse the
/// serial datapaths gain nothing and fall back to the baseline schedule.
pub(crate) fn fc_bit_parallel(
    geometry: &DpnnGeometry,
    spec: &FcSpec,
    input: &[i32],
    weights: &[i32],
) -> FunctionalRun {
    assert_eq!(input.len(), spec.in_features, "input length mismatch");
    assert_eq!(
        weights.len(),
        spec.in_features * spec.out_features,
        "weight length mismatch"
    );
    let lanes = geometry.lanes;
    let chunks = spec.in_features.div_ceil(lanes);
    let outputs = (0..spec.out_features)
        .map(|k| {
            let row = &weights[k * spec.in_features..(k + 1) * spec.in_features];
            let mut acc = 0i64;
            for chunk in 0..chunks {
                let base = chunk * lanes;
                let count = lanes.min(spec.in_features - base);
                acc += chunk_dot(&row[base..base + count], &input[base..base + count]);
            }
            acc
        })
        .collect();
    FunctionalRun {
        outputs,
        cycles: dpnn::fc_cycles(geometry, spec),
        reduced_groups: 0,
    }
}

/// One cycle's worth of MACs: a 16-lane bit-parallel multiply feeding the
/// wide adder tree.
fn chunk_dot(weights: &[i32], activations: &[i32]) -> i64 {
    weights
        .iter()
        .zip(activations.iter())
        .map(|(&w, &a)| i64::from(w) * i64::from(a))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquivalentConfig;
    use loom_model::reference::{conv_forward, fc_forward};
    use loom_model::synthetic::{synthetic_activations, synthetic_weights, ValueDistribution};
    use loom_model::Precision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geo() -> DpnnGeometry {
        EquivalentConfig::BASELINE_128.dpnn()
    }

    #[test]
    fn conv_matches_golden_with_grouped_filters_and_ragged_chunks() {
        // 2 groups and a weights-per-filter count that is not a multiple of
        // 16, so the last chunk is ragged.
        let spec = ConvSpec {
            groups: 2,
            padding: 1,
            ..ConvSpec::simple(6, 7, 7, 4, 3)
        };
        let mut rng = StdRng::seed_from_u64(9);
        let input = Tensor3::from_vec(
            spec.input_shape(),
            synthetic_activations(
                &mut rng,
                spec.input_shape().len(),
                Precision::new(8).unwrap(),
                ValueDistribution::activations(),
            ),
        )
        .unwrap();
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
        let run = FunctionalDpnn::new(geo()).run_conv(&spec, &input, &weights);
        assert_eq!(run.outputs, conv_forward(&spec, &input, &weights));
        assert_eq!(run.cycles, dpnn::conv_cycles(&geo(), &spec));
        assert_eq!(run.reduced_groups, 0);
    }

    #[test]
    fn fc_matches_golden() {
        let spec = FcSpec::new(37, 5);
        let mut rng = StdRng::seed_from_u64(4);
        let input = synthetic_activations(
            &mut rng,
            spec.in_features,
            Precision::new(9).unwrap(),
            ValueDistribution::activations(),
        );
        let weights = synthetic_weights(
            &mut rng,
            spec.in_features * spec.out_features,
            Precision::new(9).unwrap(),
            ValueDistribution::weights(),
        );
        let run = FunctionalDpnn::new(geo()).run_fc(&spec, &input, &weights);
        assert_eq!(run.outputs, fc_forward(&spec, &input, &weights));
        assert_eq!(run.cycles, dpnn::fc_cycles(&geo(), &spec));
    }
}
