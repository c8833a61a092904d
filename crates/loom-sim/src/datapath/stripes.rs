//! Functional Stripes datapath: bit-serial activations, bit-parallel weights.
//!
//! A Stripes tile compensates for serial activations with window parallelism:
//! every step broadcasts one 16-long weight chunk to
//! [`STRIPES_WINDOW_PARALLELISM`] windows at once and feeds the matching
//! activations one bit per cycle, so a step costs `Pa` cycles (the layer's
//! activation precision). The didactic per-bit recipe lives in
//! [`serial_activation_inner_product`]; the engine's hot path evaluates the
//! same sum as a truncate-then-multiply per lane, which the in-module proptest
//! pins bit-identical to the serial recipe. The truncation is deliberately
//! kept in the hot path: if precision detection ever under-measures a group,
//! the error shows up as a wrong *value* in the differential conformance
//! harness, not just a wrong cycle count.
//!
//! Dynamic Stripes (DStripes) is the same datapath with detection switched on
//! ([`FunctionalStripes::dynamic`]): before each (window group × weight
//! chunk) step, an OR tree over the 16 windows × 16 lanes activation block
//! measures how many bits the block actually needs, and the serial feed stops
//! there. The measured per-group precisions are reported so tests can replay
//! them through the analytic model and demand exact cycle agreement.
//!
//! Cycle accounting walks (window group × weight chunk) steps in exactly the
//! order of the analytic model ([`crate::stripes::conv_cycles_dynamic`]), so
//! the functional count reproduces the analytic one by construction — a
//! property the conformance suite asserts on the zoo.

use crate::config::DpnnGeometry;
use crate::datapath::dpnn::fc_bit_parallel;
use crate::datapath::FunctionalDatapath;
use crate::loom::functional::FunctionalRun;
use crate::stripes::STRIPES_WINDOW_PARALLELISM;
use loom_model::fixed::{bit_of, required_precision, signed_bits, truncate_to_precision};
use loom_model::im2col::window_patch_into;
use loom_model::layer::{ConvSpec, FcSpec};
use loom_model::tensor::{Tensor3, Tensor4};
use loom_model::Precision;
use loom_precision::trace::GroupPrecisionSource;

/// The functional Stripes datapath: activation-serial convolutions,
/// bit-parallel (DPNN-identical) fully-connected layers. Built by
/// [`new`](Self::new) it feeds every step at the layer's *static* activation
/// precision (Stripes); built by [`dynamic`](Self::dynamic) it detects each
/// step's precision at runtime (DStripes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalStripes {
    geometry: DpnnGeometry,
    dynamic: bool,
}

impl FunctionalStripes {
    /// Creates a Stripes datapath over the bit-parallel tile geometry.
    pub fn new(geometry: DpnnGeometry) -> Self {
        FunctionalStripes {
            geometry,
            dynamic: false,
        }
    }

    /// Creates a Dynamic Stripes datapath: Stripes plus runtime per-group
    /// activation precision detection.
    pub fn dynamic(geometry: DpnnGeometry) -> Self {
        FunctionalStripes {
            geometry,
            dynamic: true,
        }
    }

    /// Runs a convolutional layer at the static per-layer activation
    /// precision derived from the input data itself, or, for a dynamic
    /// datapath, at each step's detected precision. The returned
    /// [`StripesConvRun::group_precisions`] are the widths each step fed, in
    /// the analytic model's group order.
    pub fn run_conv(&self, spec: &ConvSpec, input: &Tensor3, weights: &Tensor4) -> StripesConvRun {
        conv_serial_activations(&self.geometry, spec, input, weights, self.dynamic)
    }

    /// Runs a fully-connected layer. Without weight reuse there is no time to
    /// feed activations bit-serially, so FCLs execute exactly like DPNN.
    pub fn run_fc(&self, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun {
        fc_bit_parallel(&self.geometry, spec, input, weights)
    }
}

impl FunctionalDatapath for FunctionalStripes {
    fn conv(&self, _: &str, spec: &ConvSpec, input: &Tensor3, weights: &Tensor4) -> FunctionalRun {
        self.run_conv(spec, input, weights).run
    }

    fn fc(&self, _: &str, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun {
        self.run_fc(spec, input, weights)
    }
}

/// A Stripes-family convolution run, with the per-step activation precisions
/// the datapath actually fed — the hook that lets tests close the loop
/// against the analytic model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripesConvRun {
    /// Outputs (golden layout), cycles, and reduced-group count.
    pub run: FunctionalRun,
    /// The layer's nominal activation precision (from the input data).
    pub nominal_activation: Precision,
    /// Effective activation precision of every (window group × weight chunk)
    /// step, in the analytic model's group order.
    pub group_precisions: Vec<Precision>,
}

impl StripesConvRun {
    /// The measured per-group precisions as an analytic-model source: feeding
    /// this to [`crate::stripes::conv_cycles_dynamic`] with
    /// [`StripesConvRun::nominal_activation`] reproduces
    /// [`FunctionalRun::cycles`] exactly.
    pub fn explicit_source(&self) -> GroupPrecisionSource {
        GroupPrecisionSource::Explicit(self.group_precisions.clone())
    }
}

/// The Stripes convolution engine. `dynamic` enables runtime per-group
/// activation precision detection (DStripes); without it every step runs at
/// the layer's nominal precision (Stripes).
///
/// Steps iterate window groups (outer) then weight chunks (inner) — the same
/// group order as [`crate::stripes::conv_cycles_dynamic`] — and each step
/// costs its effective precision times the number of filter groups. Detection
/// shares one step across every conv group's lanes, so (like the Loom engine)
/// grouped convolutions conservatively fall back to the layer precision.
fn conv_serial_activations(
    geometry: &DpnnGeometry,
    spec: &ConvSpec,
    input: &Tensor3,
    weights: &Tensor4,
    dynamic: bool,
) -> StripesConvRun {
    assert_eq!(input.shape(), spec.input_shape(), "input shape mismatch");
    assert_eq!(
        weights.shape(),
        spec.weight_shape(),
        "weight shape mismatch"
    );
    let windows = spec.windows();
    let out_w = spec.out_width();
    let wpf = spec.weights_per_filter();
    let lanes = geometry.lanes;
    let chunks = wpf.div_ceil(lanes);
    let filter_groups = (spec.filters as u64).div_ceil(geometry.filters as u64);
    let group_in = spec.in_channels / spec.groups;
    let group_out = spec.filters / spec.groups;
    let window_parallelism = STRIPES_WINDOW_PARALLELISM as usize;

    let pa = required_precision(input.as_slice());
    let detect = dynamic && spec.groups == 1;

    let mut outputs = vec![0i64; spec.filters * windows];
    let mut cycles = 0u64;
    let mut reduced_groups = 0u64;
    let mut group_precisions = Vec::with_capacity(windows.div_ceil(window_parallelism) * chunks);
    let mut patches: Vec<Vec<i32>> = vec![Vec::new(); window_parallelism * spec.groups];

    for window_base in (0..windows).step_by(window_parallelism) {
        let group_windows = window_parallelism.min(windows - window_base);
        for i in 0..group_windows {
            let w = window_base + i;
            let (oy, ox) = (w / out_w, w % out_w);
            for g in 0..spec.groups {
                let patch = &mut patches[i * spec.groups + g];
                patch.clear();
                window_patch_into(spec, input, oy, ox, g * group_in, group_in, patch);
            }
        }
        for chunk in 0..chunks {
            let base = chunk * lanes;
            let count = lanes.min(wpf - base);
            // The detector sees the whole 16 windows × 16 lanes activation
            // block this step consumes, exactly like DStripes' OR tree.
            let eff = if detect {
                let mut need = 1u8;
                for patch in patches.iter().take(group_windows) {
                    for &a in &patch[base..base + count] {
                        need = need.max(signed_bits(a));
                    }
                }
                Precision::saturating(need).min(pa)
            } else {
                pa
            };
            group_precisions.push(eff);
            if eff < pa {
                reduced_groups += 1;
            }
            cycles += eff.bits_u64() * filter_groups;
            for i in 0..group_windows {
                let w = window_base + i;
                for k in 0..spec.filters {
                    let patch = &patches[i * spec.groups + k / group_out];
                    let filter = weights.filter(k);
                    outputs[k * windows + w] +=
                        chunk_dot(&filter[base..base + count], &patch[base..base + count], eff);
                }
            }
        }
    }
    StripesConvRun {
        run: FunctionalRun {
            outputs,
            cycles,
            reduced_groups,
        },
        nominal_activation: pa,
        group_precisions,
    }
}

/// The engine's hot-path form of one step's lane: truncate the activation to
/// the step's effective precision (the datapath-visible effect of feeding
/// `eff` serial bits) and multiply by the bit-parallel weight.
fn chunk_dot(weights: &[i32], activations: &[i32], eff: Precision) -> i64 {
    weights
        .iter()
        .zip(activations.iter())
        .map(|(&w, &a)| i64::from(w) * i64::from(truncate_to_precision(a, eff)))
        .sum()
}

/// One Stripes lane group exactly as the hardware executes it: weights stay
/// bit-parallel while activations stream in one bit per cycle, LSB first;
/// each cycle's partial sum is shifted into the accumulator, and — for signed
/// activations — the MSB cycle's contribution is negated (two's complement).
///
/// This is the didactic recipe the fast engine path is proven bit-identical
/// to (see the proptests below), mirroring how
/// [`crate::loom::sip::serial_inner_product`] anchors the Loom kernels.
pub fn serial_activation_inner_product(
    weights: &[i32],
    activations: &[i32],
    pa: Precision,
    activations_signed: bool,
) -> i64 {
    assert_eq!(weights.len(), activations.len(), "lane count mismatch");
    let mut acc = 0i64;
    for ab in 0..pa.bits() {
        let mut partial = 0i64;
        for (&w, &a) in weights.iter().zip(activations.iter()) {
            partial += i64::from(w) * i64::from(bit_of(a, ab));
        }
        if activations_signed && ab == pa.bits() - 1 {
            partial = -partial;
        }
        acc += partial << ab;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquivalentConfig;
    use crate::stripes;
    use loom_model::reference::conv_forward;
    use loom_model::synthetic::{synthetic_activations, synthetic_weights, ValueDistribution};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geo() -> DpnnGeometry {
        EquivalentConfig::BASELINE_128.dpnn()
    }

    fn conv_case(spec: &ConvSpec, seed: u64, pa: Precision, pw: Precision) -> (Tensor3, Tensor4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor3::from_vec(
            spec.input_shape(),
            synthetic_activations(
                &mut rng,
                spec.input_shape().len(),
                pa,
                ValueDistribution::activations(),
            ),
        )
        .unwrap();
        let weights = Tensor4::from_vec(
            spec.weight_shape(),
            synthetic_weights(
                &mut rng,
                spec.weight_shape().len(),
                pw,
                ValueDistribution::weights(),
            ),
        )
        .unwrap();
        (input, weights)
    }

    #[test]
    fn static_conv_matches_golden_and_analytic_model() {
        let spec = ConvSpec {
            padding: 1,
            ..ConvSpec::simple(5, 9, 9, 7, 3)
        };
        let (input, weights) = conv_case(&spec, 11, Precision::new(7).unwrap(), Precision::FULL);
        let run = FunctionalStripes::new(geo()).run_conv(&spec, &input, &weights);
        let golden = conv_forward(&spec, &input, &weights);
        assert_eq!(run.run.outputs, golden);
        let pa = required_precision(input.as_slice());
        assert_eq!(
            run.run.cycles,
            stripes::conv_cycles_static(&geo(), &spec, pa)
        );
        assert_eq!(run.run.reduced_groups, 0);
        assert!(run.group_precisions.iter().all(|&p| p == pa));
    }

    #[test]
    fn dynamic_detection_cuts_cycles_and_replays_analytically() {
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

        let run = FunctionalStripes::dynamic(geo()).run_conv(&spec, &input, &weights);
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

    #[test]
    fn grouped_conv_disables_detection_but_stays_exact() {
        let spec = ConvSpec {
            groups: 2,
            ..ConvSpec::simple(6, 8, 8, 4, 3)
        };
        let (input, weights) = conv_case(&spec, 3, Precision::new(6).unwrap(), Precision::FULL);
        for dynamic in [false, true] {
            let run = conv_serial_activations(&geo(), &spec, &input, &weights, dynamic);
            assert_eq!(run.run.outputs, conv_forward(&spec, &input, &weights));
            assert_eq!(run.run.reduced_groups, 0, "grouped convs stay nominal");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The didactic serial-activation recipe, the fast truncate-multiply
        /// path, and the plain i64 reference all agree — over ragged lane
        /// counts, every signedness combination, and zero blocks.
        #[test]
        fn serial_recipe_matches_fast_path(
            lanes in 1usize..=256,
            // 15 magnitude bits at most: a P-magnitude-bit unsigned draw
            // needs P+1 signed bits, and 16 is the datapath operand width.
            pa_bits in 1u8..=15,
            negate_w in any::<bool>(),
            negate_a in any::<bool>(),
            zero_block in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pa = Precision::new(pa_bits).unwrap();
            // The generator draws unsigned activations (post-ReLU); flip
            // alternating lanes to cover signed serial feeds too.
            let mut activations = synthetic_activations(
                &mut rng, lanes, pa, ValueDistribution::activations());
            let mut weights = synthetic_weights(
                &mut rng, lanes, Precision::FULL, ValueDistribution::weights());
            if negate_a {
                for a in activations.iter_mut().step_by(2) {
                    *a = -*a;
                }
            }
            if !negate_w {
                for w in &mut weights {
                    *w = w.abs();
                }
            }
            if zero_block {
                let half = lanes / 2;
                activations[..half].fill(0);
            }
            // The precisions the engine would derive from this data.
            let eff = required_precision(&activations);
            let signed = activations.iter().any(|&a| a < 0);
            let reference: i64 = weights
                .iter()
                .zip(activations.iter())
                .map(|(&w, &a)| i64::from(w) * i64::from(a))
                .sum();
            let serial = serial_activation_inner_product(&weights, &activations, eff, signed);
            let fast = chunk_dot(&weights, &activations, eff);
            prop_assert_eq!(serial, reference);
            prop_assert_eq!(fast, reference);
        }
    }
}
