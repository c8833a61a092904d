//! Cross-crate functional-equivalence tests: the bit-serial machinery must be
//! bit-exact against the straightforward integer reference implementations,
//! for arbitrary values and precisions (property-based).

use loom_core::loom_mem::packing::PackedGroup;
use loom_core::loom_model::fixed::{bit_plane, required_precision, signed_range, Precision};
use loom_core::loom_model::layer::{ConvSpec, FcSpec};
use loom_core::loom_model::reference::{conv_forward, fc_forward};
use loom_core::loom_model::tensor::{Tensor3, Tensor4};
use loom_core::loom_sim::config::LoomGeometry;
use loom_core::loom_sim::loom::{
    reference_inner_product, serial_conv, serial_inner_product, wide_inner_product_slices,
    FunctionalLoom, Sip,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SIP's bit-serial inner product equals the integer inner product for
    /// any signed operands of any precision combination.
    #[test]
    fn sip_equals_reference_for_any_precisions(
        pw in 1u8..=16,
        pa in 1u8..=16,
        lanes in 1usize..=16,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, SeedableRng, RngExt};
        let mut rng = StdRng::seed_from_u64(seed);
        let (wmin, wmax) = signed_range(Precision::new(pw).unwrap());
        let (amin, amax) = signed_range(Precision::new(pa).unwrap());
        let weights: Vec<i32> = (0..lanes).map(|_| rng.random_range(wmin..=wmax)).collect();
        let activations: Vec<i32> = (0..lanes).map(|_| rng.random_range(amin..=amax)).collect();
        let serial = serial_inner_product(
            &weights,
            &activations,
            Precision::new(pw).unwrap(),
            Precision::new(pa).unwrap(),
            true,
            true,
        );
        prop_assert_eq!(serial, reference_inner_product(&weights, &activations));
    }

    /// The packed AND+popcount datapath is bit-identical to the bit-serial SIP
    /// model (and both equal the integer reference) on lane counts that fit
    /// one plane word — up to and including a full 64 lanes — for every
    /// precision combination and all four signedness combinations.
    #[test]
    fn packed_equals_serial_equals_reference(
        pw in 1u8..=16,
        pa in 1u8..=16,
        lanes in 1usize..=64,
        seed in any::<u64>(),
    ) {
        wide_matches_serial_and_reference(pw, pa, lanes, seed)?;
    }

    /// The same across the rest of the wide lane range — 65–256 lanes always
    /// spans multiple plane words, and the modulus guarantees ragged tails
    /// (`lanes % 64 != 0`) are hit constantly.
    #[test]
    fn wide_equals_serial_equals_reference(
        pw in 1u8..=16,
        pa in 1u8..=16,
        lanes in 65usize..=256,
        seed in any::<u64>(),
    ) {
        wide_matches_serial_and_reference(pw, pa, lanes, seed)?;
    }

    /// On 1–64 lanes the wide kernel also agrees with the cycle-level SIP fed
    /// one packed plane word per cycle (the two tile the same values
    /// differently), and the SIP spends exactly Pw × Pa cycles.
    #[test]
    fn wide_equals_packed_on_narrow_lanes(
        pw in 1u8..=16,
        pa in 1u8..=16,
        lanes in 1usize..=64,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, SeedableRng, RngExt};
        let mut rng = StdRng::seed_from_u64(seed);
        let pw_p = Precision::new(pw).unwrap();
        let pa_p = Precision::new(pa).unwrap();
        let (wmin, wmax) = signed_range(pw_p);
        let (amin, amax) = signed_range(pa_p);
        let weights: Vec<i32> = (0..lanes).map(|_| rng.random_range(wmin..=wmax)).collect();
        let activations: Vec<i32> = (0..lanes).map(|_| rng.random_range(amin..=amax)).collect();
        let mut sip = Sip::new(lanes);
        for wb in 0..pw {
            sip.load_weight_plane(bit_plane(&weights, wb));
            for ab in 0..pa {
                sip.cycle_packed(bit_plane(&activations, ab), ab, ab == pa - 1);
            }
            sip.commit_weight_bit(wb, wb == pw - 1);
        }
        prop_assert_eq!(sip.cycles(), u64::from(pw) * u64::from(pa));
        prop_assert_eq!(
            wide_inner_product_slices(&weights, &activations, pw_p, pa_p, true, true),
            sip.output()
        );
    }

    /// Thread-count invariance at the new task granularity: a convolution's
    /// window groups and a fully-connected layer's output-row groups must
    /// merge bit-identically for any worker count.
    #[test]
    fn layer_results_are_thread_invariant(
        threads in 2usize..=6,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, SeedableRng, RngExt};
        let mut rng = StdRng::seed_from_u64(seed);
        let geometry = LoomGeometry {
            filter_rows: 8,
            window_columns: 3,
            sip_lanes: 5,
            act_bits_per_cycle: 1,
        };
        let spec = ConvSpec {
            padding: 1,
            ..ConvSpec::simple(3, 7, 7, 5, 3)
        };
        let input = Tensor3::from_vec(
            spec.input_shape(),
            (0..spec.input_shape().len()).map(|_| rng.random_range(0i32..=255)).collect(),
        )
        .unwrap();
        let weights = Tensor4::from_vec(
            spec.weight_shape(),
            (0..spec.weight_shape().len()).map(|_| rng.random_range(-64i32..=63)).collect(),
        )
        .unwrap();
        let pa = Precision::new(8).unwrap();
        let pw = Precision::new(7).unwrap();
        let serial = FunctionalLoom::new(geometry).run_conv(&spec, &input, &weights, pa, pw);
        let parallel = FunctionalLoom::new(geometry)
            .with_threads(threads)
            .run_conv(&spec, &input, &weights, pa, pw);
        prop_assert_eq!(&serial, &parallel);

        let fc = FcSpec::new(100, 150);
        let fc_input: Vec<i32> = (0..100).map(|_| rng.random_range(-256i32..=255)).collect();
        let fc_weights: Vec<i32> = (0..100 * 150).map(|_| rng.random_range(-64i32..=63)).collect();
        let fc_serial = FunctionalLoom::new(geometry).run_fc(&fc, &fc_input, &fc_weights, pw);
        let fc_parallel = FunctionalLoom::new(geometry)
            .with_threads(threads)
            .run_fc(&fc, &fc_input, &fc_weights, pw);
        prop_assert_eq!(&fc_serial, &fc_parallel);
    }

    /// Bit-interleaved packing round-trips exactly at the precision detected
    /// from the values themselves.
    #[test]
    fn packing_roundtrips(values in prop::collection::vec(-32768i32..=32767, 1..200)) {
        let precision = required_precision(&values);
        let packed = PackedGroup::pack(&values, precision).unwrap();
        prop_assert_eq!(packed.unpack_signed(), values.clone());
        prop_assert_eq!(packed.storage_bits(), values.len() as u64 * u64::from(precision.bits()));
    }

    /// The functional Loom engine computes fully-connected layers bit-exactly.
    #[test]
    fn functional_fc_matches_reference(
        inputs in 1usize..40,
        outputs in 1usize..20,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, SeedableRng, RngExt};
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = FcSpec::new(inputs, outputs);
        let input: Vec<i32> = (0..inputs).map(|_| rng.random_range(-512i32..=511)).collect();
        let weights: Vec<i32> = (0..inputs * outputs).map(|_| rng.random_range(-128i32..=127)).collect();
        let geometry = LoomGeometry {
            filter_rows: 8,
            window_columns: 4,
            sip_lanes: 4,
            act_bits_per_cycle: 1,
        };
        let run = FunctionalLoom::new(geometry).run_fc(&spec, &input, &weights, Precision::new(8).unwrap());
        prop_assert_eq!(run.outputs, fc_forward(&spec, &input, &weights));
    }
}

/// Draws `lanes` random operands per signedness combination and checks the
/// wide kernel against the bit-serial SIP model and the integer reference.
fn wide_matches_serial_and_reference(
    pw: u8,
    pa: u8,
    lanes: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let pw_p = Precision::new(pw).unwrap();
    let pa_p = Precision::new(pa).unwrap();
    for weights_signed in [false, true] {
        for activations_signed in [false, true] {
            let (wmin, wmax) = if weights_signed {
                signed_range(pw_p)
            } else {
                (0, ((1u32 << pw) - 1) as i32)
            };
            let (amin, amax) = if activations_signed {
                signed_range(pa_p)
            } else {
                (0, ((1u32 << pa) - 1) as i32)
            };
            let weights: Vec<i32> = (0..lanes).map(|_| rng.random_range(wmin..=wmax)).collect();
            let activations: Vec<i32> = (0..lanes).map(|_| rng.random_range(amin..=amax)).collect();
            let serial = serial_inner_product(
                &weights,
                &activations,
                pw_p,
                pa_p,
                weights_signed,
                activations_signed,
            );
            let wide = wide_inner_product_slices(
                &weights,
                &activations,
                pw_p,
                pa_p,
                weights_signed,
                activations_signed,
            );
            prop_assert!(
                wide == serial,
                "wide {} != serial {} (ws={} as={} pw={} pa={} lanes={})",
                wide,
                serial,
                weights_signed,
                activations_signed,
                pw,
                pa,
                lanes
            );
            prop_assert_eq!(serial, reference_inner_product(&weights, &activations));
        }
    }
    Ok(())
}

/// The functional Loom engine computes a convolution bit-exactly, with and
/// without dynamic precision detection, for a deterministic set of shapes.
#[test]
fn functional_conv_matches_reference_across_shapes() {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let shapes = [
        (1usize, 5usize, 5usize, 3usize, 1usize, 1usize, 0usize),
        (3, 8, 8, 6, 3, 1, 1),
        (4, 7, 9, 5, 3, 2, 1),
        (2, 6, 6, 9, 2, 1, 0),
    ];
    let geometry = LoomGeometry {
        filter_rows: 4,
        window_columns: 3,
        sip_lanes: 5,
        act_bits_per_cycle: 1,
    };
    let mut rng = StdRng::seed_from_u64(99);
    for (c, h, w, k, kernel, stride, padding) in shapes {
        let spec = ConvSpec {
            in_channels: c,
            in_height: h,
            in_width: w,
            filters: k,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
            groups: 1,
        };
        spec.validate().unwrap();
        let input = Tensor3::from_vec(
            spec.input_shape(),
            (0..spec.input_shape().len())
                .map(|_| rng.random_range(0i32..=255))
                .collect(),
        )
        .unwrap();
        let weights = Tensor4::from_vec(
            spec.weight_shape(),
            (0..spec.weight_shape().len())
                .map(|_| rng.random_range(-64i32..=63))
                .collect(),
        )
        .unwrap();
        let reference = conv_forward(&spec, &input, &weights);
        let pa = Precision::new(8).unwrap();
        let pw = Precision::new(7).unwrap();
        for dynamic in [true, false] {
            let engine = if dynamic {
                FunctionalLoom::new(geometry)
            } else {
                FunctionalLoom::new(geometry).without_dynamic_precision()
            };
            let run = engine.run_conv(&spec, &input, &weights, pa, pw);
            assert_eq!(run.outputs, reference, "shape {spec:?} dynamic={dynamic}");
            // The bit-serial oracle must produce the whole FunctionalRun
            // identically (outputs, cycles, and dynamically reduced groups)
            // — including on this geometry's 5-lane SIP chunks, which
            // straddle the wide datapath's 64-bit plane words.
            let oracle = serial_conv(&engine, &spec, &input, &weights, pa, pw);
            assert_eq!(run, oracle, "shape {spec:?} dynamic={dynamic}");
        }
    }
}

/// Regression pin for the allocation-free dynamic precision detection: the
/// OR-fold over packed magnitude planes must report exactly the per-chunk
/// reduced-group count (and therefore cycles) of the original
/// materialise-a-`Vec`-then-`required_precision` algorithm, which the
/// bit-serial oracle `serial_conv` runs.
#[test]
fn dynamic_precision_fold_matches_group_values_algorithm() {
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    let spec = ConvSpec::simple(4, 10, 10, 6, 3);
    let geometry = LoomGeometry {
        filter_rows: 8,
        window_columns: 4,
        sip_lanes: 4,
        act_bits_per_cycle: 1,
    };
    let pa = Precision::new(9).unwrap();
    let pw = Precision::new(6).unwrap();
    let mut rng = StdRng::seed_from_u64(4242);
    // Mostly-small values with occasional spikes, so many chunks detect a
    // reduced precision but not all of them.
    let input = Tensor3::from_vec(
        spec.input_shape(),
        (0..spec.input_shape().len())
            .map(|_| {
                if rng.random_range(0u32..8) == 0 {
                    rng.random_range(0i32..=255)
                } else {
                    rng.random_range(0i32..=15)
                }
            })
            .collect(),
    )
    .unwrap();
    let weights = Tensor4::from_vec(
        spec.weight_shape(),
        (0..spec.weight_shape().len())
            .map(|_| rng.random_range(-32i32..=31))
            .collect(),
    )
    .unwrap();

    let engine = FunctionalLoom::new(geometry);
    let run = engine.run_conv(&spec, &input, &weights, pa, pw);
    assert!(run.reduced_groups > 0, "test data must exercise reduction");
    assert_eq!(run.outputs, conv_forward(&spec, &input, &weights));
    assert_eq!(run, serial_conv(&engine, &spec, &input, &weights, pa, pw));
}

/// Full-network equivalence: every compute layer of a small CNN (conv → pool →
/// conv → fc), fed the golden model's own traced activations, must come out of
/// the functional Loom engine bit-exact against the golden accumulators. This
/// end-to-end check was too slow to afford on the bit-serial kernel.
#[test]
fn functional_engine_matches_golden_model_over_a_whole_network() {
    use loom_core::loom_model::inference::{run_chain, InferenceOptions, NetworkParams};
    use loom_core::loom_model::layer::{Layer, PoolSpec};
    use loom_core::loom_model::network::Network;
    use loom_core::loom_model::synthetic::{synthetic_activations, ValueDistribution};
    use loom_core::loom_model::tensor::Shape3;
    use rand::{rngs::StdRng, SeedableRng};

    let padded = |in_channels, hw, filters| ConvSpec {
        in_channels,
        in_height: hw,
        in_width: hw,
        filters,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
        groups: 1,
    };
    let network = Network::new(
        "mini-cnn",
        vec![
            Layer::conv("conv1", padded(3, 12, 8)),
            Layer::max_pool("pool1", PoolSpec::new(8, 12, 12, 2, 2)),
            Layer::conv("conv2", padded(8, 6, 12)),
            Layer::fully_connected("fc", FcSpec::new(12 * 6 * 6, 10)),
        ],
    )
    .unwrap();
    let pw = Precision::new(7).unwrap();
    let params = NetworkParams::synthetic(&network, &[pw], 7);
    let mut rng = StdRng::seed_from_u64(8);
    let input = Tensor3::from_vec(
        Shape3::new(3, 12, 12),
        synthetic_activations(
            &mut rng,
            3 * 12 * 12,
            Precision::new(8).unwrap(),
            ValueDistribution::activations(),
        ),
    )
    .unwrap();
    let options = InferenceOptions {
        activation_precision: Precision::new(8).unwrap(),
    };
    let trace = run_chain(&network, &params, &input, options).unwrap();

    let geometry = LoomGeometry {
        filter_rows: 8,
        window_columns: 4,
        sip_lanes: 8,
        act_bits_per_cycle: 1,
    };
    let engine = FunctionalLoom::new(geometry);
    let mut checked = 0usize;
    for layer in network.layers() {
        let layer_trace = trace.for_layer(&layer.name).unwrap();
        match &layer.kind {
            loom_core::loom_model::layer::LayerKind::Conv(spec) => {
                let layer_input =
                    Tensor3::from_vec(spec.input_shape(), layer_trace.inputs.clone()).unwrap();
                let layer_weights = &params.for_layer(&layer.name).unwrap().tensor;
                assert_eq!(layer_weights.shape(), spec.weight_shape());
                let run = engine.run_conv(
                    spec,
                    &layer_input,
                    layer_weights,
                    required_precision(&layer_trace.inputs),
                    pw,
                );
                assert_eq!(run.outputs, layer_trace.accumulators, "{}", layer.name);
                assert!(run.cycles > 0, "{}", layer.name);
                checked += 1;
            }
            loom_core::loom_model::layer::LayerKind::FullyConnected(spec) => {
                let run = engine.run_fc(
                    spec,
                    &layer_trace.inputs,
                    params.for_layer(&layer.name).unwrap().values(),
                    pw,
                );
                assert_eq!(run.outputs, layer_trace.accumulators, "{}", layer.name);
                checked += 1;
            }
            loom_core::loom_model::layer::LayerKind::MaxPool(_) => {}
        }
    }
    assert_eq!(checked, 3, "all compute layers must be validated");
}
