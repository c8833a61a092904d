//! The differential conformance harness: every accelerator registered in the
//! default [`Registry`] — bit-parallel DPNN, activation-serial Stripes,
//! detecting DStripes, and the three Loom variants — executes the reduced zoo
//! through the shared graph executor, and all of them must land bit-exactly
//! on the golden i64 reference (and therefore on each other).
//!
//! Three layers of checks:
//!
//! 1. **Zoo cross-validation** (`validate::cross_validate`): whole reduced
//!    networks, batched, every registered backend against the golden trace.
//! 2. **Kernel properties**: randomized layers (ragged lane counts, mixed
//!    signedness, zero blocks) where `stripes == dstripes == dpnn == golden`,
//!    mirroring the packed==serial SIP suite.
//! 3. **Cycle-model consistency**: each comparator backend's functionally
//!    measured cycles replayed against the analytic `Accelerator` model on
//!    the mini zoo — exact, including DStripes' detected per-group
//!    precisions. (Loom's functional↔analytic agreement is covered by the
//!    `validate_conv`/`validate_fc` suites, which allow its one-cycle
//!    pipeline-fill skew.)

use loom_core::loom_model::fixed::required_precision;
use loom_core::loom_model::graph::{LayerGraph, NodeOp};
use loom_core::loom_model::inference::{InferenceOptions, NetworkParams};
use loom_core::loom_model::layer::{ConvSpec, FcSpec, LayerKind};
use loom_core::loom_model::reference::{conv_forward, fc_forward};
use loom_core::loom_model::synthetic::{
    synthetic_activations, synthetic_weights, ValueDistribution,
};
use loom_core::loom_model::tensor::{Tensor3, Tensor4};
use loom_core::loom_model::zoo::graphs;
use loom_core::loom_model::Precision;
use loom_core::loom_precision::trace::LayerPrecisionSpec;
use loom_core::loom_sim::config::EquivalentConfig;
use loom_core::loom_sim::datapath::{FunctionalDatapath, FunctionalDpnn, FunctionalStripes};
use loom_core::loom_sim::engine::AcceleratorKind;
use loom_core::loom_sim::validate::cross_validate;
use loom_core::loom_sim::Registry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn zoo_input(graph: &LayerGraph, seed: u64) -> Tensor3 {
    let shape = graph.input_shape().expect("zoo graphs start with a conv");
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor3::from_vec(
        shape,
        synthetic_activations(
            &mut rng,
            shape.len(),
            Precision::new(8).unwrap(),
            ValueDistribution::activations(),
        ),
    )
    .unwrap()
}

/// Every default-registry backend runs every reduced-zoo network bit-exact
/// against the golden model — the acceptance gate CI's `datapath-conformance`
/// step enforces.
#[test]
fn every_registered_backend_matches_golden_on_the_reduced_zoo() {
    let registry = Registry::with_defaults(EquivalentConfig::BASELINE_128);
    for graph in graphs::reduced_all() {
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(8).unwrap()], 77);
        let inputs = [zoo_input(&graph, 1), zoo_input(&graph, 2)];
        let v = cross_validate(
            &registry,
            &graph,
            &params,
            &inputs,
            InferenceOptions::default(),
            2,
        )
        .unwrap();
        // All six defaults expose functional datapaths, so a missing row
        // means a backend silently dropped out of coverage.
        assert_eq!(
            v.backends.len(),
            registry.len(),
            "{}: every registered backend must run",
            graph.name()
        );
        let divergent: Vec<&str> = v
            .backends
            .iter()
            .filter(|b| !b.matches_golden)
            .map(|b| b.accelerator.as_str())
            .collect();
        assert!(
            v.all_match(),
            "{}: backends diverged from golden: {divergent:?}",
            graph.name()
        );
        for b in &v.backends {
            assert!(
                b.cycles > 0,
                "{}: {} reported 0 cycles",
                graph.name(),
                b.accelerator
            );
        }
        // The registered DStripes is Stripes with detection switched on:
        // it must detect, and detecting must save cycles over Stripes.
        let backend = |kind: AcceleratorKind| {
            v.backends
                .iter()
                .find(|b| b.accelerator == kind.to_string())
                .expect("every default kind runs")
        };
        let stripes = backend(AcceleratorKind::Stripes);
        let dstripes = backend(AcceleratorKind::DStripes);
        assert_eq!(stripes.reduced_groups, 0, "{}: Stripes", graph.name());
        assert!(dstripes.reduced_groups > 0, "{}: DStripes", graph.name());
        assert!(
            dstripes.cycles < stripes.cycles,
            "{}: DStripes {} vs Stripes {} cycles",
            graph.name(),
            dstripes.cycles,
            stripes.cycles
        );
    }
}

/// A seventh (custom) backend registered behind an existing key is picked up
/// by the same harness with no test changes — the "impl + registry entry =
/// conformance coverage" contract.
#[test]
fn conformance_follows_registry_contents_not_a_hardcoded_list() {
    let mut registry = Registry::empty(EquivalentConfig::BASELINE_128);
    registry.register(loom_core::loom_sim::accelerator::build(
        AcceleratorKind::Dpnn,
        EquivalentConfig::BASELINE_128,
    ));
    let graph = graphs::reduced_by_name("MiniNiN").unwrap();
    let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(8).unwrap()], 5);
    let inputs = [zoo_input(&graph, 4)];
    let v = cross_validate(
        &registry,
        &graph,
        &params,
        &inputs,
        InferenceOptions::default(),
        1,
    )
    .unwrap();
    assert_eq!(v.backends.len(), 1, "exactly the registered backends run");
    assert_eq!(v.backends[0].accelerator, "DPNN");
    assert!(v.all_match());
}

/// The comparator backends' functionally measured cycles, replayed against
/// the analytic `Accelerator` cycle models on the mini zoo: exact for DPNN
/// and Stripes (static), and exact for DStripes once its detected per-group
/// precisions are fed back into the analytic model.
#[test]
fn functional_cycles_match_analytic_models_on_the_mini_zoo() {
    let config = EquivalentConfig::BASELINE_128;
    let geo = config.dpnn();
    let registry = Registry::with_defaults(config);
    let dpnn_acc = registry.get(AcceleratorKind::Dpnn).unwrap();
    let stripes_acc = registry.get(AcceleratorKind::Stripes).unwrap();
    let dstripes_acc = registry.get(AcceleratorKind::DStripes).unwrap();
    let fdpnn = FunctionalDpnn::new(geo);
    let fstripes = FunctionalStripes::new(geo);
    let fdstripes = FunctionalStripes::dynamic(geo);

    let mut convs_checked = 0usize;
    let mut fcs_checked = 0usize;
    for graph in graphs::reduced_all() {
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(8).unwrap()], 7);
        let trace = graph
            .run(&params, &zoo_input(&graph, 3), InferenceOptions::default())
            .unwrap();
        for node in graph.nodes() {
            let layer_trace = trace
                .layers
                .iter()
                .find(|l| l.layer_name == node.name)
                .expect("trace covers every node");
            let weights = params.for_layer(&node.name).map(|w| &w.values);
            match &node.op {
                NodeOp::Layer(LayerKind::Conv(spec)) => {
                    let input =
                        Tensor3::from_vec(spec.input_shape(), layer_trace.inputs.clone()).unwrap();
                    let weights =
                        Tensor4::from_vec(spec.weight_shape(), weights.unwrap().clone()).unwrap();
                    let pa = required_precision(input.as_slice());
                    let pw = required_precision(weights.as_slice());
                    let static_spec = LayerPrecisionSpec::static_profile(pa, pw);

                    let d = fdpnn.run_conv(spec, &input, &weights);
                    assert_eq!(
                        d.cycles,
                        dpnn_acc.conv_cycles(spec, &static_spec).0,
                        "DPNN {}/{}",
                        graph.name(),
                        node.name
                    );

                    let s = fstripes.run_conv(spec, &input, &weights);
                    assert_eq!(
                        s.run.cycles,
                        stripes_acc.conv_cycles(spec, &static_spec).0,
                        "Stripes {}/{}",
                        graph.name(),
                        node.name
                    );

                    let ds = fdstripes.run_conv(spec, &input, &weights);
                    let dynamic_spec = LayerPrecisionSpec {
                        dynamic_activation: ds.explicit_source(),
                        ..LayerPrecisionSpec::static_profile(pa, pw)
                    };
                    assert_eq!(
                        ds.run.cycles,
                        dstripes_acc.conv_cycles(spec, &dynamic_spec).0,
                        "DStripes {}/{}",
                        graph.name(),
                        node.name
                    );
                    convs_checked += 1;
                }
                NodeOp::Layer(LayerKind::FullyConnected(spec)) => {
                    let weights = weights.unwrap();
                    let fc_input = &layer_trace.inputs;
                    // FCLs are precision-independent on all three comparators
                    // and identical to the bit-parallel baseline.
                    let full = LayerPrecisionSpec::full_precision_static();
                    let analytic = dpnn_acc.fc_cycles(spec, &full).0;
                    assert_eq!(stripes_acc.fc_cycles(spec, &full).0, analytic);
                    assert_eq!(dstripes_acc.fc_cycles(spec, &full).0, analytic);
                    for (name, backend) in [
                        ("DPNN", &fdpnn as &dyn FunctionalDatapath),
                        ("Stripes", &fstripes),
                        ("DStripes", &fdstripes),
                    ] {
                        let run = backend.fc(&node.name, spec, fc_input, weights);
                        assert_eq!(
                            run.cycles,
                            analytic,
                            "{name} {}/{}",
                            graph.name(),
                            node.name
                        );
                    }
                    fcs_checked += 1;
                }
                _ => {}
            }
        }
    }
    assert!(convs_checked > 10, "checked {convs_checked} convolutions");
    assert!(fcs_checked > 2, "checked {fcs_checked} FC layers");
}

fn random_conv_case(
    spec: &ConvSpec,
    seed: u64,
    pa: Precision,
    pw: Precision,
    negate: bool,
) -> (Tensor3, Tensor4) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut activations = synthetic_activations(
        &mut rng,
        spec.input_shape().len(),
        pa,
        ValueDistribution::activations(),
    );
    if negate {
        // Cover signed (pre-ReLU-style) activations too.
        for a in activations.iter_mut().step_by(2) {
            *a = -*a;
        }
    }
    let input = Tensor3::from_vec(spec.input_shape(), activations).unwrap();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: `stripes == dstripes == dpnn == golden` on random
    /// convolutional layers — ragged channel/kernel combinations (inner
    /// products from a handful to hundreds of lanes), grouped filters, both
    /// signedness regimes, and zero-heavy synthetic data.
    #[test]
    fn comparator_conv_kernels_agree_with_golden(
        in_channels in 1usize..=8,
        size in 3usize..=9,
        filters in 1usize..=8,
        kernel in 1usize..=3,
        padding in 0usize..=1,
        grouped in any::<bool>(),
        negate in any::<bool>(),
        pa_bits in 1u8..=8,
        pw_bits in 1u8..=8,
        seed in any::<u64>(),
    ) {
        let mut spec = ConvSpec {
            padding,
            ..ConvSpec::simple(in_channels, size, size, filters, kernel.min(size))
        };
        if grouped && in_channels % 2 == 0 && filters % 2 == 0 {
            spec.groups = 2;
        }
        let (input, weights) = random_conv_case(
            &spec,
            seed,
            Precision::new(pa_bits).unwrap(),
            Precision::new(pw_bits).unwrap(),
            negate,
        );
        let golden = conv_forward(&spec, &input, &weights);
        let geo = EquivalentConfig::BASELINE_128.dpnn();
        let dpnn = FunctionalDpnn::new(geo).conv("conv", &spec, &input, &weights);
        let stripes = FunctionalStripes::new(geo).conv("conv", &spec, &input, &weights);
        let dstripes = FunctionalStripes::dynamic(geo).conv("conv", &spec, &input, &weights);
        prop_assert_eq!(&dpnn.outputs, &golden);
        prop_assert_eq!(&stripes.outputs, &golden);
        prop_assert_eq!(&dstripes.outputs, &golden);
        // Detection may only ever make DStripes cheaper than static Stripes.
        prop_assert!(dstripes.cycles <= stripes.cycles);
    }

    /// Property: all three comparator FC paths equal the golden model at any
    /// lane count from 1 to 256 — and cost exactly the bit-parallel cycles.
    #[test]
    fn comparator_fc_kernels_agree_with_golden(
        in_features in 1usize..=256,
        out_features in 1usize..=8,
        negate in any::<bool>(),
        pw_bits in 1u8..=8,
        seed in any::<u64>(),
    ) {
        let spec = FcSpec::new(in_features, out_features);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut input = synthetic_activations(
            &mut rng,
            in_features,
            Precision::new(8).unwrap(),
            ValueDistribution::activations(),
        );
        if negate {
            for a in input.iter_mut().step_by(2) {
                *a = -*a;
            }
        }
        let weights = synthetic_weights(
            &mut rng,
            in_features * out_features,
            Precision::new(pw_bits).unwrap(),
            ValueDistribution::weights(),
        );
        let golden = fc_forward(&spec, &input, &weights);
        let geo = EquivalentConfig::BASELINE_128.dpnn();
        for backend in [
            &FunctionalDpnn::new(geo) as &dyn FunctionalDatapath,
            &FunctionalStripes::new(geo),
            &FunctionalStripes::dynamic(geo),
        ] {
            let run = backend.fc("fc", &spec, &input, &weights);
            prop_assert_eq!(&run.outputs, &golden);
            prop_assert_eq!(
                run.cycles,
                loom_core::loom_sim::dpnn::fc_cycles(&geo, &spec)
            );
        }
    }
}
