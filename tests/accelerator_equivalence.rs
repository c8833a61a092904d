//! Equivalence suite for the `Accelerator` trait refactor: every trait
//! implementation must produce `NetworkSim` results bit-identical to the
//! pre-refactor enum dispatch, across all zoo networks and both accuracy
//! targets.
//!
//! The oracle below is a line-for-line reconstruction of the `match`-based
//! dispatch the engine used before the trait existed (DPNN/Stripes/DStripes
//! over the bit-parallel geometry, Loom over the SIP schedules, with the
//! per-kind storage precisions). If a trait impl ever drifts from the
//! datapath semantics, these tests pinpoint the layer and kind.
//!
//! The suite builds every kind in `AcceleratorKind::all()` with
//! `accelerator::build` rather than naming impls, so a new kind is exercised
//! automatically (the oracle itself still keys off the built-in kinds it
//! reconstructs).

use loom_core::experiment::{build_assignment, ExperimentSettings};
use loom_core::loom_mem::traffic::{layer_traffic, StoragePrecision};
use loom_core::loom_model::layer::LayerKind;
use loom_core::loom_model::network::Network;
use loom_core::loom_model::zoo;
use loom_core::loom_model::Precision;
use loom_core::loom_precision::trace::LayerPrecisionSpec;
use loom_core::loom_precision::AccuracyTarget;
use loom_core::loom_sim::accelerator::build;
use loom_core::loom_sim::counts::{LayerClass, LayerSim, NetworkSim};
use loom_core::loom_sim::engine::{AcceleratorKind, PrecisionAssignment};
use loom_core::loom_sim::loom::{conv_schedule, fc_schedule};
use loom_core::loom_sim::{dpnn, stripes, EquivalentConfig};

/// The pre-refactor per-layer dispatch, reconstructed verbatim.
fn legacy_layer_sim(
    kind: AcceleratorKind,
    config: EquivalentConfig,
    name: &str,
    layer: &LayerKind,
    precision: &LayerPrecisionSpec,
) -> LayerSim {
    let storage = match kind {
        AcceleratorKind::Dpnn => StoragePrecision::baseline(),
        AcceleratorKind::Stripes | AcceleratorKind::DStripes => {
            if layer.is_conv() {
                StoragePrecision::packed(precision.activation, Precision::FULL)
            } else {
                StoragePrecision::baseline()
            }
        }
        AcceleratorKind::Loom(_) => {
            StoragePrecision::packed(precision.activation, precision.weight)
        }
    };
    let traffic = layer_traffic(layer, storage);
    let (class, cycles, utilization) = match layer {
        LayerKind::Conv(spec) => {
            let (cycles, utilization) = match kind {
                AcceleratorKind::Dpnn => {
                    let g = config.dpnn();
                    (
                        dpnn::conv_cycles(&g, spec),
                        dpnn::conv_utilization(&g, spec),
                    )
                }
                AcceleratorKind::Stripes => {
                    let g = config.dpnn();
                    (
                        stripes::conv_cycles_static(&g, spec, precision.activation),
                        dpnn::conv_utilization(&g, spec),
                    )
                }
                AcceleratorKind::DStripes => {
                    let g = config.dpnn();
                    (
                        stripes::conv_cycles_dynamic(
                            &g,
                            spec,
                            precision.activation,
                            &precision.dynamic_activation,
                        ),
                        dpnn::conv_utilization(&g, spec),
                    )
                }
                AcceleratorKind::Loom(variant) => {
                    let g = config.loom(variant);
                    let r = conv_schedule(&g, spec, precision);
                    (r.cycles, r.utilization)
                }
            };
            (LayerClass::Conv, cycles, utilization)
        }
        LayerKind::FullyConnected(spec) => {
            let (cycles, utilization) = match kind {
                AcceleratorKind::Dpnn | AcceleratorKind::Stripes | AcceleratorKind::DStripes => {
                    let g = config.dpnn();
                    (dpnn::fc_cycles(&g, spec), dpnn::fc_utilization(&g, spec))
                }
                AcceleratorKind::Loom(variant) => {
                    let g = config.loom(variant);
                    let r = fc_schedule(&g, spec, precision, true);
                    (r.cycles, r.utilization)
                }
            };
            (LayerClass::FullyConnected, cycles, utilization)
        }
        LayerKind::MaxPool(_) => (LayerClass::Other, 0, 1.0),
    };
    LayerSim {
        layer_name: name.to_string(),
        class,
        macs: layer.macs(),
        cycles,
        utilization,
        storage,
        traffic,
    }
}

/// The pre-refactor whole-network walk.
fn legacy_network_sim(
    kind: AcceleratorKind,
    config: EquivalentConfig,
    network: &Network,
    assignment: &PrecisionAssignment,
) -> NetworkSim {
    let mut layers = Vec::with_capacity(network.layers().len());
    let mut compute_idx = 0usize;
    for layer in network.layers() {
        let full = LayerPrecisionSpec::full_precision();
        let spec = if layer.kind.is_compute() {
            let s = assignment.for_layer(compute_idx);
            compute_idx += 1;
            s
        } else {
            &full
        };
        layers.push(legacy_layer_sim(
            kind,
            config,
            &layer.name,
            &layer.kind,
            spec,
        ));
    }
    NetworkSim {
        accelerator: kind.to_string(),
        network: network.name().to_string(),
        layers,
    }
}

#[test]
fn trait_impls_match_legacy_dispatch_bit_for_bit() {
    let config = EquivalentConfig::BASELINE_128;
    for target in [AccuracyTarget::Lossless, AccuracyTarget::Relative99] {
        let settings = ExperimentSettings {
            target,
            ..Default::default()
        };
        for network in zoo::all() {
            let assignment = build_assignment(&network, &settings);
            for kind in AcceleratorKind::all() {
                let trait_sim = build(kind, config).simulate_network(&network, &assignment);
                let legacy_sim = legacy_network_sim(kind, config, &network, &assignment);
                assert_eq!(
                    trait_sim,
                    legacy_sim,
                    "{} on {} at {target} diverged from the legacy dispatch",
                    kind,
                    network.name()
                );
            }
        }
    }
}

#[test]
fn trait_impls_match_legacy_dispatch_with_per_group_weights() {
    // Table 4's per-group weight precisions exercise the AverageBits group
    // source; the trait path must agree there too.
    let config = EquivalentConfig::BASELINE_128;
    let settings = ExperimentSettings::per_group_weights();
    for network in zoo::all() {
        let assignment = build_assignment(&network, &settings);
        for kind in AcceleratorKind::all() {
            let trait_sim = build(kind, config).simulate_network(&network, &assignment);
            let legacy_sim = legacy_network_sim(kind, config, &network, &assignment);
            assert_eq!(trait_sim, legacy_sim, "{} on {}", kind, network.name());
        }
    }
}

#[test]
fn trait_impls_match_legacy_dispatch_across_design_points() {
    // The Figure 5 design points change every geometry; spot-check the
    // smallest and largest against the oracle on one network with FCLs.
    let settings = ExperimentSettings::default();
    let network = zoo::alexnet();
    let assignment = build_assignment(&network, &settings);
    for macs in [32usize, 512] {
        let config = EquivalentConfig::new(macs).unwrap();
        for kind in AcceleratorKind::all() {
            let trait_sim = build(kind, config).simulate_network(&network, &assignment);
            let legacy_sim = legacy_network_sim(kind, config, &network, &assignment);
            assert_eq!(trait_sim, legacy_sim, "{kind} at config {macs}");
        }
    }
}
