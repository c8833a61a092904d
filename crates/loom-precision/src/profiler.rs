//! Per-layer precision profiling: the method of Judd et al. ("Reduced-Precision
//! Strategies for Bounded Memory in Deep Neural Nets") that produced the
//! paper's Table 1.
//!
//! The original work measures ImageNet top-1 accuracy while lowering one
//! layer's precision at a time; this reproduction uses an output-fidelity proxy
//! (relative RMSE of the final-layer accumulators against the full-precision
//! reference over a batch of inputs) because the ImageNet validation set and
//! trained models are unavailable. The *search procedure* is the same: find,
//! per layer, the smallest precision whose fidelity degradation stays within a
//! target, then verify all layers combined.

use crate::profile::{AccuracyTarget, NetworkProfile};
use loom_model::fixed::{clamp_to_precision, required_precision, Precision};
use loom_model::graph::{GraphCompute, LayerGraph};
use loom_model::inference::{InferenceOptions, InferenceTrace, NetworkParams};
use loom_model::layer::{ConvSpec, FcSpec};
use loom_model::network::Network;
use loom_model::quant::relative_rmse;
use loom_model::reference::{conv_forward, fc_forward};
use loom_model::tensor::{Tensor3, Tensor4};

/// Configuration of the precision search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerConfig {
    /// Maximum tolerated relative RMSE of the final-layer accumulators versus
    /// the full-precision reference. Plays the role of the accuracy constraint.
    pub fidelity_threshold: f64,
    /// Activation precision ceiling (16 for the paper's baseline).
    pub max_precision: Precision,
    /// Storage precision the quantized inference scales inter-layer
    /// activations to. Real fixed-point deployments scale activations into a
    /// 12–13 bit range rather than the full 16 bits; the profile-derived
    /// precisions are searched below this ceiling.
    pub inference_activation_precision: Precision,
}

impl ProfilerConfig {
    /// Configuration mimicking the "100%" (no accuracy loss) target: a very
    /// tight fidelity budget.
    pub fn lossless() -> Self {
        ProfilerConfig {
            fidelity_threshold: 0.02,
            max_precision: Precision::FULL,
            inference_activation_precision: Precision::saturating(13),
        }
    }

    /// Configuration mimicking the "99%" (1% relative loss) target: a looser
    /// fidelity budget.
    pub fn relaxed() -> Self {
        ProfilerConfig {
            fidelity_threshold: 0.08,
            max_precision: Precision::FULL,
            inference_activation_precision: Precision::saturating(13),
        }
    }

    /// The accuracy target label this configuration corresponds to.
    pub fn target(&self) -> AccuracyTarget {
        if self.fidelity_threshold <= 0.02 {
            AccuracyTarget::Lossless
        } else {
            AccuracyTarget::Relative99
        }
    }
}

/// The outcome of profiling one network.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedProfile {
    /// The derived per-compute-layer input activation precisions (conv and FC
    /// layers, in network order).
    pub activation_precisions: Vec<Precision>,
    /// The smallest weight precision (shared across layers) that keeps the
    /// fidelity within budget.
    pub weight_precision: Precision,
    /// Fidelity (relative RMSE) of the final combined configuration.
    pub combined_fidelity: f64,
}

impl DerivedProfile {
    /// Converts the derived precisions into a [`NetworkProfile`] for `network`,
    /// mapping compute-layer precisions onto conv/FC layer positions.
    pub fn to_network_profile(&self, network: &Network, target: AccuracyTarget) -> NetworkProfile {
        let mut conv_acts = Vec::new();
        let mut fc_weights = Vec::new();
        for (idx, layer) in network.compute_layers().enumerate() {
            let p = self
                .activation_precisions
                .get(idx)
                .copied()
                .unwrap_or(Precision::FULL);
            if layer.kind.is_conv() {
                conv_acts.push(p);
            } else {
                fc_weights.push(self.weight_precision);
            }
        }
        NetworkProfile {
            network: network.name().to_string(),
            target,
            conv_activations: conv_acts,
            conv_weight: self.weight_precision,
            fc_weights,
        }
    }
}

/// Profiles `network` with the given synthetic parameters and input batch.
///
/// For every compute layer the profiler finds, by descending search, the
/// smallest input-activation precision that keeps the final-output fidelity
/// within `config.fidelity_threshold`; it then finds the smallest shared
/// weight precision the same way (weights are clamped, not re-trained), and
/// finally verifies the combined profile, backing precisions off one bit at a
/// time (round-robin) if the combination violates the budget.
///
/// A per-layer trial clamps one layer and leaves every other at
/// `config.max_precision`. When that ceiling leaves every reference compute
/// input unchanged, the layers before the trial's reproduce the reference
/// run, so the trial replays their accumulators from it and computes only
/// from the trial's layer on.
///
/// # Panics
///
/// Panics if `inputs` is empty or the network cannot be run as a linear chain
/// (profiles only make sense for runnable networks).
pub fn profile_network(
    network: &Network,
    params: &NetworkParams,
    inputs: &[Tensor3],
    config: ProfilerConfig,
) -> DerivedProfile {
    assert!(!inputs.is_empty(), "profiling requires at least one input");
    let graph = LayerGraph::from_network(network);
    let options = InferenceOptions {
        activation_precision: config.inference_activation_precision,
    };
    let references: Vec<InferenceTrace> = inputs
        .iter()
        .map(|input| {
            graph
                .run(params, input, options)
                .expect("network must be runnable")
        })
        .collect();

    let n_compute = network.compute_layers().count();
    let replayable = references.iter().all(|reference| {
        network.compute_layers().all(|layer| {
            let inputs = &reference.for_layer(&layer.name).expect("traced").inputs;
            inputs
                .iter()
                .all(|&v| clamp_to_precision(v, config.max_precision) == v)
        })
    });
    let mut per_layer = vec![config.max_precision; n_compute];

    // Phase 1: independent per-layer activation search.
    for layer_idx in 0..n_compute {
        let replayed = if replayable { layer_idx } else { 0 };
        let mut best = config.max_precision;
        for bits in (1..=config.max_precision.bits()).rev() {
            let candidate = Precision::new(bits).expect("bits in range");
            let mut trial = vec![config.max_precision; n_compute];
            trial[layer_idx] = candidate;
            let fidelity = batch_fidelity(
                &graph,
                params,
                inputs,
                &references,
                options,
                &trial,
                replayed,
            );
            if fidelity <= config.fidelity_threshold {
                best = candidate;
            } else {
                break;
            }
        }
        per_layer[layer_idx] = best;
    }

    // Phase 2: shared weight precision search (clamping weights).
    let weight_precision = search_weight_precision(&graph, params, inputs, &references, config);

    // Phase 3: verify the combination; relax the most aggressive layer one bit
    // at a time until the budget holds again.
    let mut combined = per_layer.clone();
    let mut fidelity = batch_fidelity(&graph, params, inputs, &references, options, &combined, 0);
    while fidelity > config.fidelity_threshold {
        let (idx, _) = combined
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| p.bits())
            .expect("at least one compute layer");
        if combined[idx] == config.max_precision {
            break;
        }
        combined[idx] = Precision::saturating(combined[idx].bits() + 1);
        fidelity = batch_fidelity(&graph, params, inputs, &references, options, &combined, 0);
    }

    DerivedProfile {
        activation_precisions: combined,
        weight_precision,
        combined_fidelity: fidelity,
    }
}

/// A trial's inner products: its first `replayed` compute layers return the
/// reference run's accumulators, and every later one runs the golden
/// kernels. Sound only when those layers' inputs equal the reference's.
struct Replay<'r> {
    reference: &'r InferenceTrace,
    replayed: usize,
}

impl Replay<'_> {
    /// `layer`'s reference accumulators, while compute layers are replayed.
    fn replay(&mut self, layer: &str) -> Option<Vec<i64>> {
        if self.replayed == 0 {
            return None;
        }
        self.replayed -= 1;
        Some(self.reference.for_layer(layer)?.accumulators.clone())
    }
}

impl GraphCompute for Replay<'_> {
    fn conv(
        &mut self,
        layer: &str,
        spec: &ConvSpec,
        input: &Tensor3,
        weights: &Tensor4,
    ) -> Vec<i64> {
        self.replay(layer)
            .unwrap_or_else(|| conv_forward(spec, input, weights))
    }

    fn fc(&mut self, layer: &str, spec: &FcSpec, input: &[i32], weights: &[i32]) -> Vec<i64> {
        self.replay(layer)
            .unwrap_or_else(|| fc_forward(spec, input, weights))
    }
}

/// Fidelity of a per-layer activation precision assignment over a batch: the
/// worst relative RMSE of the final accumulators across all inputs. The
/// first `replayed` compute layers replay each reference.
fn batch_fidelity(
    graph: &LayerGraph,
    params: &NetworkParams,
    inputs: &[Tensor3],
    references: &[InferenceTrace],
    options: InferenceOptions,
    precisions: &[Precision],
    replayed: usize,
) -> f64 {
    inputs
        .iter()
        .zip(references.iter())
        .map(|(input, reference)| {
            let mut backend = Replay {
                reference,
                replayed,
            };
            let trial = graph
                .run_with(params, input, options, precisions, &mut backend)
                .expect("network must be runnable");
            relative_rmse(reference.final_accumulators(), trial.final_accumulators())
        })
        .fold(0.0f64, f64::max)
}

/// Finds the smallest shared weight precision whose clamping keeps fidelity
/// within budget.
fn search_weight_precision(
    graph: &LayerGraph,
    params: &NetworkParams,
    inputs: &[Tensor3],
    references: &[InferenceTrace],
    config: ProfilerConfig,
) -> Precision {
    let options = InferenceOptions {
        activation_precision: config.inference_activation_precision,
    };
    // Weights never need more bits than the widest value present.
    let needed = params
        .layers()
        .iter()
        .map(|w| required_precision(w.values()))
        .max()
        .unwrap_or(Precision::FULL);
    let mut best = needed;
    for bits in (1..needed.bits()).rev() {
        let candidate = Precision::new(bits).expect("bits in range");
        let clamped = clamp_params(params, candidate);
        let fidelity: f64 = inputs
            .iter()
            .zip(references.iter())
            .map(|(input, reference)| {
                let trial = graph
                    .run(&clamped, input, options)
                    .expect("network must be runnable");
                relative_rmse(reference.final_accumulators(), trial.final_accumulators())
            })
            .fold(0.0f64, f64::max);
        if fidelity <= config.fidelity_threshold {
            best = candidate;
        } else {
            break;
        }
    }
    best
}

/// Clamps every weight in `params` to `precision`.
fn clamp_params(params: &NetworkParams, precision: Precision) -> NetworkParams {
    let layers = params
        .layers()
        .iter()
        .map(|w| loom_model::inference::LayerWeights {
            layer_name: w.layer_name.clone(),
            tensor: Tensor4::from_vec(
                w.tensor.shape(),
                loom_model::quant::apply_precision(w.values(), precision),
            )
            .expect("clamping keeps every weight"),
        })
        .collect();
    NetworkParams::new(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_model::layer::{ConvSpec, FcSpec, PoolSpec};
    use loom_model::network::NetworkBuilder;
    use loom_model::synthetic::{synthetic_activations, ValueDistribution};
    use loom_model::tensor::Shape3;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_net() -> Network {
        NetworkBuilder::new("profiler-test")
            .conv("conv1", ConvSpec::simple(2, 10, 10, 6, 3))
            .max_pool("pool1", PoolSpec::new(6, 8, 8, 2, 2))
            .conv("conv2", ConvSpec::simple(6, 4, 4, 8, 3))
            .fully_connected("fc1", FcSpec::new(8 * 2 * 2, 10))
            .build()
            .unwrap()
    }

    fn test_inputs(n: usize) -> Vec<Tensor3> {
        (0..n)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(100 + i as u64);
                Tensor3::from_vec(
                    Shape3::new(2, 10, 10),
                    synthetic_activations(
                        &mut rng,
                        200,
                        Precision::new(8).unwrap(),
                        ValueDistribution::activations(),
                    ),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn profiler_finds_reduced_precisions() {
        let net = test_net();
        let params = NetworkParams::synthetic(&net, &[Precision::new(8).unwrap()], 9);
        let inputs = test_inputs(2);
        let derived = profile_network(&net, &params, &inputs, ProfilerConfig::lossless());
        assert_eq!(derived.activation_precisions.len(), 3);
        // At least one layer should need fewer than the full 16 bits: the
        // values themselves only span ~8-13 bits.
        assert!(derived.activation_precisions.iter().any(|p| p.bits() < 16));
        assert!(derived.weight_precision.bits() <= 16);
        assert!(derived.combined_fidelity <= ProfilerConfig::lossless().fidelity_threshold);
    }

    #[test]
    fn relaxed_target_never_needs_more_bits_than_lossless() {
        let net = test_net();
        let params = NetworkParams::synthetic(&net, &[Precision::new(8).unwrap()], 9);
        let inputs = test_inputs(1);
        let tight = profile_network(&net, &params, &inputs, ProfilerConfig::lossless());
        let loose = profile_network(&net, &params, &inputs, ProfilerConfig::relaxed());
        for (t, l) in tight
            .activation_precisions
            .iter()
            .zip(loose.activation_precisions.iter())
        {
            assert!(l <= t, "relaxed {l:?} vs lossless {t:?}");
        }
        assert!(loose.weight_precision <= tight.weight_precision);
    }

    #[test]
    fn derived_profile_converts_to_network_profile() {
        let net = test_net();
        let params = NetworkParams::synthetic(&net, &[Precision::new(8).unwrap()], 9);
        let inputs = test_inputs(1);
        let derived = profile_network(&net, &params, &inputs, ProfilerConfig::lossless());
        let profile = derived.to_network_profile(&net, AccuracyTarget::Lossless);
        assert_eq!(profile.conv_activations.len(), 2);
        assert_eq!(profile.fc_weights.len(), 1);
        profile.validate_against(&net).unwrap();
    }

    #[test]
    fn replayed_trials_equal_full_trials() {
        let net = test_net();
        let graph = LayerGraph::from_network(&net);
        let params = NetworkParams::synthetic(&net, &[Precision::new(8).unwrap()], 9);
        let inputs = test_inputs(2);
        let options = InferenceOptions {
            activation_precision: Precision::saturating(13),
        };
        let references: Vec<InferenceTrace> = inputs
            .iter()
            .map(|input| graph.run(&params, input, options).unwrap())
            .collect();
        for layer_idx in 0..3 {
            for bits in [16, 9, 5, 2] {
                let mut trial = vec![Precision::FULL; 3];
                trial[layer_idx] = Precision::new(bits).unwrap();
                let replayed = batch_fidelity(
                    &graph,
                    &params,
                    &inputs,
                    &references,
                    options,
                    &trial,
                    layer_idx,
                );
                let full =
                    batch_fidelity(&graph, &params, &inputs, &references, options, &trial, 0);
                assert_eq!(replayed, full, "layer {layer_idx} at {bits} bits");
            }
        }
    }

    #[test]
    fn profiler_config_targets() {
        assert_eq!(
            ProfilerConfig::lossless().target(),
            AccuracyTarget::Lossless
        );
        assert_eq!(
            ProfilerConfig::relaxed().target(),
            AccuracyTarget::Relative99
        );
    }
}
