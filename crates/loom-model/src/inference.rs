//! Quantized forward inference: the golden model the functional accelerator
//! simulation is compared against, and the source of real activation values
//! for the dynamic precision detectors.
//!
//! Execution is built on the DAG executor in [`crate::graph`]: a linear
//! [`Network`] lifts into a [`LayerGraph`] whose nodes chain one after the
//! other ([`run_chain`]), and branching topologies — GoogLeNet's inception
//! modules with their four parallel branches and channel concatenation — are
//! assembled directly with [`crate::graph::GraphBuilder`] and run through the
//! same executor. Batched inputs go through [`run_batch`] (or
//! [`LayerGraph::run_batch`]); each batch item is an independent forward
//! pass, so a batch of N is bit-identical to N runs of batch 1.
//!
//! # Examples
//!
//! Run a batch through a small chain:
//!
//! ```
//! use loom_model::inference::{run_batch, InferenceOptions, NetworkParams};
//! use loom_model::layer::{ConvSpec, FcSpec};
//! use loom_model::network::NetworkBuilder;
//! use loom_model::tensor::{Shape3, Tensor3};
//! use loom_model::Precision;
//!
//! let net = NetworkBuilder::new("tiny")
//!     .conv("conv1", ConvSpec::simple(1, 5, 5, 2, 3))
//!     .fully_connected("fc1", FcSpec::new(2 * 3 * 3, 4))
//!     .build()
//!     .unwrap();
//! let params = NetworkParams::synthetic(&net, &[Precision::new(4).unwrap()], 1);
//! let image = Tensor3::from_vec(Shape3::new(1, 5, 5), (0..25).collect()).unwrap();
//! let traces = run_batch(
//!     &net,
//!     &params,
//!     &[image.clone(), image],
//!     InferenceOptions::default(),
//! )
//! .unwrap();
//! assert_eq!(traces.len(), 2);
//! assert_eq!(traces[0], traces[1]); // identical inputs, identical traces
//! ```

use crate::fixed::Precision;
use crate::graph::{GraphError, LayerGraph};
use crate::layer::LayerError;
use crate::network::Network;
use crate::synthetic::seeded_weight_tensors;
use crate::tensor::{Tensor3, Tensor4};
use std::fmt;

/// Error produced when a network cannot be run as a linear chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferenceError {
    /// Two consecutive layers disagree about the activation shape between them.
    ShapeMismatch {
        /// Name of the layer whose input did not match.
        layer: String,
        /// Number of activations produced by the previous layer.
        produced: usize,
        /// Number of activations the layer expects.
        expected: usize,
    },
    /// The network has no layers.
    Empty,
    /// A layer failed validation.
    Layer(LayerError),
    /// The layer graph itself is malformed (unresolved source, cycle,
    /// concatenated branches with mismatched spatial dimensions, …).
    Graph(GraphError),
}

impl fmt::Display for InferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferenceError::ShapeMismatch {
                layer,
                produced,
                expected,
            } => write!(
                f,
                "layer {layer} expects {expected} input activations but the previous layer produced {produced}"
            ),
            InferenceError::Empty => write!(f, "network has no layers"),
            InferenceError::Layer(e) => write!(f, "{e}"),
            InferenceError::Graph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for InferenceError {}

impl From<LayerError> for InferenceError {
    fn from(e: LayerError) -> Self {
        InferenceError::Layer(e)
    }
}

impl From<GraphError> for InferenceError {
    fn from(e: GraphError) -> Self {
        InferenceError::Graph(e)
    }
}

/// The weights of one compute layer, held once as the tensor the backend
/// receives: the layer's
/// [`weight_shape`](crate::layer::LayerKind::weight_shape), `K × C × H × W` for a
/// convolution and `out × in × 1 × 1` for a fully-connected layer (whose
/// backing slice is the row-major `out × in` matrix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerWeights {
    /// Name of the layer these weights belong to.
    pub layer_name: String,
    /// The weight tensor.
    pub tensor: Tensor4,
}

impl LayerWeights {
    /// The flattened weight values, in the layout the reference kernels read
    /// (`KCHW` for convolutions, row-major `out × in` for fully-connected
    /// layers).
    pub fn values(&self) -> &[i32] {
        self.tensor.as_slice()
    }
}

/// All weights of a network, one entry per *compute* layer in network order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkParams {
    weights: Vec<LayerWeights>,
}

impl NetworkParams {
    /// Creates parameters from an explicit list of per-layer weights.
    pub fn new(weights: Vec<LayerWeights>) -> Self {
        NetworkParams { weights }
    }

    /// Generates synthetic parameters for `network`, one weight precision per
    /// compute layer (`weight_precisions` is cycled if shorter than the number
    /// of compute layers).
    ///
    /// # Panics
    ///
    /// Panics if `weight_precisions` is empty.
    pub fn synthetic(network: &Network, weight_precisions: &[Precision], seed: u64) -> Self {
        // A chain's compute order is its layer order, so lifting to a graph
        // consumes the RNG identically — one generator loop to maintain.
        Self::synthetic_for_graph(&LayerGraph::from_network(network), weight_precisions, seed)
    }

    /// Generates synthetic parameters for a [`LayerGraph`], one weight set per
    /// compute node in execution order (the order
    /// [`LayerGraph::compute_layers`] yields, which the graph executor also
    /// uses to look weights up positionally). `weight_precisions` is cycled
    /// if shorter than the number of compute nodes.
    ///
    /// The layers draw, in that order, from one `StdRng` seeded with `seed`:
    /// each layer's values are
    /// [`synthetic_weights`](crate::synthetic::synthetic_weights) with the
    /// default weight distribution, decoded in bulk (see
    /// [`crate::synthetic`]).
    ///
    /// # Panics
    ///
    /// Panics if `weight_precisions` is empty.
    pub fn synthetic_for_graph(
        graph: &LayerGraph,
        weight_precisions: &[Precision],
        seed: u64,
    ) -> Self {
        assert!(
            !weight_precisions.is_empty(),
            "at least one weight precision is required"
        );
        let layers: Vec<_> = graph
            .compute_layers()
            .map(|(name, kind)| (name, kind.weight_shape()))
            .collect();
        let tensors: Vec<_> = layers
            .iter()
            .zip(weight_precisions.iter().cycle())
            .map(|(&(_, shape), &precision)| (shape.len(), precision))
            .collect();
        let weights = layers
            .into_iter()
            .zip(seeded_weight_tensors(seed, &tensors))
            .map(|((name, shape), values)| LayerWeights {
                layer_name: name.to_string(),
                tensor: Tensor4::from_vec(shape, values).expect("one value per weight"),
            })
            .collect();
        NetworkParams { weights }
    }

    /// Per-layer weights in network (compute-layer) order.
    pub fn layers(&self) -> &[LayerWeights] {
        &self.weights
    }

    /// Looks up the weights of a layer by name.
    pub fn for_layer(&self, name: &str) -> Option<&LayerWeights> {
        self.weights.iter().find(|w| w.layer_name == name)
    }
}

/// The recorded activations of one layer during a forward pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTrace {
    /// Layer name.
    pub layer_name: String,
    /// Input activations the layer consumed (flattened).
    pub inputs: Vec<i32>,
    /// Wide accumulator outputs before re-quantization (compute layers only).
    pub accumulators: Vec<i64>,
    /// Quantized output activations after re-quantization and ReLU.
    pub outputs: Vec<i32>,
    /// Right-shift applied when re-quantizing the accumulators.
    pub requant_shift: u8,
}

/// The complete record of a forward pass: one [`LayerTrace`] per layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferenceTrace {
    /// Per-layer traces in execution order.
    pub layers: Vec<LayerTrace>,
}

impl InferenceTrace {
    /// The final layer's quantized outputs (the network's prediction vector).
    pub fn final_outputs(&self) -> &[i32] {
        self.layers
            .last()
            .map(|l| l.outputs.as_slice())
            .unwrap_or(&[])
    }

    /// The final layer's wide accumulators, used as the fidelity reference by
    /// the precision profiler.
    pub fn final_accumulators(&self) -> &[i64] {
        self.layers
            .last()
            .map(|l| l.accumulators.as_slice())
            .unwrap_or(&[])
    }

    /// Looks up the trace of a layer by name.
    pub fn for_layer(&self, name: &str) -> Option<&LayerTrace> {
        self.layers.iter().find(|l| l.layer_name == name)
    }
}

/// Options controlling the forward pass. ReLU follows every compute layer
/// unconditionally: the evaluated networks all use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferenceOptions {
    /// Precision the re-quantized activations are clamped to between layers.
    pub activation_precision: Precision,
}

impl Default for InferenceOptions {
    fn default() -> Self {
        InferenceOptions {
            activation_precision: Precision::FULL,
        }
    }
}

/// Runs a forward pass of `network` over `input` using `params`.
///
/// # Errors
///
/// Returns [`InferenceError::ShapeMismatch`] if the layers do not chain, or
/// [`InferenceError::Empty`] for an empty network.
pub fn run_chain(
    network: &Network,
    params: &NetworkParams,
    input: &Tensor3,
    options: InferenceOptions,
) -> Result<InferenceTrace, InferenceError> {
    run_chain_with_precisions(network, params, input, options, &[])
}

/// Runs a forward pass like [`run_chain`], additionally clamping the *input*
/// activations of the `j`-th compute layer to `compute_layer_precisions[j]`
/// before it executes. This is the knob the precision profiler turns when it
/// searches for the smallest per-layer activation precisions (Judd et al.).
///
/// Layers beyond the end of the slice run at full precision.
///
/// # Errors
///
/// Returns [`InferenceError::ShapeMismatch`] if the layers do not chain, or
/// [`InferenceError::Empty`] for an empty network.
pub fn run_chain_with_precisions(
    network: &Network,
    params: &NetworkParams,
    input: &Tensor3,
    options: InferenceOptions,
    compute_layer_precisions: &[Precision],
) -> Result<InferenceTrace, InferenceError> {
    LayerGraph::from_network(network).run_with_precisions(
        params,
        input,
        options,
        compute_layer_precisions,
    )
}

/// Runs a forward pass over every input in `inputs`, in order. Each item is
/// an independent pass, so a batch of N is bit-identical to N calls of
/// [`run_chain`]; see the [module example](self) for usage. The parallel
/// batched engine in `loom-sim` produces the same traces from the bit-serial
/// datapath.
///
/// # Errors
///
/// Propagates the first per-input error, as [`run_chain`] would.
pub fn run_batch(
    network: &Network,
    params: &NetworkParams,
    inputs: &[Tensor3],
    options: InferenceOptions,
) -> Result<Vec<InferenceTrace>, InferenceError> {
    LayerGraph::from_network(network).run_batch(params, inputs, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvSpec, FcSpec, PoolSpec};
    use crate::network::NetworkBuilder;
    use crate::synthetic::{synthetic_activations, synthetic_weights, ValueDistribution};
    use crate::tensor::Shape3;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net() -> Network {
        NetworkBuilder::new("small")
            .conv("conv1", ConvSpec::simple(2, 8, 8, 4, 3))
            .max_pool("pool1", PoolSpec::new(4, 6, 6, 2, 2))
            .conv("conv2", ConvSpec::simple(4, 3, 3, 8, 3))
            .fully_connected("fc1", FcSpec::new(8, 5))
            .build()
            .unwrap()
    }

    fn small_input(seed: u64) -> Tensor3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = synthetic_activations(
            &mut rng,
            2 * 8 * 8,
            Precision::new(8).unwrap(),
            ValueDistribution::activations(),
        );
        Tensor3::from_vec(Shape3::new(2, 8, 8), values).unwrap()
    }

    #[test]
    fn chain_runs_end_to_end() {
        let net = small_net();
        let params = NetworkParams::synthetic(&net, &[Precision::new(8).unwrap()], 1);
        let trace = run_chain(&net, &params, &small_input(2), InferenceOptions::default()).unwrap();
        assert_eq!(trace.layers.len(), 4);
        assert_eq!(trace.final_outputs().len(), 5);
        // ReLU means no negative outputs anywhere.
        for layer in &trace.layers {
            assert!(
                layer.outputs.iter().all(|&v| v >= 0),
                "layer {}",
                layer.layer_name
            );
        }
    }

    #[test]
    fn chain_is_deterministic() {
        let net = small_net();
        let params = NetworkParams::synthetic(&net, &[Precision::new(8).unwrap()], 1);
        let a = run_chain(&net, &params, &small_input(2), InferenceOptions::default()).unwrap();
        let b = run_chain(&net, &params, &small_input(2), InferenceOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let net = NetworkBuilder::new("broken")
            .conv("conv1", ConvSpec::simple(2, 8, 8, 4, 3))
            .fully_connected("fc1", FcSpec::new(9999, 5))
            .build()
            .unwrap();
        let params = NetworkParams::synthetic(&net, &[Precision::new(8).unwrap()], 1);
        let err =
            run_chain(&net, &params, &small_input(2), InferenceOptions::default()).unwrap_err();
        match err {
            InferenceError::ShapeMismatch {
                layer, expected, ..
            } => {
                assert_eq!(layer, "fc1");
                assert_eq!(expected, 9999);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn lower_activation_precision_changes_outputs_but_keeps_range() {
        let net = small_net();
        let params = NetworkParams::synthetic(&net, &[Precision::new(8).unwrap()], 1);
        let opts = InferenceOptions {
            activation_precision: Precision::new(6).unwrap(),
        };
        let trace = run_chain(&net, &params, &small_input(2), opts).unwrap();
        for layer in &trace.layers {
            assert!(
                layer.outputs.iter().all(|&v| v <= 31),
                "layer {}",
                layer.layer_name
            );
        }
    }

    #[test]
    fn params_lookup_by_name() {
        let net = small_net();
        let params = NetworkParams::synthetic(&net, &[Precision::new(8).unwrap()], 1);
        assert!(params.for_layer("conv2").is_some());
        assert!(params.for_layer("nonexistent").is_none());
        assert_eq!(params.layers().len(), 3);
    }

    #[test]
    fn synthetic_for_graph_draws_layers_in_compute_order() {
        // Branching, so compute order is not declaration order; three
        // precisions cycle over the layers.
        let graph = crate::zoo::graphs::reduced_googlenet();
        let precisions = [8, 5, 16].map(|bits| Precision::new(bits).unwrap());
        let params = NetworkParams::synthetic_for_graph(&graph, &precisions, 77);
        let mut rng = StdRng::seed_from_u64(77);
        let layers: Vec<_> = graph.compute_layers().collect();
        assert_eq!(params.layers().len(), layers.len());
        for (idx, ((name, kind), got)) in layers.iter().zip(params.layers()).enumerate() {
            let expected = synthetic_weights(
                &mut rng,
                kind.weight_shape().len(),
                precisions[idx % precisions.len()],
                ValueDistribution::weights(),
            );
            assert_eq!(got.layer_name, *name);
            assert_eq!(got.values(), expected.as_slice(), "layer {name}");
        }
    }

    #[test]
    fn empty_network_is_rejected() {
        let net = NetworkBuilder::new("empty").build().unwrap();
        let params = NetworkParams::new(vec![]);
        let err =
            run_chain(&net, &params, &small_input(1), InferenceOptions::default()).unwrap_err();
        assert_eq!(err, InferenceError::Empty);
    }
}
