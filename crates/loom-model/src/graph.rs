//! Explicit layer graphs: the DAG form of a network, with branch and concat
//! nodes, topological scheduling, and one executor every path shares.
//!
//! A [`crate::network::Network`] is an ordered list of layers — enough for the
//! cycle models, which only need per-layer geometry, but not for *executing*
//! topologies that branch, like GoogLeNet's inception modules. A
//! [`LayerGraph`] generalises the chain: every node names the node(s) it reads
//! from, a [`Concat`](NodeOp::Concat) node merges parallel branches along the
//! channel dimension, and execution walks a topological schedule. There are
//! no per-edge buffers: each node's output lives once, in its entry of the
//! trace the run returns, and its consumers read it from there.
//!
//! Linear networks lift into graphs with [`LayerGraph::from_network`], which
//! is how [`crate::inference::run_chain`] is implemented; branching networks
//! are assembled with [`GraphBuilder`], naming each node's inputs (the
//! reserved name [`GRAPH_INPUT`] is the graph's input tensor):
//!
//! ```
//! use loom_model::graph::GraphBuilder;
//! use loom_model::layer::ConvSpec;
//!
//! // A miniature inception-style module: two parallel convolutions over the
//! // same stem, concatenated along channels.
//! let branch3 = ConvSpec {
//!     padding: 1,
//!     ..ConvSpec::simple(4, 4, 4, 2, 3)
//! };
//! let graph = GraphBuilder::new("tiny-inception")
//!     .conv("stem", "input", ConvSpec::simple(1, 6, 6, 4, 3))
//!     .conv("b1", "stem", ConvSpec::simple(4, 4, 4, 2, 1))
//!     .conv("b3", "stem", branch3)
//!     .concat("merge", &["b1", "b3"])
//!     .build()
//!     .unwrap();
//! assert_eq!(graph.nodes().len(), 4);
//! assert_eq!(graph.concat_nodes().count(), 1);
//! ```
//!
//! Execution ([`LayerGraph::run`], [`LayerGraph::run_batch`]) produces the
//! same [`crate::inference::InferenceTrace`] the chain executor always has;
//! the quantized inter-layer pipeline (re-quantization shift, ReLU, precision
//! clamps) is identical. The inner-product arithmetic is pluggable through
//! [`GraphCompute`], which is how the functional Loom engine in `loom-sim`
//! runs whole networks through the bit-serial datapath while sharing every
//! line of the scheduling and re-quantization logic with the golden model.

use crate::fixed::Precision;
use crate::inference::{
    InferenceError, InferenceOptions, InferenceTrace, LayerTrace, NetworkParams,
};
use crate::layer::{ConvSpec, FcSpec, LayerError, LayerKind, PoolSpec};
use crate::network::Network;
use crate::quant::{apply_precision, choose_requant_shift, requantize_relu};
use crate::reference::{conv_forward, fc_forward, max_pool_forward};
use crate::tensor::{Shape3, Shape4, Tensor3, Tensor4};
use std::collections::HashMap;
use std::fmt;

/// Reserved source name referring to the graph's input tensor.
pub const GRAPH_INPUT: &str = "input";

/// Where a node reads a tensor from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The graph's input tensor.
    Input,
    /// The output of another node, by index into [`LayerGraph::nodes`].
    Node(usize),
}

/// What a graph node computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeOp {
    /// A network layer (convolution, fully-connected, or max-pooling).
    Layer(LayerKind),
    /// Channel-wise concatenation of two or more branches with equal spatial
    /// dimensions (the merge at the end of an inception module).
    Concat,
}

/// One node of a [`LayerGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphNode {
    /// Unique node name (e.g. `inception_3a/3x3`).
    pub name: String,
    /// The operation the node performs.
    pub op: NodeOp,
    /// The tensors the node consumes, in order (concatenation order for
    /// [`NodeOp::Concat`] nodes).
    pub sources: Vec<Source>,
}

/// Error produced when assembling or scheduling a [`LayerGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Two nodes share a name.
    DuplicateNode(String),
    /// A node names itself after the reserved graph input.
    ReservedName,
    /// A node reads from a name no node defines.
    UnknownSource {
        /// Node whose source did not resolve.
        node: String,
        /// The unresolved source name.
        source: String,
    },
    /// The graph contains a dependency cycle.
    Cycle,
    /// The graph has more than one sink; execution needs a unique output.
    MultipleSinks(Vec<String>),
    /// A concat node has fewer than two inputs.
    ConcatArity(String),
    /// A layer's geometry is invalid.
    InvalidLayer(LayerError),
    /// A concat node's inputs disagree on spatial dimensions.
    ConcatShape {
        /// The concat node.
        node: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateNode(n) => write!(f, "duplicate node name {n}"),
            GraphError::ReservedName => {
                write!(f, "{GRAPH_INPUT:?} is reserved for the graph input")
            }
            GraphError::UnknownSource { node, source } => {
                write!(f, "node {node} reads from unknown source {source}")
            }
            GraphError::Cycle => write!(f, "the layer graph contains a cycle"),
            GraphError::MultipleSinks(sinks) => {
                write!(f, "graph has multiple sinks ({})", sinks.join(", "))
            }
            GraphError::ConcatArity(n) => {
                write!(f, "concat node {n} needs at least two inputs")
            }
            GraphError::InvalidLayer(e) => write!(f, "{e}"),
            GraphError::ConcatShape { node } => {
                write!(
                    f,
                    "concat node {node} inputs disagree on spatial dimensions"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl From<LayerError> for GraphError {
    fn from(e: LayerError) -> Self {
        GraphError::InvalidLayer(e)
    }
}

/// The inner-product arithmetic a graph execution uses for its compute
/// layers. The default is [`ReferenceCompute`] (the golden integer kernels);
/// the functional Loom engine in `loom-sim` supplies a bit-serial
/// implementation, so both paths share the scheduling, re-quantization, ReLU,
/// pooling and concatenation logic and any output difference is attributable
/// to the inner products alone.
///
/// Implementations return the layer's wide accumulators in the golden layout
/// (filter-major for convolutions, output order for fully-connected layers)
/// and may accumulate side information (the functional engine counts cycles).
pub trait GraphCompute {
    /// Computes a convolutional layer's accumulators.
    fn conv(
        &mut self,
        layer: &str,
        spec: &ConvSpec,
        input: &Tensor3,
        weights: &Tensor4,
    ) -> Vec<i64>;
    /// Computes a fully-connected layer's accumulators.
    fn fc(&mut self, layer: &str, spec: &FcSpec, input: &[i32], weights: &[i32]) -> Vec<i64>;

    /// Computes one convolutional layer for every batch item at once,
    /// returning one accumulator vector per item (in item order). The default
    /// simply loops [`GraphCompute::conv`]; backends that can amortise work
    /// across the batch — the functional engine packs the layer's weight
    /// planes once and fans (item × window-group) tasks over its worker pool
    /// — override it. Results must be identical to the per-item loop.
    fn conv_batch(
        &mut self,
        layer: &str,
        spec: &ConvSpec,
        inputs: &[Tensor3],
        weights: &Tensor4,
    ) -> Vec<Vec<i64>> {
        inputs
            .iter()
            .map(|input| self.conv(layer, spec, input, weights))
            .collect()
    }

    /// Computes one fully-connected layer for every batch item at once. The
    /// default loops [`GraphCompute::fc`]; the functional engine overrides it
    /// to pack each weight row once for the whole batch. Results must be
    /// identical to the per-item loop.
    fn fc_batch(
        &mut self,
        layer: &str,
        spec: &FcSpec,
        inputs: &[Vec<i32>],
        weights: &[i32],
    ) -> Vec<Vec<i64>> {
        inputs
            .iter()
            .map(|input| self.fc(layer, spec, input, weights))
            .collect()
    }
}

/// The golden integer kernels as a [`GraphCompute`] backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceCompute;

impl GraphCompute for ReferenceCompute {
    fn conv(
        &mut self,
        _layer: &str,
        spec: &ConvSpec,
        input: &Tensor3,
        weights: &Tensor4,
    ) -> Vec<i64> {
        conv_forward(spec, input, weights)
    }

    fn fc(&mut self, _layer: &str, spec: &FcSpec, input: &[i32], weights: &[i32]) -> Vec<i64> {
        fc_forward(spec, input, weights)
    }
}

/// A validated, schedulable layer DAG.
///
/// Construct with [`GraphBuilder`] or lift a linear [`Network`] with
/// [`LayerGraph::from_network`]; execute with [`LayerGraph::run`] /
/// [`LayerGraph::run_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerGraph {
    name: String,
    nodes: Vec<GraphNode>,
    /// Topological execution order (the unique sink is always last).
    schedule: Vec<usize>,
    /// Index of the output (sink) node.
    output: usize,
}

impl LayerGraph {
    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes, in builder order.
    pub fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// The topological execution order (indices into [`LayerGraph::nodes`]).
    pub fn schedule(&self) -> &[usize] {
        &self.schedule
    }

    /// The output (sink) node.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty (an empty builder produces an empty
    /// graph, which has no sink).
    pub fn output_node(&self) -> &GraphNode {
        &self.nodes[self.output]
    }

    /// Looks up a node by name.
    pub fn node(&self, name: &str) -> Option<&GraphNode> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// The compute (conv + FC) nodes in execution order, as
    /// `(name, layer kind)` pairs. This order defines the positional weight
    /// layout [`NetworkParams::synthetic_for_graph`] generates.
    pub fn compute_layers(&self) -> impl Iterator<Item = (&str, &LayerKind)> {
        self.schedule.iter().filter_map(move |&i| {
            let node = &self.nodes[i];
            match &node.op {
                NodeOp::Layer(kind) if kind.is_compute() => Some((node.name.as_str(), kind)),
                _ => None,
            }
        })
    }

    /// The concat nodes, in builder order.
    pub fn concat_nodes(&self) -> impl Iterator<Item = &GraphNode> {
        self.nodes.iter().filter(|n| n.op == NodeOp::Concat)
    }

    /// The input tensor shape the graph expects: the declared input shape of
    /// the first scheduled node reading the graph input. `None` when the
    /// graph is empty or its entry layer is fully-connected (which consumes a
    /// flat vector).
    pub fn input_shape(&self) -> Option<Shape3> {
        self.schedule.iter().find_map(|&i| {
            let node = &self.nodes[i];
            if !node.sources.contains(&Source::Input) {
                return None;
            }
            match &node.op {
                NodeOp::Layer(LayerKind::Conv(c)) => Some(c.input_shape()),
                NodeOp::Layer(LayerKind::MaxPool(p)) => Some(p.input_shape()),
                _ => None,
            }
        })
    }

    /// The flat input length the graph expects: the element count of
    /// [`LayerGraph::input_shape`] for convolutional entries, or the entry
    /// layer's `in_features` for fully-connected entries (which consume a
    /// flat vector and have no canonical 3-D shape). `None` for empty graphs.
    pub fn input_len(&self) -> Option<usize> {
        if let Some(shape) = self.input_shape() {
            return Some(shape.len());
        }
        self.schedule.iter().find_map(|&i| {
            let node = &self.nodes[i];
            if !node.sources.contains(&Source::Input) {
                return None;
            }
            match &node.op {
                NodeOp::Layer(LayerKind::FullyConnected(f)) => Some(f.in_features),
                _ => None,
            }
        })
    }

    /// Total multiply-accumulate operations over all layer nodes.
    pub fn total_macs(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match &n.op {
                NodeOp::Layer(kind) => kind.macs(),
                NodeOp::Concat => 0,
            })
            .sum()
    }

    /// Lifts a linear [`Network`] into a graph: each layer reads the previous
    /// one (the first reads the graph input). Never fails — the network's
    /// layers were validated at construction, and the chain shape checks stay
    /// where they always were, at execution time.
    pub fn from_network(network: &Network) -> Self {
        let nodes: Vec<GraphNode> = network
            .layers()
            .iter()
            .enumerate()
            .map(|(i, layer)| GraphNode {
                name: layer.name.clone(),
                op: NodeOp::Layer(layer.kind),
                sources: vec![if i == 0 {
                    Source::Input
                } else {
                    Source::Node(i - 1)
                }],
            })
            .collect();
        let output = nodes.len().saturating_sub(1);
        LayerGraph {
            name: network.name().to_string(),
            schedule: (0..nodes.len()).collect(),
            nodes,
            output,
        }
    }

    /// Runs a quantized forward pass with the golden reference kernels.
    ///
    /// # Errors
    ///
    /// Returns [`InferenceError::ShapeMismatch`] if a node's input does not
    /// match its declared geometry, [`InferenceError::Empty`] for an empty
    /// graph, or [`InferenceError::Graph`] if concatenated branches disagree
    /// on spatial dimensions.
    pub fn run(
        &self,
        params: &NetworkParams,
        input: &Tensor3,
        options: InferenceOptions,
    ) -> Result<InferenceTrace, InferenceError> {
        self.run_with(params, input, options, &[], &mut ReferenceCompute)
    }

    /// Runs a forward pass over every input in `inputs`. The traces are
    /// independent — running a batch of N is bit-identical to N runs of
    /// batch 1 — but the walk is *lock-step*: each node executes for the
    /// whole batch before the schedule advances, so a batching backend sees
    /// every item's input to a layer in one [`GraphCompute::conv_batch`] /
    /// [`GraphCompute::fc_batch`] call.
    ///
    /// # Errors
    ///
    /// Propagates the first error in (schedule, item) order, as
    /// [`LayerGraph::run`] would report it for the offending item.
    pub fn run_batch(
        &self,
        params: &NetworkParams,
        inputs: &[Tensor3],
        options: InferenceOptions,
    ) -> Result<Vec<InferenceTrace>, InferenceError> {
        self.run_batch_with(params, inputs, options, &[], &mut ReferenceCompute)
    }

    /// Runs a forward pass like [`LayerGraph::run`], additionally clamping the
    /// input of the `j`-th compute node (in execution order) to
    /// `compute_precisions[j]` — the knob the precision profiler turns. The
    /// clamp is local to the consuming node: sibling branches reading the same
    /// tensor see the unclamped values.
    ///
    /// # Errors
    ///
    /// As [`LayerGraph::run`].
    pub fn run_with_precisions(
        &self,
        params: &NetworkParams,
        input: &Tensor3,
        options: InferenceOptions,
        compute_precisions: &[Precision],
    ) -> Result<InferenceTrace, InferenceError> {
        self.run_with(
            params,
            input,
            options,
            compute_precisions,
            &mut ReferenceCompute,
        )
    }

    /// Runs a forward pass with a caller-supplied [`GraphCompute`] backend.
    /// This is the single executor every path shares: topological order,
    /// sources read from the trace, per-layer re-quantization
    /// (`choose_requant_shift` on the backend's accumulators), ReLU after
    /// every compute layer (the evaluated networks all use it), pooling and
    /// concatenation.
    ///
    /// Weights are taken positionally from `params` in compute-node execution
    /// order (the order [`LayerGraph::compute_layers`] yields).
    ///
    /// # Errors
    ///
    /// As [`LayerGraph::run`].
    ///
    /// # Panics
    ///
    /// Panics if `params` holds fewer weight sets than the graph has compute
    /// nodes, or if a fully-connected weight set has the wrong length.
    pub fn run_with(
        &self,
        params: &NetworkParams,
        input: &Tensor3,
        options: InferenceOptions,
        compute_precisions: &[Precision],
        backend: &mut dyn GraphCompute,
    ) -> Result<InferenceTrace, InferenceError> {
        Ok(self
            .run_batch_with(
                params,
                std::slice::from_ref(input),
                options,
                compute_precisions,
                backend,
            )?
            .pop()
            .expect("one trace per input"))
    }

    /// The batched form of [`LayerGraph::run_with`] — and the single executor
    /// every path is built on. The schedule is walked once, *lock-step*
    /// across the batch: each compute node receives every item's input in one
    /// [`GraphCompute::conv_batch`] / [`GraphCompute::fc_batch`] call, which
    /// is what lets a backend pack a layer's weight planes once for the whole
    /// batch and fan fine-grained (item × window-group) tasks over a worker
    /// pool. Per-item results are bit-identical to `inputs.len()` single
    /// runs.
    ///
    /// Nothing is held twice. A node's output lives only in its trace entry
    /// ([`LayerTrace::outputs`]), and every consumer reads it from there. A
    /// conv or pool node copies its input once, into the tensor it hands on,
    /// which then becomes the trace's `inputs`. The weights are the
    /// [`NetworkParams`] tensors themselves, borrowed. Each compute node's
    /// accumulators are re-quantized (`choose_requant_shift`) and rectified
    /// (ReLU after every compute layer: the evaluated networks all use it) in
    /// one pass.
    ///
    /// `compute_precisions` clamps the input of the `j`-th compute node (in
    /// execution order) for every item, as
    /// [`LayerGraph::run_with_precisions`] describes.
    ///
    /// # Errors
    ///
    /// The first error in (schedule, item) order, as [`LayerGraph::run`]. A
    /// weight tensor whose shape is not the layer's is a
    /// [`InferenceError::ShapeMismatch`] too.
    ///
    /// # Panics
    ///
    /// Panics if `params` holds fewer weight sets than the graph has compute
    /// nodes.
    pub fn run_batch_with(
        &self,
        params: &NetworkParams,
        inputs: &[Tensor3],
        options: InferenceOptions,
        compute_precisions: &[Precision],
        backend: &mut dyn GraphCompute,
    ) -> Result<Vec<InferenceTrace>, InferenceError> {
        if self.nodes.is_empty() {
            return Err(InferenceError::Empty);
        }
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        // Every item's trace is pushed in schedule order, so a node's entry
        // sits at its schedule position.
        let mut position = vec![0usize; self.nodes.len()];
        for (pos, &idx) in self.schedule.iter().enumerate() {
            position[idx] = pos;
        }
        let mut traces: Vec<Vec<LayerTrace>> = inputs
            .iter()
            .map(|_| Vec::with_capacity(self.nodes.len()))
            .collect();
        let mut compute_idx = 0usize;
        let precision = options.activation_precision;

        for &idx in &self.schedule {
            let node = &self.nodes[idx];
            let source = node.sources[0];
            match &node.op {
                NodeOp::Layer(LayerKind::Conv(spec)) => {
                    spec.validate()?;
                    let weights = layer_weights(node, params, compute_idx, spec.weight_shape())?;
                    let clamp = compute_precisions.get(compute_idx).copied();
                    compute_idx += 1;
                    let tensors = (0..traces.len())
                        .map(|item| {
                            let values = read(inputs, &traces[item], &position, item, source);
                            Tensor3::from_vec(spec.input_shape(), clamped(values, clamp)).map_err(
                                |_| shape_mismatch(node, values.len(), spec.input_shape().len()),
                            )
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    let accs = backend.conv_batch(&node.name, spec, &tensors, weights);
                    for ((trace, input), acc) in traces.iter_mut().zip(tensors).zip(accs) {
                        trace.push(compute_trace(&node.name, input.into_vec(), acc, precision));
                    }
                }
                NodeOp::Layer(LayerKind::FullyConnected(spec)) => {
                    spec.validate()?;
                    let weights = layer_weights(node, params, compute_idx, spec.weight_shape())?;
                    let clamp = compute_precisions.get(compute_idx).copied();
                    compute_idx += 1;
                    let values = (0..traces.len())
                        .map(|item| {
                            let values = read(inputs, &traces[item], &position, item, source);
                            if values.len() == spec.in_features {
                                Ok(clamped(values, clamp))
                            } else {
                                Err(shape_mismatch(node, values.len(), spec.in_features))
                            }
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    let accs = backend.fc_batch(&node.name, spec, &values, weights.as_slice());
                    for ((trace, input), acc) in traces.iter_mut().zip(values).zip(accs) {
                        trace.push(compute_trace(&node.name, input, acc, precision));
                    }
                }
                NodeOp::Layer(LayerKind::MaxPool(spec)) => {
                    for (item, trace) in traces.iter_mut().enumerate() {
                        let values = read(inputs, trace, &position, item, source);
                        let input = Tensor3::from_vec(spec.input_shape(), values.to_vec())
                            .map_err(|_| {
                                shape_mismatch(node, values.len(), spec.input_shape().len())
                            })?;
                        let outputs = max_pool_forward(spec, &input).into_vec();
                        trace.push(LayerTrace {
                            layer_name: node.name.clone(),
                            inputs: input.into_vec(),
                            accumulators: Vec::new(),
                            outputs,
                            requant_shift: 0,
                        });
                    }
                }
                NodeOp::Concat => {
                    for (item, trace) in traces.iter_mut().enumerate() {
                        let first = self.source_shape(&inputs[item], source);
                        if node.sources.iter().any(|&s| {
                            let shape = self.source_shape(&inputs[item], s);
                            (shape.h, shape.w) != (first.h, first.w)
                        }) {
                            return Err(InferenceError::Graph(GraphError::ConcatShape {
                                node: node.name.clone(),
                            }));
                        }
                        let parts: Vec<&[i32]> = node
                            .sources
                            .iter()
                            .map(|&s| read(inputs, trace, &position, item, s))
                            .collect();
                        let outputs = parts.concat();
                        // Concat moves no values through the datapath; its
                        // trace records the merged tensor as outputs and
                        // leaves inputs empty rather than duplicating every
                        // branch.
                        trace.push(LayerTrace {
                            layer_name: node.name.clone(),
                            inputs: Vec::new(),
                            accumulators: Vec::new(),
                            outputs,
                            requant_shift: 0,
                        });
                    }
                }
            }
        }
        Ok(traces
            .into_iter()
            .map(|layers| InferenceTrace { layers })
            .collect())
    }

    /// The shape of `source` for an item whose graph input is `input`.
    fn source_shape(&self, input: &Tensor3, source: Source) -> Shape3 {
        let Source::Node(i) = source else {
            return input.shape();
        };
        let node = &self.nodes[i];
        match &node.op {
            NodeOp::Layer(LayerKind::Conv(spec)) => spec.output_shape(),
            NodeOp::Layer(LayerKind::FullyConnected(spec)) => Shape3::new(spec.out_features, 1, 1),
            NodeOp::Layer(LayerKind::MaxPool(spec)) => spec.output_shape(),
            NodeOp::Concat => {
                let first = self.source_shape(input, node.sources[0]);
                let channels = node
                    .sources
                    .iter()
                    .map(|&s| self.source_shape(input, s).c)
                    .sum();
                Shape3::new(channels, first.h, first.w)
            }
        }
    }
}

/// One item's values of `source`: the graph input, or a node's outputs as
/// the item's trace holds them (`position` maps a node to its entry).
fn read<'a>(
    inputs: &'a [Tensor3],
    trace: &'a [LayerTrace],
    position: &[usize],
    item: usize,
    source: Source,
) -> &'a [i32] {
    match source {
        Source::Input => inputs[item].as_slice(),
        Source::Node(i) => &trace[position[i]].outputs,
    }
}

/// The weight tensor of the `compute_idx`-th compute node, checked against
/// the shape its layer needs.
fn layer_weights<'p>(
    node: &GraphNode,
    params: &'p NetworkParams,
    compute_idx: usize,
    shape: Shape4,
) -> Result<&'p Tensor4, InferenceError> {
    let weights = &params.layers()[compute_idx].tensor;
    if weights.shape() == shape {
        Ok(weights)
    } else {
        Err(shape_mismatch(node, weights.len(), shape.len()))
    }
}

/// A node input's copy, clamped to the node's precision when it has one.
fn clamped(values: &[i32], clamp: Option<Precision>) -> Vec<i32> {
    match clamp {
        Some(p) => apply_precision(values, p),
        None => values.to_vec(),
    }
}

fn shape_mismatch(node: &GraphNode, produced: usize, expected: usize) -> InferenceError {
    InferenceError::ShapeMismatch {
        layer: node.name.clone(),
        produced,
        expected,
    }
}

/// A compute node's trace entry: its accumulators re-quantized to
/// `precision` and rectified in one pass.
fn compute_trace(
    name: &str,
    inputs: Vec<i32>,
    accumulators: Vec<i64>,
    precision: Precision,
) -> LayerTrace {
    let shift = choose_requant_shift(&accumulators, precision);
    LayerTrace {
        layer_name: name.to_string(),
        inputs,
        outputs: requantize_relu(&accumulators, shift, precision),
        accumulators,
        requant_shift: shift,
    }
}

impl fmt::Display for LayerGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} nodes, {:.2} GMACs)",
            self.name,
            self.nodes.len(),
            self.total_macs() as f64 / 1e9
        )
    }
}

/// Incrementally assembles a [`LayerGraph`], naming every node's sources.
///
/// See the [module documentation](self) for a complete example.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    name: String,
    nodes: Vec<(String, NodeOp, Vec<String>)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    fn push(mut self, name: impl Into<String>, op: NodeOp, sources: Vec<String>) -> Self {
        self.nodes.push((name.into(), op, sources));
        self
    }

    /// Adds a convolutional node reading from `source`.
    pub fn conv(self, name: impl Into<String>, source: &str, spec: ConvSpec) -> Self {
        self.push(
            name,
            NodeOp::Layer(LayerKind::Conv(spec)),
            vec![source.into()],
        )
    }

    /// Adds a fully-connected node reading from `source` (the source tensor
    /// is consumed flattened).
    pub fn fully_connected(self, name: impl Into<String>, source: &str, spec: FcSpec) -> Self {
        self.push(
            name,
            NodeOp::Layer(LayerKind::FullyConnected(spec)),
            vec![source.into()],
        )
    }

    /// Adds a max-pooling node reading from `source`.
    pub fn max_pool(self, name: impl Into<String>, source: &str, spec: PoolSpec) -> Self {
        self.push(
            name,
            NodeOp::Layer(LayerKind::MaxPool(spec)),
            vec![source.into()],
        )
    }

    /// Adds a channel-wise concatenation of two or more named branches.
    pub fn concat(self, name: impl Into<String>, sources: &[&str]) -> Self {
        self.push(
            name,
            NodeOp::Concat,
            sources.iter().map(|s| s.to_string()).collect(),
        )
    }

    /// Resolves names, validates layer geometry, checks for cycles, and
    /// computes the topological schedule. The graph must have exactly one
    /// sink (a node nothing reads from), which becomes the output.
    ///
    /// An empty builder produces an empty graph, which [`LayerGraph::run`]
    /// rejects with [`InferenceError::Empty`] — matching the chain executor.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] for duplicate or reserved node names,
    /// unresolved sources, concat nodes with fewer than two inputs, invalid
    /// layer geometry, dependency cycles, or multiple sinks.
    pub fn build(self) -> Result<LayerGraph, GraphError> {
        let mut index: HashMap<&str, usize> = HashMap::with_capacity(self.nodes.len());
        for (i, (name, _, _)) in self.nodes.iter().enumerate() {
            if name == GRAPH_INPUT {
                return Err(GraphError::ReservedName);
            }
            if index.insert(name.as_str(), i).is_some() {
                return Err(GraphError::DuplicateNode(name.clone()));
            }
        }

        let mut nodes = Vec::with_capacity(self.nodes.len());
        for (name, op, sources) in &self.nodes {
            match op {
                NodeOp::Layer(LayerKind::Conv(spec)) => spec.validate()?,
                NodeOp::Layer(LayerKind::FullyConnected(spec)) => spec.validate()?,
                NodeOp::Layer(LayerKind::MaxPool(spec)) => spec.validate()?,
                NodeOp::Concat => {
                    if sources.len() < 2 {
                        return Err(GraphError::ConcatArity(name.clone()));
                    }
                }
            }
            let sources = sources
                .iter()
                .map(|s| {
                    if s == GRAPH_INPUT {
                        Ok(Source::Input)
                    } else {
                        index
                            .get(s.as_str())
                            .map(|&i| Source::Node(i))
                            .ok_or_else(|| GraphError::UnknownSource {
                                node: name.clone(),
                                source: s.clone(),
                            })
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            nodes.push(GraphNode {
                name: name.clone(),
                op: op.clone(),
                sources,
            });
        }

        if nodes.is_empty() {
            return Ok(LayerGraph {
                name: self.name,
                nodes,
                schedule: Vec::new(),
                output: 0,
            });
        }

        // Kahn's algorithm with lowest-index tie-breaking: deterministic, and
        // a builder listed in dependency order schedules in builder order.
        let mut indegree = vec![0usize; nodes.len()];
        let mut consumers = vec![0usize; nodes.len()];
        for node in &nodes {
            for source in &node.sources {
                if let Source::Node(i) = source {
                    consumers[*i] += 1;
                }
            }
        }
        for (i, node) in nodes.iter().enumerate() {
            indegree[i] = node
                .sources
                .iter()
                .filter(|s| matches!(s, Source::Node(_)))
                .count();
        }
        let mut schedule = Vec::with_capacity(nodes.len());
        let mut ready: Vec<bool> = indegree.iter().map(|&d| d == 0).collect();
        while schedule.len() < nodes.len() {
            let Some(next) = ready.iter().position(|&r| r) else {
                return Err(GraphError::Cycle);
            };
            ready[next] = false;
            schedule.push(next);
            for (i, node) in nodes.iter().enumerate() {
                for source in &node.sources {
                    if *source == Source::Node(next) {
                        indegree[i] -= 1;
                        if indegree[i] == 0 {
                            ready[i] = true;
                        }
                    }
                }
            }
        }

        let sinks: Vec<usize> = (0..nodes.len()).filter(|&i| consumers[i] == 0).collect();
        let output = match sinks.as_slice() {
            [single] => *single,
            // No sink with nodes present means every node is consumed — a
            // cycle, caught above; multiple sinks are ambiguous.
            _ => {
                return Err(GraphError::MultipleSinks(
                    sinks.iter().map(|&i| nodes[i].name.clone()).collect(),
                ))
            }
        };

        Ok(LayerGraph {
            name: self.name,
            nodes,
            schedule,
            output,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvSpec, FcSpec, PoolSpec};
    use crate::network::NetworkBuilder;
    use crate::synthetic::{synthetic_activations, ValueDistribution};
    use crate::tensor::Shape3;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn branching() -> LayerGraph {
        // stem 2x6x6 -> 4x4x4, then a 1x1 and a padded 3x3 branch, merged.
        let b3 = ConvSpec {
            padding: 1,
            ..ConvSpec::simple(4, 4, 4, 3, 3)
        };
        GraphBuilder::new("fork")
            .conv("stem", GRAPH_INPUT, ConvSpec::simple(2, 6, 6, 4, 3))
            .conv("b1", "stem", ConvSpec::simple(4, 4, 4, 2, 1))
            .conv("b3", "stem", b3)
            .max_pool("bp", "stem", PoolSpec::new(4, 4, 4, 3, 1).with_padding(1))
            .concat("merge", &["b1", "b3", "bp"])
            .fully_connected("fc", "merge", FcSpec::new((2 + 3 + 4) * 16, 5))
            .build()
            .unwrap()
    }

    fn input(seed: u64) -> Tensor3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = synthetic_activations(
            &mut rng,
            2 * 6 * 6,
            Precision::new(7).unwrap(),
            ValueDistribution::activations(),
        );
        Tensor3::from_vec(Shape3::new(2, 6, 6), values).unwrap()
    }

    #[test]
    fn branching_graph_runs_and_concat_merges_channels() {
        let graph = branching();
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(6).unwrap()], 11);
        let trace = graph
            .run(&params, &input(3), InferenceOptions::default())
            .unwrap();
        assert_eq!(trace.layers.len(), 6);
        let merge = trace.for_layer("merge").unwrap();
        assert_eq!(merge.outputs.len(), (2 + 3 + 4) * 16);
        // Concatenation preserves branch order: the first 2*16 values are b1's.
        let b1 = trace.for_layer("b1").unwrap();
        assert_eq!(&merge.outputs[..b1.outputs.len()], b1.outputs.as_slice());
        assert_eq!(trace.final_outputs().len(), 5);
    }

    #[test]
    fn graph_execution_is_deterministic() {
        let graph = branching();
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(6).unwrap()], 11);
        let a = graph
            .run(&params, &input(3), InferenceOptions::default())
            .unwrap();
        let b = graph
            .run(&params, &input(3), InferenceOptions::default())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_network_matches_chain_semantics() {
        let net = NetworkBuilder::new("chain")
            .conv("c1", ConvSpec::simple(2, 8, 8, 4, 3))
            .max_pool("p1", PoolSpec::new(4, 6, 6, 2, 2))
            .fully_connected("f1", FcSpec::new(4 * 3 * 3, 7))
            .build()
            .unwrap();
        let graph = LayerGraph::from_network(&net);
        assert_eq!(graph.schedule(), &[0, 1, 2]);
        assert_eq!(graph.output_node().name, "f1");
        assert_eq!(graph.compute_layers().count(), 2);
        assert_eq!(graph.total_macs(), net.total_macs());
    }

    #[test]
    fn builder_rejects_structural_errors() {
        let spec = ConvSpec::simple(1, 4, 4, 1, 1);
        // Duplicate name.
        let err = GraphBuilder::new("g")
            .conv("a", GRAPH_INPUT, spec)
            .conv("a", GRAPH_INPUT, spec)
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::DuplicateNode("a".into()));
        // Unknown source.
        let err = GraphBuilder::new("g")
            .conv("a", "nope", spec)
            .build()
            .unwrap_err();
        assert!(matches!(err, GraphError::UnknownSource { .. }));
        // Reserved name.
        let err = GraphBuilder::new("g")
            .conv(GRAPH_INPUT, GRAPH_INPUT, spec)
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::ReservedName);
        // Cycle.
        let err = GraphBuilder::new("g")
            .conv("a", "b", spec)
            .conv("b", "a", spec)
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::Cycle);
        // Two sinks.
        let err = GraphBuilder::new("g")
            .conv("a", GRAPH_INPUT, spec)
            .conv("b", GRAPH_INPUT, spec)
            .build()
            .unwrap_err();
        assert!(matches!(err, GraphError::MultipleSinks(_)));
        // Single-input concat.
        let err = GraphBuilder::new("g")
            .conv("a", GRAPH_INPUT, spec)
            .concat("c", &["a"])
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::ConcatArity("c".into()));
        // Every error Display is non-empty.
        for e in [
            GraphError::Cycle,
            GraphError::ReservedName,
            GraphError::DuplicateNode("x".into()),
            GraphError::ConcatShape { node: "x".into() },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn concat_shape_mismatch_is_reported_at_execution() {
        // 1x1 branch keeps 4x4; unpadded 3x3 branch shrinks to 2x2.
        let graph = GraphBuilder::new("bad")
            .conv("stem", GRAPH_INPUT, ConvSpec::simple(2, 6, 6, 4, 3))
            .conv("b1", "stem", ConvSpec::simple(4, 4, 4, 2, 1))
            .conv("b3", "stem", ConvSpec::simple(4, 4, 4, 2, 3))
            .concat("merge", &["b1", "b3"])
            .build()
            .unwrap();
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(6).unwrap()], 1);
        let err = graph
            .run(&params, &input(3), InferenceOptions::default())
            .unwrap_err();
        assert!(matches!(
            err,
            InferenceError::Graph(GraphError::ConcatShape { .. })
        ));
    }

    #[test]
    fn buffers_are_freed_after_the_last_consumer() {
        // Structural proxy: executing a long chain must not error. The
        // executor keeps no per-edge buffers to free: every consumer reads
        // its source's outputs from the trace, the only copy there is.
        let net = NetworkBuilder::new("chain")
            .conv("c1", ConvSpec::simple(1, 8, 8, 2, 3))
            .conv("c2", ConvSpec::simple(2, 6, 6, 2, 3))
            .conv("c3", ConvSpec::simple(2, 4, 4, 2, 3))
            .build()
            .unwrap();
        let graph = LayerGraph::from_network(&net);
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(5).unwrap()], 2);
        let mut rng = StdRng::seed_from_u64(9);
        let values = synthetic_activations(
            &mut rng,
            64,
            Precision::new(7).unwrap(),
            ValueDistribution::activations(),
        );
        let input = Tensor3::from_vec(Shape3::new(1, 8, 8), values).unwrap();
        let trace = graph
            .run(&params, &input, InferenceOptions::default())
            .unwrap();
        assert_eq!(trace.layers.len(), 3);
    }

    #[test]
    fn a_weight_tensor_of_the_wrong_shape_is_a_shape_mismatch() {
        let graph = branching();
        let good = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(6).unwrap()], 11);
        let shapes = [
            // One filter short.
            Shape4::new(3, 4, 1, 1),
            // The right number of weights in the wrong shape.
            Shape4::new(4, 2, 1, 1),
        ];
        for shape in shapes {
            let mut layers = good.layers().to_vec();
            // `b1`, the second compute node: a 1x1 conv with weights 2x4x1x1.
            layers[1].tensor = Tensor4::zeros(shape);
            let err = graph
                .run(
                    &NetworkParams::new(layers),
                    &input(3),
                    InferenceOptions::default(),
                )
                .unwrap_err();
            assert_eq!(
                err,
                InferenceError::ShapeMismatch {
                    layer: "b1".into(),
                    produced: shape.len(),
                    expected: 8,
                }
            );
        }
        // A fully-connected layer's weights are checked the same way.
        let mut layers = good.layers().to_vec();
        let fc = layers.last_mut().unwrap();
        fc.tensor = Tensor4::zeros(Shape4::new(5, 9 * 16, 1, 2));
        let err = graph
            .run(
                &NetworkParams::new(layers),
                &input(3),
                InferenceOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, InferenceError::ShapeMismatch { layer, .. } if layer == "fc"));
    }

    #[test]
    fn batch_is_elementwise_runs() {
        let graph = branching();
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(6).unwrap()], 11);
        let inputs = [input(1), input(2), input(3)];
        let batch = graph
            .run_batch(&params, &inputs, InferenceOptions::default())
            .unwrap();
        assert_eq!(batch.len(), 3);
        for (i, one) in inputs.iter().enumerate() {
            let single = graph
                .run(&params, one, InferenceOptions::default())
                .unwrap();
            assert_eq!(batch[i], single);
        }
    }

    #[test]
    fn display_mentions_name_and_nodes() {
        let g = branching();
        let s = g.to_string();
        assert!(s.contains("fork") && s.contains("6 nodes"));
    }

    #[test]
    fn input_shape_reads_the_entry_node() {
        assert_eq!(branching().input_shape(), Some(Shape3::new(2, 6, 6)));
        let fc_first = GraphBuilder::new("flat")
            .fully_connected("fc", GRAPH_INPUT, FcSpec::new(8, 2))
            .build()
            .unwrap();
        assert_eq!(fc_first.input_shape(), None);
    }

    #[test]
    fn input_len_covers_both_entry_kinds() {
        assert_eq!(branching().input_len(), Some(2 * 6 * 6));
        let fc_first = GraphBuilder::new("flat")
            .fully_connected("fc", GRAPH_INPUT, FcSpec::new(8, 2))
            .build()
            .unwrap();
        assert_eq!(fc_first.input_len(), Some(8));
    }
}
